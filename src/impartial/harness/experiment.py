"""Bias-injection validation protocol with repeated k-fold splits.

Each repetition draws a fresh bias assignment (a fixed fraction of one
sensitive group gets its response shifted) and a fold permutation; every
configured estimator variant is trained on the biased training rows of
each fold and predicts the held-out rows. The held-out predictions are
pooled over folds, so each repetition yields one full-length prediction
vector per variant, scored against both the biased and the raw
responses; reported metrics are means over repetitions.

Covariate roles are re-assigned per variant to match each estimator's
worldview: the formal-equality variant treats every non-sensitive
covariate as legitimate, the substantive-equality ones treat them all as
suspect; such a re-assignment only moves block boundaries of the design
matrix. The dataset is assembled into that matrix once; every fold's
training and test designs are row slices of it, re-centered within the
fold. All randomness derives from one master seed via a 64-bit mix,
so results are reproducible bit for bit; repetitions are independent and
may run on a small thread pool (capped by the IMPARTIAL_THREADS
environment variable), reduced in deterministic order.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..data import Dataset, EncodedDesign, Schema, _groups, assemble, center, take_design
from ..errors import ContractError, DataError
from ..estimators import (
    Variant,
    as_all_legitimate,
    as_all_suspect,
    fit_total,
    predict,
    with_blackbox,
)
from ..metrics import discrimination_score, group_pair, impartiality_score, natural_mode, rmse
from .calders import fit_calders, predict_calders
from .trees import BaggedTrees, raw_features, require_count

METRIC_NAMES = ("rmse_biased", "rmse_raw", "ds", "is")

_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    """One splitmix64 step; the documented mixing function for seed derivation."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, repetition: int, fold: int) -> int:
    """Per-task seed: master XOR splitmix64(repetition, fold), mixed once more."""
    combined = _splitmix64(((repetition + 1) << 32) ^ (fold + 1))
    return _splitmix64((master & _MASK64) ^ combined)


# Reserved fold slots for per-repetition randomness not tied to one fold.
_BIAS_SLOT = 1 << 20
_PERM_SLOT = (1 << 20) + 1


@dataclass(frozen=True)
class BiasSpec:
    """Shift the response of an exact-count random subset of one group."""

    target_group_label: str
    fraction: float
    shift: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise ContractError(f"bias fraction must be in [0,1], got {self.fraction}")
        if not np.isfinite(self.shift):
            raise ContractError(f"bias shift must be finite, got {self.shift}")


@dataclass(frozen=True)
class ExperimentConfig:
    folds: int = 5
    repetitions: int = 20
    variants: tuple[Variant, ...] = (
        Variant.FULL,
        Variant.FEO,
        Variant.FSEO,
        Variant.CALDERS_BASELINE,
        Variant.MARGINAL,
    )
    master_seed: int = 0
    calders_bins: int = 5
    blackbox_trees: int = 50
    blackbox_depth: int = 8
    blackbox_min_leaf: int = 5

    def __post_init__(self):
        require_count("folds", self.folds, 2)
        for name in (
            "repetitions", "calders_bins", "blackbox_trees", "blackbox_depth", "blackbox_min_leaf"
        ):
            require_count(name, getattr(self, name), 1)
        if not self.variants:
            raise ContractError("no variants configured")


@dataclass(frozen=True)
class ValidationTable:
    """Mean metrics per variant across repetitions."""

    variants: tuple[str, ...]
    metrics: tuple[str, ...]
    values: dict[str, dict[str, float]]

    def to_text(self) -> str:
        width = max(12, *(len(v) + 2 for v in self.variants))
        header = "metric".ljust(12) + "".join(v.rjust(width) for v in self.variants)
        lines = [header]
        for m in self.metrics:
            row = m.ljust(12) + "".join(
                format(self.values[v][m], ".6g").rjust(width) for v in self.variants
            )
            lines.append(row)
        return "\n".join(lines) + "\n"

    def csv_rows(self) -> list[tuple[str, str, str]]:
        return [
            (v, m, format(self.values[v][m], ".17g"))
            for v in self.variants
            for m in self.metrics
        ]


def inject_bias(data: Dataset, schema: Schema, spec: BiasSpec) -> Dataset:
    """Response shift for round(fraction * group size) rows of the target group.

    Sampling is without replacement and deterministic under ``spec.seed``;
    fraction 0 returns the data unchanged.
    """
    name = schema.response.name
    response = data.columns[name]
    if not isinstance(response, np.ndarray):
        raise ContractError("bias injection needs a numeric response")
    shifted = _biased_response(response, spec, _groups(data, schema).rows())
    if shifted is response:
        return data
    return data.replace_column(name, shifted)


def _biased_response(
    response: np.ndarray, spec: BiasSpec, groups: dict[str, np.ndarray]
) -> np.ndarray:
    """``response`` shifted as ``inject_bias`` does, given the rows of each
    group (``Categorical.rows``); ``response`` itself when nothing is shifted."""
    if spec.target_group_label not in groups:
        raise DataError(
            f"unknown bias target group {spec.target_group_label!r}; "
            f"have {sorted(groups)}"
        )
    rows = groups[spec.target_group_label]
    count = int(np.floor(spec.fraction * rows.size + 0.5))
    if count == 0 or spec.shift == 0.0:
        return response
    rng = np.random.default_rng(spec.seed)
    chosen = rng.choice(rows, size=count, replace=False)
    shifted = response.copy()
    shifted[chosen] += spec.shift
    with np.errstate(over="ignore", invalid="ignore"):
        spread = np.sum((shifted - shifted.mean()) ** 2)
    if not np.isfinite(spread):
        raise DataError(
            f"bias shift {spec.shift:g} on group {spec.target_group_label!r} is too large: "
            "the shifted response's squared deviations overflow"
        )
    return shifted


def _as_declared(design: EncodedDesign) -> EncodedDesign:
    return design


def _role_view(variant: Variant):
    """The role re-assignment a variant is trained, predicted and scored under."""
    if variant is Variant.FEO:
        return as_all_legitimate
    if variant in (Variant.FSEO, Variant.CALDERS_BASELINE, Variant.BLACKBOX_CORRECTED):
        return as_all_suspect
    return _as_declared


def _fold_bounds(n: int, folds: int) -> np.ndarray:
    return np.linspace(0, n, folds + 1).astype(int)


def _run_repetition(
    raw: EncodedDesign,
    groups: dict[str, np.ndarray],
    config: ExperimentConfig,
    bias: BiasSpec | None,
    rep: int,
) -> tuple[np.ndarray, dict[str, np.ndarray], np.ndarray | None]:
    """One repetition: biased response, pooled held-out predictions per
    variant, and (when configured) pooled black-box raw predictions.

    ``raw`` is the whole dataset assembled once (``data.assemble``); each
    fold's training and test designs are row slices of it, re-centered.
    ``groups`` is ``raw.groups.rows()``, computed once per protocol.
    """
    n = raw.n_rows
    y_biased = raw.y
    if bias is not None:
        seeded = dataclasses.replace(
            bias, seed=derive_seed(config.master_seed, rep, _BIAS_SLOT)
        )
        y_biased = _biased_response(raw.y, seeded, groups)
    raw_biased = raw.replace(y=y_biased)
    perm = np.random.default_rng(
        derive_seed(config.master_seed, rep, _PERM_SLOT)
    ).permutation(n)
    bounds = _fold_bounds(n, config.folds)

    pooled = {v.value: np.zeros(n) for v in config.variants}
    bb_pooled = (
        np.zeros(n) if Variant.BLACKBOX_CORRECTED in config.variants else None
    )

    for fold in range(config.folds):
        test_idx = np.sort(perm[bounds[fold] : bounds[fold + 1]])
        train_idx = np.sort(
            np.concatenate([perm[: bounds[fold]], perm[bounds[fold + 1] :]])
        )
        enc_train = take_design(raw_biased, train_idx)
        enc_test = take_design(raw, test_idx)

        fits: dict = {}  # one total fit per role view, shared by its variants
        for variant in config.variants:
            view = _role_view(variant)
            test = view(enc_test)
            if variant is Variant.CALDERS_BASELINE:
                cfit = fit_calders(view(enc_train), bins=config.calders_bins)
                values = predict_calders(cfit, test)
            elif variant is Variant.BLACKBOX_CORRECTED:
                model = BaggedTrees(
                    n_trees=config.blackbox_trees,
                    max_depth=config.blackbox_depth,
                    min_leaf=config.blackbox_min_leaf,
                    seed=derive_seed(config.master_seed, rep, fold),
                ).fit(raw_features(enc_train), enc_train.y)
                bb_test = model.predict(raw_features(enc_test))
                fit = fit_total(
                    with_blackbox(view(enc_train), model.oob_train_predictions())
                )
                values = predict(fit, with_blackbox(test, bb_test), variant).values
                bb_pooled[test_idx] = bb_test
            else:
                if view not in fits:
                    fits[view] = fit_total(view(enc_train))
                values = predict(fits[view], test, variant).values
            pooled[variant.value][test_idx] = values

    return y_biased, pooled, bb_pooled


def kfold_validate(
    data: Dataset,
    schema: Schema,
    config: ExperimentConfig,
    bias: BiasSpec | None = None,
) -> ValidationTable:
    """Run the full protocol; returns repetition-averaged metrics.

    Per repetition and variant, the pooled held-out predictions are scored
    with: RMSE against the biased responses, RMSE against the raw
    responses, the group gap DS (a response-free quantity), and the
    impartiality score in the variant's own mode against the biased
    (training-distribution) responses.
    """
    if config.folds > data.n_rows:
        raise ContractError(
            f"{config.folds} folds exceed the {data.n_rows} available rows"
        )
    threads_text = os.environ.get("IMPARTIAL_THREADS", "1") or "1"
    try:
        threads = int(threads_text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ContractError(
            f"IMPARTIAL_THREADS must be an integer >= 1, got {threads_text!r}"
        )
    raw = assemble(data, schema)
    groups = raw.groups.rows()
    # By default the bias target is the positive group.
    target = bias.target_group_label if bias is not None else None
    pos_group, neg_group = group_pair(list(groups), target)
    enc_full = center(raw)
    roled = {
        view: view(enc_full) for view in set(map(_role_view, config.variants))
    }
    y_raw = enc_full.y

    def task(rep):
        return _run_repetition(raw, groups, config, bias, rep)

    reps = range(config.repetitions)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(task, reps))
    else:
        results = [task(rep) for rep in reps]

    sums = {v.value: {m: 0.0 for m in METRIC_NAMES} for v in config.variants}
    for y_biased, pooled, bb_pooled in results:  # repetition order
        for variant in config.variants:
            values = pooled[variant.value]
            design = roled[_role_view(variant)]
            if variant is Variant.BLACKBOX_CORRECTED:
                design = with_blackbox(design, bb_pooled)
            entry = sums[variant.value]
            entry["rmse_biased"] += rmse(values, y_biased)
            entry["rmse_raw"] += rmse(values, y_raw)
            entry["ds"] += discrimination_score(
                values, enc_full.groups, pos_group, neg_group
            )
            entry["is"] += impartiality_score(
                values, design, y_biased, natural_mode(variant)
            )
    count = config.repetitions
    means = {
        vname: {m: s / count for m, s in metric_sums.items()}
        for vname, metric_sums in sums.items()
    }
    return ValidationTable(
        variants=tuple(v.value for v in config.variants),
        metrics=METRIC_NAMES,
        values=means,
    )
