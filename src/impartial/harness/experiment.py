"""Bias-injection validation protocol with repeated k-fold splits.

Each repetition draws a fresh bias assignment (a fixed fraction of one
sensitive group gets its response shifted) and a fold permutation; every
configured estimator variant is trained on the biased training rows of
each fold and predicts the held-out rows. The held-out predictions are
pooled over folds, so each repetition yields one full-length prediction
vector per variant, scored against both the biased and the raw
responses; reported metrics are means over repetitions.

Each fold's training rows are fitted once (``fit_total``), and each
least-squares variant predicts from that fit under its role view
(``VARIANTS``), which only moves block boundaries of the design matrix;
the black box's correction and the stratified baseline fit their own.
Held-out predictions are scored on the whole design under the feo view
for a variant whose view it is, else under the seo view
(``_score_view``), which the black box is corrected under too, so that
its correction removes group structure from every covariate. The dataset
is assembled into that matrix once; every fold's training and test
designs are row slices of it, re-centered within the fold, and the black
box reads the assembled rows themselves, the data as given. All
randomness derives from one master seed via a 64-bit mix, so results are
reproducible bit for bit, whatever the number of processes.

Repetitions run in batches of two phases. First a pool of forked
workers, one per CPU the process may use (``os.sched_getaffinity``) but
no more than there are bags, grows every black-box bag of the batch, one
task per (repetition, fold); a batch is one repetition per worker. A
worker reads the assembled rows, config and bias through fork, never
pickled, and redraws its fold. Then this process runs the batch's
least-squares and stratified fits and scores, repetition by repetition.
The phases never overlap, so no BLAS thread of this process competes
with the workers. With one CPU, no ``sched_getaffinity``, no black box
or in a daemonic process, each bag grows inline when it is read.
"""

from __future__ import annotations

import contextlib
import functools
import os
from dataclasses import dataclass

import numpy as np

from ..data import Dataset, RoleView, Schema, _groups, assemble, center, take_design
from ..errors import ContractError, DataError
from ..estimators import VARIANTS, Variant, fit_total, predict, with_blackbox
from ..metrics import discrimination_score, group_pair, impartiality_score, rmse
from .calders import fit_calders, predict_calders
from .trees import BaggedTrees, require_count

METRIC_NAMES = ("rmse_biased", "rmse_raw", "ds", "is")
# Quantile bins of the Calders baseline and the black box's least leaf weight.
CALDERS_BINS = 5
BLACKBOX_MIN_LEAF = 5

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
    blackbox_trees: int = 50
    blackbox_depth: int = 8

    def __post_init__(self):
        require_count("folds", self.folds, 2)
        for name in ("repetitions", "blackbox_trees", "blackbox_depth"):
            require_count(name, getattr(self, name), 1)
        if not self.variants:
            raise ContractError("no variants configured")
        unknown = [v for v in self.variants if not isinstance(v, Variant)]
        if unknown:
            raise ContractError(f"variant(s) {unknown} are not Variant members")
        repeated = sorted({v.value for v in self.variants if self.variants.count(v) > 1})
        if repeated:
            raise ContractError(f"variant(s) {repeated} configured more than once")


@dataclass(frozen=True)
class ValidationTable:
    """Mean metrics per variant across repetitions."""

    variants: tuple[str, ...]
    values: dict[str, dict[str, float]]

    def to_text(self) -> str:
        width = max(12, *(len(v) + 2 for v in self.variants))
        header = "metric".ljust(12) + "".join(v.rjust(width) for v in self.variants)
        rows = [
            m.ljust(12)
            + "".join(format(self.values[v][m], ".6g").rjust(width) for v in self.variants)
            for m in METRIC_NAMES
        ]
        return "\n".join([header, *rows]) + "\n"

    def csv_rows(self) -> list[tuple[str, str, str]]:
        return [
            (v, m, format(self.values[v][m], ".17g"))
            for v in self.variants
            for m in METRIC_NAMES
        ]


def inject_bias(data: Dataset, schema: Schema, spec: BiasSpec, seed: int = 0) -> Dataset:
    """Response shift for round(fraction * group size) rows of the target group.

    Sampling is without replacement and deterministic under ``seed``;
    fraction 0 returns the data unchanged.
    """
    name = schema.response.name
    response = data.columns[name]
    if not isinstance(response, np.ndarray):
        raise ContractError("bias injection needs a numeric response")
    shifted = _biased_response(response, spec, _groups(data, schema).rows(), seed)
    if shifted is response:
        return data
    return data.replace_column(name, shifted)


def _biased_response(
    response: np.ndarray, spec: BiasSpec, groups: dict[str, np.ndarray], seed: int
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
    rng = np.random.default_rng(seed)
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


def _score_view(variant: Variant) -> RoleView:
    """The view ``variant`` is scored under: its own if that is feo, else
    seo. The black box's correction trains under it too."""
    view = VARIANTS[variant][2]
    return view if view is RoleView.FEO else RoleView.SEO


def _split(inputs, rep: int) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """A repetition's biased response and its folds' sorted (train, test)
    rows. ``inputs`` is (raw, groups, config, bias); the draws derive from
    the seeds alone, so the caller and every worker draw the same."""
    raw, groups, config, bias = inputs
    y_biased = raw.y
    if bias is not None:
        y_biased = _biased_response(
            raw.y, bias, groups, derive_seed(config.master_seed, rep, _BIAS_SLOT)
        )
    rng = np.random.default_rng(derive_seed(config.master_seed, rep, _PERM_SLOT))
    perm = rng.permutation(raw.n_rows)
    bounds = np.linspace(0, raw.n_rows, config.folds + 1).astype(int)
    return y_biased, [
        (np.sort(np.concatenate([perm[:lo], perm[hi:]])), np.sort(perm[lo:hi]))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


_inputs = None  # set in each forked worker as it starts, never in the caller


def _share(inputs) -> None:
    global _inputs
    _inputs = inputs


def _grow_bag(rep: int, fold: int, inputs=None) -> tuple[np.ndarray, np.ndarray]:
    """One fold's black box, grown on the assembled rows: its out-of-bag
    training and held-out predictions. ``inputs`` defaults to the forked worker's."""
    inputs = inputs or _inputs
    raw, _, config, _ = inputs
    y_biased, folds = _split(inputs, rep)
    train_idx, test_idx = folds[fold]
    model = BaggedTrees(config.blackbox_trees, config.blackbox_depth, BLACKBOX_MIN_LEAF,
                        seed=derive_seed(config.master_seed, rep, fold))
    model.fit(raw.z[train_idx], y_biased[train_idx])
    return model.oob_train_predictions(), model.predict(raw.z[test_idx])


@contextlib.contextmanager
def _bag_source(inputs, workers: int):
    """Phase 1: yields ``grow(reps)``, the lookup (rep, fold) -> ``_grow_bag``'s
    outputs, each read once, which raises a bag's error. ``workers`` forked
    processes grow every bag of ``reps`` before ``grow`` returns; a daemonic
    process may have no children. The pool is shut down on every exit."""
    import multiprocessing

    if workers < 2 or multiprocessing.current_process().daemon:
        yield lambda reps: functools.partial(_grow_bag, inputs=inputs)
        return
    from concurrent.futures import ProcessPoolExecutor, wait

    folds = range(inputs[2].folds)  # inputs is (raw, groups, config, bias)
    pool = ProcessPoolExecutor(
        workers, multiprocessing.get_context("fork"), initializer=_share, initargs=(inputs,)
    )

    def grow(reps):
        bags = {(r, f): pool.submit(_grow_bag, r, f) for r in reps for f in folds}
        wait(bags.values())
        return lambda rep, fold: bags.pop((rep, fold)).result()

    try:
        yield grow
    finally:
        pool.shutdown(cancel_futures=True)


def _run_repetition(
    inputs, rep: int, bag
) -> tuple[np.ndarray, dict[str, np.ndarray], np.ndarray | None]:
    """Phase 2 of one repetition: biased response, pooled held-out
    predictions per variant, and (when configured) pooled black-box raw
    predictions, whose bags ``bag(rep, fold)`` gives."""
    raw, _, config, _ = inputs
    y_biased, folds = _split(inputs, rep)
    raw_biased = raw.replace(y=y_biased)

    pooled = {v.value: np.zeros(raw.n_rows) for v in config.variants}
    bb_pooled = np.zeros(raw.n_rows) if Variant.BLACKBOX_CORRECTED in config.variants else None

    for fold, (train_idx, test_idx) in enumerate(folds):
        enc_train = take_design(raw_biased, train_idx)
        enc_test = take_design(raw, test_idx)

        fit = None  # the one total fit of the fold, read under each variant's view
        for variant in config.variants:
            if variant is Variant.CALDERS_BASELINE:
                values = predict_calders(fit_calders(enc_train, bins=CALDERS_BINS), enc_test)
            elif variant is Variant.BLACKBOX_CORRECTED:
                view, (bb_train, bb_test) = _score_view(variant), bag(rep, fold)
                corrected = fit_total(with_blackbox(view(enc_train), bb_train))
                values = predict(corrected, with_blackbox(view(enc_test), bb_test), variant).values
                bb_pooled[test_idx] = bb_test
            else:
                fit = fit or fit_total(enc_train)
                values = predict(fit, enc_test, variant).values
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
    impartiality score in the variant's score view (``_score_view``)
    against the biased (training-distribution) responses.
    """
    if config.folds > data.n_rows:
        raise ContractError(
            f"{config.folds} folds exceed the {data.n_rows} available rows"
        )
    raw = assemble(data, schema)
    groups = raw.groups.rows()
    if len(groups) > 2:
        raise ContractError(f"validate needs two sensitive groups; the data has {len(groups)}")
    # By default the bias target is the positive group.
    target = bias.target_group_label if bias is not None else None
    pos_group, neg_group = group_pair(list(groups), target)
    enc_full = center(raw)
    y_raw = enc_full.y

    sums = {v.value: {m: 0.0 for m in METRIC_NAMES} for v in config.variants}
    inputs = (raw, groups, config, bias)
    tasks = config.repetitions * config.folds * (Variant.BLACKBOX_CORRECTED in config.variants)
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(tasks, len(affinity(0))) if affinity else 1
    batch = max(workers, 1)  # repetitions whose bags are held at once
    with _bag_source(inputs, workers) as grow:
        for rep in range(config.repetitions):
            if rep % batch == 0:
                bag = grow(range(rep, config.repetitions)[:batch])
            y_biased, pooled, bb_pooled = _run_repetition(inputs, rep, bag)
            for variant in config.variants:
                values = pooled[variant.value]
                design = enc_full
                if variant is Variant.BLACKBOX_CORRECTED:
                    design = with_blackbox(enc_full, bb_pooled)
                entry = sums[variant.value]
                entry["rmse_biased"] += rmse(values, y_biased)
                entry["rmse_raw"] += rmse(values, y_raw)
                entry["ds"] += discrimination_score(values, enc_full.groups, pos_group, neg_group)
                entry["is"] += impartiality_score(values, design, y_biased, _score_view(variant))
    count = config.repetitions
    means = {
        vname: {m: s / count for m, s in metric_sums.items()}
        for vname, metric_sums in sums.items()
    }
    return ValidationTable(variants=tuple(v.value for v in config.variants), values=means)
