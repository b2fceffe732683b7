"""Scores for prediction sets: error, group gaps, and impartiality.

The impartiality score evaluates four sample-moment conditions on the
prediction residuals: the standardized residual mean, the residual
correlations with the legitimate and suspect blocks (each measured
against what the residual's correlation with the sensitive block would
explain), and the sensitive correlation of the prediction component not
explained by the legitimate block. Their absolute violations, summed and
divided by 1 + #covariates, give the score.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .data import EncodedDesign
from .errors import ContractError
from .linalg import r_factor, regress

VAR_GUARD = 1e-12


class ScoreMode(enum.Enum):
    """Which impartiality flavor to score against.

    FEO treats every non-sensitive covariate as legitimate (the suspect
    condition is vacuous); SEO treats every non-sensitive covariate as
    suspect (the legitimate condition is vacuous and the projection in the
    last condition degrades to the prediction mean).
    """

    FEO = "feo"
    SEO = "seo"


@dataclass(frozen=True)
class ConditionGaps:
    """Signed left-minus-right gaps of the four moment conditions."""

    residual_mean: float
    legitimate: np.ndarray
    suspect: np.ndarray
    projected: np.ndarray

    def total_abs(self) -> float:
        return (
            abs(self.residual_mean)
            + float(np.sum(np.abs(self.legitimate)))
            + float(np.sum(np.abs(self.suspect)))
            + float(np.sum(np.abs(self.projected)))
        )


@dataclass(frozen=True)
class MetricsReport:
    rmse: float
    rsse: float
    ds: float
    is_score: float
    is_mode: ScoreMode
    per_group_means: dict[str, float]
    n: int


@dataclass(frozen=True)
class ComparisonReport:
    """Per-row and aggregate differences (a - b) between two prediction sets."""

    per_row: np.ndarray
    mean_diff: float
    mean_abs_diff: float
    per_group_mean_diff: dict[str, float]


def rmse(predictions, truth) -> float:
    """Root mean squared error."""
    p, t = _aligned_pair(predictions, truth)
    return float(np.sqrt(np.mean((p - t) ** 2)))


def rsse(predictions, truth) -> float:
    """Root of the summed squared error (rsse**2 == n * rmse**2)."""
    p, t = _aligned_pair(predictions, truth)
    return float(np.sqrt(np.sum((p - t) ** 2)))


def _aligned_pair(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise ContractError(
            f"need equal-length 1-D vectors, got shapes {a.shape} and {b.shape}"
        )
    return a, b


def group_means(values, group_labels) -> dict[str, float]:
    v = np.asarray(values, dtype=float)
    if len(group_labels) != v.shape[0]:
        raise ContractError("group labels misaligned with values")
    out: dict[str, float] = {}
    labels = np.asarray(group_labels)
    for g in dict.fromkeys(group_labels):  # first-appearance order
        out[g] = float(v[labels == g].mean())
    return out


def discrimination_score(
    predictions, group_labels, positive_group: str, negative_group: str
) -> float:
    """Mean prediction over the positive group minus the negative group."""
    means = group_means(predictions, group_labels)
    for g in (positive_group, negative_group):
        if g not in means:
            raise ContractError(f"unknown group label {g!r}; have {sorted(means)}")
    return means[positive_group] - means[negative_group]


def _correlations(m: np.ndarray) -> np.ndarray:
    """Correlation matrix of the columns of m; a zero-variance column
    correlates 0 with every column."""
    sds = m.std(axis=0)
    ok = sds * sds > VAR_GUARD
    scale = np.where(ok, sds, 1.0)
    centered = m - m.mean(axis=0)
    cor = centered.T @ centered / m.shape[0] / np.outer(scale, scale)
    return np.where(np.outer(ok, ok), cor, 0.0)


def impartiality_conditions(
    predictions,
    residual_target,
    s: np.ndarray,
    x: np.ndarray,
    w: np.ndarray,
    s_labels: tuple[str, ...] = (),
) -> ConditionGaps:
    """Signed gaps of the four impartiality moment conditions.

    ``x`` and ``w`` are whatever the caller considers legitimate and
    suspect for scoring purposes; either may have zero columns. Constant
    columns contribute zero (their correlations are defined as 0); a
    constant or aliased sensitive block is an error.
    """
    yhat = np.asarray(predictions, dtype=float)
    target, yhat = _aligned_pair(residual_target, yhat)
    if s.shape[1] == 0:
        raise ContractError("impartiality conditions need a nonempty sensitive block")
    u = target - yhat
    (n, p_s), p_x = s.shape, x.shape[1]
    s_sds = s.std(axis=0)
    dead = [s_labels[j] if s_labels else str(j) for j in np.where(s_sds**2 <= VAR_GUARD)[0]]
    if dead:
        raise ContractError(f"sensitive column(s) {dead} are constant; Cor(s) is singular")

    # One R of [standardized S | 1 | X | yhat] gives the rank check of S
    # and eta, the residual of yhat on [1|X].
    m = np.column_stack([(s - s.mean(axis=0)) / s_sds, np.ones(n), x, yhat])
    r = r_factor(m)
    _, aliased = regress(r, slice(0, p_s), slice(0, 0), n)
    if aliased:
        names = sorted(s_labels[j] if s_labels else str(j) for j in aliased)
        raise ContractError(f"sensitive columns are aliased ({names}); Cor(s) is singular")
    legit = slice(p_s, p_s + 1 + p_x)
    eta = yhat - m[:, legit] @ regress(r, legit, [m.shape[1] - 1], n)[0][:, 0]

    # Correlations among the columns of [S | X | W | u | eta].
    cor = _correlations(np.column_stack([s, x, w, u, eta]))
    cs, cx, cw = slice(0, p_s), slice(p_s, p_s + p_x), slice(p_s + p_x, -2)
    t = np.linalg.solve(cor[cs, cs], cor[-2, cs])  # Cor(u,s) Cor(s)^-1
    su = u.std()
    lhs_mean = u.mean() / su if su * su > VAR_GUARD else 0.0
    return ConditionGaps(
        residual_mean=float(lhs_mean - t @ (s.mean(axis=0) / s_sds)),
        legitimate=cor[-2, cx] - t @ cor[cs, cx],
        suspect=cor[-2, cw] - t @ cor[cs, cw],
        projected=cor[-1, cs],
    )


def impartiality_score(
    predictions, design: EncodedDesign, residual_target, mode: ScoreMode
) -> float:
    """Normalized sum of absolute impartiality-condition violations.

    Always >= 0; exactly 0 only when every condition holds. The
    normalizer is 1 + (number of covariate columns), counting sensitive,
    legitimate, suspect, and black-box columns alike.
    """
    non_sensitive = design.z[:, design.index("xwb")]
    empty = non_sensitive[:, :0]
    if mode is ScoreMode.FEO:
        x_block, w_block = non_sensitive, empty
    elif mode is ScoreMode.SEO:
        x_block, w_block = empty, non_sensitive
    else:
        raise ContractError(f"unknown impartiality mode {mode!r}")
    gaps = impartiality_conditions(
        predictions, residual_target, design.s, x_block, w_block, design.s_labels
    )
    denom = 1 + design.s.shape[1] + non_sensitive.shape[1]
    return gaps.total_abs() / denom


def compare_estimators(a, b, group_labels) -> ComparisonReport:
    """Row, overall, and per-group differences between two prediction sets.

    Accepts either raw vectors or ImpartialPrediction objects. Swapping
    the operands negates every signed field.
    """
    va = np.asarray(getattr(a, "values", a), dtype=float)
    vb = np.asarray(getattr(b, "values", b), dtype=float)
    va, vb = _aligned_pair(va, vb)
    diff = va - vb
    return ComparisonReport(
        per_row=diff,
        mean_diff=float(diff.mean()),
        mean_abs_diff=float(np.abs(diff).mean()),
        per_group_mean_diff=group_means(diff, group_labels),
    )


def score_predictions(
    predictions,
    design: EncodedDesign,
    truth,
    mode: ScoreMode,
    positive_group: str | None = None,
    negative_group: str | None = None,
) -> MetricsReport:
    """Bundle RMSE/RSSE, the group gap, and the impartiality score.

    When the group pair is not given, a two-level sensitive attribute
    defaults to (second, first) in first-appearance order.
    """
    values = np.asarray(getattr(predictions, "values", predictions), dtype=float)
    if positive_group is None or negative_group is None:
        distinct = list(dict.fromkeys(design.s_group_labels))
        if len(distinct) != 2:
            raise ContractError(
                "positive/negative groups must be named when the data has "
                f"{len(distinct)} sensitive groups"
            )
        negative_group, positive_group = distinct
    return MetricsReport(
        rmse=rmse(values, truth),
        rsse=rsse(values, truth),
        ds=discrimination_score(
            values, design.s_group_labels, positive_group, negative_group
        ),
        is_score=impartiality_score(values, design, truth, mode),
        is_mode=mode,
        per_group_means=group_means(values, design.s_group_labels),
        n=values.shape[0],
    )
