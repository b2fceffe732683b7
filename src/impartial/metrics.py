"""Scores for prediction sets: error, group gaps, and impartiality.

The impartiality score evaluates four sample-moment conditions on the
prediction residuals: the standardized residual mean, the residual
correlations with the legitimate and suspect blocks (each measured
against what the residual's correlation with the sensitive block would
explain), and the sensitive correlation of the prediction component not
explained by the legitimate block. Their absolute violations, summed and
divided by 1 + #covariates, give the score. The conditions read the roles
of the design they are given, the black-box block as suspect; a
``RoleView`` gives another reading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Categorical, EncodedDesign, RoleView
from .errors import ContractError, DataError
from .linalg import r_factor, regress

VAR_GUARD = 1e-12


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
    is_mode: RoleView
    per_group_means: dict[str, float]
    n: int


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
    """Mean of ``values`` per group, in first-appearance order.

    ``group_labels`` is per-row labels or a Categorical (e.g. a design's
    ``groups``). Each mean is numpy's mean of the group's values in row
    order, so it does not depend on how the groups are coded.
    """
    v = np.asarray(values, dtype=float)
    if len(group_labels) != v.shape[0]:
        raise ContractError("group labels misaligned with values")
    if not isinstance(group_labels, Categorical):
        group_labels = Categorical.from_labels(group_labels)
    return {label: float(v[rows].mean()) for label, rows in group_labels.rows().items()}


def group_pair(
    labels, positive_group: str | None = None, negative_group: str | None = None
) -> tuple[str, str]:
    """The (positive, negative) groups of DS among the group ``labels``.

    Names given are kept. With two groups, a lone name is paired with the
    other group, and with no name the pair is (second, first).
    """
    if len(labels) == 1:  # "" is the one group when no column is sensitive
        only = (f"the data has only {labels[0]!r}" if labels[0]
                else "the schema declares no sensitive column")
        raise DataError(f"DS needs two sensitive groups; {only}")
    if positive_group is None or negative_group is None:
        if len(labels) != 2:
            raise ContractError(
                "positive/negative groups must be named when the data has "
                f"{len(labels)} sensitive groups"
            )
        first, second = labels
        if positive_group is None:
            positive_group = first if negative_group == second else second
        if negative_group is None:
            negative_group = first if positive_group == second else second
    return positive_group, negative_group


def discrimination_score(
    predictions, group_labels, positive_group: str, negative_group: str
) -> float:
    """Mean prediction over the positive group minus the negative group."""
    return _mean_gap(group_means(predictions, group_labels), positive_group, negative_group)


def _mean_gap(means: dict[str, float], positive_group: str, negative_group: str) -> float:
    for g in (positive_group, negative_group):
        if g not in means:
            raise ContractError(f"unknown group label {g!r}; have {sorted(means)}")
    if positive_group == negative_group:
        raise ContractError(f"DS compares two groups; both are {positive_group!r}")
    return means[positive_group] - means[negative_group]


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

    ``s``, ``x`` and ``w`` must be centered, as every caller in the
    package passes them (the columns of an encoded design). The
    residual-mean gap reads S's own mean, so raw 0/1 indicators make it
    read far from 0 for an impartial prediction. An uncentered X or W
    column whose mean is L times its spread loses about log10(L) digits,
    since the QR of [1|X] rounds relative to the uncentered column norms:
    a median of 5e-11 relative at L = 1e6.

    Every condition is a function of one R factor of [1|S|X|W|u|yhat]
    (u the residual): removing the ones column's share leaves c, the R of
    the centered columns, whose Gram matrix holds every variance and
    correlation. S is centered before it is factored, so that the
    sensitive means, which the residual-mean condition multiplies by
    Cor(u,s) Cor(s)^-1, take no rounding from the other columns' scales.
    """
    target, yhat = _aligned_pair(residual_target, predictions)
    for name, v in (("predictions", yhat), ("residual_target", target)):
        if not np.all(np.isfinite(v)):
            raise DataError(f"{name} contains non-finite values")
    if s.shape[1] == 0:
        raise ContractError("impartiality conditions need a nonempty sensitive block")
    (n, p_s), p_x = s.shape, x.shape[1]
    s_means = s.mean(axis=0)
    # A column's sum of squares, which bounds its variance and is n times
    # its mean square (rmse's for u), must be finite.
    with np.errstate(over="ignore", invalid="ignore"):
        r = r_factor(np.ones(n), s - s_means, x, w, target - yhat, yhat)
        squares = np.einsum("ij,ij->j", r, r)
    if not np.all(np.isfinite(squares)):
        raise DataError("values too large to score: a column's sum of squares is not finite")
    means = regress(r, n, [0], slice(1, None))[0][0]  # 1 is never aliased
    c = r[:, 1:] - np.outer(r[:, 0], means)
    var = np.einsum("ij,ij->j", c, c) / n
    cs, cx, cw = slice(0, p_s), slice(p_s, p_s + p_x), slice(p_s + p_x, -2)
    # eta, the residual of yhat on [1|X], replaces c's last column: the
    # centered yhat on the centered X columns that vary (a constant column
    # lies in the ones column's span), decided as one block to keep X's span.
    varying = p_s + np.flatnonzero(var[cx] > VAR_GUARD)
    c[:, -1] -= c[:, varying] @ regress(c, n, varying, [-1])[0][:, 0]
    var[-1] = c[:, -1] @ c[:, -1] / n
    ok = var > VAR_GUARD
    sds = np.sqrt(np.where(ok, var, 1.0))

    dead = [s_labels[j] if s_labels else str(j) for j in np.flatnonzero(~ok[cs])]
    if dead:
        raise ContractError(f"sensitive column(s) {dead} are constant; Cor(s) is singular")
    # A rank check: the regression has no targets, only its kept mask is read.
    aliased = np.flatnonzero(~regress(c[:, cs] / sds[cs], n, cs, [])[1])
    if aliased.size:
        names = sorted(s_labels[j] if s_labels else str(j) for j in aliased)
        raise ContractError(f"sensitive columns are aliased ({names}); Cor(s) is singular")

    # Correlations among the columns of [S | X | W | u | eta].
    cor = np.where(np.outer(ok, ok), c.T @ c / n / np.outer(sds, sds), 0.0)
    t = np.linalg.solve(cor[cs, cs], cor[-2, cs])  # Cor(u,s) Cor(s)^-1
    lhs_mean = means[-2] / sds[-2] if ok[-2] else 0.0
    return ConditionGaps(
        residual_mean=float(lhs_mean - t @ (s_means / sds[cs])),
        legitimate=cor[-2, cx] - t @ cor[cs, cx],
        suspect=cor[-2, cw] - t @ cor[cs, cw],
        projected=cor[-1, cs],
    )


def impartiality_score(
    predictions, design: EncodedDesign, residual_target, view: RoleView
) -> float:
    """Normalized sum of absolute impartiality-condition violations, under
    the ``view`` of the design's roles.

    Always >= 0; exactly 0 only when every condition holds. The
    normalizer is 1 + (number of covariate columns), counting sensitive,
    legitimate, suspect, and black-box columns alike.
    """
    if not isinstance(view, RoleView):
        raise ContractError(f"unknown impartiality mode {view!r}")
    design = view(design)
    gaps = impartiality_conditions(
        predictions, residual_target, design.s, design.x, design.block("wb"), design.s_labels
    )
    return gaps.total_abs() / (1 + design.z.shape[1])


def score_predictions(
    predictions,
    design: EncodedDesign,
    truth,
    view: RoleView,
    positive_group: str | None = None,
    negative_group: str | None = None,
) -> MetricsReport:
    """Bundle RMSE/RSSE, the group gap, and the impartiality score under
    ``view``.

    The group pair is completed by ``group_pair`` from the groups in
    first-appearance order; a name that is not a group is a ContractError.
    """
    values = np.asarray(getattr(predictions, "values", predictions), dtype=float)
    means = group_means(values, design.groups)
    positive_group, negative_group = group_pair(list(means), positive_group, negative_group)
    is_score = impartiality_score(values, design, truth, view)  # refuses overflowing values
    return MetricsReport(
        rmse=rmse(values, truth),
        rsse=rsse(values, truth),
        ds=_mean_gap(means, positive_group, negative_group),
        is_score=is_score,
        is_mode=view,
        per_group_means=means,
        n=values.shape[0],
    )
