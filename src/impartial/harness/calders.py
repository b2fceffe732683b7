"""Propensity-stratified group-mean-equalizing baseline.

A linear probability model predicts the (binary) sensitive indicator
from every non-sensitive covariate; rows are cut into propensity
quantile bins; within each bin a full substantive-equality fit is run
with every covariate treated as suspect. Bins whose training rows
contain a single sensitive class cannot equalize anything and fall back
to the bin's mean response (logged). The propensity, as each bin's fit,
is read from a ``TotalModelFit`` of its rows. The fit is the all-suspect
layout of its training design, whose means re-center new rows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..data import BlockLayout, Dataset, EncodedDesign, RoleView, Schema, encode, take_design
from ..errors import ContractError
from ..estimators import ImpartialPrediction, TotalModelFit, Variant, fit_total, predict
from .trees import require_count

log = logging.getLogger(__name__)

# Propensity scores (on the 0/1 indicator scale) within 1e-12 below a bin
# edge count as at the edge: far above the rounding of the propensity fit,
# far below any difference between rows that a quantile bin should resolve.
SCORE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class CaldersFit(BlockLayout):
    """The training design's all-suspect layout, propensity model and bin fits."""

    propensity_coefs: np.ndarray  # on covariates centered at the training means
    propensity_intercept: float  # the training share of the indicator's level
    bin_edges: np.ndarray
    bin_fits: tuple  # per bin: TotalModelFit, or a float fallback mean


def _check_design(design: EncodedDesign) -> None:
    if design.s.shape[1] != 1:
        raise ContractError(
            "the stratified baseline needs a single binary sensitive attribute "
            f"(got {design.s.shape[1]} sensitive columns)"
        )
    if design.groups.present().size != 2:
        raise ContractError("the stratified baseline needs exactly two sensitive groups")


def _propensity(fit: BlockLayout, coefs, intercept, design: EncodedDesign) -> np.ndarray:
    """Scores of ``design``, an all-suspect view of ``fit``'s training columns."""
    return intercept + design.centered_at(fit)[:, fit.index("xwb")] @ coefs


def _bins(edges: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Bin of each score: a score within ``SCORE_TOLERANCE`` of an edge is
    at the edge, so scores equal up to rounding share a bin, and a flat
    propensity is one bin, not quantiles of its rounding noise."""
    return np.searchsorted(edges - SCORE_TOLERANCE, scores, side="right")


def fit_calders(design: EncodedDesign, bins: int = 5) -> CaldersFit:
    """Fit the propensity model and the per-bin equalizing sub-models."""
    _check_design(design)
    require_count("bins", bins, 1)
    design = RoleView.SEO(design)
    # The centered indicator is the S column of the design, so the linear
    # probability fit is a regression among the design's columns.
    coefs = TotalModelFit.of(design).regress("xwb", "s")[0][:, 0]
    intercept = float(design.means("s")[0])
    scores = _propensity(design, coefs, intercept, design)

    edges = np.quantile(scores, np.arange(1, bins) / bins) if bins > 1 else np.zeros(0)
    assignment = _bins(edges, scores)

    bin_fits: list = []
    for b in range(bins):
        idx = np.where(assignment == b)[0]
        if idx.size == 0:
            bin_fits.append(float(design.y.mean()))
            continue
        sub = take_design(design, idx)
        present = sub.groups.present()
        if present.size < 2 or idx.size < 3:
            log.warning(
                "propensity bin %d is homogeneous (%s, %d rows); "
                "falling back to the bin mean response",
                b,
                sorted(sub.groups.levels[k] for k in present.tolist()),
                idx.size,
            )
            bin_fits.append(float(sub.y.mean()))
            continue
        bin_fits.append(fit_total(sub))

    return CaldersFit(
        columns=design.columns,
        column_means=design.column_means,
        widths=design.widths,
        propensity_coefs=coefs,
        propensity_intercept=intercept,
        bin_edges=edges,
        bin_fits=tuple(bin_fits),
    )


def predict_calders(fit: CaldersFit, design: EncodedDesign) -> np.ndarray:
    """Route rows through the trained bins and apply each bin's rule.

    ``design`` is any role view of the training columns; new rows may
    contain a single sensitive group, only training demands both.
    """
    design = RoleView.SEO(design)
    scores = _propensity(fit, fit.propensity_coefs, fit.propensity_intercept, design)
    assignment = _bins(fit.bin_edges, scores)
    out = np.zeros(design.n_rows)
    for b, bin_fit in enumerate(fit.bin_fits):
        idx = np.where(assignment == b)[0]
        if idx.size == 0:
            continue
        if isinstance(bin_fit, float):
            out[idx] = bin_fit
            continue
        sub = take_design(design, idx)
        out[idx] = predict(bin_fit, sub, Variant.FSEO).values
    return out


def calders_baseline(
    data: Dataset, schema: Schema, bins: int = 5
) -> ImpartialPrediction:
    """In-sample stratified baseline predictions for a dataset."""
    design = encode(data, schema)
    fit = fit_calders(design, bins=bins)
    return ImpartialPrediction(
        variant=Variant.CALDERS_BASELINE, values=predict_calders(fit, design)
    )
