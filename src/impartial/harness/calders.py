"""Propensity-stratified group-mean-equalizing baseline.

A linear probability model predicts the (binary) sensitive indicator
from every non-sensitive covariate; rows are cut into propensity
quantile bins; within each bin a full substantive-equality fit is run
with every covariate treated as suspect. Bins whose training rows
contain a single sensitive class cannot equalize anything and fall back
to the bin's mean response (logged).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..data import Dataset, EncodedDesign, Schema, encode, take_design
from ..errors import ContractError
from ..estimators import (
    ImpartialPrediction,
    Variant,
    as_all_suspect,
    fit_total,
    predict,
)
from ..linalg import solve_least_squares

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CaldersFit:
    propensity_coefs: np.ndarray  # on covariates centered at the training means
    propensity_intercept: float
    covariate_means: np.ndarray  # training means of [X|W|B], frozen for scoring
    bin_edges: np.ndarray
    bin_fits: tuple  # per bin: TotalModelFit, or a float fallback mean


def _check_design(design: EncodedDesign) -> None:
    if design.s.shape[1] != 1:
        raise ContractError(
            "the stratified baseline needs a single binary sensitive attribute "
            f"(got {design.s.shape[1]} sensitive columns)"
        )
    if len(set(design.s_group_labels)) != 2:
        raise ContractError("the stratified baseline needs exactly two sensitive groups")


def _raw_covariates(design: EncodedDesign) -> np.ndarray:
    cols = design.index("xwb")
    return design.z[:, cols] + design.column_means[cols]


def _propensity(fit_means, coefs, intercept, design: EncodedDesign) -> np.ndarray:
    return intercept + (_raw_covariates(design) - fit_means) @ coefs


def fit_calders(design: EncodedDesign, bins: int = 5) -> CaldersFit:
    """Fit the propensity model and the per-bin equalizing sub-models."""
    _check_design(design)
    if bins < 1:
        raise ContractError("need at least one bin")
    covariates = design.z[:, design.index("xwb")]
    cov_means = design.column_means[design.index("xwb")]
    indicator = design.s[:, 0] + design.s_means[0]
    prop_fit = solve_least_squares(covariates, indicator - indicator.mean())
    coefs = prop_fit.coefficients
    intercept = float(indicator.mean())
    scores = _propensity(cov_means, coefs, intercept, design)

    edges = np.quantile(scores, np.arange(1, bins) / bins) if bins > 1 else np.zeros(0)
    assignment = np.searchsorted(edges, scores, side="right")

    bin_fits: list = []
    for b in range(bins):
        idx = np.where(assignment == b)[0]
        if idx.size == 0:
            bin_fits.append(float(design.y.mean()))
            continue
        sub = take_design(design, idx)
        labels = set(sub.s_group_labels)
        if len(labels) < 2 or idx.size < 3:
            log.warning(
                "propensity bin %d is homogeneous (%s, %d rows); "
                "falling back to the bin mean response",
                b,
                sorted(labels),
                idx.size,
            )
            bin_fits.append(float(sub.y.mean()))
            continue
        bin_fits.append(fit_total(as_all_suspect(sub)))

    return CaldersFit(
        propensity_coefs=coefs,
        propensity_intercept=intercept,
        covariate_means=cov_means,
        bin_edges=edges,
        bin_fits=tuple(bin_fits),
    )


def predict_calders(fit: CaldersFit, design: EncodedDesign) -> np.ndarray:
    """Route rows through the trained bins and apply each bin's rule.

    New rows may contain a single sensitive group; only training demands
    both.
    """
    if design.s.shape[1] != 1:
        raise ContractError(
            "the stratified baseline needs a single binary sensitive attribute"
        )
    scores = _propensity(
        fit.covariate_means, fit.propensity_coefs, fit.propensity_intercept, design
    )
    assignment = np.searchsorted(fit.bin_edges, scores, side="right")
    out = np.zeros(design.n_rows)
    for b, bin_fit in enumerate(fit.bin_fits):
        idx = np.where(assignment == b)[0]
        if idx.size == 0:
            continue
        if isinstance(bin_fit, float):
            out[idx] = bin_fit
            continue
        sub = take_design(design, idx)
        out[idx] = predict(bin_fit, as_all_suspect(sub), Variant.FSEO).values
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
