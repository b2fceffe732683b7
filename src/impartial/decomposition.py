"""Split fitted values into legally meaningful components.

``decompose`` splits the full-model fitted values into per-row columns
that sum back to them exactly, under the roles of the design it is given
(apply a ``RoleView`` for another reading):

- disparate treatment (dt): the sensitive block's contribution orthogonal
  to the conditioning covariates;
- disparate impact (di): the sensitive contribution lying inside their
  span (informative redlining);
- permissible statistical discrimination (sd_plus): the legitimate
  contribution explainable by the other blocks;
- sd_minus_mixed: the suspect contribution explainable by [X,S] (where
  legal and illegal shares are entangled; by [S] alone when X is empty);
- unique_x / unique_w: the orthogonal remainders.

Projections act on the centered blocks without an intercept column; the
intercept is its own component. Each projection is one regression read
from the fit (``TotalModelFit.regress``), which decides rank over its own
basis; the fit's projections apply to any rows, as its coefficients do,
so the components of a row do not depend on which rows come with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EncodedDesign
from .errors import ContractError
from .estimators import TotalModelFit


COMPONENT_NAMES = (
    "intercept",
    "dt",
    "di",
    "sd_plus",
    "sd_minus_mixed",
    "unique_x",
    "unique_w",
)


@dataclass(frozen=True)
class ComponentReport:
    intercept: np.ndarray
    dt: np.ndarray
    di: np.ndarray
    sd_plus: np.ndarray
    sd_minus_mixed: np.ndarray
    unique_x: np.ndarray
    unique_w: np.ndarray

    def component(self, name: str) -> np.ndarray:
        return getattr(self, name)

    def rowwise_sum(self) -> np.ndarray:
        return sum(self.component(n) for n in COMPONENT_NAMES)

    def mean_abs(self) -> dict[str, float]:
        return {n: float(np.mean(np.abs(self.component(n)))) for n in COMPONENT_NAMES}


@dataclass(frozen=True)
class CoefDecomposition:
    """Eq-level split of the marginal legitimate coefficients."""

    marginal: np.ndarray
    direct: np.ndarray
    indirect: np.ndarray
    lambda_x: np.ndarray


@dataclass(frozen=True)
class RedliningSummary:
    """Mean absolute per-row component magnitudes."""

    disparate_treatment: float
    informative_redlining: float
    suspect_shared: float
    uninformative_redlining: float


def decompose_coefficients(fit: TotalModelFit) -> CoefDecomposition:
    """marginal = direct + indirect split of the legitimate coefficients.

    Only defined when no suspect/black-box columns are present: the
    marginal coefficients come from the exclude-sensitive refit, the
    indirect part routes through the regression of S on X.
    """
    if fit.width("wb"):
        raise ContractError(
            "coefficient decomposition requires empty suspect/black-box blocks"
        )
    if fit.width("x") == 0:
        raise ContractError("no legitimate columns to decompose")
    lambda_x = fit.lambda_x_for_s
    return CoefDecomposition(
        marginal=fit.marginal_coefs,
        direct=fit.beta_x,
        indirect=lambda_x @ fit.beta_s,
        lambda_x=lambda_x,
    )


def decompose(fit: TotalModelFit, design: EncodedDesign) -> ComponentReport:
    """Per-row component columns of the full-model fitted values.

    Each block's contribution is split by projecting it on the other
    blocks (the black-box block counts as suspect): S on [X|W|B], X on
    [S|W|B], [W|B] on [X|S], each projection the fit's own regression on
    its training rows, applied to ``design``'s rows re-centered at the
    training means. An empty block's components are 0, as X's are under
    the seo view.
    """
    z = design.centered_at(fit)
    parts = {}
    for block, basis, inside, outside in (
        ("s", "xwb", "di", "dt"), ("x", "swb", "sd_plus", "unique_x"),
        ("wb", "xs", "sd_minus_mixed", "unique_w"),
    ):
        beta = fit.coefficients[fit.index(block)]
        coef = fit.regress(basis, block)[0]
        parts[inside] = z[:, fit.index(basis)] @ (coef @ beta)
        parts[outside] = z[:, fit.index(block)] @ beta - parts[inside]
    return ComponentReport(intercept=np.full(design.n_rows, fit.beta0), **parts)


def redlining_report(report: ComponentReport) -> RedliningSummary:
    """Aggregate the discrimination channels of a report.

    Magnitudes are mean absolute per-row contributions; uninformative
    redlining is the di + sd_minus sum.
    """
    di = float(np.mean(np.abs(report.di)))
    sd_minus = float(np.mean(np.abs(report.sd_minus_mixed)))
    return RedliningSummary(
        disparate_treatment=float(np.mean(np.abs(report.dt))),
        informative_redlining=di,
        suspect_shared=sd_minus,
        uninformative_redlining=di + sd_minus,
    )
