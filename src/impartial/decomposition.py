"""Split fitted values into legally meaningful components.

Each mode decomposes the full-model fitted values into per-row columns
that sum back to them exactly:

- disparate treatment (dt): the sensitive block's contribution orthogonal
  to the conditioning covariates;
- disparate impact (di): the sensitive contribution lying inside their
  span (informative redlining);
- permissible statistical discrimination (sd_plus): the legitimate
  contribution explainable by the other blocks;
- sd_minus_mixed: the suspect contribution explainable by [S] (FSEO mode)
  or [X,S] (total mode, where legal and illegal shares are entangled);
- unique_x / unique_w: the orthogonal remainders.

Projections act on the centered blocks without an intercept column; the
intercept is its own component.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .data import EncodedDesign
from .errors import ContractError
from .estimators import TotalModelFit, _aligned_z
from .linalg import r_factor, regress


class Mode(enum.Enum):
    FEO = "feo"
    FSEO = "fseo"
    TOTAL = "total"


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
    mode: Mode
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


def decompose_coefficients(
    fit: TotalModelFit, design: EncodedDesign
) -> CoefDecomposition:
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
    del design  # only the fit's frozen regressions are needed
    direct = fit.beta_x
    indirect = fit.lambda_x_for_s @ fit.beta_s
    return CoefDecomposition(
        marginal=fit.marginal_coefs.copy(),
        direct=direct,
        indirect=indirect,
        lambda_x=fit.lambda_x_for_s,
    )


def decompose(
    fit: TotalModelFit, design: EncodedDesign, mode: Mode
) -> ComponentReport:
    """Per-row component columns for the requested mode.

    Every mode splits each block's contribution by projecting it on the
    other blocks (the black-box block counts as suspect throughout): S on
    [X|W|B], X on [S|W|B], [W|B] on [X|S]. FEO mode is this total split
    with empty W and B, FSEO mode the total split with an empty X; each
    raises ContractError when the design has the block it excludes.
    """
    if not isinstance(mode, Mode):
        raise ContractError(f"unknown decomposition mode {mode!r}")
    z = _aligned_z(fit, design)
    if mode is Mode.FEO and fit.width("wb"):
        raise ContractError("FEO decomposition requires empty suspect blocks")
    if mode is Mode.FSEO and fit.width("x"):
        raise ContractError("FSEO decomposition requires an empty legitimate block")

    # The training design's own R factor serves; new rows need their own.
    r = design.r if z is design.z else r_factor(z)
    parts = {}
    for block, basis, inside, outside in (
        ("s", "xwb", "di", "dt"), ("x", "swb", "sd_plus", "unique_x"),
        ("wb", "xs", "sd_minus_mixed", "unique_w"),
    ):
        beta = fit.coefficients[fit.index(block)]
        coef, _ = regress(r, fit.index(basis), fit.index(block), design.n_rows)
        parts[inside] = z[:, fit.index(basis)] @ (coef @ beta)
        parts[outside] = z[:, fit.index(block)] @ beta - parts[inside]
    return ComponentReport(mode=mode, intercept=np.full(design.n_rows, fit.beta0), **parts)


def redlining_report(report: ComponentReport) -> RedliningSummary:
    """Aggregate the discrimination channels of an FSEO/total report.

    Magnitudes are mean absolute per-row contributions; uninformative
    redlining is the di + sd_minus sum.
    """
    if report.mode is Mode.FEO:
        raise ContractError(
            "redlining report needs the suspect-shared component; "
            "FEO-mode reports do not define it"
        )
    di = float(np.mean(np.abs(report.di)))
    sd_minus = float(np.mean(np.abs(report.sd_minus_mixed)))
    return RedliningSummary(
        disparate_treatment=float(np.mean(np.abs(report.dt))),
        informative_redlining=di,
        suspect_shared=sd_minus,
        uninformative_redlining=di + sd_minus,
    )
