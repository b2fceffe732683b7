"""Estimator variants derived from a single joint regression fit.

``fit_total`` reads the joint fit of the response on the whole centered
design Z = [S|X|W|B], and the auxiliary regressions the variants need,
from one R factor of [Z|y] (``EncodedDesign.r``, factored once per design
and shared by its role views); each regression decides rank over its own
predictors, blocks in the order S, X, W, B, in the one call that makes it
(``BlockLayout.regress``; see ``linalg``). Blocks are column ranges of Z,
so every regression and every rule slices by column range, and a role
change (a ``RoleView``, ``residualize_suspect``) moves block boundaries
instead of restacking. Each variant is a rule under a role view, named in
one table (``VARIANTS``); ``predict`` applies both to the design it is
given, from that one fit. Only the exclude-sensitive rule needs a refit,
which the fit derives from its training R when read. Prediction-time data
is always re-centered with the training means.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .data import BlockLayout, EncodedDesign, RoleView
from .errors import ContractError, DataError, VariantError


class Variant(enum.Enum):
    """An estimator variant. FULL, EXCLUDE_S, MARGINAL and TOTAL are also
    the rules ``predict`` applies; ``VARIANTS`` reads every variant as a
    rule under a role view."""

    FULL = "full"
    EXCLUDE_S = "exclude_s"
    MARGINAL = "marginal"
    FEO = "feo"
    FSEO = "fseo"
    TOTAL = "total"
    BLACKBOX_CORRECTED = "blackbox_corrected"
    CALDERS_BASELINE = "calders_baseline"


# The one table of variants: each one's command-line name, its rule, and
# the role view of the given design it trains and predicts under. FEO and
# FSEO are the total rule under a view; BLACKBOX_CORRECTED is the total
# rule on a design with a B block. The stratified baseline's rule is its
# own (``harness.calders``), and it reads every covariate as suspect.
VARIANTS = {
    Variant.FULL: ("full", Variant.FULL, RoleView.DECLARED),
    Variant.EXCLUDE_S: ("exclude-s", Variant.EXCLUDE_S, RoleView.DECLARED),
    Variant.MARGINAL: ("marginal", Variant.MARGINAL, RoleView.DECLARED),
    Variant.FEO: ("feo", Variant.TOTAL, RoleView.FEO),
    Variant.FSEO: ("fseo", Variant.TOTAL, RoleView.SEO),
    Variant.TOTAL: ("total", Variant.TOTAL, RoleView.DECLARED),
    Variant.BLACKBOX_CORRECTED: ("corrected", Variant.TOTAL, RoleView.DECLARED),
    Variant.CALDERS_BASELINE: ("calders", Variant.CALDERS_BASELINE, RoleView.SEO),
}


@dataclass(frozen=True)
class TotalModelFit(BlockLayout):
    """Coefficients of the joint fit plus the auxiliary regressions.

    The fit keeps the training design's layout (columns, means, block
    widths) once; ``coefficients`` is the joint coefficient vector over
    Z = [S|X|W|B], and ``beta_s`` ... ``beta_b`` (with ``beta_wb``, the
    suspect and black-box blocks fitted jointly) are read-only slices of
    it. ``lambda_sx_for_wb`` regresses each [W|B] column on [S|X] (rows: S
    columns first, then X). ``dropped_labels`` names the columns the joint
    fit dropped as aliased (their coefficients are 0.0).

    ``r`` is the training design's read-only R of [Z|y]. ``lambda_x_for_s``
    (each S column on X, for the decomposition) and ``marginal_coefs`` (the
    exclude-sensitive refit on [X|W|B]) are derived from it on each read,
    by the ``regress`` call a fit-time computation makes: the same bits.
    Every regression, ``lambda_sx_for_wb`` too, decides rank over its own
    predictors, so a column aliased only with S stays in the last two.
    """

    beta0: float
    coefficients: np.ndarray
    lambda_sx_for_wb: np.ndarray
    n: int
    dropped_labels: tuple[str, ...]
    r: np.ndarray

    beta_s = property(lambda self: self.coefficients[self.index("s")])
    beta_x = property(lambda self: self.coefficients[self.index("x")])
    beta_w = property(lambda self: self.coefficients[self.index("w")])
    beta_b = property(lambda self: self.coefficients[self.index("b")])
    beta_wb = property(lambda self: self.coefficients[self.index("wb")])
    lambda_x_for_s = property(lambda self: self.regress(self.r, self.n, "x", self.index("s"))[0])
    marginal_coefs = property(
        lambda self: self.regress(self.r, self.n, "xwb", [len(self.columns)])[0][:, 0]
    )


@dataclass(frozen=True)
class ImpartialPrediction:
    variant: Variant
    values: np.ndarray


def fit_total(design: EncodedDesign) -> TotalModelFit:
    """Fit the joint model and the regression the total rule reads."""
    n, p_total = design.z.shape
    if n < 1:
        raise ContractError("design has no rows")
    if p_total == 0:
        raise ContractError("all covariate blocks are empty; nothing to fit")
    if n <= p_total + 1:
        warnings.warn(
            f"only {n} rows for {p_total} covariate columns; fit may be rank-deficient",
            stacklevel=2,
        )

    # Every regression reads the design's one R of [Z|y].
    coefficients, kept = design.regress(design.r, n, "sxwb", [p_total])
    return TotalModelFit(
        columns=design.columns,
        column_means=design.column_means,
        widths=design.widths,
        beta0=float(design.y.mean()),
        coefficients=coefficients[:, 0],
        lambda_sx_for_wb=design.regress(design.r, n, "sx", design.index("wb"))[0],
        n=n,
        dropped_labels=tuple(c for c, k in zip(design.columns, kept) if not k),
        r=design.r,
    )


def predict(
    fit: TotalModelFit, design: EncodedDesign, variant: Variant
) -> ImpartialPrediction:
    """Predictions for one estimator variant, on training or new rows.

    The variant's view (``VARIANTS``) is applied to ``design``, which must
    then have the fit's columns and block widths; the fit must have been
    trained under that view. Rules, on the blocks of Z re-centered at the
    training means:

    - FULL:       beta0 + S bs + X bx + W bw + B bb
    - EXCLUDE_S:  beta0 + [X|W|B] marginal_coefs   (the training refit)
    - MARGINAL:   beta0
    - TOTAL:      beta0 + X bx + ([W|B] - S Ls) bwb  (Ls = S-rows of the
                  joint [S|X] regression of [W|B]; algebraically equal to
                  replacing [W|B] by its impartial estimate plus unique part)

    BLACKBOX_CORRECTED also requires a nonempty B block.
    """
    if variant not in VARIANTS:
        raise VariantError(f"unknown variant {variant!r}")
    _, rule, view = VARIANTS[variant]
    if rule is Variant.CALDERS_BASELINE:
        raise VariantError(
            "calders_baseline predictions are produced by harness.calders_baseline"
        )
    if view(fit).widths != fit.widths:
        raise VariantError(
            f"{variant.value} predicts under the {view.value} view, which the fit was "
            "not trained under; fit under that view or use the total variant"
        )
    if variant is Variant.BLACKBOX_CORRECTED and not fit.b_labels:
        raise VariantError(
            "blackbox_corrected requires external predictions in the B block"
        )
    z = view(design).centered_at(fit)
    s, x, wb = z[:, fit.index("s")], z[:, fit.index("x")], z[:, fit.index("wb")]

    if rule is Variant.FULL:
        values = fit.beta0 + s @ fit.beta_s + x @ fit.beta_x + wb @ fit.beta_wb
    elif rule is Variant.EXCLUDE_S:
        values = fit.beta0 + z[:, fit.index("xwb")] @ fit.marginal_coefs
    elif rule is Variant.MARGINAL:
        values = np.full(design.n_rows, fit.beta0)
    else:
        lambda_s = fit.lambda_sx_for_wb[: fit.width("s"), :]
        values = fit.beta0 + x @ fit.beta_x + (wb - s @ lambda_s) @ fit.beta_wb
    return ImpartialPrediction(variant=variant, values=values)


def residualize_suspect(design: EncodedDesign) -> EncodedDesign:
    """Replace the suspect (and black-box) block by its part orthogonal to S,
    re-labeled legitimate.

    The projection is computed on this design's rows; refitting the total
    model on the result leaves the suspect coefficients unchanged.
    """
    if design.s.shape[1] == 0:
        warnings.warn("no sensitive columns; residualize_suspect is a no-op", stacklevel=2)
        return design
    if design.width("wb") == 0:
        return design
    s, wb = design.index("s"), design.index("wb")
    lambda_s = design.regress(design.r, design.n_rows, "s", wb)[0]
    z = design.z.copy()
    z[:, wb] -= design.z[:, s] @ lambda_s
    resid = tuple(f"resid_{name}" for name in design.columns[wb])
    return design.replace(z=z, columns=design.columns[: wb.start] + resid).merged(
        "xwb", "x"
    )


def with_blackbox(design: EncodedDesign, external_predictions) -> EncodedDesign:
    """Append external prediction column(s) to the design's B block, centered."""
    ext = np.asarray(external_predictions, dtype=float)
    if ext.ndim == 1:
        ext = ext.reshape(-1, 1)
    if ext.ndim != 2:
        raise ContractError(f"external predictions must be 1-D or 2-D, got {ext.shape}")
    if ext.shape[0] != design.n_rows:
        raise DataError(
            f"external predictions have {ext.shape[0]} rows, design has {design.n_rows}"
        )
    if not np.all(np.isfinite(ext)):
        raise DataError("external predictions contain non-finite values")
    # The refusal an audit of these predictions gives, before the fit of the
    # augmented design overflows on them.
    with np.errstate(over="ignore"):
        squares = np.einsum("ij,ij->j", ext, ext)
    if not np.all(np.isfinite(squares)):
        raise DataError("values too large to score: a column's sum of squares is not finite")
    start = design.width("b")
    return design.appended(ext, tuple(f"yhat_{start + j}" for j in range(ext.shape[1])))


def correct_blackbox(
    design: EncodedDesign, external_predictions
) -> tuple[TotalModelFit, ImpartialPrediction]:
    """Treat external predictions as suspect covariates and purge their
    sensitive-group dependence via the total rule."""
    augmented = with_blackbox(design, external_predictions)
    fit = fit_total(augmented)
    return fit, predict(fit, augmented, Variant.BLACKBOX_CORRECTED)
