"""Estimator variants derived from a single joint regression fit.

``fit_total`` reads the joint fit of the response on the whole centered
design Z = [S|X|W|B], and the auxiliary regressions the variants need,
from one R factor of [Z|y] (``EncodedDesign.r``, factored once per design
and shared by its role views); each regression pivots over its own
predictors (see ``linalg``). Blocks are column ranges of Z, so every
regression and every rule slices by column range, and a role change
(``as_all_*``, ``residualize_suspect``) moves block boundaries instead of
restacking. ``predict`` then produces any variant's predictions from that
one fit; only the exclude-sensitive variant needs a refit, which is also
computed (and frozen) at fit time. Prediction-time data is always
re-centered with the training means.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .data import BlockLayout, EncodedDesign
from .errors import ContractError, DataError, VariantError
from .linalg import project, regress


class Variant(enum.Enum):
    FULL = "full"
    EXCLUDE_S = "exclude_s"
    MARGINAL = "marginal"
    FEO = "feo"
    FSEO = "fseo"
    TOTAL = "total"
    BLACKBOX_CORRECTED = "blackbox_corrected"
    CALDERS_BASELINE = "calders_baseline"


@dataclass(frozen=True)
class TotalModelFit(BlockLayout):
    """Coefficients of the joint fit plus the auxiliary regressions.

    The fit keeps the training design's layout (columns, means, block
    widths) once; ``coefficients`` is the joint coefficient vector over
    Z = [S|X|W|B], and ``beta_s`` ... ``beta_b`` (with ``beta_wb``, the
    suspect and black-box blocks fitted jointly) are read-only slices of
    it. ``lambda_sx_for_wb`` regresses each [W|B] column on [S|X] (rows: S
    columns first, then X); ``lambda_x_for_s`` regresses each S column on
    X. ``marginal_coefs`` comes from the exclude-sensitive refit on [X|W|B].
    ``dropped_labels`` names the columns the joint fit dropped as aliased
    (their coefficients are 0.0).
    """

    beta0: float
    coefficients: np.ndarray
    lambda_sx_for_wb: np.ndarray
    lambda_x_for_s: np.ndarray
    marginal_coefs: np.ndarray
    n: int
    dropped_labels: tuple[str, ...]

    beta_s = property(lambda self: self.coefficients[self.index("s")])
    beta_x = property(lambda self: self.coefficients[self.index("x")])
    beta_w = property(lambda self: self.coefficients[self.index("w")])
    beta_b = property(lambda self: self.coefficients[self.index("b")])
    beta_wb = property(lambda self: self.coefficients[self.index("wb")])


@dataclass(frozen=True)
class ImpartialPrediction:
    variant: Variant
    values: np.ndarray


def fit_total(design: EncodedDesign) -> TotalModelFit:
    """Fit the joint model and every auxiliary regression the variants need."""
    n = design.n_rows
    if n < 1:
        raise ContractError("design has no rows")
    z = design.z
    p_total = z.shape[1]
    if p_total == 0:
        raise ContractError("all covariate blocks are empty; nothing to fit")
    if n <= p_total + 1:
        warnings.warn(
            f"only {n} rows for {p_total} covariate columns; fit may be rank-deficient",
            stacklevel=2,
        )

    # Every regression reads the design's one R of [Z|y] and pivots over
    # its own predictors.
    r, y_col = design.r, [p_total]
    coefficients, dropped = regress(r, slice(0, p_total), y_col, n)
    return TotalModelFit(
        columns=design.columns,
        column_means=design.column_means,
        widths=design.widths,
        beta0=float(design.y.mean()),
        coefficients=coefficients[:, 0],
        lambda_sx_for_wb=regress(r, design.index("sx"), design.index("wb"), n)[0],
        lambda_x_for_s=regress(r, design.index("x"), design.index("s"), n)[0],
        marginal_coefs=regress(r, design.index("xwb"), y_col, n)[0][:, 0],
        n=n,
        dropped_labels=tuple(design.columns[j] for j in dropped),
    )


def _aligned_z(fit: TotalModelFit, design: EncodedDesign) -> np.ndarray:
    """The design's Z re-centered at the training means.

    The design's own centering is undone by adding back its means and the
    training means are removed instead. When the means agree (the design
    *is* the training design) this is ``design.z`` itself. The design must
    have the fit's columns in the fit's blocks.
    """
    if (design.columns, design.widths) != (fit.columns, fit.widths):
        raise ContractError(
            f"design columns {design.columns} in blocks of {design.widths} do "
            f"not match the fit's training columns {fit.columns} in blocks of "
            f"{fit.widths}"
        )
    shift = design.column_means - fit.column_means
    return design.z + shift if shift.any() else design.z


def predict(
    fit: TotalModelFit, design: EncodedDesign, variant: Variant
) -> ImpartialPrediction:
    """Predictions for one estimator variant, on training or new rows.

    Variant rules (on the blocks of Z, re-centered at the training means;
    the design must have the fit's columns and block widths):

    - FULL:       beta0 + S bs + X bx + W bw + B bb
    - EXCLUDE_S:  beta0 + [X|W|B] marginal_coefs   (frozen refit)
    - MARGINAL:   beta0
    - TOTAL:      beta0 + X bx + ([W|B] - S Ls) bwb  (Ls = S-rows of the
                  joint [S|X] regression of [W|B]; algebraically equal to
                  replacing [W|B] by its impartial estimate plus unique part)
    - FEO:        the TOTAL rule with empty W and B, i.e. beta0 + X bx
    - FSEO:       the TOTAL rule with an empty X, i.e. beta0 + ([W|B] - S Ls) bwb
    - BLACKBOX_CORRECTED: the TOTAL rule, requires a nonempty B block.

    FEO, FSEO and BLACKBOX_CORRECTED are validated aliases of TOTAL: each
    raises VariantError when the fit lacks the block shape it names.
    """
    if variant is Variant.CALDERS_BASELINE:
        raise VariantError(
            "calders_baseline predictions are produced by harness.calders_baseline"
        )
    z = _aligned_z(fit, design)
    s, x, wb = z[:, fit.index("s")], z[:, fit.index("x")], z[:, fit.index("wb")]

    if variant is Variant.FEO and fit.width("wb"):
        raise VariantError(
            "FEO requires empty suspect/black-box blocks; use the total variant"
        )
    if variant is Variant.FSEO and fit.width("x"):
        raise VariantError(
            "FSEO requires an empty legitimate block; use the total variant"
        )
    if variant is Variant.BLACKBOX_CORRECTED and not fit.b_labels:
        raise VariantError(
            "blackbox_corrected requires external predictions in the B block"
        )

    if variant is Variant.FULL:
        values = fit.beta0 + s @ fit.beta_s + x @ fit.beta_x + wb @ fit.beta_wb
    elif variant is Variant.EXCLUDE_S:
        values = fit.beta0 + z[:, fit.index("xwb")] @ fit.marginal_coefs
    elif variant is Variant.MARGINAL:
        values = np.full(design.n_rows, fit.beta0)
    elif variant in (
        Variant.TOTAL, Variant.FEO, Variant.FSEO, Variant.BLACKBOX_CORRECTED
    ):
        lambda_s = fit.lambda_sx_for_wb[: fit.width("s"), :]
        values = fit.beta0 + x @ fit.beta_x + (wb - s @ lambda_s) @ fit.beta_wb
    else:
        raise VariantError(f"unknown variant {variant!r}")
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
    wb = design.index("wb")
    z = design.z.copy()
    z[:, wb] = project(design.s, design.z[:, wb]).orthogonal
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
    means = ext.mean(axis=0)
    start = design.width("b")
    labels = tuple(f"yhat_{start + j}" for j in range(ext.shape[1]))
    return design.appended(ext - means, labels, means)


def correct_blackbox(
    design: EncodedDesign, external_predictions
) -> tuple[TotalModelFit, ImpartialPrediction]:
    """Treat external predictions as suspect covariates and purge their
    sensitive-group dependence via the total rule."""
    augmented = with_blackbox(design, external_predictions)
    fit = fit_total(augmented)
    return fit, predict(fit, augmented, Variant.BLACKBOX_CORRECTED)


def as_all_legitimate(design: EncodedDesign) -> EncodedDesign:
    """Move every suspect column into the legitimate block (B untouched).

    Only the X/W boundary moves; the result shares ``z`` with ``design``.
    """
    return design.merged("xw", "x")


def as_all_suspect(design: EncodedDesign) -> EncodedDesign:
    """Move every legitimate column into the suspect block (B untouched).

    Only the X/W boundary moves; the result shares ``z`` with ``design``.
    """
    return design.merged("xw", "w")
