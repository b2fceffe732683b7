"""Estimator variants derived from a single joint regression fit.

A design holds rows, a fit holds R: ``fit_total`` factors the training
design's [Z|y] once, and every regression a variant or a decomposition
needs is read from that R once (``TotalModelFit.regress``), deciding rank
over its own predictors, blocks in the order S, X, W, B (see ``linalg``).
Blocks are column ranges of Z = [S|X|W|B], so every regression and every
rule slices by column range, and a role change (a ``RoleView``,
``residualize_suspect``) moves block boundaries instead of restacking.
Each variant is a rule under a role view, named in one table
(``VARIANTS``); ``predict`` applies the view to the fit and the design,
and a view of a fit is the fit of that view, sharing its reads.
Prediction-time data is always re-centered with the training means.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import BLOCKS, BlockLayout, EncodedDesign, RoleView
from .errors import ContractError, DataError, VariantError
from .linalg import r_factor, regress


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
    """The training design's statistic, and the regressions read from it.

    A fit stores the training design's layout (columns, means, block
    widths), the response mean ``beta0``, the row count ``n`` and ``r``,
    its read-only R of [Z|y]. Every regression is read from ``r`` by
    ``regress``, once: ``coefficients``, the joint fit over Z = [S|X|W|B]
    (``beta_s`` ... ``beta_wb`` are its slices; ``dropped_labels`` names
    its aliased columns, whose coefficients are 0.0), ``lambda_sx_for_wb``
    ([W|B] on [S|X], S rows first), ``lambda_x_for_s`` (S on X) and
    ``marginal_coefs`` (the exclude-sensitive refit on [X|W|B]). Each
    decides rank over its own predictors, so a column aliased only with S
    stays in the last two, and a role view of a fit derives the bits of
    the viewed design's fit. A view is a ``replace`` of the widths, which
    shares ``reads``, so no regression is run twice on one R.
    """

    beta0: float
    n: int
    r: np.ndarray
    reads: dict = field(default_factory=dict, compare=False, repr=False)

    def regress(self, keys: str, targets: str) -> tuple[np.ndarray, np.ndarray]:
        """``linalg.regress`` of the blocks ``targets`` ("y" for the
        response) on the blocks ``keys`` (rows in the order named), rank
        decided over those blocks in S, X, W, B order: the read-only
        coefficients and kept mask, run on the first call under these
        widths and kept in ``reads``."""
        key = (keys, targets, self.widths)
        if key not in self.reads:
            columns = [len(self.columns)] if targets == "y" else self.index(targets)
            widths = [self.width(k) for k in BLOCKS if k in keys]
            result = regress(self.r, self.n, self.index(keys), columns, widths)
            for a in result:
                a.flags.writeable = False
            self.reads[key] = result
        return self.reads[key]

    @classmethod
    def of(cls, design: EncodedDesign) -> "TotalModelFit":
        """``design``'s statistic, without ``fit_total``'s checks, which
        only the joint fit needs."""
        beta0 = float(design.y.mean())
        r = r_factor(design.z, design.y - beta0)
        r.flags.writeable = False
        return cls(columns=design.columns, column_means=design.column_means,
                   widths=design.widths, beta0=beta0, n=design.n_rows, r=r)

    _joint = property(lambda self: self.regress("sxwb", "y"))
    coefficients = property(lambda self: self._joint[0][:, 0])
    dropped_labels = property(
        lambda self: tuple(c for c, k in zip(self.columns, self._joint[1]) if not k)
    )
    beta_s = property(lambda self: self.coefficients[self.index("s")])
    beta_x = property(lambda self: self.coefficients[self.index("x")])
    beta_w = property(lambda self: self.coefficients[self.index("w")])
    beta_b = property(lambda self: self.coefficients[self.index("b")])
    beta_wb = property(lambda self: self.coefficients[self.index("wb")])
    lambda_sx_for_wb = property(lambda self: self.regress("sx", "wb")[0])
    lambda_x_for_s = property(lambda self: self.regress("x", "s")[0])
    marginal_coefs = property(lambda self: self.regress("xwb", "y")[0][:, 0])


@dataclass(frozen=True)
class ImpartialPrediction:
    variant: Variant
    values: np.ndarray


def fit_total(design: EncodedDesign) -> TotalModelFit:
    """The joint fit of ``design``: its statistic, regressions read from it."""
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
    return TotalModelFit.of(design)


def predict(
    fit: TotalModelFit, design: EncodedDesign, variant: Variant
) -> ImpartialPrediction:
    """Predictions for one estimator variant, on training or new rows.

    The variant's view (``VARIANTS``) is applied to ``fit`` and to
    ``design``, which must then have the fit's columns and block widths;
    a view of a fit is the fit of that view. Rules, on the blocks of Z
    re-centered at the training means:

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
    fit = view(fit)
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
    lambda_s = TotalModelFit.of(design).regress("s", "wb")[0]
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
