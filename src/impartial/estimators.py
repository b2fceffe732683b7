"""Estimator variants derived from a single joint regression fit.

``fit_total`` runs one least-squares fit of the response on all centered
blocks [S|X|W|B] plus the auxiliary regressions needed by the variants.
``predict`` then produces any variant's predictions from that one fit;
only the exclude-sensitive variant needs a refit, which is also computed
(and frozen) at fit time. Prediction-time data is always re-centered with
the training means.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .data import EncodedDesign
from .errors import ContractError, DataError, VariantError
from .linalg import project, solve_least_squares, solve_least_squares_multi


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
class TotalModelFit:
    """Coefficients of the joint fit plus the auxiliary regressions.

    The suspect and black-box blocks are fitted jointly; ``beta_w`` and
    ``beta_b`` are the two slices of that combined coefficient vector.
    ``lambda_sx_for_wb`` regresses each [W|B] column on [S|X] (rows: S
    columns first, then X); ``lambda_x_for_s`` regresses each S column on
    X. ``marginal_coefs`` comes from the exclude-sensitive refit on [X|W|B].
    """

    beta0: float
    beta_s: np.ndarray
    beta_x: np.ndarray
    beta_w: np.ndarray
    beta_b: np.ndarray
    lambda_sx_for_wb: np.ndarray
    lambda_x_for_s: np.ndarray
    marginal_coefs: np.ndarray
    s_labels: tuple[str, ...]
    x_labels: tuple[str, ...]
    w_labels: tuple[str, ...]
    b_labels: tuple[str, ...]
    s_means: np.ndarray
    x_means: np.ndarray
    w_means: np.ndarray
    b_means: np.ndarray
    n: int

    @property
    def beta_wb(self) -> np.ndarray:
        return np.concatenate([self.beta_w, self.beta_b])

    @property
    def p_s(self) -> int:
        return len(self.s_labels)

    @property
    def p_x(self) -> int:
        return len(self.x_labels)

    @property
    def p_wb(self) -> int:
        return len(self.w_labels) + len(self.b_labels)


@dataclass(frozen=True)
class ImpartialPrediction:
    variant: Variant
    values: np.ndarray


def fit_total(design: EncodedDesign) -> TotalModelFit:
    """Fit the joint model and every auxiliary regression the variants need."""
    n = design.n_rows
    if n < 1:
        raise ContractError("design has no rows")
    s, x = design.s, design.x
    wb = np.hstack([design.w, design.b])
    p_total = s.shape[1] + x.shape[1] + wb.shape[1]
    if p_total == 0:
        raise ContractError("all covariate blocks are empty; nothing to fit")
    if n <= p_total + 1:
        warnings.warn(
            f"only {n} rows for {p_total} covariate columns; fit may be rank-deficient",
            stacklevel=2,
        )

    y_centered = design.y - design.y.mean()
    full = solve_least_squares(np.hstack([s, x, wb]), y_centered)
    coef = full.coefficients
    p_s, p_x = s.shape[1], x.shape[1]
    p_w = design.w.shape[1]
    beta_s = coef[:p_s]
    beta_x = coef[p_s : p_s + p_x]
    beta_wb = coef[p_s + p_x :]

    sx = np.hstack([s, x])
    lambda_sx_for_wb = solve_least_squares_multi(sx, wb)
    lambda_x_for_s = solve_least_squares_multi(x, s)
    marginal = solve_least_squares_multi(
        np.hstack([x, wb]), y_centered.reshape(-1, 1)
    )[:, 0]

    return TotalModelFit(
        beta0=float(design.y.mean()),
        beta_s=beta_s,
        beta_x=beta_x,
        beta_w=beta_wb[:p_w],
        beta_b=beta_wb[p_w:],
        lambda_sx_for_wb=lambda_sx_for_wb,
        lambda_x_for_s=lambda_x_for_s,
        marginal_coefs=marginal,
        s_labels=design.s_labels,
        x_labels=design.x_labels,
        w_labels=design.w_labels,
        b_labels=design.b_labels,
        s_means=design.s_means,
        x_means=design.x_means,
        w_means=design.w_means,
        b_means=design.b_means,
        n=n,
    )


def _aligned_blocks(fit: TotalModelFit, design: EncodedDesign):
    """Design blocks re-centered at the training means.

    The design's own centering is undone by adding back its means and the
    training means are removed instead; when the design *is* the training
    design the adjustment is exactly zero.
    """
    for key in ("s", "x", "w", "b"):
        if design.labels(key) != getattr(fit, f"{key}_labels"):
            raise ContractError(
                f"design {key.upper()}-block columns {design.labels(key)} do not match "
                f"the fit's training columns {getattr(fit, f'{key}_labels')}"
            )
    out = {}
    for key in ("s", "x", "w", "b"):
        block = design.block(key)
        delta = design.means(key) - getattr(fit, f"{key}_means")
        out[key] = block + delta if block.shape[1] else block
    return out["s"], out["x"], out["w"], out["b"]


def predict(
    fit: TotalModelFit, design: EncodedDesign, variant: Variant
) -> ImpartialPrediction:
    """Predictions for one estimator variant, on training or new rows.

    Variant rules (all on blocks centered at the training means):

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
    s, x, w, b = _aligned_blocks(fit, design)
    wb = np.hstack([w, b])

    if variant is Variant.FEO and fit.p_wb:
        raise VariantError(
            "FEO requires empty suspect/black-box blocks; use the total variant"
        )
    if variant is Variant.FSEO and fit.p_x:
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
        values = fit.beta0 + np.hstack([x, wb]) @ fit.marginal_coefs
    elif variant is Variant.MARGINAL:
        values = np.full(design.n_rows, fit.beta0)
    elif variant in (
        Variant.TOTAL, Variant.FEO, Variant.FSEO, Variant.BLACKBOX_CORRECTED
    ):
        lambda_s = fit.lambda_sx_for_wb[: fit.p_s, :]
        values = fit.beta0 + x @ fit.beta_x + (wb - s @ lambda_s) @ fit.beta_wb
    else:
        raise VariantError(f"unknown variant {variant!r}")
    return ImpartialPrediction(variant=variant, values=values)


def impartial_suspect_parts(
    fit: TotalModelFit, design: EncodedDesign
) -> tuple[np.ndarray, np.ndarray]:
    """The two suspect-block pieces the total rule adds together.

    Returns (what, unique): ``what`` is the impartial estimate of each
    [W|B] column (joint regression on [S|X], sensitive part dropped) and
    ``unique`` is [W|B] minus its full [S|X] fit. Exposed for tests and
    reports; predict() uses the algebraically reduced form.
    """
    s, x, w, b = _aligned_blocks(fit, design)
    wb = np.hstack([w, b])
    p_s = fit.p_s
    lam_s = fit.lambda_sx_for_wb[:p_s, :]
    lam_x = fit.lambda_sx_for_wb[p_s:, :]
    what = x @ lam_x
    unique = wb - s @ lam_s - x @ lam_x
    return what, unique


def residualize_suspect(design: EncodedDesign) -> EncodedDesign:
    """Replace the suspect (and black-box) block by its part orthogonal to S,
    re-labeled legitimate.

    The projection is computed on this design's rows; refitting the total
    model on the result leaves the suspect coefficients unchanged.
    """
    if design.s.shape[1] == 0:
        warnings.warn("no sensitive columns; residualize_suspect is a no-op", stacklevel=2)
        return design
    wb = np.hstack([design.w, design.b])
    if wb.shape[1] == 0:
        return design
    orth = project(design.s, wb).orthogonal
    labels = tuple(f"resid_{name}" for name in design.w_labels + design.b_labels)
    return design.replace(
        x=np.hstack([design.x, orth]),
        x_labels=design.x_labels + labels,
        x_means=np.concatenate(
            [design.x_means, design.w_means, design.b_means]
        ),
        w=np.zeros((design.n_rows, 0)),
        b=np.zeros((design.n_rows, 0)),
        w_labels=(),
        b_labels=(),
        w_means=np.zeros(0),
        b_means=np.zeros(0),
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
    start = len(design.b_labels)
    labels = tuple(f"yhat_{start + j}" for j in range(ext.shape[1]))
    return design.replace(
        b=np.hstack([design.b, ext - means]),
        b_labels=design.b_labels + labels,
        b_means=np.concatenate([design.b_means, means]),
    )


def correct_blackbox(
    design: EncodedDesign, external_predictions
) -> tuple[TotalModelFit, ImpartialPrediction]:
    """Treat external predictions as suspect covariates and purge their
    sensitive-group dependence via the total rule."""
    augmented = with_blackbox(design, external_predictions)
    fit = fit_total(augmented)
    return fit, predict(fit, augmented, Variant.BLACKBOX_CORRECTED)


def as_all_legitimate(design: EncodedDesign) -> EncodedDesign:
    """Move every suspect column into the legitimate block (B untouched)."""
    if design.w.shape[1] == 0:
        return design
    return design.replace(
        x=np.hstack([design.x, design.w]),
        x_labels=design.x_labels + design.w_labels,
        x_means=np.concatenate([design.x_means, design.w_means]),
        w=np.zeros((design.n_rows, 0)),
        w_labels=(),
        w_means=np.zeros(0),
    )


def as_all_suspect(design: EncodedDesign) -> EncodedDesign:
    """Move every legitimate column into the suspect block (B untouched)."""
    if design.x.shape[1] == 0:
        return design
    return design.replace(
        w=np.hstack([design.x, design.w]),
        w_labels=design.x_labels + design.w_labels,
        w_means=np.concatenate([design.x_means, design.w_means]),
        x=np.zeros((design.n_rows, 0)),
        x_labels=(),
        x_means=np.zeros(0),
    )
