"""Dense least squares, column-space projection, and centering.

Everything here is deterministic and pure: rank decisions use a fixed
tolerance rule, aliased columns are dropped (never an error), and no
function mutates its inputs. All estimators in the package reduce to
these three operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ContractError, DataError

# Fixed numerical contract, shared by the test suite. Not configurable.
RECONSTRUCTION_RTOL = 1e-10
ORTHOGONALITY_RTOL = 1e-8
CENTERING_ATOL = 1e-12


@dataclass(frozen=True)
class LeastSquaresFit:
    """Result of an ordinary least-squares solve.

    ``coefficients`` has one entry per design column; columns dropped for
    rank reasons get coefficient 0.0 and their indices are listed in
    ``dropped_columns``.
    """

    coefficients: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    rank: int
    dropped_columns: tuple[int, ...]


@dataclass(frozen=True)
class ProjectionPair:
    """target split into its components inside and orthogonal to a column space."""

    projected: np.ndarray
    orthogonal: np.ndarray


def _as_matrix(a, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ContractError(f"{name} must be 2-D, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ContractError(f"{name} must have at least one row")
    if not np.all(np.isfinite(m)):
        raise DataError(f"{name} contains non-finite values")
    return m


def _as_right_hand_side(a, name: str) -> np.ndarray:
    """The matrix as a C-contiguous array, copied only when it is strided
    (e.g. a column range of a design): a product with a strided operand may
    round differently, and results must not depend on memory layout."""
    return np.ascontiguousarray(_as_matrix(a, name))


def _as_vector(v, name: str) -> np.ndarray:
    x = np.asarray(v, dtype=float)
    if x.ndim != 1:
        raise ContractError(f"{name} must be 1-D, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DataError(f"{name} contains non-finite values")
    return x


def _pivoted_qr(m: np.ndarray):
    """Economic pivoted QR plus the retained rank under the fixed tolerance.

    Rank rule: keep diagonal entries of R with |r_kk| > max(rows, cols)
    * machine epsilon * |r_00| (pivoting makes |r_00| the largest).
    """
    q, r, piv = scipy.linalg.qr(m, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        return q, r, piv, 0
    tol = max(m.shape) * np.finfo(float).eps * diag[0]
    rank = int(np.sum(diag > tol))
    return q, r, piv, rank


def solve_least_squares(design, response) -> LeastSquaresFit:
    """Minimum-norm-free OLS solve via pivoted QR.

    Rank-deficient designs are handled by dropping aliased columns: they
    receive coefficient 0 and are reported in ``dropped_columns``, so the
    returned coefficient vector always aligns with the input columns.
    """
    x = _as_matrix(design, "design")
    y = _as_vector(response, "response")
    n, p = x.shape
    if y.shape[0] != n:
        raise ContractError(
            f"design has {n} rows but response has {y.shape[0]} entries"
        )
    if p == 0:
        return LeastSquaresFit(
            coefficients=np.zeros(0),
            fitted=np.zeros(n),
            residuals=y.copy(),
            rank=0,
            dropped_columns=(),
        )

    q, r, piv, rank = _pivoted_qr(x)
    coef = np.zeros(p)
    if rank > 0:
        qty = q[:, :rank].T @ y
        z = scipy.linalg.solve_triangular(r[:rank, :rank], qty, lower=False)
        coef[piv[:rank]] = z
    fitted = x @ coef
    return LeastSquaresFit(
        coefficients=coef,
        fitted=fitted,
        residuals=y - fitted,
        rank=rank,
        dropped_columns=tuple(sorted(int(j) for j in piv[rank:])),
    )


def solve_least_squares_multi(design, responses) -> np.ndarray:
    """OLS coefficients for several response columns against one design.

    Returns a (p, k) coefficient matrix; aliased design columns get zero
    rows. Used for the auxiliary regressions where only coefficients are
    needed.
    """
    x = _as_matrix(design, "design")
    ys = _as_right_hand_side(responses, "responses")
    if ys.shape[0] != x.shape[0]:
        raise ContractError(
            f"design has {x.shape[0]} rows but responses has {ys.shape[0]}"
        )
    p, k = x.shape[1], ys.shape[1]
    if p == 0 or k == 0:
        return np.zeros((p, k))
    q, r, piv, rank = _pivoted_qr(x)
    coef = np.zeros((p, k))
    if rank > 0:
        qty = q[:, :rank].T @ ys
        z = scipy.linalg.solve_triangular(r[:rank, :rank], qty, lower=False)
        coef[piv[:rank], :] = z
    return coef


def project(basis, target) -> ProjectionPair:
    """Split target into H_basis @ target and (I - H_basis) @ target.

    Implemented through the QR factors of ``basis``; the n-by-n hat matrix
    is never formed. A rank-0 basis projects everything to zero; a target
    without columns needs no factorization.
    """
    b = _as_matrix(basis, "basis")
    t = _as_right_hand_side(target, "target")
    if b.shape[0] != t.shape[0]:
        raise ContractError(
            f"basis has {b.shape[0]} rows but target has {t.shape[0]}"
        )
    if b.shape[1] == 0 or t.shape[1] == 0:
        return ProjectionPair(projected=np.zeros_like(t), orthogonal=t.copy())
    q, _, _, rank = _pivoted_qr(b)
    if rank == 0:
        return ProjectionPair(projected=np.zeros_like(t), orthogonal=t.copy())
    q1 = q[:, :rank]
    projected = q1 @ (q1.T @ t)
    return ProjectionPair(projected=projected, orthogonal=t - projected)


def column_center(m) -> tuple[np.ndarray, np.ndarray]:
    """Subtract each column's mean; return (centered, means).

    Constant columns center to all-zero. Means are kept so the same shift
    can be re-applied to prediction-time data.
    """
    x = _as_matrix(m, "matrix")
    means = x.mean(axis=0) if x.shape[1] else np.zeros(0)
    return x - means, means
