"""Dense least squares on one R factor, column-space projection, centering.

Every estimate in the package is an OLS regression among the columns of
one matrix M (a design, its response, external predictions). When M = QR
with orthonormal Q, regressing columns T of M on columns P gives the same
coefficients as regressing R[:, T] on R[:, P]. So a caller factors M once
with ``r_factor`` (numpy's Householder QR, R only; the n-row Q is never
formed) and reads every regression among its columns from that R with
``regress``, which factors only the small R. Per-row values are then
M[:, P] @ coefficients.

``regress`` runs a Householder QR with column pivoting (Businger & Golub,
the rule of LAPACK's geqp3) on R[:, P]: each step takes the remaining
column of largest norm, the lowest index among norms equal to within the
rank tolerance. Rank rule: keep pivot k while |r_kk| > max(n, |P|) *
machine epsilon * |r_00|, where n is the row count of M, not of R.
Predictors past the rank are aliased: they get coefficient 0 and are
reported, never an error. Everything here is deterministic, and no
function mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError

# Fixed numerical contract, shared by the test suite. Not configurable.
RECONSTRUCTION_RTOL = 1e-10

_EPS = np.finfo(float).eps


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


def _as_pair(a, b, names: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
    x, y = _as_matrix(a, names[0]), _as_matrix(b, names[1])
    if x.shape[0] != y.shape[0]:
        raise ContractError(f"{names[0]} has {x.shape[0]} rows but {names[1]} has {y.shape[0]}")
    return x, y


def _as_vector(v, name: str) -> np.ndarray:
    x = np.asarray(v, dtype=float)
    if x.ndim != 1:
        raise ContractError(f"{name} must be 1-D, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DataError(f"{name} contains non-finite values")
    return x


def r_factor(*blocks) -> np.ndarray:
    """The upper-triangular (or trapezoidal) R, min(n, p) by p, of M = QR
    for M = [blocks] side by side (2-D blocks, 1-D arrays as columns).

    M is assembled in Fortran order, the layout LAPACK factors, so numpy
    makes no transposed copies of it; copying 4,096 rows at a time keeps
    the transposing copy in cache.
    """
    parts = [np.reshape(b, (len(b), -1)) for b in blocks]
    m = np.empty((len(parts[0]), sum(b.shape[1] for b in parts)), order="F")
    for i in range(0, m.shape[0], 4096):
        np.concatenate([b[i : i + 4096] for b in parts], axis=1, out=m[i : i + 4096])
    return np.linalg.qr(m, mode="r")


def regress(r: np.ndarray, predictors, targets, n_rows: int):
    """OLS of the columns ``targets`` on the columns ``predictors`` of the
    matrix M whose R factor is ``r``; ``n_rows`` is M's row count.

    ``predictors`` and ``targets`` index columns of ``r`` (a slice or an
    index array). Returns ``(coefficients, dropped)``: a
    (len(predictors), len(targets)) array whose rows for aliased
    predictors are 0.0, and those predictors' positions, sorted.
    """
    a = r[:, predictors]
    k = a.shape[1]
    work = np.hstack([a, r[:, targets]])
    piv, tol, limit, rank = np.arange(k), max(n_rows, k) * _EPS, 0.0, 0
    for j in range(min(work.shape[0], k)):
        block = work[j:, j:k]
        norms = np.sqrt(np.einsum("ij,ij->j", block, block))
        top = norms.max()
        if top <= limit:
            break
        limit, rank = limit or tol * top, j + 1
        c = j + int(np.argmax(norms >= top * (1.0 - tol)))
        work[:, [j, c]] = work[:, [c, j]]
        piv[[j, c]] = piv[[c, j]]
        v = work[j:, j].copy()
        alpha = -top if v[0] >= 0.0 else top
        v[0] -= alpha
        tail = work[j:, j + 1 :]
        tail -= np.outer(v, (2.0 / (v @ v)) * (v @ tail))
        work[j, j] = alpha
    coef = np.zeros((k, work.shape[1] - k))
    for i in reversed(range(rank)):
        rhs = work[i, k:] - work[i, i + 1 : rank] @ coef[piv[i + 1 : rank]]
        coef[piv[i]] = rhs / work[i, i]
    return coef, tuple(sorted(int(i) for i in piv[rank:]))


def solve_least_squares(design, response) -> LeastSquaresFit:
    """OLS of ``response`` on the columns of ``design``, aliased columns dropped.

    Rank-deficient designs are handled by dropping aliased columns: they
    receive coefficient 0 and are reported in ``dropped_columns``, so the
    returned coefficient vector always aligns with the input columns.
    """
    y = _as_vector(response, "response")
    x, _ = _as_pair(design, y[:, None], ("design", "response"))
    n, p = x.shape
    coef, dropped = regress(r_factor(x, y), slice(0, p), [p], n)
    coef = coef[:, 0]
    fitted = x @ coef
    return LeastSquaresFit(
        coefficients=coef,
        fitted=fitted,
        residuals=y - fitted,
        rank=p - len(dropped),
        dropped_columns=dropped,
    )


def solve_least_squares_multi(design, responses) -> np.ndarray:
    """OLS coefficients for several response columns against one design.

    Returns a (p, k) coefficient matrix; aliased design columns get zero
    rows.
    """
    x, ys = _as_pair(design, responses, ("design", "responses"))
    p = x.shape[1]
    return regress(r_factor(x, ys), slice(0, p), slice(p, None), x.shape[0])[0]


def project(basis, target) -> ProjectionPair:
    """Split target into H_basis @ target and (I - H_basis) @ target.

    The projection is basis @ (OLS coefficients of target on basis); the
    n-by-n hat matrix is never formed. A rank-0 or column-free basis
    projects everything to zero.
    """
    b, t = _as_pair(basis, target, ("basis", "target"))
    p = b.shape[1]
    coef, _ = regress(r_factor(b, t), slice(0, p), slice(p, None), b.shape[0])
    projected = b @ coef
    return ProjectionPair(projected=projected, orthogonal=t - projected)


def column_center(m) -> tuple[np.ndarray, np.ndarray]:
    """Subtract each column's mean; return (centered, means).

    Constant columns center to all-zero. Means are kept so the same shift
    can be re-applied to prediction-time data.
    """
    x = _as_matrix(m, "matrix")
    means = x.mean(axis=0) if x.shape[1] else np.zeros(0)
    return x - means, means
