"""Dense least squares on one R factor and column-space projection.

Every estimate in the package is an OLS regression among the columns of
one matrix M (a design, its response, external predictions). When M = QR
with orthonormal Q, regressing columns T of M on columns P gives the same
coefficients as regressing R[:, T] on R[:, P]. So a caller factors M once
with ``r_factor`` (numpy's Householder QR of row blocks, R only; the
n-row Q is never formed) and reads every regression among its columns
from that R with ``regress``, which factors only the small R. Per-row
values are then M[:, P] @ coefficients.

Which predictors a regression uses is decided by ``independent`` on
R's columns for them: Householder QR with column pivoting (Businger &
Golub, LAPACK's geqp3 rule), each pivot the largest-norm column left in
the earliest block that has any (for a design S, then X, W, B), the
lowest index among norms equal within the rank tolerance. A block's
remaining columns are aliased once their largest norm is at most
max(n, p) * machine epsilon * the largest of the p columns' norms, n the
row count of M, not of R. ``regress`` then needs no pivoting. Aliased
predictors get coefficient 0 and are reported, never an error.
Everything here is deterministic, and no function mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError

# Fixed numerical contract, shared by the test suite. Not configurable.
RECONSTRUCTION_RTOL = 1e-10
# Rows per block that ``r_factor`` factors on its own.
BLOCK_ROWS = 4_096

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

    M is factored by runs of ``BLOCK_ROWS`` rows: the R of M is the R of
    its row blocks' stacked R's (the TSQR identity), and numpy's QR holds
    three copies of what it factors, so no copy of M is made beyond one
    block. Each block is copied side by side in Fortran order, the layout
    LAPACK factors, so numpy makes no transposed copy of it. A matrix of
    ``BLOCK_ROWS`` rows or fewer is one block.
    """
    parts = [np.reshape(b, (len(b), -1)) for b in blocks]
    n, p = len(parts[0]), sum(b.shape[1] for b in parts)
    rs = []
    for i in range(0, n, BLOCK_ROWS):
        m = np.empty((min(BLOCK_ROWS, n - i), p), order="F")
        np.concatenate([b[i : i + BLOCK_ROWS] for b in parts], axis=1, out=m)
        rs.append(np.linalg.qr(m, mode="r"))
    return rs[0] if len(rs) == 1 else np.linalg.qr(np.vstack(rs), mode="r")


def independent(r: np.ndarray, n_rows: int, widths) -> np.ndarray:
    """Mask of the leading sum(``widths``) columns of the matrix M whose R
    factor is ``r`` that the rank rule keeps; ``n_rows`` is M's row count.

    ``widths`` splits those columns into consecutive blocks, and each pivot
    comes from the earliest block with columns left (see the module notes).
    """
    p = sum(widths)
    work = np.array(r[:, :p])
    piv = np.arange(p)
    tol = max(n_rows, p) * _EPS
    limit = tol * np.sqrt(np.einsum("ij,ij->j", work, work)).max(initial=0.0)
    kept = np.zeros(p, dtype=bool)
    j = end = 0
    for width in widths:
        end += width
        while j < min(end, work.shape[0]):
            block = work[j:, j:end]
            norms = np.sqrt(np.einsum("ij,ij->j", block, block))
            top = norms.max()
            if top <= limit:
                break
            c = j + int(np.argmax(norms >= top * (1.0 - tol)))
            work[:, [j, c]] = work[:, [c, j]]
            piv[[j, c]] = piv[[c, j]]
            v = work[j:, j].copy()
            v[0] += top if v[0] >= 0.0 else -top
            tail = work[j:, j + 1 :]
            tail -= np.outer(v, (2.0 / (v @ v)) * (v @ tail))
            kept[piv[j]] = True
            j += 1
        if j < end:  # the block's aliased columns leave the work
            work, piv = np.delete(work, np.s_[j:end], axis=1), np.delete(piv, np.s_[j:end])
            end = j
    return kept


def regress(r: np.ndarray, predictors, targets, kept: np.ndarray) -> np.ndarray:
    """OLS of the columns ``targets`` on the columns ``predictors`` of the
    matrix M whose R factor is ``r``, using only the predictors that
    ``kept`` (indexed by column, from ``independent``) marks.

    ``predictors`` and ``targets`` index columns of ``r`` (a slice or an
    index array). Returns a (len(predictors), len(targets)) array whose
    rows for predictors not kept are 0.0.
    """
    cols = np.arange(r.shape[1])[predictors]
    use, t = kept[cols], r[:, targets]
    coef, k = np.zeros((len(cols), t.shape[1])), int(use.sum())
    if k and t.shape[1]:
        f = np.linalg.qr(np.hstack([r[:, cols[use]], t]), mode="r")
        # f[:k, :k] is upper triangular, so LU's row pivoting is the identity
        # and this solve is a back substitution.
        coef[use] = np.linalg.solve(f[:k, :k], f[:k, k:])
    return coef


def _solve(x: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """OLS coefficients of ``targets`` on every column of ``x`` as one block,
    and the kept mask."""
    n, p = x.shape
    r = r_factor(x, targets)
    kept = independent(r, n, (p,))
    return regress(r, slice(0, p), slice(p, None), kept), kept


def solve_least_squares(design, response) -> LeastSquaresFit:
    """OLS of ``response`` on the columns of ``design``, aliased columns dropped.

    Rank-deficient designs are handled by dropping aliased columns: they
    receive coefficient 0 and are reported in ``dropped_columns``, so the
    returned coefficient vector always aligns with the input columns.
    """
    y = _as_vector(response, "response")
    x, _ = _as_pair(design, y[:, None], ("design", "response"))
    coef, kept = _solve(x, y)
    coef = coef[:, 0]
    fitted = x @ coef
    return LeastSquaresFit(
        coefficients=coef,
        fitted=fitted,
        residuals=y - fitted,
        rank=int(kept.sum()),
        dropped_columns=tuple(np.flatnonzero(~kept).tolist()),
    )


def solve_least_squares_multi(design, responses) -> np.ndarray:
    """OLS coefficients for several response columns against one design.

    Returns a (p, k) coefficient matrix; aliased design columns get zero
    rows.
    """
    return _solve(*_as_pair(design, responses, ("design", "responses")))[0]


def project(basis, target) -> ProjectionPair:
    """Split target into H_basis @ target and (I - H_basis) @ target.

    The projection is basis @ (OLS coefficients of target on basis); the
    n-by-n hat matrix is never formed. A rank-0 or column-free basis
    projects everything to zero.
    """
    b, t = _as_pair(basis, target, ("basis", "target"))
    projected = b @ _solve(b, t)[0]
    return ProjectionPair(projected=projected, orthogonal=t - projected)
