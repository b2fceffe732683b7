"""Dense least squares on one R factor and column-space projection.

Every estimate in the package is an OLS regression among the columns of
one matrix M (a design, its response, external predictions). When M = QR
with orthonormal Q, regressing columns T of M on columns P gives the same
coefficients as regressing R[:, T] on R[:, P]. So a caller factors M once
with ``r_factor`` (numpy's Householder QR of row blocks, R only; the
n-row Q is never formed) and reads every regression among its columns
from that R with ``regress``, which factors only the small R. Per-row
values are then M[:, P] @ coefficients.

Each ``regress`` decides which of its predictors it uses by one rule
(``independent``): Householder QR with column pivoting (Businger & Golub,
LAPACK's geqp3 rule) on R's columns for them in ascending order, each
pivot the largest-norm column left in the earliest block that has any
(for a design S, then X, W, B), the lowest index among norms equal within
the rank tolerance. A block's remaining columns are aliased once their
largest norm is at most max(n, p) * machine epsilon * the largest of the
p columns' norms, n the row count of M, not of R. Aliased predictors get
coefficient 0 and are reported, never an error.
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


def regress(r: np.ndarray, n_rows: int, predictors, targets, widths=None) -> tuple:
    """OLS of the columns ``targets`` on the columns ``predictors`` (slices
    or index arrays) of the ``n_rows``-row matrix M whose R factor is ``r``:
    the (len(predictors), len(targets)) coefficients, zero rows for the
    predictors not kept, and the kept mask, both in ``predictors`` order.
    ``independent`` decides over the predictors in ascending column order,
    in blocks of ``widths`` (one block when None)."""
    cols = np.arange(r.shape[1])[predictors]
    order = np.argsort(cols, kind="stable")
    kept = np.empty(len(cols), dtype=bool)
    kept[order] = independent(r[:, cols[order]], n_rows, widths or (len(cols),))
    t = r[:, targets]
    coef, k = np.zeros((len(cols), t.shape[1])), int(kept.sum())
    if k and t.shape[1]:
        f = np.linalg.qr(np.hstack([r[:, cols[kept]], t]), mode="r")
        # f[:k, :k] is upper triangular, so LU's row pivoting is the identity
        # and this solve is a back substitution.
        coef[kept] = np.linalg.solve(f[:k, :k], f[:k, k:])
    return coef, kept


def _solve(a, b, names: tuple[str, str]) -> tuple:
    """``a``, ``b`` checked, and ``regress`` of ``b`` on all of ``a`` as one block."""
    x, y = _as_matrix(a, names[0]), _as_matrix(b, names[1])
    if x.shape[0] != y.shape[0]:
        raise ContractError(f"{names[0]} has {x.shape[0]} rows but {names[1]} has {y.shape[0]}")
    p = x.shape[1]
    return x, y, *regress(r_factor(x, y), len(x), slice(0, p), slice(p, None))


def solve_least_squares(design, response) -> LeastSquaresFit:
    """OLS of ``response`` on the columns of ``design``, aliased columns dropped.

    Rank-deficient designs are handled by dropping aliased columns: they
    receive coefficient 0 and are reported in ``dropped_columns``, so the
    returned coefficient vector always aligns with the input columns.
    """
    y = np.asarray(response, dtype=float)
    if y.ndim != 1:
        raise ContractError(f"response must be 1-D, got shape {y.shape}")
    x, _, coef, kept = _solve(design, y[:, None], ("design", "response"))
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
    return _solve(design, responses, ("design", "responses"))[2]


def project(basis, target) -> ProjectionPair:
    """Split target into H_basis @ target and (I - H_basis) @ target.

    The projection is basis @ (OLS coefficients of target on basis); the
    n-by-n hat matrix is never formed. A rank-0 or column-free basis
    projects everything to zero.
    """
    b, t, coef, _ = _solve(basis, target, ("basis", "target"))
    projected = b @ coef
    return ProjectionPair(projected=projected, orthogonal=t - projected)
