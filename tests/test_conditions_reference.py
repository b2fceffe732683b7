"""The one-R impartiality conditions against the n-row formulas they replaced.

``reference_conditions`` is ``metrics.impartiality_conditions`` as it used
to be: a rank check and eta from the R of [standardized S | 1 | X | yhat],
then a second pass that centers the n-row stack [S|X|W|u|eta] and forms
its correlation matrix. The package now reads every condition from one R
factor of [1|S|X|W|u|yhat], which a tall matrix reaches by factoring row
blocks and then their stacked R's; blocks of 1, 7 and 64 rows stand in for
the 4,096 of a large input. Inputs are drawn with empty blocks, constant
columns, constant predictions, predictions close to the span of X, several
sensitive columns and n close to the column count. Both formulas must give
the same error, or the same four gaps within 1e-10 (relative to gaps above
1) plus the rounding of centering: a column whose mean is L times its
spread loses log10(L) digits to centering, in n-row or in R arithmetic
alike, and the projected gaps lose as many more as eta, the part of yhat
that [1|X] does not explain, is smaller than yhat's spread.

With means up to 1e4 times the spread both formulas run on the same
inputs. Near 1e6 times the spread the one-R gaps on exactly shifted inputs
are compared with the reference on the inputs before the shift: moving X,
W, or the predictions together with the response, changes no condition.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impartial import linalg
from impartial.errors import ContractError
from impartial.linalg import r_factor
from impartial.metrics import VAR_GUARD, impartiality_conditions

TOL = 1e-10
_EPS = np.finfo(float).eps


# The reference regression: each call pivots over its own predictors.
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



def _correlations(m: np.ndarray) -> np.ndarray:
    sds = m.std(axis=0)
    ok = sds * sds > VAR_GUARD
    scale = np.where(ok, sds, 1.0)
    centered = m - m.mean(axis=0)
    cor = centered.T @ centered / m.shape[0] / np.outer(scale, scale)
    return np.where(np.outer(ok, ok), cor, 0.0)


def reference_conditions(yhat, target, s, x, w, s_labels=()) -> np.ndarray:
    """The four gaps (residual mean, legitimate, suspect, projected) as one
    vector, by the n-row formulas."""
    u = target - yhat
    (n, p_s), p_x = s.shape, x.shape[1]
    s_sds = s.std(axis=0)
    dead = [s_labels[j] if s_labels else str(j) for j in np.where(s_sds**2 <= VAR_GUARD)[0]]
    if dead:
        raise ContractError(f"sensitive column(s) {dead} are constant; Cor(s) is singular")
    m = np.column_stack([(s - s.mean(axis=0)) / s_sds, np.ones(n), x, yhat])
    r = r_factor(m)
    _, aliased = regress(r, slice(0, p_s), slice(0, 0), n)
    if aliased:
        names = sorted(s_labels[j] if s_labels else str(j) for j in aliased)
        raise ContractError(f"sensitive columns are aliased ({names}); Cor(s) is singular")
    legit = slice(p_s, p_s + 1 + p_x)
    eta = yhat - m[:, legit] @ regress(r, legit, [m.shape[1] - 1], n)[0][:, 0]
    cor = _correlations(np.column_stack([s, x, w, u, eta]))
    cs, cx, cw = slice(0, p_s), slice(p_s, p_s + p_x), slice(p_s + p_x, -2)
    t = np.linalg.solve(cor[cs, cs], cor[-2, cs])
    su = u.std()
    lhs_mean = u.mean() / su if su * su > VAR_GUARD else 0.0
    return np.r_[
        lhs_mean - t @ (s.mean(axis=0) / s_sds),
        cor[-2, cx] - t @ cor[cs, cx],
        cor[-2, cw] - t @ cor[cs, cw],
        cor[-1, cs],
    ]


def conditions(yhat, target, s, x, w, s_labels=()) -> np.ndarray:
    gaps = impartiality_conditions(yhat, target, s, x, w, s_labels)
    return np.r_[gaps.residual_mean, gaps.legitimate, gaps.suspect, gaps.projected]


def dyadic(a: np.ndarray) -> np.ndarray:
    """``a`` on the grid of 2**-24, where adding an integer below 2**28 is exact."""
    return np.round(a * 2.0**24) / 2.0**24


@st.composite
def condition_inputs(draw, locations):
    """(case, shifted, digits): drawn blocks ``case`` = (yhat, target, s, x,
    w, s_labels) on the dyadic grid; ``shifted``, the same with every column
    of S, X and W, and yhat and target together, moved by a whole number
    near a location drawn from ``locations`` times the column's spread plus
    one (exact); and the largest ratio of a move to its column's standard
    deviation, at least 1."""
    p_s, p_x, p_w = draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    extras = draw(st.sets(st.sampled_from(["constant_x", "constant_w", "binary_s"])))
    width = 1 + p_s + p_x + p_w + len(extras) + 2
    n = draw(st.sampled_from([width + 1, width + 3, 40, 200]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = rng.standard_normal((n, p_s))
    if "binary_s" in extras:
        s[:, 0] = rng.standard_normal(n) > 0
    x = rng.standard_normal((n, p_x)) + s[:, :1] * rng.uniform(-1, 1, p_x)
    w = rng.standard_normal((n, p_w)) + s[:, -1:] * rng.uniform(-1, 1, p_w)
    if "constant_x" in extras:
        x = np.insert(x, draw(st.integers(0, p_x)), 1.5, axis=1)
    if "constant_w" in extras:
        w = np.insert(w, draw(st.integers(0, p_w)), -2.25, axis=1)
    target = s @ rng.uniform(-1, 1, p_s) + x.sum(axis=1) - w.sum(axis=1) + rng.standard_normal(n)
    yhat = {
        "noisy": lambda: target + rng.standard_normal(n),
        "constant": lambda: np.full(n, 0.75),
        "near_legitimate": lambda: x.sum(axis=1) + 1e-3 * rng.standard_normal(n),
    }[draw(st.sampled_from(["noisy", "constant", "near_legitimate"]))]()
    case = tuple(map(dyadic, (yhat, target, s, x, w))) + (tuple(f"s{j}" for j in range(p_s)),)

    columns = [case[0], case[1], *case[2].T, *case[3].T, *case[4].T]
    moves = [np.round(draw(st.sampled_from(locations)) * (col.std() + 1.0)) for col in columns]
    moves[0] = moves[1]  # yhat moves with the target
    steps = np.split(np.array(moves[2:]), [p_s, p_s + x.shape[1]])
    shifted = (case[0] + moves[0], case[1] + moves[1]) + tuple(
        block + step for block, step in zip(case[2:5], steps)
    ) + case[5:]
    digits = [abs(m) / col.std() for m, col in zip(moves, columns) if m and col.std()]
    return case, shifted, max([1.0, *digits])


def gap_tolerance(case, digits: float) -> np.ndarray:
    """Per gap, the agreement required with the reference on ``case``: 1e-10
    relative, plus 10 times the rounding that moving columns by ``digits``
    times their spread puts into either formula. Centering such a column
    loses log10(digits) digits, in n-row or in R arithmetic alike; in the
    projected gaps eta, the part of yhat that [1|X] does not explain,
    multiplies that by |yhat - mean| / |eta|."""
    yhat, _, s, x = case[:4]
    n, p_s = s.shape
    basis = np.column_stack([np.ones(n), x])
    eta = yhat - basis @ np.linalg.lstsq(basis, yhat, rcond=None)[0]
    spread = np.linalg.norm(yhat - yhat.mean())
    amplified = spread / np.linalg.norm(eta) if eta @ eta / n > VAR_GUARD else 1.0
    size = 1 + x.shape[1] + case[4].shape[1]
    factor = np.r_[np.ones(size), np.full(p_s, amplified)]
    return TOL + 10 * np.finfo(float).eps * digits * factor


def assert_same_gaps(got, want, tol):
    assert got.shape == want.shape
    excess = np.abs(got - want) / np.maximum(1.0, np.abs(want)) - tol
    assert np.all(excess <= 0.0), (got - want, tol)


def check_against_reference(case, shifted, digits, reference_input):
    try:
        want = reference_conditions(*reference_input)
    except ContractError as exc:
        with pytest.raises(ContractError) as got:
            conditions(*shifted)
        assert str(got.value) == str(exc)
        return
    assert_same_gaps(conditions(*shifted), want, gap_tolerance(case, digits))


@settings(max_examples=300, deadline=None)
@given(
    condition_inputs([0.0, 1.0, -1.0, 1e2, -1e2, 1e4, -1e4]),
    st.sampled_from([linalg.BLOCK_ROWS, 1, 7, 64]),
)
def test_conditions_match_reference(drawn, block_rows):
    # means up to 1e4 times the spread, against the reference on the same
    # inputs; the matrix is factored in one block or in row blocks
    case, shifted, digits = drawn
    with pytest.MonkeyPatch.context() as m:
        m.setattr(linalg, "BLOCK_ROWS", block_rows)
        check_against_reference(case, shifted, 2 * digits, shifted)


@settings(max_examples=100, deadline=None)
@given(condition_inputs([0.0, 2.0**20, -(2.0**20)]))
def test_conditions_on_exactly_shifted_inputs(drawn):
    # means near 1e6 times the spread, against the reference on the inputs
    # before the shift (S keeps its shift: its mean enters the residual-mean
    # condition)
    case, shifted, digits = drawn
    yhat, target, _, x, w, labels = case
    check_against_reference(case, shifted, digits, (yhat, target, shifted[2], x, w, labels))


@pytest.mark.parametrize("kind", ["constant", "aliased", "scaled_copy"])
def test_singular_sensitive_block_raises_the_reference_error(kind):
    rng = np.random.default_rng(91)
    n = 30
    s = rng.standard_normal((n, 3))
    s[:, 1] = {"constant": np.full(n, 4.0), "aliased": s[:, 0] + s[:, 2],
               "scaled_copy": -3.0 * s[:, 2]}[kind]
    x, w = rng.standard_normal((n, 2)), rng.standard_normal((n, 1))
    target = rng.standard_normal(n)
    case = (target + rng.standard_normal(n), target, s, x, w, ("a", "b", "c"))
    with pytest.raises(ContractError) as want:
        reference_conditions(*case)
    with pytest.raises(ContractError) as got:
        conditions(*case)
    assert str(got.value) == str(want.value)
