"""The one-R-factor solver against the scipy pivoted-QR solver it replaced.

``reference_solve``, ``reference_solve_multi`` and ``reference_project``
are the solvers ``impartial.linalg`` used to be: scipy's economic QR with
column pivoting of the n-row design, an explicit Q and a triangular solve,
with the same rank rule. The package now factors each matrix once with
numpy and pivots only on the small R (``linalg.r_factor`` and
``linalg.regress``). On awkward designs both must keep the same rank and
drop the same columns, where exact copies of a column count as one: LAPACK
breaks that tie by rounding, the one-R solver always keeps the first copy.

Coefficients, fitted values, residuals and projections agree to 1e-10
relative (in 2-norm), or, where it is larger, to 10 times the
first-order perturbation bound of least squares for a relative error of
eps in the data (Golub & Van Loan, 5.3.7): with s the largest singular
value of the kept columns, kappa their condition number and r the
residual, the coefficients move by up to eps * kappa / s * (|y| + s |c| +
kappa |r|), and evaluating X c adds eps * (s |c| + kappa |y|) to the
fitted values. The bound exceeds 1e-10 only for a near-collinear column (a
copy plus 1e-4 noise, kappa up to about 1e6 on a few rows), where both
solvers are about 1e-9 from a long-double solution.

The estimators are checked the same way: ``fit_total``, ``decompose`` and
``impartiality_score`` with every regression routed through the reference
solver on the n-row matrix, against the one-R path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impartial import data, decomposition, estimators, metrics
from impartial.data import encode
from impartial.decomposition import COMPONENT_NAMES, Mode, decompose
from impartial.estimators import Variant, fit_total, predict, with_blackbox
from impartial.harness import default_dag_spec, gen_dag, gen_wine_like
from impartial.linalg import project, solve_least_squares, solve_least_squares_multi
from impartial.metrics import ScoreMode, impartiality_score

scipy_linalg = pytest.importorskip("scipy.linalg")

TOL = 1e-10
EPS = np.finfo(float).eps


def _pivoted_qr(m):
    q, r, piv = scipy_linalg.qr(m, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        return q, r, piv, 0
    tol = max(m.shape) * EPS * diag[0]
    return q, r, piv, int(np.sum(diag > tol))


def reference_solve_multi(design, responses):
    """(coefficients, rank, dropped columns) of the old multi-response solve."""
    x = np.asarray(design, dtype=float)
    ys = np.ascontiguousarray(responses, dtype=float)
    p, k = x.shape[1], ys.shape[1]
    coef = np.zeros((p, k))
    if p == 0 or k == 0:
        return coef, 0, ()
    q, r, piv, rank = _pivoted_qr(x)
    if rank > 0:
        qty = q[:, :rank].T @ ys
        coef[piv[:rank], :] = scipy_linalg.solve_triangular(r[:rank, :rank], qty, lower=False)
    return coef, rank, tuple(sorted(int(j) for j in piv[rank:]))


def reference_solve(design, response):
    """(coefficients, fitted, rank, dropped columns) of the old solve."""
    x = np.asarray(design, dtype=float)
    coef, rank, dropped = reference_solve_multi(x, np.reshape(response, (-1, 1)))
    return coef[:, 0], x @ coef[:, 0], rank, dropped


def reference_project(basis, target):
    """The old projection: Q1 Q1^T target with Q1 from the pivoted QR."""
    b = np.asarray(basis, dtype=float)
    t = np.ascontiguousarray(target, dtype=float)
    if b.shape[1] == 0 or t.shape[1] == 0:
        return np.zeros_like(t)
    q, _, _, rank = _pivoted_qr(b)
    q1 = q[:, :rank]
    return q1 @ (q1.T @ t)


def reference_r_factor(*blocks):
    """Stand-in for ``r_factor``: the n-row matrix itself, unfactored."""
    return np.column_stack([np.reshape(b, (len(b), -1)) for b in blocks])


def reference_regress(m, predictors, targets, n_rows):
    coef, _, dropped = reference_solve_multi(m[:, predictors], m[:, targets])
    return coef, dropped


def copies(x) -> np.ndarray:
    """For every column, the index of its first exact copy."""
    return np.array([
        next(k for k in range(j + 1) if np.array_equal(x[:, k], x[:, j]))
        for j in range(x.shape[1])
    ], dtype=int)


def folded(coef, first):
    """Coefficients summed over exact copies of a column (same fitted values)."""
    out = np.zeros_like(coef)
    np.add.at(out, first, coef)
    return out


def tolerances(x, dropped, coef, y) -> tuple[float, float]:
    """The largest coefficient and fitted-value differences (2-norm) the
    comparison allows: 1e-10 relative, or 10 times the perturbation bound."""
    kept = np.delete(x, list(dropped), axis=1)
    c = np.delete(coef, list(dropped))
    norm_c, norm_y = float(np.linalg.norm(c)), float(np.linalg.norm(y))
    if kept.shape[1] == 0:
        return TOL * norm_c, TOL * norm_y
    sv = np.linalg.svd(kept, compute_uv=False)
    s, kappa = float(sv[0]), float(sv[0] / sv[-1])
    residual = float(np.linalg.norm(y - kept @ c))
    coef_bound = EPS * kappa / s * (norm_y + s * norm_c + kappa * residual)
    fitted_bound = EPS * (s * norm_c + kappa * norm_y)
    return max(TOL * norm_c, 10 * coef_bound), max(TOL * norm_y, 10 * fitted_bound)


def assert_close(got, want, scale, rtol=TOL):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rtol * max(scale, 1e-300)


@st.composite
def designs(draw):
    """(x, targets): a random x with the drawn awkward columns inserted, and
    two response columns."""
    shape = draw(st.sampled_from(["tall", "square_plus_one", "wide"]))
    p = draw(st.integers(0 if shape == "tall" else 2, 6))
    extras = draw(st.lists(
        st.sampled_from(["duplicate", "scaled", "constant", "zero", "near"]), max_size=3
    ))
    if p == 0:
        extras = [e for e in extras if e in ("constant", "zero")]
    width = p + len(extras)
    n = {"tall": draw(st.integers(width + 2, 60)), "square_plus_one": width + 1,
         "wide": draw(st.integers(1, max(1, width - 1)))}[shape]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = list(rng.standard_normal((p, n)) * draw(st.sampled_from([1.0, 1e-3, 1e3])))
    for extra in extras:
        source = columns[draw(st.integers(0, p - 1))] if p else None
        columns.insert(draw(st.integers(0, len(columns))), {
            "duplicate": lambda: source.copy(),
            "scaled": lambda: 2.0 * source,
            "constant": lambda: np.full(n, 3.25),
            "zero": lambda: np.zeros(n),
            "near": lambda: source + 1e-4 * np.std(source) * rng.standard_normal(n),
        }[extra]())
    x = np.column_stack(columns) if columns else np.zeros((n, 0))
    if draw(st.booleans()):
        x = x - x.mean(axis=0)
    return x, rng.standard_normal((n, 2))


@settings(max_examples=300, deadline=None)
@given(designs())
def test_solvers_match_reference(case):
    x, targets = case
    first = copies(x)
    multi, _, _ = reference_solve_multi(x, targets)
    got_multi = solve_least_squares_multi(x, targets)
    pair = project(x, targets)
    projected = reference_project(x, targets)
    for k, y in enumerate(targets.T):
        coef, fitted, rank, dropped = reference_solve(x, y)
        fit = solve_least_squares(x, y)
        assert fit.rank == rank
        assert sorted(first[list(fit.dropped_columns)]) == sorted(first[list(dropped)])
        coef_tol, fitted_tol = tolerances(x, dropped, coef, y)
        assert np.linalg.norm(folded(fit.coefficients, first) - folded(coef, first)) <= coef_tol
        assert np.linalg.norm(folded(got_multi[:, k], first) - folded(multi[:, k], first)) <= coef_tol
        assert np.linalg.norm(fit.fitted - fitted) <= fitted_tol
        assert np.linalg.norm(fit.residuals - (y - fitted)) <= fitted_tol
        assert np.linalg.norm(pair.projected[:, k] - projected[:, k]) <= fitted_tol
        assert np.linalg.norm(pair.orthogonal[:, k] - (y - projected[:, k])) <= fitted_tol


def test_empty_predictor_set():
    y = np.array([1.0, -2.0, 4.0])
    fit = solve_least_squares(np.zeros((3, 0)), y)
    coef, fitted, rank, dropped = reference_solve(np.zeros((3, 0)), y)
    assert (fit.rank, fit.dropped_columns) == (rank, dropped) == (0, ())
    np.testing.assert_array_equal(fit.fitted, fitted)
    assert solve_least_squares_multi(np.zeros((3, 0)), np.ones((3, 2))).shape == (0, 2)
    np.testing.assert_array_equal(project(np.zeros((3, 0)), np.ones((3, 2))).projected, 0.0)


def _wine():
    return encode(*gen_wine_like(n=1500, seed=3))


def _dag():
    return encode(*gen_dag(default_dag_spec(n=2000, p_x_observed=6, p_w=4, seed=4)))


def _estimates(make_design):
    """fit_total, total decompose and both impartiality scores on a fresh design."""
    design = make_design()
    fit = fit_total(design)
    full = predict(fit, design, Variant.FULL).values
    report = decompose(fit, design, Mode.TOTAL)
    noisy = full + np.random.default_rng(0).standard_normal(design.n_rows)
    augmented = with_blackbox(design, noisy)
    corrected_fit = fit_total(augmented)
    corrected = predict(corrected_fit, augmented, Variant.BLACKBOX_CORRECTED).values
    return {
        "coefficients": fit.coefficients,
        "lambda_sx_for_wb": fit.lambda_sx_for_wb,
        "lambda_x_for_s": fit.lambda_x_for_s,
        "marginal_coefs": fit.marginal_coefs,
        "corrected_coefficients": corrected_fit.coefficients,
        "dropped": fit.dropped_labels + corrected_fit.dropped_labels,
        "components": np.column_stack([report.component(c) for c in COMPONENT_NAMES]),
        "fitted": full,
        "is_seo": impartiality_score(noisy, design, design.y, ScoreMode.SEO),
        "is_feo": impartiality_score(noisy, design, design.y, ScoreMode.FEO),
        "is_corrected": impartiality_score(corrected, augmented, design.y, ScoreMode.SEO),
    }


@pytest.mark.parametrize("make_design", [_wine, _dag], ids=["wine", "dag_px6_pw4"])
def test_estimators_match_reference(make_design, monkeypatch):
    got = _estimates(make_design)
    for module in (data, decomposition, metrics):
        monkeypatch.setattr(module, "r_factor", reference_r_factor)
    for module in (estimators, decomposition, metrics):
        monkeypatch.setattr(module, "regress", reference_regress)
    want = _estimates(make_design)

    assert got["dropped"] == want["dropped"]
    for key in ("coefficients", "lambda_sx_for_wb", "lambda_x_for_s", "marginal_coefs",
                "corrected_coefficients"):
        assert_close(got[key], want[key], float(np.max(np.abs(want[key]), initial=0.0)))
    assert_close(got["components"], want["components"], float(np.max(np.abs(want["fitted"]))))
    for key in ("is_seo", "is_feo", "is_corrected"):
        assert_close(got[key], want[key], max(1.0, abs(want[key])))
