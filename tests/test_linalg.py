import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impartial.errors import ContractError, DataError
from impartial.harness import simple_example_schema
from impartial.data import encode
from impartial.linalg import (
    column_center,
    project,
    r_factor,
    regress,
    solve_least_squares,
    solve_least_squares_multi,
)


def normal_equations_oracle(design, y):
    """Brute-force OLS via the normal equations (full-rank designs only)."""
    xtx = design.T @ design
    return np.linalg.solve(xtx, design.T @ y)


class TestSolveLeastSquares:
    def test_intercept_only_is_mean(self):
        fit = solve_least_squares([[1.0], [1.0]], [3.0, 5.0])
        assert fit.coefficients == pytest.approx([4.0])
        assert fit.fitted == pytest.approx([4.0, 4.0])

    def test_identity_design(self):
        fit = solve_least_squares(np.eye(2), [2.5, -1.0])
        assert fit.coefficients == pytest.approx([2.5, -1.0])
        assert np.abs(fit.residuals).max() == pytest.approx(0.0, abs=1e-12)

    def test_loan_table_cell_values(self, table1_data):
        edu = np.array([1.0 if e == "high" else 0.0 for e in table1_data.columns["edu"]])
        s_plus = np.array(
            [1.0 if g == "s+" else 0.0 for g in table1_data.columns["group"]]
        )
        design = np.column_stack([np.ones(1000), edu, s_plus])
        fit = solve_least_squares(design, table1_data.columns["default"])
        cells = {
            (0, 0): 0.5,
            (0, 1): 0.4,
            (1, 0): 0.2,
            (1, 1): 0.1,
        }
        for (e, s), expected in cells.items():
            value = fit.coefficients @ [1.0, e, s]
            assert value == pytest.approx(expected, abs=1e-10)

    def test_fit_invariants_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n, p = rng.integers(5, 60), rng.integers(1, 6)
            design = rng.standard_normal((n, p))
            y = rng.standard_normal(n)
            fit = solve_least_squares(design, y)
            np.testing.assert_allclose(fit.fitted + fit.residuals, y, rtol=1e-10, atol=1e-12)
            for j in range(p):
                col = design[:, j]
                bound = 1e-8 * np.linalg.norm(col) * max(np.linalg.norm(fit.residuals), 1e-30)
                assert abs(col @ fit.residuals) <= bound + 1e-12

    def test_agrees_with_normal_equations(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            design = rng.standard_normal((80, 4))
            y = rng.standard_normal(80)
            fit = solve_least_squares(design, y)
            oracle = normal_equations_oracle(design, y)
            np.testing.assert_allclose(fit.coefficients, oracle, rtol=1e-8)

    def test_aliased_column_dropped(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal((30, 2))
        design = np.column_stack([base, base[:, 0] * 2.0])
        y = rng.standard_normal(30)
        fit = solve_least_squares(design, y)
        assert fit.rank == 2
        assert len(fit.dropped_columns) == 1
        dropped = fit.dropped_columns[0]
        assert fit.coefficients[dropped] == 0.0
        # fitted values still optimal: residuals orthogonal to the span
        assert abs(design[:, 0] @ fit.residuals) < 1e-8

    def test_empty_design(self):
        fit = solve_least_squares(np.zeros((3, 0)), [1.0, 2.0, 3.0])
        assert fit.rank == 0
        assert fit.residuals == pytest.approx([1.0, 2.0, 3.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            solve_least_squares(np.ones((3, 1)), [1.0, 2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            solve_least_squares([[np.nan], [1.0]], [1.0, 2.0])
        with pytest.raises(DataError):
            solve_least_squares([[1.0], [1.0]], [np.inf, 2.0])

    def test_multi_matches_single(self):
        rng = np.random.default_rng(3)
        design = rng.standard_normal((40, 3))
        ys = rng.standard_normal((40, 2))
        multi = solve_least_squares_multi(design, ys)
        for k in range(2):
            single = solve_least_squares(design, ys[:, k])
            np.testing.assert_allclose(multi[:, k], single.coefficients, rtol=1e-10)


class TestRegress:
    def test_exact_copies_keep_the_first(self):
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal((2, 50))
        for design in ([a, b, a], [b, a, a], [a, a, b, a]):
            x = np.column_stack(design)
            fit = solve_least_squares(x, rng.standard_normal(50))
            copies = [j for j in range(x.shape[1]) if np.array_equal(x[:, j], a)]
            assert fit.dropped_columns == tuple(copies[1:])

    def test_rank_rule_counts_rows_of_the_matrix(self):
        # c differs from a by 1e-14 of its norm: below 1000 * eps (dropped),
        # above (columns of R) * eps = 2 * eps, which R's row count would give
        rng = np.random.default_rng(9)
        a = rng.standard_normal(1000)
        c = a + 1e-14 * np.linalg.norm(a) * rng.standard_normal(1000) / np.sqrt(1000)
        m = np.column_stack([a, c])
        coef, dropped = regress(r_factor(m), [0, 1], [], 1000)
        assert dropped == (1,) and coef.shape == (2, 0)

    def test_each_regression_pivots_over_its_predictors(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        r = r_factor(x, y)
        for predictors in ([0, 1, 2], [2, 0], [1]):
            coef, dropped = regress(r, predictors, [3], 40)
            want = solve_least_squares(x[:, predictors], y)
            np.testing.assert_allclose(coef[:, 0], want.coefficients, rtol=1e-12)
            assert dropped == want.dropped_columns == ()

    def test_empty_predictors_and_targets(self):
        r = r_factor(np.ones((5, 2)))
        coef, dropped = regress(r, slice(0, 0), [0, 1], 5)
        assert coef.shape == (0, 2) and dropped == ()
        coef, dropped = regress(r, [0, 1], slice(0, 0), 5)
        assert coef.shape == (2, 0) and dropped == (1,)


class TestProject:
    def test_axis_basis(self):
        pair = project([[1.0], [0.0]], [[1.0], [1.0]])
        np.testing.assert_allclose(pair.projected, [[1.0], [0.0]], atol=1e-12)
        np.testing.assert_allclose(pair.orthogonal, [[0.0], [1.0]], atol=1e-12)

    def test_self_projection_idempotent(self):
        rng = np.random.default_rng(4)
        basis = rng.standard_normal((20, 3))
        pair = project(basis, basis)
        np.testing.assert_allclose(pair.projected, basis, rtol=1e-10, atol=1e-12)
        assert np.abs(pair.orthogonal).max() < 1e-10

    def test_against_normal_equations_oracle(self):
        rng = np.random.default_rng(5)
        basis = rng.standard_normal((50, 3))
        target = rng.standard_normal((50, 2))
        pair = project(basis, target)
        np.testing.assert_allclose(pair.projected + pair.orthogonal, target, rtol=1e-10)
        oracle = basis @ np.linalg.solve(basis.T @ basis, basis.T @ target)
        np.testing.assert_allclose(pair.projected, oracle, rtol=1e-8, atol=1e-10)
        cross = basis.T @ pair.orthogonal
        assert np.abs(cross).max() < 1e-8

    def test_idempotence(self):
        rng = np.random.default_rng(6)
        basis = rng.standard_normal((30, 4))
        target = rng.standard_normal((30, 2))
        once = project(basis, target).projected
        twice = project(basis, once).projected
        np.testing.assert_allclose(twice, once, rtol=1e-10, atol=1e-12)

    def test_pythagoras(self):
        rng = np.random.default_rng(7)
        basis = rng.standard_normal((40, 3))
        target = rng.standard_normal((40, 2))
        pair = project(basis, target)
        for j in range(2):
            total = np.sum(target[:, j] ** 2)
            parts = np.sum(pair.projected[:, j] ** 2) + np.sum(pair.orthogonal[:, j] ** 2)
            assert parts == pytest.approx(total, rel=1e-8)

    def test_zero_column_basis(self):
        target = np.ones((4, 1))
        pair = project(np.zeros((4, 0)), target)
        assert np.all(pair.projected == 0.0)
        np.testing.assert_allclose(pair.orthogonal, target)

    def test_rank_zero_basis(self):
        pair = project(np.zeros((4, 2)), np.ones((4, 1)))
        assert np.all(pair.projected == 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            project(np.ones((3, 1)), np.ones((4, 1)))


class TestColumnCenter:
    def test_simple(self):
        centered, means = column_center([[1.0], [3.0]])
        np.testing.assert_allclose(centered, [[-1.0], [1.0]])
        assert means == pytest.approx([2.0])

    def test_constant_column(self):
        centered, means = column_center([[5.0], [5.0], [5.0]])
        assert np.all(centered == 0.0)
        assert means == pytest.approx([5.0])

    def test_loan_table_sensitive_share(self, table1_data):
        design = encode(table1_data, simple_example_schema())
        assert design.s_means == pytest.approx([0.45])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    def test_centered_mean_is_zero(self, values):
        arr = np.asarray(values).reshape(-1, 1)
        centered, _ = column_center(arr)
        assert abs(centered.mean()) <= 1e-12 * max(1.0, np.abs(arr).max())
