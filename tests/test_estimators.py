import numpy as np
import pytest

from conftest import build_design, cell_values, random_design
from impartial.data import Role, encode, take_design
from impartial.decomposition import Mode, decompose
from impartial.errors import ContractError, DataError, VariantError
from impartial.estimators import (
    Variant,
    as_all_legitimate,
    as_all_suspect,
    correct_blackbox,
    fit_total,
    predict,
    residualize_suspect,
    with_blackbox,
)
from impartial.harness import simple_example_schema
from impartial.linalg import solve_least_squares

ALL_PREDICTABLE = (
    Variant.FULL,
    Variant.EXCLUDE_S,
    Variant.MARGINAL,
    Variant.TOTAL,
)


@pytest.fixture(scope="module")
def table1_fit(table1_design):
    return fit_total(table1_design)


@pytest.fixture(scope="module")
def suspect_design(table1_data):
    return encode(table1_data, simple_example_schema(Role.SUSPECT))


class TestFitTotal:
    def test_loan_table_coefficients(self, table1_fit):
        assert table1_fit.beta0 == pytest.approx(0.335, abs=1e-10)
        assert table1_fit.beta_x == pytest.approx([-0.3], abs=1e-10)
        assert table1_fit.beta_s == pytest.approx([-0.1], abs=1e-10)

    def test_two_group_fit_is_group_means(self):
        y = np.array([1.0, 2.0, 3.0, 7.0, 8.0, 9.0])
        s = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        design = build_design(y, s=s)
        fit = fit_total(design)
        assert fit.beta0 == pytest.approx(y.mean())
        assert fit.beta_s == pytest.approx([8.0 - 2.0])

    def test_full_variant_matches_one_shot_solve(self):
        rng = np.random.default_rng(10)
        design = random_design(rng, n=200, p_s=2, p_x=3, p_w=2)
        fit = fit_total(design)
        pred = predict(fit, design, Variant.FULL)
        concat = np.hstack([design.s, design.x, design.w])
        oracle = solve_least_squares(concat, design.y - design.y.mean())
        np.testing.assert_allclose(
            pred.values, oracle.fitted + design.y.mean(), rtol=1e-10, atol=1e-10
        )

    def test_empty_design_rejected(self):
        with pytest.raises(ContractError):
            fit_total(build_design(np.arange(4.0)))

    def test_rank_warning(self):
        rng = np.random.default_rng(11)
        design = build_design(
            rng.standard_normal(4), s=rng.standard_normal((4, 2)), x=rng.standard_normal((4, 2))
        )
        with pytest.warns(UserWarning, match="rank"):
            fit_total(design)


class TestPredictVariants:
    def test_feo_cells(self, table1_fit, table1_design, table1_data):
        pred = predict(table1_fit, table1_design, Variant.FEO)
        cells = cell_values(table1_data, pred.values)
        assert cells[("low", "s-")] == pytest.approx(0.455, abs=1e-10)
        assert cells[("low", "s+")] == pytest.approx(0.455, abs=1e-10)
        assert cells[("high", "s-")] == pytest.approx(0.155, abs=1e-10)
        assert cells[("high", "s+")] == pytest.approx(0.155, abs=1e-10)

    def test_fseo_cells(self, suspect_design, table1_data):
        fit = fit_total(suspect_design)
        pred = predict(fit, suspect_design, Variant.FSEO)
        cells = cell_values(table1_data, pred.values)
        assert cells[("low", "s-")] == pytest.approx(0.39, abs=0.0006)
        assert cells[("low", "s+")] == pytest.approx(0.535, abs=1e-10)
        assert cells[("high", "s-")] == pytest.approx(0.09, abs=0.0006)
        assert cells[("high", "s+")] == pytest.approx(0.235, abs=1e-10)

    def test_exclude_s_cells(self, table1_fit, table1_design, table1_data):
        pred = predict(table1_fit, table1_design, Variant.EXCLUDE_S)
        cells = cell_values(table1_data, pred.values)
        assert cells[("low", "s-")] == pytest.approx(0.475, abs=1e-10)
        assert cells[("high", "s+")] == pytest.approx(0.125, abs=1e-10)

    def test_marginal_is_constant_mean(self, table1_fit, table1_design):
        pred = predict(table1_fit, table1_design, Variant.MARGINAL)
        assert np.all(pred.values == pred.values[0])
        assert pred.values[0] == pytest.approx(0.335)

    def test_feo_rejects_suspect_blocks(self, suspect_design):
        fit = fit_total(suspect_design)
        with pytest.raises(VariantError, match="total"):
            predict(fit, suspect_design, Variant.FEO)

    def test_fseo_rejects_legitimate_blocks(self, table1_fit, table1_design):
        with pytest.raises(VariantError, match="total"):
            predict(table1_fit, table1_design, Variant.FSEO)

    def test_calders_not_via_predict(self, table1_fit, table1_design):
        with pytest.raises(VariantError, match="harness"):
            predict(table1_fit, table1_design, Variant.CALDERS_BASELINE)

    def test_provenance_mismatch(self, table1_fit):
        rng = np.random.default_rng(12)
        other = random_design(rng, n=20, p_s=1, p_x=1, p_w=0)
        with pytest.raises(ContractError, match="training columns"):
            predict(table1_fit, other, Variant.FULL)

    def test_mean_preservation_all_variants(self):
        rng = np.random.default_rng(13)
        design = random_design(rng, n=150, p_s=2, p_x=3, p_w=2)
        fit = fit_total(design)
        for variant in ALL_PREDICTABLE:
            pred = predict(fit, design, variant)
            assert pred.values.mean() == pytest.approx(design.y.mean(), rel=1e-10)

    def test_total_equals_fseo_when_x_empty(self):
        rng = np.random.default_rng(14)
        design = random_design(rng, n=100, p_s=2, p_x=0, p_w=3)
        fit = fit_total(design)
        total = predict(fit, design, Variant.TOTAL)
        fseo = predict(fit, design, Variant.FSEO)
        np.testing.assert_allclose(total.values, fseo.values, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize(
        "variant, p_x, p_w", [(Variant.FEO, 3, 0), (Variant.FSEO, 0, 3)]
    )
    def test_feo_fseo_are_total_with_empty_blocks(self, variant, p_x, p_w):
        rng = np.random.default_rng(16)
        design = random_design(rng, n=100, p_s=2, p_x=p_x, p_w=p_w)
        fit = fit_total(design)
        alias = predict(fit, design, variant).values
        total = predict(fit, design, Variant.TOTAL).values
        assert alias.tobytes() == total.tobytes()

    def test_total_matches_stepwise_construction(self):
        rng = np.random.default_rng(15)
        design = random_design(rng, n=120, p_s=2, p_x=2, p_w=2)
        fit = fit_total(design)
        # the impartial estimate of [W|B] (its joint [S|X] fit, S part
        # dropped) plus its unique part ([W|B] minus the full fit)
        p_s = fit.width("s")
        lam_s, lam_x = fit.lambda_sx_for_wb[:p_s], fit.lambda_sx_for_wb[p_s:]
        what = design.x @ lam_x
        unique = design.z[:, design.index("wb")] - design.s @ lam_s - what
        stepwise = (
            fit.beta0
            + design.x @ fit.beta_x
            + what @ fit.beta_wb
            + unique @ fit.beta_wb
        )
        total = predict(fit, design, Variant.TOTAL)
        np.testing.assert_allclose(total.values, stepwise, rtol=1e-9, atol=1e-10)

    def test_out_of_sample_uses_training_means(self, table1_design, table1_fit):
        sub = take_design(table1_design, np.arange(0, 500))
        pred_sub = predict(table1_fit, sub, Variant.FEO)
        pred_full = predict(table1_fit, table1_design, Variant.FEO)
        np.testing.assert_allclose(
            pred_sub.values, pred_full.values[:500], rtol=1e-10, atol=1e-12
        )


class TestIndifference:
    def test_feo_indifferent_to_sensitive_flips(self, table1_data, table1_schema):
        design = encode(table1_data, table1_schema)
        fit = fit_total(design)
        baseline = predict(fit, design, Variant.FEO).values

        flipped_groups = ["s+" if g == "s-" else "s-" for g in table1_data.columns["group"]]
        flipped = table1_data.replace_column("group", tuple(flipped_groups))
        from impartial.data import collect_levels

        levels = collect_levels(table1_data, table1_schema)
        flipped_design = encode(flipped, table1_schema, levels=levels)
        flipped_pred = predict(fit, flipped_design, Variant.FEO).values
        assert np.array_equal(baseline, flipped_pred)  # exact, not approximate

    def test_fseo_equalizes_group_means(self, suspect_design):
        fit = fit_total(suspect_design)
        pred = predict(fit, suspect_design, Variant.FSEO).values
        labels = np.asarray(suspect_design.s_group_labels)
        means = [pred[labels == g].mean() for g in ("s-", "s+")]
        assert abs(means[0] - means[1]) < 1e-10

    def test_fseo_equalizes_on_random_designs(self):
        # group-mean equalization is an indicator-block property, so the
        # sensitive column must be the 0/1 group encoding itself
        rng = np.random.default_rng(16)
        for _ in range(5):
            s = (rng.standard_normal(80) > 0.2).astype(float)
            w = rng.standard_normal((80, 3)) + np.outer(s, rng.uniform(-1, 1, 3))
            y = w @ rng.uniform(-1, 1, 3) + s + rng.standard_normal(80)
            design = build_design(
                y, s=s, w=w, group_labels=["g1" if v else "g0" for v in s]
            )
            fit = fit_total(design)
            pred = predict(fit, design, Variant.FSEO).values
            labels = np.asarray(design.s_group_labels)
            gap = pred[labels == "g1"].mean() - pred[labels == "g0"].mean()
            assert abs(gap) < 1e-10


class TestResidualize:
    def test_orthogonal_w_unchanged(self):
        rng = np.random.default_rng(17)
        s = rng.standard_normal((60, 1))
        w = rng.standard_normal((60, 2))
        # make w exactly orthogonal to centered s
        s_c = s - s.mean(axis=0)
        w_c = w - w.mean(axis=0)
        w_orth = w_c - s_c @ np.linalg.lstsq(s_c, w_c, rcond=None)[0]
        design = build_design(rng.standard_normal(60), s=s, w=w_orth)
        out = residualize_suspect(design)
        np.testing.assert_allclose(out.x, design.w, atol=1e-10)
        assert out.w.shape[1] == 0

    def test_loan_table_group_means(self, suspect_design, table1_data):
        out = residualize_suspect(suspect_design)
        resid = out.x[:, 0]
        raw_edu = np.array(
            [1.0 if e == "high" else 0.0 for e in table1_data.columns["edu"]]
        )
        groups = np.asarray(table1_data.columns["group"])
        # residual equals edu minus the group mean of edu (100/550 and 300/450)
        for g, gmean in (("s-", 100 / 550), ("s+", 300 / 450)):
            expect = raw_edu[groups == g] - gmean
            np.testing.assert_allclose(resid[groups == g], expect, atol=1e-10)

    def test_refit_preserves_suspect_coefficients(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            design = random_design(rng, n=150, p_s=2, p_x=2, p_w=3)
            fit = fit_total(design)
            refit = fit_total(residualize_suspect(design))
            np.testing.assert_allclose(
                refit.beta_x[design.x.shape[1] :], fit.beta_w, rtol=1e-8
            )

    def test_total_equals_refit_feo_without_legitimate_block(self):
        # with no X the marginal and joint sensitive adjustments coincide,
        # so the residualize-refit route reproduces the total predictions
        rng = np.random.default_rng(19)
        design = random_design(rng, n=150, p_s=2, p_x=0, p_w=3)
        fit = fit_total(design)
        total = predict(fit, design, Variant.TOTAL).values
        residualized = residualize_suspect(design)
        refit = fit_total(residualized)
        feo = predict(refit, residualized, Variant.FEO).values
        np.testing.assert_allclose(total, feo, rtol=1e-8, atol=1e-10)

    def test_total_equals_refit_feo_with_orthogonal_x(self):
        rng = np.random.default_rng(30)
        s = rng.standard_normal((100, 2))
        x_raw = rng.standard_normal((100, 2))
        s_c = s - s.mean(axis=0)
        x_c = x_raw - x_raw.mean(axis=0)
        x_orth = x_c - s_c @ np.linalg.lstsq(s_c, x_c, rcond=None)[0]
        w = rng.standard_normal((100, 2)) + s @ rng.uniform(-1, 1, (2, 2))
        y = w @ np.array([1.0, -1.0]) + x_orth @ np.array([0.5, 0.5])
        y += rng.standard_normal(100)
        design = build_design(y, s=s, x=x_orth, w=w)
        fit = fit_total(design)
        total = predict(fit, design, Variant.TOTAL).values
        residualized = residualize_suspect(design)
        refit = fit_total(residualized)
        feo = predict(refit, residualized, Variant.FEO).values
        np.testing.assert_allclose(total, feo, rtol=1e-8, atol=1e-10)

    def test_no_sensitive_warns(self):
        rng = np.random.default_rng(20)
        design = build_design(
            rng.standard_normal(30), x=rng.standard_normal((30, 2)), w=rng.standard_normal(30)
        )
        with pytest.warns(UserWarning, match="no-op"):
            out = residualize_suspect(design)
        assert out is design


class TestBlackboxCorrection:
    def test_perfect_predictor_reduces_to_group_equalized_response(self):
        rng = np.random.default_rng(21)
        s = (rng.standard_normal(200) > 0).astype(float)
        y = 1.5 * s + rng.standard_normal(200)
        design = build_design(y, s=s, group_labels=["g1" if v else "g0" for v in s])
        fit, pred = correct_blackbox(design, y)
        labels = np.asarray(design.s_group_labels)
        expected = y.copy()
        for g in ("g0", "g1"):
            expected[labels == g] -= y[labels == g].mean() - y.mean()
        np.testing.assert_allclose(pred.values, expected, rtol=1e-8, atol=1e-10)

    def test_constant_predictor_dropped(self):
        rng = np.random.default_rng(22)
        design = random_design(rng, n=100, p_s=1, p_x=2, p_w=0)
        fit, pred = correct_blackbox(design, np.full(100, 3.25))
        assert fit.beta_b == pytest.approx([0.0])
        assert fit.dropped_labels == ("yhat_0",)
        assert fit_total(design).dropped_labels == ()
        base_fit = fit_total(design)
        base = predict(base_fit, design, Variant.TOTAL)
        np.testing.assert_allclose(pred.values, base.values, rtol=1e-9, atol=1e-10)

    def test_multi_output_predictions(self):
        rng = np.random.default_rng(23)
        design = random_design(rng, n=100, p_s=1, p_x=2, p_w=1)
        ext = rng.standard_normal((100, 2))
        fit, pred = correct_blackbox(design, ext)
        assert fit.b_labels == ("yhat_0", "yhat_1")
        assert pred.variant is Variant.BLACKBOX_CORRECTED
        assert np.all(np.isfinite(pred.values))

    def test_misaligned_predictions_rejected(self):
        rng = np.random.default_rng(24)
        design = random_design(rng, n=50, p_s=1, p_x=1, p_w=0)
        with pytest.raises(DataError, match="rows"):
            correct_blackbox(design, np.ones(49))

    def test_non_finite_predictions_rejected(self):
        rng = np.random.default_rng(25)
        design = random_design(rng, n=50, p_s=1, p_x=1, p_w=0)
        with pytest.raises(DataError, match="finite"):
            correct_blackbox(design, np.full(50, np.nan))

    def test_blackbox_variant_requires_b(self, table1_fit, table1_design):
        with pytest.raises(VariantError, match="external"):
            predict(table1_fit, table1_design, Variant.BLACKBOX_CORRECTED)


class TestRoleReassignment:
    def test_as_all_legitimate_moves_w(self):
        rng = np.random.default_rng(26)
        design = random_design(rng, n=60, p_s=1, p_x=2, p_w=2)
        moved = as_all_legitimate(design)
        assert moved.w.shape[1] == 0
        assert moved.x.shape[1] == 4
        assert moved.x_labels == design.x_labels + design.w_labels

    def test_as_all_suspect_moves_x(self):
        rng = np.random.default_rng(27)
        design = random_design(rng, n=60, p_s=1, p_x=2, p_w=2)
        moved = as_all_suspect(design)
        assert moved.x.shape[1] == 0
        assert moved.w.shape[1] == 4

    def test_with_blackbox_appends(self):
        rng = np.random.default_rng(28)
        design = random_design(rng, n=60, p_s=1, p_x=1, p_w=1)
        aug = with_blackbox(design, rng.standard_normal(60))
        assert aug.b_labels == ("yhat_0",)
        assert abs(aug.b[:, 0].mean()) < 1e-12

    @pytest.mark.parametrize(
        "widths", [(1, 2, 2, 1), (1, 0, 3, 0), (2, 3, 0, 0), (1, 0, 0, 2), (0, 0, 0, 1)]
    )
    def test_blocks_are_column_ranges_of_z(self, widths):
        rng = np.random.default_rng(30)
        n = 40
        blocks = {
            key: rng.standard_normal((n, width)) + 3.0
            for key, width in zip("sxwb", widths)
            if width
        }
        design = build_design(rng.standard_normal(n), **blocks)
        assert design.widths == widths
        stacked = np.hstack([design.s, design.x, design.w, design.b])
        assert stacked.tobytes() == design.z.tobytes()
        assert design.columns == (
            design.s_labels + design.x_labels + design.w_labels + design.b_labels
        )
        means = np.concatenate(
            [design.s_means, design.x_means, design.w_means, design.b_means]
        )
        assert means.tobytes() == design.column_means.tobytes()
        for key in "sxwb":
            assert design.block(key).shape == (n, design.width(key))
            assert len(design.labels(key)) == len(design.means(key)) == design.width(key)

    @pytest.mark.parametrize("move", [as_all_legitimate, as_all_suspect])
    def test_role_views_share_z(self, move):
        rng = np.random.default_rng(31)
        design = random_design(rng, n=60, p_s=1, p_x=2, p_w=2)
        moved = move(design)
        assert np.shares_memory(moved.z, design.z)
        assert moved.columns == design.columns
        assert moved.column_means is design.column_means

    def test_predict_and_decompose_reject_other_widths(self):
        rng = np.random.default_rng(32)
        design = random_design(rng, n=60, p_s=1, p_x=2, p_w=2)
        fit = fit_total(design)
        moved = as_all_suspect(design)
        assert moved.columns == fit.columns
        with pytest.raises(ContractError, match="training columns"):
            predict(fit, moved, Variant.FULL)
        with pytest.raises(ContractError, match="training columns"):
            decompose(fit, moved, Mode.TOTAL)


class TestCoefficientIdentity:
    def test_marginal_equals_direct_plus_indirect(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            design = random_design(rng, n=200, p_s=2, p_x=3, p_w=0)
            fit = fit_total(design)
            indirect = fit.lambda_x_for_s @ fit.beta_s
            np.testing.assert_allclose(
                fit.marginal_coefs, fit.beta_x + indirect, rtol=1e-8, atol=1e-10
            )
