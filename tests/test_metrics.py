import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_design, cell_values, random_design
from impartial.data import Role, RoleView, encode
from impartial.errors import ContractError, DataError
from impartial.estimators import Variant, correct_blackbox, fit_total, predict
from impartial.harness import simple_example_schema
from impartial.metrics import (
    discrimination_score,
    group_means,
    impartiality_conditions,
    impartiality_score,
    rmse,
    rsse,
    score_predictions,
)


@pytest.fixture(scope="module")
def table1_fit(table1_design):
    return fit_total(table1_design)


@pytest.fixture(scope="module")
def suspect_design(table1_data):
    return encode(table1_data, simple_example_schema(Role.SUSPECT))


class TestDiscriminationScore:
    def test_constant_predictions(self, table1_design):
        ds = discrimination_score(
            np.full(1000, 0.5), table1_design.s_group_labels, "s+", "s-"
        )
        assert ds == 0.0

    def test_loan_table_values(self, table1_design, table1_fit, suspect_design):
        labels = table1_design.s_group_labels
        full = predict(table1_fit, table1_design, Variant.FULL).values
        assert discrimination_score(full, labels, "s+", "s-") == pytest.approx(
            -0.245, abs=0.005
        )
        excl = predict(table1_fit, table1_design, Variant.EXCLUDE_S).values
        assert discrimination_score(excl, labels, "s+", "s-") == pytest.approx(
            -0.17, abs=0.005
        )
        fit_w = fit_total(suspect_design)
        fseo = predict(fit_w, suspect_design, Variant.FSEO).values
        assert abs(discrimination_score(fseo, labels, "s+", "s-")) < 1e-10

    def test_unknown_group(self, table1_design):
        with pytest.raises(ContractError, match="unknown group"):
            discrimination_score(
                np.zeros(1000), table1_design.s_group_labels, "s?", "s-"
            )

    def test_same_group_refused(self, table1_design):
        with pytest.raises(ContractError, match="both are 's-'"):
            discrimination_score(np.zeros(1000), table1_design.s_group_labels, "s-", "s-")

    def test_shift_invariance_and_additivity(self):
        rng = np.random.default_rng(50)
        labels = tuple(rng.choice(["a", "b"], size=60))
        u = rng.standard_normal(60)
        v = rng.standard_normal(60)
        base = discrimination_score(u, labels, "b", "a")
        shifted = discrimination_score(u + 5.0, labels, "b", "a")
        assert shifted == pytest.approx(base, abs=1e-12)
        both = discrimination_score(u + v, labels, "b", "a")
        assert both == pytest.approx(
            base + discrimination_score(v, labels, "b", "a"), abs=1e-12
        )

    def test_max_pairwise(self):
        labels = ("a", "a", "b", "b", "c", "c")
        values = np.array([0.0, 0.0, 1.0, 1.0, 3.0, 3.0])
        means = group_means(values, labels).values()
        assert max(means) - min(means) == pytest.approx(3.0)


class TestErrorMetrics:
    def test_perfect_predictions(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert rsse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_loan_table_rsse(self, table1_design, table1_fit):
        y = table1_design.y
        full = predict(table1_fit, table1_design, Variant.FULL).values
        assert rsse(full, y) == pytest.approx(13.84, abs=0.02)
        marginal = predict(table1_fit, table1_design, Variant.MARGINAL).values
        assert rsse(marginal, y) == pytest.approx(14.93, abs=0.02)

    def test_rsse_squared_is_n_rmse_squared(self):
        rng = np.random.default_rng(51)
        p, t = rng.standard_normal(37), rng.standard_normal(37)
        assert rsse(p, t) ** 2 == pytest.approx(37 * rmse(p, t) ** 2, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            rmse([1.0], [1.0, 2.0])


class TestImpartialityScore:
    def test_feo_variant_scores_zero_in_sample(self, table1_design, table1_fit):
        pred = predict(table1_fit, table1_design, Variant.FEO).values
        score = impartiality_score(pred, table1_design, table1_design.y, RoleView.FEO)
        assert score == pytest.approx(0.0, abs=1e-8)

    def test_fseo_variant_scores_zero_in_sample(self, suspect_design):
        fit = fit_total(suspect_design)
        pred = predict(fit, suspect_design, Variant.FSEO).values
        score = impartiality_score(pred, suspect_design, suspect_design.y, RoleView.SEO)
        assert score == pytest.approx(0.0, abs=1e-8)

    def test_full_model_scores_positive(self, table1_design, table1_fit):
        pred = predict(table1_fit, table1_design, Variant.FULL).values
        score = impartiality_score(pred, table1_design, table1_design.y, RoleView.SEO)
        assert score > 0.01

    def test_unknown_mode_rejected(self, table1_design, table1_fit):
        pred = predict(table1_fit, table1_design, Variant.FULL).values
        with pytest.raises(ContractError, match="unknown impartiality mode 'feo'"):
            impartiality_score(pred, table1_design, table1_design.y, "feo")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["predictions", "residual_target"])
    def test_non_finite_input_rejected(self, table1_design, table1_fit, which, bad):
        # one non-finite value used to make every correlation NaN and the
        # score 0.0, the score of perfectly impartial predictions
        pred = predict(table1_fit, table1_design, Variant.FULL).values.copy()
        target = table1_design.y.copy()
        (pred if which == "predictions" else target)[3] = bad
        with pytest.raises(DataError, match=which):
            impartiality_score(pred, table1_design, target, RoleView.SEO)

    def test_nonnegative_on_arbitrary_predictions(self):
        rng = np.random.default_rng(52)
        design = random_design(rng, n=80, p_s=2, p_x=2, p_w=1)
        for _ in range(5):
            pred = rng.standard_normal(80)
            for mode in RoleView:
                assert impartiality_score(pred, design, design.y, mode) >= 0.0

    def test_independent_noise_barely_moves_score(self):
        rng = np.random.default_rng(53)
        n = 100_000
        s = (rng.standard_normal(n) > 0).astype(float)
        x = rng.standard_normal((n, 2)) + np.outer(s, [0.7, -0.3])
        y = x @ np.array([1.0, 0.5]) + 0.4 * s + rng.standard_normal(n)
        design = build_design(
            y, s=s, x=x, group_labels=["g1" if v else "g0" for v in s]
        )
        fit = fit_total(design)
        pred = predict(fit, design, Variant.FEO).values
        base = impartiality_score(pred, design, design.y, RoleView.FEO)
        noisy = pred + 0.1 * rng.standard_normal(n)
        moved = impartiality_score(noisy, design, design.y, RoleView.FEO)
        assert abs(moved - base) < 0.01

    def test_empty_sensitive_block_rejected(self):
        rng = np.random.default_rng(54)
        design = build_design(rng.standard_normal(30), x=rng.standard_normal((30, 2)))
        with pytest.raises(ContractError, match="sensitive"):
            impartiality_score(np.zeros(30), design, design.y, RoleView.FEO)

    def test_aliased_sensitive_columns_named(self):
        rng = np.random.default_rng(55)
        base = rng.standard_normal(40)
        s = np.column_stack([base, 2.0 * base])
        design = build_design(rng.standard_normal(40), s=s, x=rng.standard_normal((40, 1)))
        with pytest.raises(ContractError, match="s1"):
            impartiality_score(np.zeros(40), design, design.y, RoleView.FEO)

    def test_constant_sensitive_column_named(self):
        rng = np.random.default_rng(56)
        s = np.column_stack([rng.standard_normal(40), np.full(40, 2.0)])
        design = build_design(rng.standard_normal(40), s=s)
        with pytest.raises(ContractError, match="constant"):
            impartiality_score(np.zeros(40), design, design.y, RoleView.SEO)

    def test_zero_variance_covariate_contributes_nothing(self):
        rng = np.random.default_rng(57)
        s = rng.standard_normal(50)
        x = np.column_stack([rng.standard_normal(50), np.zeros(50)])
        design = build_design(rng.standard_normal(50), s=s, x=x)
        score = impartiality_score(
            rng.standard_normal(50), design, design.y, RoleView.FEO
        )
        assert np.isfinite(score)

    def test_blackbox_corrected_scores_zero_in_sample(self):
        rng = np.random.default_rng(58)
        s = (rng.standard_normal(300) > 0).astype(float)
        w = rng.standard_normal((300, 3)) + np.outer(s, [1.0, -0.5, 0.25])
        y = w @ np.array([0.8, 0.3, -0.4]) + 0.6 * s + rng.standard_normal(300)
        design = build_design(
            y, s=s, w=w, group_labels=["g1" if v else "g0" for v in s]
        )
        external = y + rng.standard_normal(300)  # a crude black box
        fit, pred = correct_blackbox(design, external)
        from impartial.estimators import with_blackbox

        scored = impartiality_score(
            pred.values, with_blackbox(design, external), y, RoleView.SEO
        )
        assert scored == pytest.approx(0.0, abs=1e-8)


class TestConditionGaps:
    def test_total_model_moment_identities(self):
        rng = np.random.default_rng(59)
        design = random_design(rng, n=300, p_s=2, p_x=2, p_w=2)
        fit = fit_total(design)
        pred = predict(fit, design, Variant.TOTAL).values
        gaps = impartiality_conditions(
            pred, design.y, design.s, design.x, design.w, design.s_labels
        )
        assert abs(gaps.residual_mean) < 1e-10
        assert np.abs(gaps.legitimate).max() < 1e-10
        assert np.abs(gaps.suspect).max() < 1e-10
        assert np.abs(gaps.projected).max() < 1e-10


class TestCompare:
    def test_loan_table_feo_vs_fseo(
        self, table1_data, table1_design, table1_fit, suspect_design
    ):
        feo = predict(table1_fit, table1_design, Variant.FEO).values
        fit_w = fit_total(suspect_design)
        fseo = predict(fit_w, suspect_design, Variant.FSEO).values
        cells = cell_values(table1_data, feo - fseo)
        assert cells[("low", "s-")] == pytest.approx(0.065, abs=0.001)
        assert cells[("low", "s+")] == pytest.approx(-0.08, abs=0.001)
        assert cells[("high", "s-")] == pytest.approx(0.065, abs=0.001)
        assert cells[("high", "s+")] == pytest.approx(-0.08, abs=0.001)


class TestScorePredictions:
    def test_bundle_on_loan_table(self, table1_design, table1_fit):
        pred = predict(table1_fit, table1_design, Variant.FEO)
        report = score_predictions(
            pred, table1_design, table1_design.y, RoleView.FEO
        )
        assert report.n == 1000
        assert report.ds == pytest.approx(-0.145, abs=0.005)
        assert report.is_score == pytest.approx(0.0, abs=1e-8)
        assert report.rsse == pytest.approx(13.93, abs=0.02)
        assert set(report.per_group_means) == {"s-", "s+"}
        means = report.per_group_means
        negative, positive = means  # first-appearance order
        assert report.ds == means[positive] - means[negative]
        assert report.ds == discrimination_score(
            pred.values, table1_design.s_group_labels, positive, negative
        )

    def test_unknown_group_named(self, table1_design, table1_fit):
        pred = predict(table1_fit, table1_design, Variant.FEO)
        with pytest.raises(ContractError, match="unknown group label 's\\?'"):
            score_predictions(pred, table1_design, table1_design.y, RoleView.FEO,
                              positive_group="s?", negative_group="s-")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_prediction_rejected(self, table1_design, table1_fit, bad):
        pred = predict(table1_fit, table1_design, Variant.FULL).values.copy()
        pred[0] = bad
        with pytest.raises(DataError, match="predictions"):
            score_predictions(pred, table1_design, table1_design.y, RoleView.SEO)

    def test_group_inference_requires_two_levels(self):
        rng = np.random.default_rng(61)
        design = build_design(
            rng.standard_normal(30),
            s=rng.standard_normal(30),
            group_labels=["a"] * 10 + ["b"] * 10 + ["c"] * 10,
        )
        with pytest.raises(ContractError, match="named"):
            score_predictions(np.zeros(30), design, design.y, RoleView.SEO)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-100, 100), min_size=2, max_size=40),
    st.floats(-50, 50),
)
def test_ds_constant_shift_property(values, shift):
    n = len(values)
    labels = tuple("b" if i % 2 else "a" for i in range(n))
    base = discrimination_score(values, labels, "b", "a")
    moved = discrimination_score(np.asarray(values) + shift, labels, "b", "a")
    assert moved == pytest.approx(base, abs=1e-9 * max(1.0, abs(base)) + 1e-9)


def test_group_means_first_appearance_order():
    means = group_means([1.0, 2.0, 3.0, 4.0], ("z", "a", "z", "a"))
    assert list(means) == ["z", "a"]
    assert means["z"] == pytest.approx(2.0)
    assert means["a"] == pytest.approx(3.0)
