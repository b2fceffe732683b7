import logging

import numpy as np
import pytest

from conftest import build_design
from impartial.data import ColumnSpec, Role, RoleView, Schema, assemble, encode, take_design
from impartial.errors import ContractError
from impartial.estimators import Variant, fit_total, predict
from impartial.harness import calders_baseline, fit_calders, gen_wine_like, predict_calders
from impartial.harness import simple_example_schema
from impartial.harness.calders import _bins, _propensity
from impartial.linalg import solve_least_squares


def test_constant_propensity_equals_global_fseo():
    # covariates exactly uncorrelated with the group indicator: the
    # propensity is flat, every row lands in one bin, and the result is
    # the plain group-mean-equalizing fit
    s = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    w = np.array([1.0, -1.0, 2.0, -2.0, 1.0, -1.0, 2.0, -2.0])
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    design = build_design(
        y, s=s, w=w, group_labels=["g1" if v else "g0" for v in s]
    )
    fit = fit_calders(design, bins=5)
    values = predict_calders(fit, design)
    global_fit = fit_total(design)
    fseo = predict(global_fit, design, Variant.FSEO).values
    np.testing.assert_allclose(values, fseo, rtol=1e-10, atol=1e-12)


def assert_one_bin_equals_global_fseo(design):
    fit = fit_calders(design, bins=5)
    assert [isinstance(f, float) for f in fit.bin_fits].count(False) == 1
    fseo = predict(fit_total(design), design, Variant.FSEO).values
    np.testing.assert_allclose(predict_calders(fit, design), fseo, rtol=1e-10, atol=1e-12)


def mirrored(rng, n):
    """n values summing to exactly 0, at a random scale."""
    half = rng.uniform(0.1, 1.0, n // 2) * 10.0 ** rng.uniform(-3, 3)
    return np.concatenate([half, -half, np.zeros(n % 2)])


def test_flat_propensity_at_random_scales_is_one_bin():
    # w mirrored within each group, so the exact propensity coefficient is
    # 0; the fitted one may be rounding noise (~1e-14 on some scales), and
    # the scores must still form one bin, whatever the scale of w
    rng = np.random.default_rng(72)
    s = np.repeat([0.0, 1.0], 4)
    labels = ["g1" if v else "g0" for v in s]
    for _ in range(300):
        w = np.concatenate([mirrored(rng, 4), mirrored(rng, 4)])
        assert_one_bin_equals_global_fseo(
            build_design(rng.standard_normal(8), s=s, w=w, group_labels=labels)
        )


def test_flat_propensity_on_a_rounding_half_point_is_one_bin():
    # an odd group count k over n = 8192 puts the intercept k/n on a
    # half-point of every decimal grid finer than 1e-13 (k/8192 * 1e12 ends
    # in .5), where rounding noise of either sign would split the bin
    rng = np.random.default_rng(73)
    n = 8192
    for _ in range(12):
        k = 2 * int(rng.integers(1, n // 4)) + 1
        s = np.repeat([0.0, 1.0], [n - k, k])
        w = np.concatenate([mirrored(rng, n - k), mirrored(rng, k)])
        labels = ["g1" if v else "g0" for v in s]
        assert_one_bin_equals_global_fseo(
            build_design(rng.standard_normal(n), s=s, w=w, group_labels=labels)
        )


def test_propensity_from_the_design_r_matches_its_own_fit():
    # the propensity is read from the R factor the design shares with its
    # total fit; a least-squares fit of its own on the raw indicator gives
    # the same coefficients and, on every fold of the wine protocol, the
    # same bins
    raw = assemble(*gen_wine_like(n=2000, seed=5))
    order = np.random.default_rng(5).permutation(raw.n_rows)
    for test_rows in np.array_split(order, 5):
        train = RoleView.SEO(take_design(raw, np.setdiff1d(order, test_rows)))
        fit = fit_calders(train)
        indicator = train.s[:, 0] + train.s_means[0]
        own = solve_least_squares(train.z[:, train.index("xwb")], indicator - indicator.mean())
        scale = np.max(np.abs(own.coefficients))
        assert np.max(np.abs(fit.propensity_coefs - own.coefficients)) <= 1e-12 * scale
        scores = _propensity(fit, own.coefficients, fit.propensity_intercept, train)
        edges = np.quantile(scores, np.arange(1, 5) / 5)
        np.testing.assert_array_equal(
            _bins(fit.bin_edges,
                  _propensity(fit, fit.propensity_coefs, fit.propensity_intercept, train)),
            _bins(edges, scores),
        )


def test_loan_table_matches_brute_force(table1_data):
    schema = simple_example_schema(Role.SUSPECT)
    design = encode(table1_data, schema)
    pred = calders_baseline(table1_data, schema, bins=5)
    assert pred.variant is Variant.CALDERS_BASELINE

    # brute-force oracle: hand-rolled propensity, quantile bins, per-bin
    # group-mean-equalized linear fit
    w = design.w + design.w_means
    s = design.s[:, 0] + design.s_means[0]
    y = design.y
    coefs = np.linalg.lstsq(
        np.column_stack([np.ones_like(s), w]), s, rcond=None
    )[0]
    scores = np.column_stack([np.ones_like(s), w]) @ coefs
    edges = np.quantile(scores, [0.2, 0.4, 0.6, 0.8])
    assign = np.searchsorted(edges, scores, side="right")
    expected = np.zeros_like(y)
    for b in range(5):
        idx = assign == b
        if idx.sum() == 0:
            continue
        sb, wb, yb = s[idx], w[idx], y[idx]
        if len(set(sb)) < 2 or idx.sum() < 3:
            expected[idx] = yb.mean()
            continue
        design_b = np.column_stack([sb - sb.mean(), wb - wb.mean(axis=0)])
        beta = np.linalg.lstsq(design_b, yb - yb.mean(), rcond=None)[0]
        lam = np.linalg.lstsq(
            (sb - sb.mean()).reshape(-1, 1), wb - wb.mean(axis=0), rcond=None
        )[0]
        resid_w = (wb - wb.mean(axis=0)) - np.outer(sb - sb.mean(), lam[0])
        expected[idx] = yb.mean() + resid_w @ beta[1:]
    np.testing.assert_allclose(pred.values, expected, rtol=1e-8, atol=1e-10)


def test_group_means_equalized_within_bins(table1_data):
    schema = simple_example_schema(Role.SUSPECT)
    pred = calders_baseline(table1_data, schema, bins=2)
    design = encode(table1_data, schema)
    labels = np.asarray(design.s_group_labels)
    # overall equalization need not be exact, but must beat the raw gap
    gap = pred.values[labels == "s+"].mean() - pred.values[labels == "s-"].mean()
    raw_gap = design.y[labels == "s+"].mean() - design.y[labels == "s-"].mean()
    assert abs(gap) < abs(raw_gap)


def test_homogeneous_bin_falls_back_to_mean(caplog):
    # one group sits entirely at extreme covariate values: the outer bins
    # are single-class and must fall back to their mean response
    rng = np.random.default_rng(70)
    n = 200
    s = np.repeat([0.0, 1.0], n // 2)
    w = np.where(s == 1.0, 10.0, -10.0) + 0.1 * rng.standard_normal(n)
    y = w * 0.3 + rng.standard_normal(n)
    design = build_design(
        y, s=s, w=w, group_labels=["g1" if v else "g0" for v in s]
    )
    with caplog.at_level(logging.WARNING):
        fit = fit_calders(design, bins=5)
    assert any("homogeneous" in rec.message for rec in caplog.records)
    values = predict_calders(fit, design)
    assert np.all(np.isfinite(values))
    assert any(isinstance(b, float) for b in fit.bin_fits)


def test_requires_binary_sensitive():
    rng = np.random.default_rng(71)
    s = rng.standard_normal((40, 2))
    design = build_design(rng.standard_normal(40), s=s, w=rng.standard_normal(40))
    with pytest.raises(ContractError, match="binary|single"):
        fit_calders(design)


@pytest.mark.parametrize("value", [2.5, True, "3", None, 0, -1])
def test_bins_validated(table1_design, value):
    with pytest.raises(ContractError, match="bins"):
        fit_calders(RoleView.SEO(table1_design), bins=value)


def test_out_of_sample_prediction(table1_data):
    from impartial.data import take, collect_levels

    schema = simple_example_schema(Role.SUSPECT)
    levels = collect_levels(table1_data, schema)
    train = take(table1_data, np.arange(0, 800))
    test = take(table1_data, np.arange(800, 1000))
    enc_train = encode(train, schema, levels=levels)
    enc_test = encode(test, schema, levels=levels)
    fit = fit_calders(enc_train, bins=4)
    values = predict_calders(fit, enc_test)
    assert values.shape == (200,)
    assert np.all(np.isfinite(values))
    assert values.min() > -1.0 and values.max() < 2.0


def _wine_roles(schema, roles):
    """``schema`` with the covariates given roles in turn from ``roles``."""
    covariates = [c for c in schema.columns if c.role is Role.LEGITIMATE]
    return Schema(tuple(
        ColumnSpec(c.name, roles[covariates.index(c) % len(roles)]) if c in covariates else c
        for c in schema.columns
    ))


def test_declared_view_predicts_as_the_all_suspect_view():
    data, schema = gen_wine_like(n=600, seed=8)
    design = encode(data, _wine_roles(schema, (Role.LEGITIMATE, Role.SUSPECT)))
    assert design.width("x") and design.width("w")
    fit = fit_calders(design)
    assert (fit.columns, fit.widths) == (design.columns, RoleView.SEO(design).widths)
    assert predict_calders(fit, design).tobytes() == (
        predict_calders(fit, RoleView.SEO(design)).tobytes()
    )


def test_design_of_other_columns_is_refused():
    data, schema = gen_wine_like(n=400, seed=9)
    fit = fit_calders(encode(data, schema))
    other = encode(data, _wine_roles(schema, (Role.LEGITIMATE,) * 9 + (Role.IGNORE,)))
    assert other.width("x") == 9
    with pytest.raises(ContractError, match="training columns"):
        predict_calders(fit, other)
