import numpy as np
import pytest

from conftest import build_design, random_design
from impartial.data import Role, encode
from impartial.decomposition import (
    COMPONENT_NAMES,
    Mode,
    decompose,
    decompose_coefficients,
    redlining_report,
)
from impartial.errors import ContractError
from impartial.estimators import Variant, fit_total, predict
from impartial.harness import (
    BiasSpec,
    gen_wine_like,
    inject_bias,
    simple_example_schema,
    wine_like_schema,
)
from impartial.linalg import project


def orthogonal_design(rng, n=120, p_s=2, p_x=2, p_w=2):
    """Design whose centered S, X, W blocks are mutually orthogonal."""
    basis = np.linalg.qr(rng.standard_normal((n, p_s + p_x + p_w + 1)))[0]
    # centered orthogonal columns: project out the constant first
    cols = basis[:, 1:]
    cols = cols - cols.mean(axis=0)
    q = np.linalg.qr(cols)[0]
    s, x, w = q[:, :p_s], q[:, p_s : p_s + p_x], q[:, p_s + p_x :]
    y = s @ rng.uniform(-1, 1, p_s) + x @ rng.uniform(-1, 1, p_x)
    y += w @ rng.uniform(-1, 1, p_w) + 0.1 * rng.standard_normal(n)
    return build_design(y, s=s, x=x, w=w)


class TestCoefficientDecomposition:
    def test_orthogonal_blocks_no_indirect_effect(self):
        rng = np.random.default_rng(40)
        design = orthogonal_design(rng, p_w=0)
        fit = fit_total(design)
        dec = decompose_coefficients(fit, design)
        np.testing.assert_allclose(dec.indirect, 0.0, atol=1e-10)
        np.testing.assert_allclose(dec.marginal, dec.direct, atol=1e-10)

    def test_loan_table_values(self, table1_design):
        fit = fit_total(table1_design)
        dec = decompose_coefficients(fit, table1_design)
        assert dec.direct == pytest.approx([-0.3], abs=1e-10)
        assert dec.marginal == pytest.approx([-0.35], abs=1e-10)
        # regressing the s indicator on education gives slope 0.5
        np.testing.assert_allclose(dec.lambda_x, [[0.5]], atol=1e-10)
        assert dec.indirect == pytest.approx([-0.05], abs=1e-10)

    def test_identity_on_random_designs(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            design = random_design(rng, n=200, p_s=2, p_x=3, p_w=0)
            fit = fit_total(design)
            dec = decompose_coefficients(fit, design)
            np.testing.assert_allclose(
                dec.marginal, dec.direct + dec.indirect, rtol=1e-8, atol=1e-10
            )

    def test_requires_empty_suspect_block(self):
        rng = np.random.default_rng(42)
        design = random_design(rng, n=100, p_s=1, p_x=2, p_w=1)
        with pytest.raises(ContractError, match="suspect"):
            decompose_coefficients(fit_total(design), design)


class TestDecompose:
    def test_feo_orthogonal_case(self):
        rng = np.random.default_rng(43)
        design = orthogonal_design(rng, p_w=0)
        fit = fit_total(design)
        report = decompose(fit, design, Mode.FEO)
        np.testing.assert_allclose(report.di, 0.0, atol=1e-10)
        np.testing.assert_allclose(report.dt, design.s @ fit.beta_s, atol=1e-10)

    def test_feo_sum_identity_on_loan_table(self, table1_design):
        fit = fit_total(table1_design)
        report = decompose(fit, table1_design, Mode.FEO)
        full = predict(fit, table1_design, Variant.FULL).values
        np.testing.assert_allclose(report.rowwise_sum(), full, rtol=1e-8)
        # cells recover the full-model values
        assert sorted(set(np.round(full, 10))) == pytest.approx([0.1, 0.2, 0.4, 0.5])

    def test_fseo_sum_identity(self, table1_data):
        design = encode(table1_data, simple_example_schema(Role.SUSPECT))
        fit = fit_total(design)
        report = decompose(fit, design, Mode.FSEO)
        full = predict(fit, design, Variant.FULL).values
        np.testing.assert_allclose(report.rowwise_sum(), full, rtol=1e-8)
        assert np.all(report.sd_plus == 0.0)
        assert np.all(report.unique_x == 0.0)

    def test_total_sum_identity_random(self):
        rng = np.random.default_rng(44)
        for _ in range(5):
            design = random_design(rng, n=200, p_s=2, p_x=3, p_w=2)
            fit = fit_total(design)
            report = decompose(fit, design, Mode.TOTAL)
            full = predict(fit, design, Variant.FULL).values
            np.testing.assert_allclose(
                report.rowwise_sum(), full, rtol=1e-8, atol=1e-10
            )

    def test_di_lives_in_conditioning_span(self):
        rng = np.random.default_rng(45)
        design = random_design(rng, n=150, p_s=2, p_x=3, p_w=0)
        fit = fit_total(design)
        report = decompose(fit, design, Mode.FEO)
        di = report.di.reshape(-1, 1)
        back = project(design.x, di).projected[:, 0]
        np.testing.assert_allclose(back, report.di, rtol=1e-8, atol=1e-10)
        # dt is orthogonal to the conditioning block
        cross = design.x.T @ report.dt
        assert np.abs(cross).max() < 1e-8 * max(np.abs(report.dt).sum(), 1.0)

    def test_orthogonal_blocks_degeneracy(self):
        rng = np.random.default_rng(46)
        design = orthogonal_design(rng)
        fit = fit_total(design)
        report = decompose(fit, design, Mode.TOTAL)
        np.testing.assert_allclose(report.di, 0.0, atol=1e-10)
        np.testing.assert_allclose(report.sd_plus, 0.0, atol=1e-10)
        np.testing.assert_allclose(report.sd_minus_mixed, 0.0, atol=1e-10)
        np.testing.assert_allclose(report.dt, design.s @ fit.beta_s, atol=1e-10)
        np.testing.assert_allclose(report.unique_x, design.x @ fit.beta_x, atol=1e-10)
        np.testing.assert_allclose(
            report.unique_w, design.w @ fit.beta_w, atol=1e-10
        )

    def test_component_name_listing(self, table1_design):
        fit = fit_total(table1_design)
        report = decompose(fit, table1_design, Mode.FEO)
        for name in COMPONENT_NAMES:
            assert report.component(name).shape == (1000,)

    @pytest.mark.parametrize("mode, p_x, p_w", [(Mode.FEO, 2, 0), (Mode.FSEO, 0, 2)])
    def test_feo_fseo_are_total_with_empty_blocks(self, mode, p_x, p_w):
        rng = np.random.default_rng(48)
        design = random_design(rng, n=100, p_s=2, p_x=p_x, p_w=p_w)
        fit = fit_total(design)
        alias = decompose(fit, design, mode)
        total = decompose(fit, design, Mode.TOTAL)
        for name in COMPONENT_NAMES:
            assert alias.component(name).tobytes() == total.component(name).tobytes()

    def test_mode_block_compatibility(self, table1_design):
        fit = fit_total(table1_design)
        with pytest.raises(ContractError, match="legitimate"):
            decompose(fit, table1_design, Mode.FSEO)
        rng = np.random.default_rng(47)
        mixed = random_design(rng, n=100, p_s=1, p_x=2, p_w=2)
        with pytest.raises(ContractError, match="suspect"):
            decompose(fit_total(mixed), mixed, Mode.FEO)


class TestRedliningReport:
    def test_orthogonal_suspects_zero_uninformative(self):
        rng = np.random.default_rng(48)
        design = orthogonal_design(rng, p_x=0)
        fit = fit_total(design)
        report = decompose(fit, design, Mode.FSEO)
        summary = redlining_report(report)
        assert summary.uninformative_redlining == pytest.approx(0.0, abs=1e-10)

    def test_loan_table_fseo_nonzero(self, table1_data):
        design = encode(table1_data, simple_example_schema(Role.SUSPECT))
        fit = fit_total(design)
        summary = redlining_report(decompose(fit, design, Mode.FSEO))
        assert summary.informative_redlining > 0.01
        assert summary.suspect_shared > 0.01
        assert summary.uninformative_redlining == pytest.approx(
            summary.informative_redlining + summary.suspect_shared
        )

    def test_feo_mode_rejected(self, table1_design):
        fit = fit_total(table1_design)
        report = decompose(fit, table1_design, Mode.FEO)
        with pytest.raises(ContractError, match="FEO"):
            redlining_report(report)

    def test_bias_loads_on_disparate_treatment(self):
        # the raw direct group effect is negative, so the injected shift must
        # exceed twice its size before |dt| visibly grows
        data, _ = gen_wine_like(seed=5)
        schema = wine_like_schema(Role.SUSPECT)
        raw_design = encode(data, schema)
        raw_fit = fit_total(raw_design)
        raw_dt = redlining_report(
            decompose(raw_fit, raw_design, Mode.FSEO)
        ).disparate_treatment

        biased = inject_bias(data, schema, BiasSpec("white", 0.7, 2.0, seed=9))
        b_design = encode(biased, schema)
        b_fit = fit_total(b_design)
        biased_dt = redlining_report(
            decompose(b_fit, b_design, Mode.FSEO)
        ).disparate_treatment
        assert biased_dt > raw_dt
