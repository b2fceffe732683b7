import numpy as np
import pytest

from impartial.data import Role, encode
from impartial.errors import ContractError
from impartial.estimators import fit_total
from impartial.harness import (
    DagSpec,
    default_dag_spec,
    gen_dag,
    gen_simple_example,
    gen_wine_like,
    simple_example_schema,
    wine_like_schema,
)


class TestSimpleExample:
    def test_row_count_and_rates(self):
        data = gen_simple_example()
        assert data.n_rows == 1000
        default = data.columns["default"]
        assert default.mean() == pytest.approx(0.335)
        edu = data.columns["edu"]
        assert sum(e == "high" for e in edu) / 1000 == pytest.approx(0.4)

    def test_exact_cell_counts(self):
        data = gen_simple_example()
        counts = {}
        for d, e, g in zip(
            data.columns["default"], data.columns["edu"], data.columns["group"]
        ):
            counts[(e, g, d)] = counts.get((e, g, d), 0) + 1
        assert counts[("low", "s-", 1.0)] == 225
        assert counts[("low", "s-", 0.0)] == 225
        assert counts[("low", "s+", 1.0)] == 60
        assert counts[("low", "s+", 0.0)] == 90
        assert counts[("high", "s-", 1.0)] == 20
        assert counts[("high", "s-", 0.0)] == 80
        assert counts[("high", "s+", 1.0)] == 30
        assert counts[("high", "s+", 0.0)] == 270

    def test_schema_variants(self):
        legit = simple_example_schema()
        assert legit.column("edu").role is Role.LEGITIMATE
        suspect = simple_example_schema(Role.SUSPECT)
        assert suspect.column("edu").role is Role.SUSPECT
        with pytest.raises(ContractError):
            simple_example_schema(Role.RESPONSE)


class TestDagGenerator:
    def test_disconnected_sensitive_is_uncorrelated(self):
        spec = DagSpec(
            n=4000,
            p_s=1,
            p_x_observed=2,
            p_x_unobserved=0,
            p_w=1,
            coef_s_to_x=np.zeros((1, 2)),
            coef_s_to_w=np.zeros((1, 1)),
            coef_x_to_y=np.array([1.0, -0.5]),
            coef_s_to_y=np.zeros(1),
            coef_w_to_y=np.zeros(1),
            fair=True,
            seed=123,
        )
        data, schema = gen_dag(spec)
        s = np.array([1.0 if v == "g1" else 0.0 for v in data.columns["s0"]])
        y = data.columns["y"]
        cor = np.corrcoef(s, y)[0, 1]
        assert abs(cor) <= 4 / np.sqrt(spec.n)

    def test_fair_dag_recovers_zero_direct_effect(self):
        # all legitimate covariates observed: the sensitive coefficient
        # must vanish at large n even though s drives x
        spec = default_dag_spec(
            n=100_000, p_s=1, p_x_observed=3, p_x_unobserved=0, p_w=0, fair=True, seed=3
        )
        data, schema = gen_dag(spec)
        fit = fit_total(encode(data, schema))
        se = 1.0 / np.sqrt(spec.n * 0.25)
        assert abs(fit.beta_s[0]) < 4 * se * 3

    def test_unrestricted_dag_recovers_injected_coefficient(self):
        spec = default_dag_spec(
            n=50_000, p_s=1, p_x_observed=2, p_x_unobserved=0, p_w=1, fair=False, seed=5
        )
        data, schema = gen_dag(spec)
        design = encode(data, schema)
        fit = fit_total(design)
        injected = spec.coef_s_to_y[0]
        # the encoded indicator may be for g0 or g1 depending on first appearance
        sign = 1.0 if design.s_labels[0].endswith("g1") else -1.0
        recovered = sign * fit.beta_s[0]
        se = 1.0 / np.sqrt(spec.n * 0.25)
        assert recovered == pytest.approx(injected, abs=4 * se * 2)

    def test_deterministic(self):
        spec = default_dag_spec(n=500, seed=11)
        a, _ = gen_dag(spec)
        b, _ = gen_dag(spec)
        np.testing.assert_array_equal(a.columns["y"], b.columns["y"])
        assert a.columns["s0"] == b.columns["s0"]

    def test_schema_matches_dimensions(self):
        spec = default_dag_spec(n=100, p_s=2, p_x_observed=3, p_x_unobserved=1, p_w=2)
        data, schema = gen_dag(spec)
        roles = {c.name: c.role for c in schema.columns}
        assert roles["y"] is Role.RESPONSE
        assert roles["s0"] is roles["s1"] is Role.SENSITIVE
        assert roles["x0"] is roles["x1"] is roles["x2"] is Role.LEGITIMATE
        assert roles["w0"] is roles["w1"] is Role.SUSPECT
        assert "x3" not in roles  # unobserved column withheld
        assert data.n_rows == 100

    def test_shape_validation(self):
        with pytest.raises(ContractError, match="shape"):
            DagSpec(
                n=10,
                p_s=1,
                p_x_observed=1,
                p_x_unobserved=0,
                p_w=0,
                coef_s_to_x=np.zeros((2, 1)),
                coef_s_to_w=np.zeros((1, 0)),
                coef_x_to_y=np.zeros(1),
                coef_s_to_y=np.zeros(1),
                coef_w_to_y=np.zeros(0),
            )

    def test_fair_flag_enforced(self):
        with pytest.raises(ContractError, match="fair"):
            DagSpec(
                n=10,
                p_s=1,
                p_x_observed=1,
                p_x_unobserved=0,
                p_w=0,
                coef_s_to_x=np.zeros((1, 1)),
                coef_s_to_w=np.zeros((1, 0)),
                coef_x_to_y=np.ones(1),
                coef_s_to_y=np.ones(1),
                coef_w_to_y=np.zeros(0),
                fair=True,
            )


class TestWineLike:
    def test_basic_moments(self):
        data, schema = gen_wine_like(seed=0)
        assert data.n_rows == 6497
        types = data.columns["type"]
        share_red = sum(t == "red" for t in types) / len(types)
        assert share_red == pytest.approx(0.25, abs=0.005)
        q = data.columns["quality"]
        white = np.array([t == "white" for t in types])
        gap = q[white].mean() - q[~white].mean()
        assert gap == pytest.approx(0.24, abs=0.05)
        assert q.std() == pytest.approx(0.875, abs=0.03)

    def test_deterministic(self):
        a, _ = gen_wine_like(seed=4)
        b, _ = gen_wine_like(seed=4)
        np.testing.assert_array_equal(a.columns["quality"], b.columns["quality"])

    def test_schema_role_switch(self):
        legit = wine_like_schema()
        assert legit.column("alcohol").role is Role.LEGITIMATE
        suspect = wine_like_schema(Role.SUSPECT)
        assert suspect.column("alcohol").role is Role.SUSPECT

    def test_minimum_rows(self):
        with pytest.raises(ContractError):
            gen_wine_like(n=4)
