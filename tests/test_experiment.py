import sys

import numpy as np
import pytest

from impartial.data import encode
from impartial.errors import ContractError, DataError
from impartial.estimators import Variant, fit_total, predict
from impartial.harness import (
    BiasSpec,
    ExperimentConfig,
    derive_seed,
    gen_wine_like,
    inject_bias,
    kfold_validate,
)


@pytest.fixture(scope="module")
def wine():
    return gen_wine_like(seed=3)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(7, 3, 2) == derive_seed(7, 3, 2)

    def test_distinct_across_cells(self):
        seeds = {derive_seed(7, r, f) for r in range(20) for f in range(10)}
        assert len(seeds) == 200

    def test_master_seed_matters(self):
        assert derive_seed(1, 0, 0) != derive_seed(2, 0, 0)


class TestInjectBias:
    def test_fraction_zero_is_identity(self, table1_data, table1_schema):
        out = inject_bias(
            table1_data, table1_schema, BiasSpec("s+", 0.0, 1.0, seed=1)
        )
        np.testing.assert_array_equal(
            out.columns["default"], table1_data.columns["default"]
        )

    def test_fraction_one_shifts_whole_group(self, table1_data, table1_schema):
        out = inject_bias(
            table1_data, table1_schema, BiasSpec("s+", 1.0, 1.0, seed=1)
        )
        groups = np.asarray(table1_data.columns["group"])
        delta = out.columns["default"] - table1_data.columns["default"]
        assert np.all(delta[groups == "s+"] == 1.0)
        assert np.all(delta[groups == "s-"] == 0.0)

    def test_exact_count(self, table1_data, table1_schema):
        out = inject_bias(
            table1_data, table1_schema, BiasSpec("s+", 0.7, 1.0, seed=2)
        )
        delta = out.columns["default"] - table1_data.columns["default"]
        assert int(delta.sum()) == round(0.7 * 450)

    def test_deterministic_under_seed(self, table1_data, table1_schema):
        spec = BiasSpec("s-", 0.3, 0.5, seed=9)
        a = inject_bias(table1_data, table1_schema, spec)
        b = inject_bias(table1_data, table1_schema, spec)
        np.testing.assert_array_equal(a.columns["default"], b.columns["default"])

    def test_unknown_group(self, table1_data, table1_schema):
        with pytest.raises(DataError, match="unknown bias target"):
            inject_bias(table1_data, table1_schema, BiasSpec("s?", 0.5, 1.0))

    def test_fraction_validated(self):
        with pytest.raises(ContractError):
            BiasSpec("s+", 1.5, 1.0)

    def test_wine_gap_shift(self, wine):
        # .24 raw group gap becomes roughly .94 after the 70%/+1 shift
        data, schema = wine
        out = inject_bias(data, schema, BiasSpec("white", 0.7, 1.0, seed=4))
        q = out.columns["quality"]
        types = data.columns["type"]
        white = np.array([t == "white" for t in types])
        gap = q[white].mean() - q[~white].mean()
        assert gap == pytest.approx(0.94, abs=0.05)


class TestBiasRobustness:
    def test_impartial_fits_insensitive_to_bias(self, table1_data, table1_schema):
        """Demeaned FEO/FSEO predictions agree between raw- and biased-trained
        fits up to the bias-assignment randomness."""
        design_raw = encode(table1_data, table1_schema)
        fit_raw = fit_total(design_raw)
        base = predict(fit_raw, design_raw, Variant.FEO).values
        base = base - base.mean()

        diffs = []
        for seed in range(30):
            biased = inject_bias(
                table1_data, table1_schema, BiasSpec("s+", 0.5, 0.4, seed=seed)
            )
            design_b = encode(biased, table1_schema)
            fit_b = fit_total(design_b)
            pred = predict(fit_b, design_b, Variant.FEO).values
            diffs.append((pred - pred.mean()) - base)
        diffs = np.asarray(diffs)
        mean_abs = np.abs(diffs).mean()
        per_row_sd = diffs.std(axis=0).mean()
        assert mean_abs <= 3 * per_row_sd
        # and the assignment noise itself is small
        assert mean_abs < 0.02

    def test_bias_loads_on_sensitive_coefficient(self, wine):
        data, schema = wine
        raw_fit = fit_total(encode(data, schema))
        shifts_s, shifts_other = [], []
        for seed in range(20):
            biased = inject_bias(data, schema, BiasSpec("white", 0.7, 1.0, seed=seed))
            fit = fit_total(encode(biased, schema))
            shifts_s.append(abs(fit.beta_s[0] - raw_fit.beta_s[0]))
            shifts_other.append(np.abs(fit.beta_x - raw_fit.beta_x).mean())
        assert np.mean(shifts_s) == pytest.approx(0.7, abs=0.07)
        assert np.mean(shifts_other) < 0.05


class TestKfoldValidate:
    def test_deterministic_tables(self, table1_data, table1_schema):
        cfg = ExperimentConfig(
            folds=5,
            repetitions=2,
            variants=(Variant.FULL, Variant.FEO, Variant.MARGINAL),
            master_seed=42,
        )
        bias = BiasSpec("s+", 0.5, 0.3)
        a = kfold_validate(table1_data, table1_schema, cfg, bias)
        b = kfold_validate(table1_data, table1_schema, cfg, bias)
        assert a == b
        assert a.to_text() == b.to_text()

    def test_no_bias_means_equal_rmse_columns(self, table1_data, table1_schema):
        cfg = ExperimentConfig(
            folds=4, repetitions=1, variants=(Variant.FULL,), master_seed=1
        )
        table = kfold_validate(table1_data, table1_schema, cfg, bias=None)
        row = table.values["full"]
        assert row["rmse_biased"] == pytest.approx(row["rmse_raw"], rel=1e-12)

    def test_marginal_rmse_tracks_response_sd(self, table1_data, table1_schema):
        cfg = ExperimentConfig(
            folds=5, repetitions=1, variants=(Variant.MARGINAL,), master_seed=3
        )
        table = kfold_validate(table1_data, table1_schema, cfg, bias=None)
        sd = np.asarray(table1_data.columns["default"]).std()
        assert table.values["marginal"]["rmse_raw"] == pytest.approx(sd, abs=0.01)

    def test_fold_count_validated(self, table1_data, table1_schema):
        cfg = ExperimentConfig(folds=2000, repetitions=1, master_seed=0)
        with pytest.raises(ContractError, match="folds"):
            kfold_validate(table1_data, table1_schema, cfg)

    def test_thread_pool_matches_serial(self, table1_data, table1_schema, monkeypatch):
        cfg = ExperimentConfig(
            folds=3,
            repetitions=2,
            variants=(Variant.FULL, Variant.FEO),
            master_seed=5,
        )
        bias = BiasSpec("s+", 0.4, 0.25)
        monkeypatch.delenv("IMPARTIAL_THREADS", raising=False)
        serial = kfold_validate(table1_data, table1_schema, cfg, bias)
        monkeypatch.setenv("IMPARTIAL_THREADS", "4")
        threaded = kfold_validate(table1_data, table1_schema, cfg, bias)
        assert serial == threaded

    def test_thread_pool_matches_serial_with_blackbox(self, monkeypatch):
        # four repetitions on four threads grow trees concurrently; the tree
        # kernel shares no state between fits, so the tables agree exactly
        data, schema = gen_wine_like(n=600, seed=4)
        cfg = ExperimentConfig(
            folds=3,
            repetitions=4,
            variants=(Variant.FULL, Variant.BLACKBOX_CORRECTED),
            master_seed=6,
            blackbox_trees=6,
            blackbox_depth=4,
        )
        bias = BiasSpec("white", 0.7, 1.0)
        monkeypatch.delenv("IMPARTIAL_THREADS", raising=False)
        serial = kfold_validate(data, schema, cfg, bias)
        monkeypatch.setenv("IMPARTIAL_THREADS", "4")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threaded = kfold_validate(data, schema, cfg, bias)
        finally:
            sys.setswitchinterval(interval)
        assert serial == threaded

    def test_table_text_shape(self, table1_data, table1_schema):
        cfg = ExperimentConfig(
            folds=3, repetitions=1, variants=(Variant.FULL,), master_seed=0
        )
        table = kfold_validate(table1_data, table1_schema, cfg)
        text = table.to_text()
        lines = text.strip().splitlines()
        assert lines[0].split() == ["metric", "full"]
        assert [ln.split()[0] for ln in lines[1:]] == [
            "rmse_biased",
            "rmse_raw",
            "ds",
            "is",
        ]
        rows = table.csv_rows()
        assert ("full", "rmse_raw", rows[1][2]) == rows[1]

    def test_config_validation(self):
        with pytest.raises(ContractError):
            ExperimentConfig(folds=1)
        with pytest.raises(ContractError):
            ExperimentConfig(repetitions=0)
        with pytest.raises(ContractError):
            ExperimentConfig(variants=())

    @pytest.mark.parametrize(
        "field",
        ["repetitions", "blackbox_trees", "blackbox_depth", "blackbox_min_leaf", "calders_bins"],
    )
    @pytest.mark.parametrize("value", [2.5, True, "3", None, 0, -1])
    def test_counts_validated(self, field, value):
        with pytest.raises(ContractError, match=field):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("value", [2.5, True, 1])
    def test_folds_validated(self, value):
        with pytest.raises(ContractError, match="folds"):
            ExperimentConfig(folds=value)

    def test_numpy_integer_counts_accepted(self):
        assert ExperimentConfig(blackbox_trees=np.int64(3)).blackbox_trees == 3
