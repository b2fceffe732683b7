import dataclasses
import json
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from impartial.data import assemble, encode
from impartial.errors import ContractError, DataError
from impartial.estimators import Variant, fit_total, predict
from impartial.harness import experiment
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
            table1_data, table1_schema, BiasSpec("s+", 0.0, 1.0), seed=1
        )
        np.testing.assert_array_equal(
            out.columns["default"], table1_data.columns["default"]
        )

    def test_fraction_one_shifts_whole_group(self, table1_data, table1_schema):
        out = inject_bias(
            table1_data, table1_schema, BiasSpec("s+", 1.0, 1.0), seed=1
        )
        groups = np.asarray(table1_data.columns["group"])
        delta = out.columns["default"] - table1_data.columns["default"]
        assert np.all(delta[groups == "s+"] == 1.0)
        assert np.all(delta[groups == "s-"] == 0.0)

    def test_exact_count(self, table1_data, table1_schema):
        out = inject_bias(
            table1_data, table1_schema, BiasSpec("s+", 0.7, 1.0), seed=2
        )
        delta = out.columns["default"] - table1_data.columns["default"]
        assert int(delta.sum()) == round(0.7 * 450)

    def test_deterministic_under_seed(self, table1_data, table1_schema):
        spec = BiasSpec("s-", 0.3, 0.5)
        a = inject_bias(table1_data, table1_schema, spec, seed=9)
        b = inject_bias(table1_data, table1_schema, spec, seed=9)
        np.testing.assert_array_equal(a.columns["default"], b.columns["default"])

    def test_unknown_group(self, table1_data, table1_schema):
        with pytest.raises(DataError, match="unknown bias target"):
            inject_bias(table1_data, table1_schema, BiasSpec("s?", 0.5, 1.0))

    def test_fraction_validated(self):
        with pytest.raises(ContractError):
            BiasSpec("s+", 1.5, 1.0)

    @pytest.mark.parametrize("shift", [np.nan, np.inf, -np.inf])
    def test_shift_must_be_finite(self, shift):
        with pytest.raises(ContractError, match="shift"):
            BiasSpec("s+", 0.5, shift)

    def test_wine_gap_shift(self, wine):
        # .24 raw group gap becomes roughly .94 after the 70%/+1 shift
        data, schema = wine
        out = inject_bias(data, schema, BiasSpec("white", 0.7, 1.0), seed=4)
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
                table1_data, table1_schema, BiasSpec("s+", 0.5, 0.4), seed=seed
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
            biased = inject_bias(data, schema, BiasSpec("white", 0.7, 1.0), seed=seed)
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
        with pytest.raises(ContractError, match=r"\['full'\] configured more than once"):
            ExperimentConfig(variants=(Variant.FULL, Variant.FEO, Variant.FULL))
        with pytest.raises(ContractError, match=r"\['full'\] are not Variant members"):
            ExperimentConfig(variants=("full",))

    @pytest.mark.parametrize(
        "field",
        ["repetitions", "blackbox_trees", "blackbox_depth"],
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


@pytest.mark.parametrize("seed", [11, 7777])
def test_protocol_matches_the_benchmark_reference(seed):
    # the benchmark's protocol_blackbox config against its stored tables
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    want = json.loads(path.read_text())["protocol_blackbox"][str(seed)]
    config = ExperimentConfig(
        folds=5,
        repetitions=2,
        variants=(Variant.FULL, Variant.FEO, Variant.FSEO, Variant.CALDERS_BASELINE,
                  Variant.MARGINAL, Variant.BLACKBOX_CORRECTED),
        master_seed=seed,
        blackbox_trees=20,
        blackbox_depth=6,
    )
    data, schema = gen_wine_like(n=6497, seed=seed)
    got = kfold_validate(data, schema, config, BiasSpec("white", 0.7, 1.0)).values
    assert sorted(got) == sorted(want)
    for variant, metrics in want.items():
        assert sorted(got[variant]) == sorted(metrics)
        for metric, value in metrics.items():
            assert got[variant][metric] == pytest.approx(value, rel=1e-9, abs=1e-9)


class TestEverySettingReachesResult:
    """Changing any one field of the protocol's settings changes its table."""

    CONFIG = ExperimentConfig(
        folds=3,
        repetitions=2,
        variants=(Variant.FULL, Variant.CALDERS_BASELINE, Variant.BLACKBOX_CORRECTED),
        master_seed=5,
        blackbox_trees=2,
        blackbox_depth=2,
    )
    BIAS = BiasSpec("white", 0.5, 1.0)
    CHANGED = {
        "folds": 4,
        "repetitions": 3,
        "variants": (Variant.FULL, Variant.BLACKBOX_CORRECTED),
        "master_seed": 6,
        "blackbox_trees": 3,
        "blackbox_depth": 3,
        "target_group_label": "red",
        "fraction": 0.6,
        "shift": 2.0,
    }

    @pytest.fixture(scope="class")
    def small_wine(self):
        return gen_wine_like(n=300, seed=3)

    @pytest.mark.parametrize(
        "field",
        [f.name for f in dataclasses.fields(ExperimentConfig)]
        + [f.name for f in dataclasses.fields(BiasSpec)],
    )
    def test_field_changes_table(self, small_wine, field):
        data, schema = small_wine
        config, bias = self.CONFIG, self.BIAS
        base = kfold_validate(data, schema, config, bias).csv_rows()
        if hasattr(config, field):
            config = dataclasses.replace(config, **{field: self.CHANGED[field]})
        else:
            bias = dataclasses.replace(bias, **{field: self.CHANGED[field]})
        assert kfold_validate(data, schema, config, bias).csv_rows() != base


def _cpus(monkeypatch, count):
    """Let the protocol see ``count`` CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _rows_in_daemon():
    data, schema = gen_wine_like(n=300, seed=3)
    return kfold_validate(data, schema, TestBagWorkers.CONFIG, TestBagWorkers.BIAS).csv_rows()


class TestBagWorkers:
    """Black-box bags grow in forked workers; the table keeps its bits."""

    CONFIG = ExperimentConfig(
        folds=3,
        repetitions=3,
        variants=(Variant.FULL, Variant.BLACKBOX_CORRECTED),
        master_seed=5,
        blackbox_trees=2,
        blackbox_depth=2,
    )
    BIAS = BiasSpec("white", 0.5, 1.0)

    @pytest.fixture(scope="class")
    def small_wine(self):
        return gen_wine_like(n=300, seed=3)

    def rows(self, small_wine):
        return kfold_validate(*small_wine, self.CONFIG, self.BIAS).csv_rows()

    def test_rows_do_not_depend_on_the_worker_count(self, small_wine, monkeypatch):
        # 2 workers take 3 repetitions as a batch of 2 and a partial batch of 1
        rows = {}
        for count in (1, 2, 3):
            _cpus(monkeypatch, count)
            rows[count] = self.rows(small_wine)
            assert multiprocessing.active_children() == []
        monkeypatch.delattr(os, "sched_getaffinity")  # as on a host without it
        assert rows[1] == rows[2] == rows[3] == self.rows(small_wine)

    def test_the_black_box_reads_the_assembled_rows(self, small_wine, monkeypatch):
        # bit for bit the columns as given, not centered and restored
        seen = []

        class Recording(experiment.BaggedTrees):
            def fit(self, features, response):
                seen.append((features.copy(), response.copy()))
                return super().fit(features, response)

            def predict(self, features):
                seen.append((features.copy(), None))
                return super().predict(features)

        _cpus(monkeypatch, 1)  # bags grow inline, in this process
        monkeypatch.setattr(experiment, "BaggedTrees", Recording)
        self.rows(small_wine)
        raw = assemble(*small_wine)
        inputs = (raw, raw.groups.rows(), self.CONFIG, self.BIAS)
        want = []
        for rep in range(self.CONFIG.repetitions):
            y_biased, folds = experiment._split(inputs, rep)
            for train, test in folds:
                want += [(raw.z[train], y_biased[train]), (raw.z[test], None)]
        assert len(seen) == len(want)
        for (features, response), (want_features, want_response) in zip(seen, want):
            assert features.tobytes() == want_features.tobytes()
            assert (response is None) == (want_response is None)
            if response is not None:
                assert response.tobytes() == want_response.tobytes()

    def test_a_bag_error_reaches_the_caller_and_no_worker_outlives_it(
        self, small_wine, monkeypatch
    ):
        class Failing(experiment.BaggedTrees):
            def fit(self, features, response):
                raise DataError(f"bag {self.seed} failed")

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(experiment, "BaggedTrees", Failing)
        first = derive_seed(self.CONFIG.master_seed, 0, 0)
        with pytest.raises(DataError, match=f"^bag {first} failed$"):
            self.rows(small_wine)
        assert multiprocessing.active_children() == []

    def test_a_daemonic_caller_grows_its_bags_inline(self, small_wine, monkeypatch):
        # a daemonic process may not have children: the protocol must not fork
        _cpus(monkeypatch, 1)
        serial = self.rows(small_wine)
        _cpus(monkeypatch, 2)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply_async(_rows_in_daemon).get(timeout=120) == serial
