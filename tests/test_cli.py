import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import impartial

from impartial.cli import main
from impartial.data import load_csv, make_dataset, parse_schema, write_csv
from impartial.harness import default_dag_spec, gen_dag, gen_simple_example, simple_example_schema
from impartial.data import format_schema, Role


@pytest.fixture()
def loan_files(tmp_path):
    data = gen_simple_example()
    data_path = tmp_path / "loan.csv"
    write_csv(data_path, data)
    schema_path = tmp_path / "loan.schema"
    schema_path.write_text(format_schema(simple_example_schema()), encoding="utf-8")
    return data_path, schema_path


@pytest.fixture()
def loan_suspect_files(tmp_path):
    data = gen_simple_example()
    data_path = tmp_path / "loan.csv"
    write_csv(data_path, data)
    schema_path = tmp_path / "loan_w.schema"
    schema_path.write_text(
        format_schema(simple_example_schema(Role.SUSPECT)), encoding="utf-8"
    )
    return data_path, schema_path


def read_prediction_column(path):
    values = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if row and not row[0].startswith("#"):
                values.append(float(row[-1]))
    return np.asarray(values)


class TestFit:
    def test_feo_predictions(self, loan_files, tmp_path):
        data_path, schema_path = loan_files
        out = tmp_path / "pred.csv"
        code = main(
            [
                "fit",
                "--data",
                str(data_path),
                "--schema",
                str(schema_path),
                "--variant",
                "feo",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        values = read_prediction_column(out)
        assert sorted(set(np.round(values, 3))) == [0.155, 0.455]
        coef = (tmp_path / "pred.coef.csv").read_text()
        assert "intercept" in coef and "edu=high" in coef

    def test_dropped_columns_listed_in_coef_file(self, tmp_path):
        data, schema = gen_dag(default_dag_spec(n=200, seed=5))
        columns = dict(data.columns)
        columns["x0_twice"] = 2 * columns["x0"]
        write_csv(tmp_path / "d.csv", make_dataset(columns))
        (tmp_path / "d.schema").write_text(
            format_schema(schema) + "x0_twice = legitimate\n", encoding="utf-8"
        )
        assert main(["fit", "--data", str(tmp_path / "d.csv"), "--schema",
                     str(tmp_path / "d.schema"), "--out", str(tmp_path / "p.csv")]) == 0
        lines = (tmp_path / "p.coef.csv").read_text().splitlines()
        dropped = [ln.split(",")[1] for ln in lines if ln.startswith("# dropped,")]
        assert len(dropped) == 1 and dropped[0] in ("x0", "x0_twice")
        assert len([ln for ln in lines if ln.startswith("#")]) == 1
        rows = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
        assert ["x", dropped[0], "0"] in rows

    def test_full_rank_coef_file_has_no_comment_lines(self, loan_files, tmp_path):
        data_path, schema_path = loan_files
        out = tmp_path / "pred.csv"
        assert main(["fit", "--data", str(data_path), "--schema", str(schema_path),
                     "--out", str(out)]) == 0
        assert "#" not in (tmp_path / "pred.coef.csv").read_text()

    def test_marginal_constant(self, loan_files, tmp_path):
        data_path, schema_path = loan_files
        out = tmp_path / "pred.csv"
        assert (
            main(
                [
                    "fit",
                    "--data", str(data_path),
                    "--schema", str(schema_path),
                    "--variant", "marginal",
                    "--out", str(out),
                ]
            )
            == 0
        )
        values = read_prediction_column(out)
        assert np.allclose(values, 0.335)

    def test_feo_with_suspect_exits_2(self, loan_suspect_files, tmp_path, capsys):
        data_path, schema_path = loan_suspect_files
        code = main(
            [
                "fit",
                "--data", str(data_path),
                "--schema", str(schema_path),
                "--variant", "feo",
                "--out", str(tmp_path / "pred.csv"),
            ]
        )
        assert code == 2
        assert "total" in capsys.readouterr().err

    def test_missing_data_exits_1(self, loan_files, tmp_path, capsys):
        _, schema_path = loan_files
        code = main(
            [
                "fit",
                "--data", str(tmp_path / "missing.csv"),
                "--schema", str(schema_path),
                "--out", str(tmp_path / "pred.csv"),
            ]
        )
        assert code == 1
        assert "not found" in capsys.readouterr().err


class TestAudit:
    def test_fseo_ds_zero(self, loan_suspect_files, capsys):
        data_path, schema_path = loan_suspect_files
        code = main(
            [
                "audit",
                "--data", str(data_path),
                "--schema", str(schema_path),
                "--variant", "fseo",
                "--positive-group", "s+",
                "--negative-group", "s-",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        ds_line = next(ln for ln in out.splitlines() if ln.startswith("ds"))
        assert abs(float(ds_line.split()[-1])) < 1e-9

    def test_constant_predictions_file(self, loan_files, tmp_path, capsys):
        data_path, schema_path = loan_files
        preds = tmp_path / "preds.csv"
        preds.write_text(
            "prediction\n" + "\n".join(["0.25"] * 1000) + "\n", encoding="utf-8"
        )
        code = main(
            [
                "audit",
                "--data", str(data_path),
                "--schema", str(schema_path),
                "--predictions", str(preds),
                "--out", str(tmp_path / "audit.csv"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        ds_line = next(ln for ln in out.splitlines() if ln.startswith("ds"))
        assert float(ds_line.split()[-1]) == 0.0
        audit_csv = (tmp_path / "audit.csv").read_text()
        assert "rmse" in audit_csv

    def test_missing_predictions_file_exits_1(self, loan_files, tmp_path):
        data_path, schema_path = loan_files
        code = main(
            [
                "audit",
                "--data", str(data_path),
                "--schema", str(schema_path),
                "--predictions", str(tmp_path / "nope.csv"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("header", ["prediction", "row,prediction"])
    def test_predictions_column_accepted(self, loan_files, tmp_path, capsys, header):
        data_path, schema_path = loan_files
        y = load_csv(data_path, simple_example_schema()).columns["default"]
        lines = [format(v, ".17g") for v in y]
        if header.startswith("row,"):
            lines = [f"{i},{v}" for i, v in enumerate(lines)]
        preds = tmp_path / "preds.csv"
        preds.write_text(header + "\n" + "\n".join(lines) + "\n", encoding="utf-8")
        code = main(
            [
                "audit",
                "--data", str(data_path),
                "--schema", str(schema_path),
                "--predictions", str(preds),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        rmse_line = next(ln for ln in out.splitlines() if ln.startswith("rmse"))
        assert float(rmse_line.split()[-1]) == 0.0

    @pytest.mark.parametrize("header", ["row,prediction,note", "prediction,note"])
    def test_ambiguous_predictions_header_exits_1(
        self, loan_files, tmp_path, capsys, header
    ):
        data_path, schema_path = loan_files
        width = header.count(",") + 1
        preds = tmp_path / "preds.csv"
        preds.write_text(
            header + "\n" + "\n".join([",".join(["0.5"] * width)] * 1000) + "\n",
            encoding="utf-8",
        )
        code = main(
            [
                "audit",
                "--data", str(data_path),
                "--schema", str(schema_path),
                "--predictions", str(preds),
            ]
        )
        assert code == 1
        assert "note" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["audit", "correct"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "1e999"])
    def test_non_finite_prediction_exits_1(self, loan_files, tmp_path, capsys, command, cell):
        data_path, schema_path = loan_files
        lines = ["0.25"] * 1000
        lines[6] = cell
        preds = tmp_path / "preds.csv"
        preds.write_text("prediction\n" + "\n".join(lines) + "\n", encoding="utf-8")
        argv = [command, "--data", str(data_path), "--schema", str(schema_path),
                "--predictions", str(preds)]
        if command == "correct":
            argv += ["--out", str(tmp_path / "out.csv")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert f"prediction {cell!r} at row 8 is not finite" in captured.err
        assert captured.out == ""

    def test_needs_predictions_or_variant(self, loan_files):
        data_path, schema_path = loan_files
        code = main(
            ["audit", "--data", str(data_path), "--schema", str(schema_path)]
        )
        assert code == 2


class TestDecompose:
    def test_feo_components_sum(self, loan_files, tmp_path):
        data_path, schema_path = loan_files
        out = tmp_path / "components.csv"
        code = main(
            [
                "decompose",
                "--data", str(data_path),
                "--schema", str(schema_path),
                "--mode", "feo",
                "--out", str(out),
            ]
        )
        assert code == 0
        with out.open(newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert len(rows) == 1000
        sums = {round(float(r["fitted_sum"]), 10) for r in rows}
        assert sums == {0.1, 0.2, 0.4, 0.5}
        assert "sd_minus_mixed" in rows[0]

    def test_mode_mismatch_exits_2(self, loan_files, tmp_path):
        data_path, schema_path = loan_files
        code = main(
            [
                "decompose",
                "--data", str(data_path),
                "--schema", str(schema_path),
                "--mode", "fseo",
                "--out", str(tmp_path / "c.csv"),
            ]
        )
        assert code == 2


class TestCorrect:
    def test_correct_response_as_predictions(self, tmp_path):
        # only a sensitive column: correcting y itself must group-mean-equalize it
        data = gen_simple_example()
        write_csv(tmp_path / "loan.csv", data)
        schema_text = "default = response\nedu = ignore\ngroup = sensitive,categorical\n"
        (tmp_path / "s.schema").write_text(schema_text, encoding="utf-8")
        preds = tmp_path / "preds.csv"
        preds.write_text(
            "prediction\n"
            + "\n".join(format(v, ".17g") for v in data.columns["default"])
            + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "corrected.csv"
        code = main(
            [
                "correct",
                "--data", str(tmp_path / "loan.csv"),
                "--schema", str(tmp_path / "s.schema"),
                "--predictions", str(preds),
                "--out", str(out),
            ]
        )
        assert code == 0
        corrected = read_prediction_column(out)
        y = np.asarray(data.columns["default"])
        groups = np.asarray(data.columns["group"])
        for g in ("s-", "s+"):
            expected = y[groups == g] - y[groups == g].mean() + y.mean()
            np.testing.assert_allclose(corrected[groups == g], expected, atol=1e-9)
        # audit summary appended as comment lines
        assert "# ds," in out.read_text()

    def test_alignment_mismatch_exits_1(self, loan_files, tmp_path):
        data_path, schema_path = loan_files
        preds = tmp_path / "short.csv"
        preds.write_text("prediction\n0.5\n0.25\n", encoding="utf-8")
        code = main(
            [
                "correct",
                "--data", str(data_path),
                "--schema", str(schema_path),
                "--predictions", str(preds),
                "--out", str(tmp_path / "c.csv"),
            ]
        )
        assert code == 1


class TestValidate:
    def test_simulate_simple_deterministic(self, tmp_path, capsys):
        argv = [
            "validate",
            "--simulate", "simple",
            "--variants", "full,feo,marginal",
            "--reps", "2",
            "--folds", "3",
            "--seed", "17",
            "--bias-group", "s+",
            "--bias-frac", "0.5",
            "--bias-shift", "0.3",
            "--out", str(tmp_path / "a.csv"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        argv[-1] = str(tmp_path / "b.csv")
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()
        assert "rmse_raw" in first

    def test_dag_fair_feo_close_to_full(self, capsys):
        # fair model with every legitimate covariate observed: the fitted
        # sensitive coefficient vanishes, so dropping it costs nothing
        code = main(
            [
                "validate",
                "--simulate", "dag",
                "--fair",
                "--pxu", "0",
                "--n", "4000",
                "--variants", "full,feo",
                "--reps", "2",
                "--folds", "5",
                "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        row = next(ln for ln in out.splitlines() if ln.startswith("rmse_raw"))
        full_rmse, feo_rmse = map(float, row.split()[1:])
        assert feo_rmse <= full_rmse * 1.02

    def test_needs_data_or_simulate(self, capsys):
        assert main(["validate", "--reps", "1"]) == 2

    @pytest.mark.parametrize("threads", ["abc", "0"])
    def test_bad_thread_count_exits_2(self, monkeypatch, capsys, threads):
        monkeypatch.setenv("IMPARTIAL_THREADS", threads)
        assert main(["validate", "--simulate", "simple", "--reps", "1"]) == 2
        assert "IMPARTIAL_THREADS" in capsys.readouterr().err


class TestSimulate:
    def test_simple_writes_table(self, tmp_path):
        out = tmp_path / "simple.csv"
        assert main(["simulate", "simple", "--out", str(out)]) == 0
        schema = parse_schema((tmp_path / "simple.schema").read_text())
        data = load_csv(out, schema)
        assert data.n_rows == 1000

    def test_dag_deterministic_files(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert (
                main(
                    [
                        "simulate", "dag",
                        "--fair",
                        "--seed", "7",
                        "--n", "500",
                        "--out", str(out),
                    ]
                )
                == 0
            )
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.schema").read_text() == (tmp_path / "b.schema").read_text()

    def test_dag_schema_dimensions(self, tmp_path):
        out = tmp_path / "dag.csv"
        assert (
            main(
                [
                    "simulate", "dag",
                    "--ps", "1",
                    "--px", "2",
                    "--pw", "1",
                    "--n", "200",
                    "--out", str(out),
                ]
            )
            == 0
        )
        text = (tmp_path / "dag.schema").read_text()
        assert text.count("sensitive") == 1
        assert text.count("legitimate") == 2
        assert text.count("suspect") == 1

    def test_input_files_not_mutated(self, loan_files, tmp_path):
        data_path, schema_path = loan_files
        before = data_path.read_bytes()
        main(
            [
                "fit",
                "--data", str(data_path),
                "--schema", str(schema_path),
                "--variant", "full",
                "--out", str(tmp_path / "p.csv"),
            ]
        )
        assert data_path.read_bytes() == before


def test_cli_process_imports_no_scipy():
    """The package and its command line run on numpy alone: a fresh process
    that imports them loads no scipy module."""
    src = str(Path(impartial.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    code = ("import sys, impartial, impartial.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
