import csv
import json
import os
import shutil
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import impartial

from impartial import sidecar
from impartial.cli import main
from impartial.data import load_csv, load_schema, make_dataset, parse_schema, write_csv
from impartial.errors import DataError
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

    def test_repeated_row_header_exits_1(self, loan_files, tmp_path, capsys):
        data_path, schema_path = loan_files
        preds = tmp_path / "preds.csv"
        preds.write_text("row,row\n" + "0,0.5\n" * 1000, encoding="utf-8")
        argv = ["audit", "--data", str(data_path), "--schema", str(schema_path),
                "--predictions", str(preds)]
        assert main(argv) == 1
        assert "cannot tell the predictions column" in capsys.readouterr().err

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

    @pytest.mark.parametrize("scale, code", [(1e160, 1), (1e200, 1), (1e300, 1), (1e150, 0)])
    def test_overflowing_predictions_exit_1(self, loan_files, tmp_path, capsys, scale, code):
        # finite predictions whose squares overflow used to score is 0, rmse inf
        data_path, schema_path = loan_files
        noise = np.random.default_rng(3).standard_normal(1000) * scale
        preds = tmp_path / "preds.csv"
        preds.write_text("prediction\n" + "\n".join(map(repr, noise.tolist())) + "\n",
                         encoding="utf-8")
        argv = ["audit", "--data", str(data_path), "--schema", str(schema_path),
                "--predictions", str(preds)]
        assert main(argv) == code
        captured = capsys.readouterr()
        if code:
            assert "sum of squares is not finite" in captured.err and captured.out == ""
        else:
            assert "inf" not in captured.out

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


class TestGroupFlags:
    """DS is the positive group's mean minus the negative group's. In the
    loan table s- appears first, so with no flag the pair is (s+, s-)."""

    def ds(self, command, loan_files, tmp_path, capsys, flags):
        data_path, schema_path = loan_files
        args = [command, "--data", str(data_path), "--schema", str(schema_path), *flags]
        if command == "audit":
            args += ["--variant", "full"]
        else:
            preds = tmp_path / "preds.csv"
            if not preds.exists():
                noise = np.random.default_rng(3).standard_normal(1000)
                preds.write_text("prediction\n" + "\n".join(map(repr, noise.tolist())) + "\n",
                                 encoding="utf-8")
            args += ["--predictions", str(preds), "--out", str(tmp_path / "c.csv")]
        code = main(args)
        out = capsys.readouterr().out
        if code != 0:
            return code
        return float(next(ln for ln in out.splitlines() if ln.startswith("ds")).split()[-1])

    @pytest.mark.parametrize("command", ["audit", "correct"])
    def test_lone_group_name_is_paired_with_the_other_group(
        self, command, loan_files, tmp_path, capsys
    ):
        default = self.ds(command, loan_files, tmp_path, capsys, [])
        assert default != 0.0
        for flags, expected in [
            (["--positive-group", "s-"], -default),
            (["--negative-group", "s+"], -default),
            (["--positive-group", "s+"], default),
            (["--negative-group", "s-"], default),
            (["--positive-group", "s-", "--negative-group", "s+"], -default),
        ]:
            assert self.ds(command, loan_files, tmp_path, capsys, flags) == expected, flags

    @pytest.mark.parametrize("command", ["audit", "correct"])
    @pytest.mark.parametrize("flag", ["--positive-group", "--negative-group"])
    def test_name_that_is_not_a_group_exits_2(
        self, command, flag, loan_files, tmp_path, capsys
    ):
        assert self.ds(command, loan_files, tmp_path, capsys, [flag, "nope"]) == 2
        assert not (tmp_path / "c.csv").exists()


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

    @pytest.mark.parametrize("shift", ["nan", "inf"])
    def test_non_finite_bias_shift_exits_2(self, capsys, shift):
        # a NaN shift used to print a table of nan with is 0 and exit 0
        argv = ["validate", "--simulate", "simple", "--reps", "1",
                "--bias-group", "s+", "--bias-shift", shift]
        assert main(argv) == 2
        assert "bias shift" in capsys.readouterr().err

    @pytest.mark.parametrize("shift, code", [("1e308", 1), ("1e200", 1), ("1e150", 0)])
    def test_overflowing_bias_shift_exits_1(self, capsys, shift, code):
        # 1e200 used to print a table of rmse inf with is 0 and exit 0
        argv = ["validate", "--simulate", "simple", "--reps", "1", "--folds", "2",
                "--variants", "full,feo", "--bias-group", "s+", "--bias-shift", shift]
        assert main(argv) == code
        captured = capsys.readouterr()
        if code:
            assert f"bias shift {float(shift):g} on group 's+'" in captured.err
        else:
            assert "rmse_raw" in captured.out

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


def _cli_env():
    """The environment of a fresh process that imports this package."""
    src = str(Path(impartial.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))


def test_cli_process_imports_no_scipy():
    """The package and its command line run on numpy alone: a fresh process
    that imports them loads no scipy module, and no harness module, which
    only ``validate`` and ``simulate`` import."""
    code = ("import sys, impartial, impartial.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "sorted(m for m in sys.modules if m.startswith('impartial.harness')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_cli_env(), check=True)
    assert out.stdout.strip() == "[] []"


# --- the data sidecar ------------------------------------------------------


@pytest.fixture()
def cached_files(tmp_path):
    """A data file with numeric, categorical (labels that need quoting) and
    ignored columns, its schema, and a predictions file."""
    data, schema = gen_dag(default_dag_spec(n=300, p_x_unobserved=0, seed=5))
    rng = np.random.default_rng(6)
    columns = dict(data.columns)
    columns["region"] = tuple(rng.choice(["a,b", 'q"t', "plain", "é"], 300).tolist())
    columns["note"] = np.arange(300.0)
    data_path = tmp_path / "data.csv"
    write_csv(data_path, make_dataset(columns))
    schema_path = tmp_path / "data.schema"
    schema_path.write_text(
        format_schema(schema) + "region = legitimate,categorical\nnote = ignore\n",
        encoding="utf-8",
    )
    preds = tmp_path / "preds.csv"
    noisy = data.columns["y"] + rng.standard_normal(300)
    preds.write_text("row,prediction\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(noisy.tolist())))
    return data_path, schema_path, preds


@pytest.fixture()
def parses(monkeypatch):
    """The paths ``load_data`` parsed as text, in call order."""
    calls = []
    real = sidecar.load_csv

    def counting(path, schema):
        calls.append(Path(path).name)
        return real(path, schema)

    monkeypatch.setattr(sidecar, "load_csv", counting)
    return calls


def refuse_mkstemp(*args, **kwargs):
    raise PermissionError(13, "Permission denied")


def sidecar_of(data_path):
    return data_path.with_name(data_path.name + ".impartial.npz")


def left_behind(directory):
    """Temporary files of a sidecar write still in ``directory``."""
    return sorted(p.name for p in directory.iterdir() if p.name.startswith("."))


def assert_same_dataset(a, b):
    assert a.names == b.names and a.n_rows == b.n_rows
    for name in a.names:
        x, y = a.columns[name], b.columns[name]
        assert type(x) is type(y)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        else:
            assert x == y


def _swapped(codes):
    return 1 - codes, '["g0", "g1"]'


def _set(i, code, labels='["g0", "g1"]'):
    def damage(codes):
        codes[i] = code
        return codes, labels
    return damage


# Damaged codes or labels of a categorical column: each is a miss.
CODE_DAMAGE = {
    "codes out of order": _swapped,
    "code out of range": _set(-1, 2),
    "negative code": _set(-1, -1),
    "unused label": _set(0, 0, '["g0", "g1", "g2"]'),
    "repeated label": _set(0, 0, '["g0", "g0"]'),
    "label not a string": _set(0, 0, '["g0", 1]'),
    "labels not a list": _set(0, 0, '{"g0": 0, "g1": 1}'),
}


SIDECAR_COMMANDS = {
    "fit": ["fit", "--variant", "total"],
    "audit": ["audit", "--predictions", "{preds}"],
    "audit-variant": ["audit", "--variant", "total"],
    "decompose": ["decompose", "--mode", "total"],
    "correct": ["correct", "--predictions", "{preds}"],
    "validate": ["validate", "--variants", "full,fseo,calders", "--folds", "2", "--reps", "1",
                 "--trees", "2", "--tree-depth", "2"],
}


class TestSidecar:
    def run(self, name, files, capsys):
        """Exit code, stdout and every output file of one command."""
        data_path, schema_path, preds = files
        out_dir = data_path.parent / "out"
        out_dir.mkdir(exist_ok=True)
        for f in out_dir.iterdir():
            f.unlink()
        argv = [a.format(preds=preds) for a in SIDECAR_COMMANDS[name]]
        code = main([*argv, "--data", str(data_path), "--schema", str(schema_path),
                     "--out", str(out_dir / "result.csv")])
        outputs = {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}
        return code, capsys.readouterr().out, outputs

    @pytest.mark.parametrize("name", sorted(SIDECAR_COMMANDS))
    def test_outputs_identical_without_fresh_and_warm(
        self, cached_files, capsys, monkeypatch, parses, name
    ):
        data_path = cached_files[0]
        with monkeypatch.context() as m:
            m.setattr(sidecar.tempfile, "mkstemp", refuse_mkstemp)
            without = self.run(name, cached_files, capsys)
        assert not sidecar_of(data_path).exists()
        fresh = self.run(name, cached_files, capsys)
        assert sidecar_of(data_path).exists()
        warm = self.run(name, cached_files, capsys)
        assert without[0] == 0 and without[2]
        assert without == fresh == warm
        assert parses == ["data.csv", "data.csv"]  # the warm run parsed nothing

    def test_hit_equals_parse(self, cached_files, parses):
        data_path, schema_path, _ = cached_files
        schema = load_schema(schema_path)
        expected = load_csv(data_path, schema)
        assert_same_dataset(sidecar.load_data(data_path, schema), expected)
        assert_same_dataset(sidecar.load_data(str(data_path), schema), expected)
        assert parses == ["data.csv"]
        assert stat.S_IMODE(sidecar_of(data_path).stat().st_mode) == 0o600
        assert left_behind(data_path.parent) == []

    def test_same_size_and_mtime_with_other_bytes_is_a_miss(self, cached_files, parses,
                                                           monkeypatch):
        data_path, schema_path, _ = cached_files
        schema = load_schema(schema_path)
        # the rewrite changes the file's status-change time, which alone
        # would make a miss; hold the identity fixed so the bytes decide
        monkeypatch.setattr(sidecar, "_identity", lambda st: b"")
        sidecar.load_data(data_path, schema)
        before = data_path.stat()
        text = data_path.read_bytes()
        row = text.index(b"\r\n") + 2
        digit = text.index(b"1", row)  # a digit of the first data row
        data_path.write_bytes(text[:digit] + b"2" + text[digit + 1 :])
        os.utime(data_path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = data_path.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert_same_dataset(sidecar.load_data(data_path, schema), load_csv(data_path, schema))
        assert parses == ["data.csv", "data.csv"]

    @pytest.mark.parametrize("values", ["altered", "unaltered"])
    def test_sidecar_delivered_with_its_data_is_a_miss(self, cached_files, parses, tmp_path,
                                                       values):
        # whoever ships data.csv can ship a sidecar whose key was valid where
        # it was made; after a copy or an unpack both are the user's, 0644
        data_path, schema_path, _ = cached_files
        schema = load_schema(schema_path)
        sidecar.load_data(data_path, schema)
        with np.load(sidecar_of(data_path)) as z:
            members = dict(z)
        if values == "altered":
            assert members["c0"].dtype == np.float64  # y: still a valid column
            members["c0"] = members["c0"] + 1.0
        copy = tmp_path / "delivered" / "data.csv"
        copy.parent.mkdir()
        shutil.copy2(data_path, copy)
        with sidecar_of(copy).open("wb") as fh:
            np.savez(fh, **members)
        sidecar_of(copy).chmod(0o644)
        assert members["key"].tobytes() == sidecar._key(data_path, schema)
        assert_same_dataset(sidecar.load_data(copy, schema), load_csv(data_path, schema))
        assert parses == ["data.csv", "data.csv"]
        assert_same_dataset(sidecar.load_data(copy, schema), load_csv(data_path, schema))
        assert parses == ["data.csv", "data.csv"]  # replaced by the copy's own

    def test_file_changed_during_the_parse_is_not_stored(self, cached_files, monkeypatch):
        data_path, schema_path, _ = cached_files
        schema = load_schema(schema_path)
        real = sidecar.load_csv

        def parse_then_append(path, schema):
            data = real(path, schema)
            with open(path, "ab") as fh:
                fh.write(data_path.read_bytes().splitlines(keepends=True)[1])
            return data

        monkeypatch.setattr(sidecar, "load_csv", parse_then_append)
        assert sidecar.load_data(data_path, schema).n_rows == 300
        assert not sidecar_of(data_path).exists()

    def test_schema_change_is_a_miss(self, cached_files, parses):
        data_path, schema_path, _ = cached_files
        schema = load_schema(schema_path)
        other = parse_schema(
            schema_path.read_text().replace("region = legitimate,categorical", "region = ignore")
        )
        sidecar.load_data(data_path, schema)
        data = sidecar.load_data(data_path, other)
        assert "region" not in data.names
        assert_same_dataset(data, load_csv(data_path, other))
        assert parses == ["data.csv", "data.csv"]

    def test_sidecar_of_labels_per_row_layout_is_a_hit(self, cached_files, parses):
        # the layout as written when a categorical column was a tuple of
        # labels: codes numbered by first appearance, labels as JSON
        data_path, schema_path, _ = cached_files
        schema = load_schema(schema_path)
        expected = load_csv(data_path, schema)
        members = {"key": np.frombuffer(sidecar._key(data_path, schema), np.uint8)}
        for i, name in enumerate(expected.names):
            col = expected.columns[name]
            if isinstance(col, np.ndarray):
                members[f"c{i}"] = col
                continue
            labels = tuple(col)
            codes = {label: code for code, label in enumerate(dict.fromkeys(labels))}
            members[f"c{i}"] = np.fromiter(map(codes.__getitem__, labels), np.int64, len(labels))
            members[f"l{i}"] = np.frombuffer(json.dumps(list(codes)).encode(), np.uint8)
        with sidecar_of(data_path).open("wb") as fh:
            np.savez(fh, **members)
        sidecar_of(data_path).chmod(0o600)
        assert_same_dataset(sidecar.load_data(data_path, schema), expected)
        assert parses == []

    @staticmethod
    def _damage(path, kind, key):
        if kind == "truncated":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        elif kind == "empty":
            path.write_bytes(b"")
        elif kind == "not an npz":
            path.write_bytes(b"y,s0\n1,2\n")
        elif kind == "wrong key":
            with np.load(path) as z:
                members = dict(z)
            members["key"] = np.frombuffer(bytes(32), np.uint8)
            np.savez(path, **members)
        elif kind == "object array":
            with np.load(path) as z:
                members = dict(z)
            members["c0"] = np.array(list(members["c0"]), dtype=object)
            with path.open("wb") as fh:
                np.savez(fh, **members)
        elif kind == "wrong dtype":
            with np.load(path) as z:
                members = dict(z)
            members["c0"] = members["c0"].astype(np.float32)
            np.savez(path, **members)
        elif kind == "missing member":
            with np.load(path) as z:
                members = {k: z[k] for k in z.files if k != "c1"}
            np.savez(path, **members)
        elif kind == "older format":
            np.savez(path, key=np.frombuffer(key, np.uint8))
        elif kind in CODE_DAMAGE:
            with np.load(path) as z:
                members = dict(z)
            # c1 and l1 are the sensitive column s0: codes 0 and 1, two labels
            assert json.loads(members["l1"].tobytes()) == ["g0", "g1"]
            members["c1"], labels = CODE_DAMAGE[kind](members["c1"].copy())
            members["l1"] = np.frombuffer(labels.encode(), np.uint8)
            np.savez(path, **members)
        path.chmod(0o600)

    @pytest.mark.parametrize("kind", ["truncated", "empty", "not an npz", "wrong key",
                                      "object array", "wrong dtype", "missing member",
                                      "older format", *CODE_DAMAGE])
    def test_damaged_sidecar_is_a_miss_and_replaced(self, cached_files, parses, monkeypatch,
                                                    kind):
        data_path, schema_path, _ = cached_files
        schema = load_schema(schema_path)
        expected = load_csv(data_path, schema)
        if kind == "older format":
            # a sidecar under another format tag: its key is no longer valid
            with monkeypatch.context() as m:
                m.setattr(sidecar, "_TAG", b"impartial data sidecar 0\n")
                sidecar.load_data(data_path, schema)
                key = sidecar._key(data_path, schema)
            self._damage(sidecar_of(data_path), kind, key)
        else:
            sidecar.load_data(data_path, schema)
            self._damage(sidecar_of(data_path), kind, None)
        assert_same_dataset(sidecar.load_data(data_path, schema), expected)
        assert_same_dataset(sidecar.load_data(data_path, schema), expected)
        assert parses == ["data.csv", "data.csv"]  # damaged: parsed; replaced: a hit

    @pytest.mark.parametrize("kind", ["group-writable", "other-writable", "symlink",
                                      "directory", "foreign owner"])
    def test_untrusted_sidecar_is_ignored(self, cached_files, parses, kind):
        data_path, schema_path, _ = cached_files
        schema = load_schema(schema_path)
        sidecar.load_data(data_path, schema)
        path = sidecar_of(data_path)
        if kind == "group-writable":
            path.chmod(0o660)
        elif kind == "other-writable":
            path.chmod(0o602)
        elif kind == "symlink":
            target = path.with_name("elsewhere.npz")
            path.rename(target)
            path.symlink_to(target)
        elif kind == "directory":
            path.unlink()
            path.mkdir()
        elif os.getuid() == 0:
            os.chown(path, 12345, -1)
        else:
            pytest.skip("only root can hand a file to another user")
        assert_same_dataset(sidecar.load_data(data_path, schema), load_csv(data_path, schema))
        assert parses == ["data.csv", "data.csv"]

    @pytest.mark.parametrize("how", ["chmod", "mkstemp refused", "replace refused"])
    def test_read_only_directory_writes_no_sidecar(self, cached_files, tmp_path, capsys,
                                                   monkeypatch, how):
        data_path, schema_path, _ = cached_files
        out = tmp_path / "elsewhere"
        out.mkdir()
        argv = ["fit", "--data", str(data_path), "--schema", str(schema_path),
                "--out", str(out / "p.csv")]
        if how == "chmod":
            tmp_path.chmod(0o555)
            if os.access(tmp_path, os.W_OK):
                tmp_path.chmod(0o755)
                pytest.skip("permission bits do not bind this user")
        elif how == "mkstemp refused":
            monkeypatch.setattr(sidecar.tempfile, "mkstemp", refuse_mkstemp)
        else:
            monkeypatch.setattr(sidecar.os, "replace", refuse_mkstemp)
        try:
            assert main(argv) == 0
            listing = sorted(p.name for p in tmp_path.iterdir())
        finally:
            tmp_path.chmod(0o755)
        assert listing == sorted(["data.csv", "data.schema", "preds.csv", "elsewhere"])
        assert "wrote" in capsys.readouterr().out

    @pytest.mark.parametrize("source", ["fifo", "stdin"])
    def test_non_regular_data_is_read_once(self, cached_files, tmp_path, source):
        data_path, schema_path, _ = cached_files
        assert main(["fit", "--data", str(data_path), "--schema", str(schema_path),
                     "--out", str(tmp_path / "expected.csv")]) == 0
        argv = [sys.executable, "-m", "impartial.cli", "fit", "--schema", str(schema_path),
                "--out", str(tmp_path / "p.csv")]
        if source == "fifo":
            fifo = tmp_path / "fifo.csv"
            os.mkfifo(fifo)

            def feed():
                with fifo.open("wb") as fh:
                    fh.write(data_path.read_bytes())

            feeder = threading.Thread(target=feed, daemon=True)
            feeder.start()
            proc = subprocess.run([*argv, "--data", str(fifo)], capture_output=True,
                                  env=_cli_env(), timeout=60)
            feeder.join(timeout=10)
            assert not feeder.is_alive()
        else:
            proc = subprocess.run([*argv, "--data", "/dev/stdin"], capture_output=True,
                                  input=data_path.read_bytes(), env=_cli_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
        assert not list(tmp_path.glob("fifo.csv.*"))

    @pytest.mark.parametrize("text", [
        "y,s0\n1.5,a\n,b\n",
        "y,s0\n1.5,a\nabc,b\n",
        "y,s0\n1.5,a\n2.5,b,c\n",
        "y,s0\n1.5,a\ninf,b\n",
        "y,s1\n1.5,a\n",
        "y,s0\n",
        "",
    ])
    def test_malformed_csv_same_error_and_no_sidecar(self, tmp_path, capsys, text):
        data_path = tmp_path / "bad.csv"
        data_path.write_text(text, encoding="utf-8")
        schema_path = tmp_path / "bad.schema"
        schema_path.write_text("y = response\ns0 = sensitive,categorical\n", encoding="utf-8")
        with pytest.raises(DataError) as expected:
            load_csv(data_path, load_schema(schema_path))
        for _ in range(2):
            assert main(["fit", "--data", str(data_path), "--schema", str(schema_path),
                         "--out", str(tmp_path / "p.csv")]) == 1
            assert capsys.readouterr().err == f"error: {expected.value}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv", "bad.schema"]
