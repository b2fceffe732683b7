"""Differential tests of the column-wise CSV readers and writers.

The readers parse with numpy's C reader and hand any file it refuses to
the row loops ``data._load_csv_rows`` and ``cli._read_prediction_rows``;
on every input both must give the same result bit for bit, or the same
DataError message. The writers must produce the bytes of the
``csv.writer`` loops kept below as the reference writers.
"""

import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from impartial import cli, data
from impartial.cli import main
from impartial.data import (
    Dataset,
    encode,
    format_schema,
    load_csv,
    make_dataset,
    parse_schema,
    write_csv,
)
from impartial.decomposition import COMPONENT_NAMES, Mode, decompose
from impartial.errors import DataError
from impartial.estimators import Variant, correct_blackbox, fit_total, predict
from impartial.harness import gen_dag, default_dag_spec

SCHEMA = parse_schema(
    "y = response\ng = sensitive,categorical\na = legitimate\nz = ignore\n"
)

# Longer than the csv module's default field size limit (131,072
# characters): every reader takes a cell of any length.
LONG = 200_000
LONG_CELLS = ["x" * LONG, "1" * LONG, "0." + "0" * LONG + "5"]
NUMBER_CELLS = [
    "1", " 2.5 ", "+1", ".5", "-0", "1e3", "1.", "\t7\t", '"3"', '" 4 "', '"5" ',
    '"6"7', "nan", "-nan", "inf", "Infinity", "1_0", "0x10", "#1", "", "  ",
    "abc", " 1", "　2", '"1,5"', "1 2", *LONG_CELLS[1:],
]
LABEL_CELLS = [
    "a", " b ", "b", '"c,d"', '"he said ""x"""', '"multi\nline"', '"cr\r\nlf"',
    "#g", "é", "日本", "", "  ", '"1"', "1_0", ' "q"', 'in"side', '"open', LONG_CELLS[0],
]
IGNORED_CELLS = ["", "text", '"q,q"', "  ", "#", "1", LONG_CELLS[0]]
LINE_ENDS = ["\n", "\r\n", "\r"]


def outcome(read, *args):
    """What a reader returns, made comparable bit for bit, or its DataError."""
    try:
        result = read(*args)
    except DataError as exc:
        return ("error", str(exc))
    if isinstance(result, Dataset):
        return ("dataset", result.names, result.n_rows, {
            name: (col.dtype.str, col.shape, col.tobytes())
            if isinstance(col, np.ndarray) else col
            for name, col in result.columns.items()
        })
    return ("array", result.dtype.str, result.shape, result.tobytes())


@st.composite
def csv_texts(draw, header, cells):
    """A CSV text with the given header whose cells come from ``cells``
    (one token list per column), with awkward rows and line endings."""
    order = draw(st.permutations(range(len(header))))
    lines = [",".join(header[j] for j in order)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "spaces", "short", "long"]))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(" \t")
        else:
            row = [draw(st.sampled_from(cells[j])) for j in order]
            if kind == "short":
                row = row[:-1]
            elif kind == "long":
                row.append(draw(st.sampled_from(cells[0])))
            lines.append(",".join(row))
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return ("﻿" if draw(st.booleans()) else "") + text


def clean_cells(tokens, bad=("", "  ", "1_0", "0x10", "#1", "abc", "nan", "-nan",
                             "inf", "Infinity", '"1,5"', "1 2", '"open', LONG_CELLS[1])):
    return [t for t in tokens if t not in bad]


def data_cells(all_tokens):
    numbers = NUMBER_CELLS if all_tokens else clean_cells(NUMBER_CELLS)
    labels = LABEL_CELLS if all_tokens else clean_cells(LABEL_CELLS)
    return [numbers, labels, numbers, IGNORED_CELLS]


_SETTINGS = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestLoadCsv:
    @_SETTINGS
    @given(text=csv_texts(["y", "g", "a", "z"], data_cells(all_tokens=True)))
    def test_matches_row_loop(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(load_csv, path, SCHEMA) == outcome(data._load_csv_rows, path, SCHEMA)

    @_SETTINGS
    @given(text=csv_texts(["y", "g", "a", "z"], data_cells(all_tokens=False)))
    def test_clean_files_match_row_loop(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(load_csv, path, SCHEMA) == outcome(data._load_csv_rows, path, SCHEMA)

    @_SETTINGS
    @given(
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1),
        spelling=st.sampled_from([repr, "{:.17g}".format, "{:.6e}".format, "{:f}".format]),
    )
    def test_numbers_parse_as_float_does(self, tmp_path, values, spelling):
        path = tmp_path / "d.csv"
        rows = [f"{spelling(v)},g,{spelling(-v)},x" for v in values]
        path.write_text("y,g,a,z\n" + "\n".join(rows) + "\n", encoding="utf-8")
        assert outcome(load_csv, path, SCHEMA) == outcome(data._load_csv_rows, path, SCHEMA)

    @pytest.mark.parametrize(
        "header", ["y,g,a", "y,g,a,z,extra", "y,g,a,a,z", "", "y;g;a;z"]
    )
    def test_header_mismatch_matches_row_loop(self, tmp_path, header):
        path = tmp_path / "d.csv"
        path.write_text(header + "\n1,a,2,x\n", encoding="utf-8")
        assert outcome(load_csv, path, SCHEMA) == outcome(data._load_csv_rows, path, SCHEMA)

    def test_clean_file_takes_the_column_path(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_text(
            'z,a,g,y\r\n"q,q", 1.5 ,"he said ""x""",2\r\n\r\n,-3,b,1e3\r\n', encoding="utf-8"
        )
        expected = data._load_csv_rows(path, SCHEMA)

        def refuse(*args):
            raise AssertionError("row loop used")

        monkeypatch.setattr(data, "_load_csv_rows", refuse)
        got = load_csv(path, SCHEMA)
        assert outcome(lambda: got) == outcome(lambda: expected)
        assert got.columns["g"] == ('he said "x"', "b")

    @pytest.mark.parametrize("column", ["y", "g", "a", "z"])
    def test_long_cell_matches_row_loop(self, tmp_path, column):
        header = ["y", "g", "a", "z"]
        row = {"y": "1", "g": "b", "a": "2", "z": "q"}
        row[column] = "x" * LONG if column in "gz" else "0." + "0" * LONG + "5"
        path = tmp_path / "d.csv"
        path.write_text(",".join(header) + "\n1,a,2,x\n" + ",".join(row[h] for h in header)
                        + "\n", encoding="utf-8")
        expected = outcome(data._load_csv_rows, path, SCHEMA)
        assert expected[0] == "dataset"
        assert outcome(load_csv, path, SCHEMA) == expected

    def test_long_header_cell_is_read(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,g,a," + "z" * LONG + "\n1,a,2,x\n", encoding="utf-8")
        expected = outcome(data._load_csv_rows, path, SCHEMA)
        assert expected[0] == "error" and "missing from header" in expected[1]
        assert outcome(load_csv, path, SCHEMA) == expected

    def test_categorical_levels_in_first_appearance_order(self, tmp_path):
        path = tmp_path / "d.csv"
        rows = [f"{i},{'cba'[i % 3]},{i},x" for i in range(12)]
        path.write_text("y,g,a,z\n" + "\n".join(rows) + "\n", encoding="utf-8")
        assert load_csv(path, SCHEMA).columns["g"][:4] == ("c", "b", "a", "c")


PREDICTION_CELLS = [
    "0.25", " -1.5 ", "+2", ".5", "1e-300", "nan", "-nan", "inf", "1_0", "0x10",
    "", "x", "#3", '"4"', '"#5"', "1e999", *LONG_CELLS[1:],
]
ROW_CELLS = ["0", "12", "", "x", "#", "# n", '"#q"', " #s", '"a,b"', LONG_CELLS[0]]


class TestReadPredictions:
    @staticmethod
    def compare(path):
        expected = outcome(cli._read_prediction_rows, path)
        n = expected[2][0] if expected[0] == "array" else 0
        assert outcome(cli._read_predictions, path, n) == expected

    @_SETTINGS
    @given(text=csv_texts(["row", "prediction"], [ROW_CELLS, PREDICTION_CELLS]))
    def test_two_columns_match_row_loop(self, tmp_path, text):
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode("utf-8"))
        self.compare(path)

    @_SETTINGS
    @given(text=csv_texts(["prediction"], [PREDICTION_CELLS + ROW_CELLS]))
    def test_one_column_matches_row_loop(self, tmp_path, text):
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode("utf-8"))
        self.compare(path)

    @pytest.mark.parametrize("header", ["", "a,b", "row,p,q", " row , p"])
    def test_headers_match_row_loop(self, tmp_path, header):
        path = tmp_path / "p.csv"
        path.write_text(header + "\n1,2\n", encoding="utf-8")
        self.compare(path)

    def test_corrected_output_reads_back(self, tmp_path):
        values = np.array([0.5, -2.0, 1e-17])
        path = tmp_path / "c.csv"
        cli._write_predictions(path, values, header="corrected")
        with path.open("a", encoding="utf-8") as fh:
            fh.write("# n,3\n# is_mode,seo\n# group_mean[a],0.25\n")
        np.testing.assert_array_equal(cli._read_predictions(path, 3), values)
        self.compare(path)

    def test_corrected_output_takes_the_column_path(self, tmp_path, monkeypatch):
        values = np.array([0.5, -2.0, 1e-17, 3.25])
        path = tmp_path / "c.csv"
        cli._write_predictions(path, values, header="corrected")
        with path.open("a", encoding="utf-8") as fh:
            fh.write("# n,4\n# is_mode,seo\n\n# group_mean[a],0.25\n")

        def refuse(*args):
            raise AssertionError("row loop used")

        monkeypatch.setattr(cli, "_read_prediction_rows", refuse)
        np.testing.assert_array_equal(cli._read_predictions(path, 4), values)

    @pytest.mark.parametrize("tail", ["# a,1\n1,2.0\n", "# a,1\n\n \n"])
    def test_rows_after_a_comment_go_to_the_row_loop(self, tmp_path, tail):
        path = tmp_path / "c.csv"
        path.write_text("row,prediction\n0,1.5\n" + tail, encoding="utf-8")
        self.compare(path)

    @pytest.mark.parametrize("cell", ["x" * LONG, "1" * LONG, "0." + "0" * LONG + "5"])
    def test_long_cells_match_row_loop(self, tmp_path, cell):
        path = tmp_path / "p.csv"
        path.write_text(f"row,prediction\n0,1.5\n1,{cell}\n{cell},2.5\n", encoding="utf-8")
        self.compare(path)


# ---- reference writers: the csv.writer loops the row templates replace ----


def ref_write_csv(path, dataset):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.names)
        cols = [dataset.columns[n] for n in dataset.names]
        for i in range(dataset.n_rows):
            writer.writerow(
                [format(c[i], ".17g") if isinstance(c, np.ndarray) else c[i] for c in cols]
            )


def ref_write_predictions(path, values, header="prediction"):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", header])
        for i, v in enumerate(values):
            writer.writerow([i, format(float(v), ".17g")])


def ref_write_decomposition(path, report, n):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", *COMPONENT_NAMES, "fitted_sum"])
        total = report.rowwise_sum()
        for i in range(n):
            writer.writerow(
                [i]
                + [format(float(report.component(name)[i]), ".17g") for name in COMPONENT_NAMES]
                + [format(float(total[i]), ".17g")]
            )


FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1.7976931348623157e308, 0.1, 1 / 3]),
)
LABELS = st.one_of(
    st.sampled_from(["a,b", 'he said "x"', "multi\nline", "cr\rx", "", " sp ", "é", "#"]),
    st.text(max_size=4),
)


@pytest.fixture(params=[1, 3, data._CHUNK_ROWS], ids=lambda c: f"chunk{c}")
def chunk_rows(request, monkeypatch):
    monkeypatch.setattr(data, "_CHUNK_ROWS", request.param)
    return request.param


class TestWriters:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        n=st.integers(1, 9),
        kinds=st.lists(st.booleans(), min_size=1, max_size=4),
        draw=st.data(),
    )
    def test_write_csv_matches_csv_writer(self, tmp_path, chunk_rows, n, kinds, draw):
        columns = {
            f"c{j}": np.array(draw.draw(st.lists(FLOATS, min_size=n, max_size=n)))
            if numeric else tuple(draw.draw(st.lists(LABELS, min_size=n, max_size=n)))
            for j, numeric in enumerate(kinds)
        }
        dataset = Dataset(names=tuple(columns), columns=columns, n_rows=n)
        write_csv(tmp_path / "new.csv", dataset)
        ref_write_csv(tmp_path / "ref.csv", dataset)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("labels", [("",), ("", "a"), ("a,b", 'he said "x"')])
    def test_lone_label_column_matches_csv_writer(self, tmp_path, labels):
        dataset = make_dataset({"a,b": list(labels)})
        write_csv(tmp_path / "new.csv", dataset)
        ref_write_csv(tmp_path / "ref.csv", dataset)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=st.lists(FLOATS, max_size=12))
    def test_write_predictions_matches_csv_writer(self, tmp_path, chunk_rows, values):
        cli._write_predictions(tmp_path / "new.csv", np.array(values), header="corrected")
        ref_write_predictions(tmp_path / "ref.csv", values, header="corrected")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.fixture()
def quoting_files(tmp_path):
    """A dag CSV with a categorical legitimate column whose labels need quoting."""
    dataset, schema = gen_dag(default_dag_spec(n=600, p_x_observed=2, p_w=2, seed=3))
    labels = ("a,b", 'he said "x"', "plain")
    columns = dict(dataset.columns)
    columns["kind"] = tuple(labels[i % 3] for i in range(dataset.n_rows))
    dataset = make_dataset(columns)
    schema = parse_schema(format_schema(schema) + "kind = legitimate,categorical\n")
    write_csv(tmp_path / "d.csv", dataset)
    (tmp_path / "d.schema").write_text(format_schema(schema), encoding="utf-8")
    return tmp_path / "d.csv", tmp_path / "d.schema", dataset, schema


class TestCliFiles:
    def test_simulate_matches_csv_writer(self, tmp_path, chunk_rows):
        assert main(["simulate", "dag", "--n", "50", "--seed", "4",
                     "--out", str(tmp_path / "s.csv")]) == 0
        dataset, _ = gen_dag(default_dag_spec(n=50, fair=False, seed=4))
        ref_write_csv(tmp_path / "ref.csv", dataset)
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_quoted_labels_read_back(self, quoting_files):
        data_path, _, dataset, schema = quoting_files
        assert load_csv(data_path, schema).columns["kind"] == dataset.columns["kind"]

    def test_decompose_matches_csv_writer(self, tmp_path, quoting_files, chunk_rows):
        data_path, schema_path, _, schema = quoting_files
        out = tmp_path / "dec.csv"
        assert main(["decompose", "--mode", "total", "--data", str(data_path),
                     "--schema", str(schema_path), "--out", str(out)]) == 0
        design = encode(load_csv(data_path, schema), schema)
        ref_write_decomposition(tmp_path / "ref.csv", decompose(
            fit_total(design), design, Mode.TOTAL), design.n_rows)
        assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_fit_matches_csv_writer(self, tmp_path, quoting_files, chunk_rows):
        data_path, schema_path, _, schema = quoting_files
        out = tmp_path / "fit.csv"
        assert main(["fit", "--variant", "total", "--data", str(data_path),
                     "--schema", str(schema_path), "--out", str(out)]) == 0
        design = encode(load_csv(data_path, schema), schema)
        ref_write_predictions(tmp_path / "ref.csv",
                              predict(fit_total(design), design, Variant.TOTAL).values)
        assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_correct_matches_csv_writer(self, tmp_path, quoting_files, chunk_rows):
        data_path, schema_path, dataset, schema = quoting_files
        external = np.asarray(dataset.columns["y"]) + np.linspace(-1, 1, dataset.n_rows)
        ref_write_predictions(tmp_path / "bb.csv", external)
        out = tmp_path / "cor.csv"
        assert main(["correct", "--predictions", str(tmp_path / "bb.csv"), "--data",
                     str(data_path), "--schema", str(schema_path), "--out", str(out)]) == 0
        design = encode(load_csv(data_path, schema), schema)
        ref_write_predictions(tmp_path / "ref.csv",
                              correct_blackbox(design, external)[1].values, header="corrected")
        written = out.read_bytes()
        expected = (tmp_path / "ref.csv").read_bytes()
        assert written[: len(expected)] == expected
        assert written[len(expected):].startswith(b"# n,600\n")
