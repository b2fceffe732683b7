"""Differential tests of the column-wise CSV readers and writers.

``load_csv`` parses with numpy's C reader and hands any file it refuses
to the row loop ``data._load_csv_rows``, for data files and predictions
files alike; on every input both must give the same result bit for bit,
or the same DataError message. The writers must produce the bytes of the
``csv.writer`` loops kept below as the reference writers.
"""

import csv
import io
import re
import tracemalloc

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
from impartial.decomposition import COMPONENT_NAMES, decompose
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
COMMENT_CELLS = ["#", "# n", "#1", '"#q"', " #s", '#"']
# a quote left open, so that the rest of the file is one cell
OPEN_QUOTE_CELLS = ['"open', '"2']
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

    @_SETTINGS
    @given(text=csv_texts(["y", "g", "a", "z"], [
        cells + COMMENT_CELLS + OPEN_QUOTE_CELLS for cells in data_cells(all_tokens=False)
    ]))
    def test_comment_rows_match_row_loop(self, tmp_path, text):
        # a row starting with "#" is read like any other, whichever column
        # comes first
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
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
    "", "x", "#3", '"4"', '"#5"', "1e999", *OPEN_QUOTE_CELLS, *LONG_CELLS[1:],
]
ROW_CELLS = ["0", "12", "", "x", "#", "# n", '"#q"', " #s", '#"', '"a,b"', LONG_CELLS[0]]


def prediction_rows(path):
    """The row loop's predictions, under the schema of the file's header,
    with the ``row`` column checked as ``cli._read_predictions`` checks it."""
    source = data.CsvSource(path)
    schema = cli._predictions_schema(source)
    return cli._predictions(source, schema, data._load_csv_rows(source, schema))


class TestReadPredictions:
    @staticmethod
    def compare(path):
        expected = outcome(prediction_rows, path)
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

    @pytest.mark.parametrize("row", ["#", "# note", "#7", '"#q"'])
    def test_comment_row_is_read_like_any_row(self, tmp_path, row):
        # a '#' row is data, and its row cell is not a row number
        path = tmp_path / "p.csv"
        path.write_text(f"row,prediction\n0,1.5\n{row},2.5\n1,3.5\n", encoding="utf-8")
        cell = row.strip('"')
        with pytest.raises(DataError, match=f"cannot parse '{cell}' as number at row 3, "
                                            "column 'row'"):
            cli._read_predictions(path, 3)
        self.compare(path)

    @pytest.mark.parametrize("rows, message", [
        ("0,1.5\n2,2.5\n1,3.5\n", "row number '2' at row 3, column 'row', is not 1"),
        ("0,1.5\n\n1,2.5\n1,3.5\n", "row number '1' at row 5, column 'row', is not 2"),
        ("1,1.5\n2,2.5\n3,3.5\n", "row number '1' at row 2, column 'row', is not 0"),
        ("0,1.5\n1,2.5\n-2,3.5\n", "row number '-2' at row 4, column 'row', is not 2"),
        ("0,1.5\n0.5,2.5\n2,3.5\n", "row number '0.5' at row 3, column 'row', is not 1"),
        ("0,1.5\n1,2.5\n,3.5\n", "missing value at row 4, column 'row'"),
        ("0,1.5\nx,2.5\n2,3.5\n", "cannot parse 'x' as number at row 3, column 'row'"),
    ])
    def test_row_cell_other_than_the_row_number_is_refused(self, tmp_path, rows, message):
        path = tmp_path / "p.csv"
        path.write_text("row,prediction\n" + rows, encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
            cli._read_predictions(path, 3)
        self.compare(path)

    def test_one_column_named_row_holds_the_predictions(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("row\n2.5\n-1\n7\n", encoding="utf-8")
        np.testing.assert_array_equal(cli._read_predictions(path, 3), [2.5, -1.0, 7.0])
        self.compare(path)

    def test_row_numbers_as_numbers_are_accepted(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("row,prediction\n0,1.5\n\n 1.0 ,2.5\n2e0,3.5\n", encoding="utf-8")
        np.testing.assert_array_equal(cli._read_predictions(path, 3), [1.5, 2.5, 3.5])
        self.compare(path)

    def test_refusal_exits_one_naming_file_row_and_column(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        data_path.write_text("y,g,a\n1,u,0.5\n2,v,1.5\n3,u,2.0\n", encoding="utf-8")
        schema_path = tmp_path / "d.schema"
        schema_path.write_text("y = response\ng = sensitive,categorical\na = legitimate\n",
                               encoding="utf-8")
        path = tmp_path / "p.csv"
        path.write_text("row,prediction\n0,1.5\n7,2.5\n2,3.5\n", encoding="utf-8")
        for command in ("audit", "correct"):
            argv = [command, "--data", str(data_path), "--schema", str(schema_path),
                    "--predictions", str(path)]
            assert main(argv + ["--out", str(tmp_path / "o.csv")] * (command == "correct")) == 1
            err = capsys.readouterr().err
            assert f"{path}: row number '7' at row 3, column 'row', is not 1" in err

    def test_footer_of_an_earlier_correct_is_refused(self, tmp_path):
        path = tmp_path / "c.csv"
        cli._write_predictions(path, np.array([0.5, -2.0, 1e-17]), header="corrected")
        with path.open("a", encoding="utf-8") as fh:
            fh.write("# n,3\n# ds,0.25\n# is,0.125\n# is_mode,seo\n")
        # refused at the first footer row, whose row cell is not a number
        with pytest.raises(DataError, match="cannot parse '# n' as number at row 5, column 'row'"):
            cli._read_predictions(path, 3)
        self.compare(path)

    @pytest.mark.parametrize("header", ["row,prediction", "prediction"])
    def test_numeric_layout_takes_the_column_path(self, tmp_path, monkeypatch, header):
        values = np.array([1.5, -2.0, 1e-300])
        rows = [f"{i},{v!r}" if "," in header else repr(v) for i, v in enumerate(values.tolist())]
        path = tmp_path / "p.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")

        def refuse(*args):
            raise AssertionError("row loop used")

        monkeypatch.setattr(data, "_load_csv_rows", refuse)
        np.testing.assert_array_equal(cli._read_predictions(path, 3), values)

    @pytest.mark.parametrize("text", ['row,p\n0,"1\n#"\n', 'p\n"1\n#"\n# n,1\n'])
    def test_quote_left_open_by_a_comment_cut_matches_row_loop(self, tmp_path, text):
        path = tmp_path / "p.csv"
        path.write_text(text, encoding="utf-8")
        expected = outcome(prediction_rows, path)
        assert expected[0] == "error" and "cannot parse" in expected[1]
        self.compare(path)

    @pytest.mark.parametrize("tail", ["# a,1\n1,2.0\n", "# a,1\n\n \n", "# a,1\n1,2.0\n# b\n"])
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
            fit_total(design), design), design.n_rows)
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
        assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def written_cells(values) -> bytes:
    """The bytes ``data.write_rows`` writes for one float column."""
    fh = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
    data.write_rows(fh, [np.asarray(values, dtype=float)])
    return fh.buffer.getvalue()


def formatted_cells(values) -> bytes:
    return "".join(format(v, ".17g") + "\r\n" for v in np.asarray(values).tolist()).encode()


def float_corpus() -> np.ndarray:
    """Seeded values for the fast path's every branch and its fallback."""
    rng = np.random.default_rng(2016)
    # Random significands under every biased exponent (subnormals, NaN and
    # inf included), with both signs.
    exponents = np.repeat(np.arange(2048, dtype=np.uint64), 40)
    bits = exponents << np.uint64(52) | rng.integers(0, 2**52, exponents.size, dtype=np.uint64)
    bits = np.concatenate([bits, bits | np.uint64(1 << 63)])
    # 10**k and its neighbours one ulp away, for every k.
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    powers = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    # Exact ties: x * 10**k ends in .5 where 10**k is exact, i.e. x = m / 2**(k+1)
    # with m odd and m * 5**k of 17 digits (k in 1..22); and values with few
    # fraction bits above 1e12.
    ties = []
    for k in range(1, 23):
        low, high = -(-2 * 10**16 // 5**k), min(2 * 10**17 // 5**k, 2**53)
        m = rng.integers(low, high, 2000) | 1
        ties.append(m / 2.0 ** (k + 1))
    few_bits = rng.integers(2**40, 2**53, 20_000) / 2.0 ** rng.integers(1, 12, 20_000)
    edges = np.array([0.0, 1e-5, 1e-4, 1e16, 1e17, 1e100, 1e-100, 1e-280, 1e280, 5e-324])
    edges = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    values = np.concatenate([bits.view(np.float64), powers, *ties, few_bits, edges])
    return np.concatenate([values, -values])


class TestCellBytes:
    """Every ``"%.17g"`` cell the writer makes is ``format(v, ".17g")``.

    Before changing the writer, run these at 100 times the examples:
    ``pytest tests/test_csv_io.py -k TestCellBytes --hypothesis-profile=formatter``.
    """

    def test_corpus_matches_format(self):
        values = float_corpus()
        assert written_cells(values) == formatted_cells(values)

    @given(values=st.lists(st.floats(), max_size=50))
    def test_floats_match_format(self, values):
        assert written_cells(values) == formatted_cells(values)

    def test_nul_in_labels_is_kept(self, tmp_path):
        dataset = make_dataset({"g": ["\0", "a\0", "\0\0b", "é\0"], "y": [1.0, 2.5, -0.0, 1e300]})
        write_csv(tmp_path / "new.csv", dataset)
        ref_write_csv(tmp_path / "ref.csv", dataset)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_wide_labels_take_fewer_rows_per_chunk(self, tmp_path):
        # 300 rows of a 100,000-character label would make a 30 MB chunk.
        labels = ["x" * 100_000, "a,b"] * 150
        dataset = make_dataset({"g": labels, "y": np.arange(300.0)})
        tracemalloc.start()
        try:
            write_csv(tmp_path / "new.csv", dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        ref_write_csv(tmp_path / "ref.csv", dataset)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
