import numpy as np
import pytest

from impartial.data import (
    ColumnSpec,
    Role,
    Schema,
    assemble,
    collect_levels,
    encode,
    load_csv,
    load_schema,
    make_dataset,
    parse_schema,
    format_schema,
    take,
    take_design,
    write_csv,
)
from impartial.errors import DataError, SchemaError


SCHEMA_TEXT = """\
# loan schema
default = response
edu = legitimate,categorical
group = sensitive,categorical
"""


class TestSchema:
    def test_parse_roundtrip(self):
        schema = parse_schema(SCHEMA_TEXT)
        assert [c.role for c in schema.columns] == [
            Role.RESPONSE,
            Role.LEGITIMATE,
            Role.SENSITIVE,
        ]
        assert schema.columns[1].categorical
        again = parse_schema(format_schema(schema))
        assert again == schema

    def test_parse_interactions(self):
        schema = parse_schema(SCHEMA_TEXT + "interact = edu * group\n")
        assert schema.interactions == (("edu", "group"),)

    def test_unknown_role(self):
        with pytest.raises(SchemaError, match="unknown role"):
            parse_schema("y = outcome\n")

    def test_exactly_one_response(self):
        with pytest.raises(SchemaError, match="exactly one response"):
            parse_schema("a = sensitive\nb = legitimate\n")
        with pytest.raises(SchemaError, match="exactly one response"):
            parse_schema("a = response\nb = response\n")

    def test_categorical_response_rejected(self):
        with pytest.raises(SchemaError, match="numeric"):
            parse_schema("y = response,categorical\n")

    def test_interaction_must_reference_known_columns(self):
        with pytest.raises(SchemaError, match="unknown column"):
            parse_schema(SCHEMA_TEXT + "interact = edu * zip\n")

    def test_interaction_on_response_rejected(self):
        with pytest.raises(SchemaError, match="response/ignore"):
            parse_schema(SCHEMA_TEXT + "interact = default * edu\n")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            parse_schema("y = response\ny = sensitive\n")


class TestLoadCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_small_file(self, tmp_path):
        path = self.write(
            tmp_path, "default,edu,group\n1,low,s-\n0,low,s+\n1,high,s-\n0,high,s+\n"
        )
        data = load_csv(path, parse_schema(SCHEMA_TEXT))
        assert data.n_rows == 4
        assert set(data.names) == {"default", "edu", "group"}
        assert isinstance(data.columns["default"], np.ndarray)
        assert data.columns["edu"] == ("low", "low", "high", "high")

    def test_missing_schema_column(self, tmp_path):
        path = self.write(tmp_path, "default,group\n1,s-\n")
        with pytest.raises(DataError, match="edu"):
            load_csv(path, parse_schema(SCHEMA_TEXT))

    def test_undeclared_extra_column(self, tmp_path):
        path = self.write(tmp_path, "default,edu,group,zip\n1,low,s-,90210\n")
        with pytest.raises(DataError, match="zip"):
            load_csv(path, parse_schema(SCHEMA_TEXT))

    def test_ignored_column_dropped(self, tmp_path):
        path = self.write(tmp_path, "default,edu,group,zip\n1,low,s-,90210\n")
        schema = parse_schema(SCHEMA_TEXT + "zip = ignore\n")
        data = load_csv(path, schema)
        assert "zip" not in data.columns

    def test_missing_cell(self, tmp_path):
        path = self.write(tmp_path, "default,edu,group\n1,low,s-\n0,,s+\n")
        with pytest.raises(DataError, match="row 3.*edu"):
            load_csv(path, parse_schema(SCHEMA_TEXT))

    def test_unparseable_numeric(self, tmp_path):
        path = self.write(tmp_path, "default,edu,group\nmaybe,low,s-\n")
        with pytest.raises(DataError, match="maybe"):
            load_csv(path, parse_schema(SCHEMA_TEXT))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_csv(tmp_path / "nope.csv", parse_schema(SCHEMA_TEXT))

    def test_byte_order_mark(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "default,edu,group\n1,low,s-\n0,high,s+\n", encoding="utf-8-sig"
        )
        schema_path = tmp_path / "data.schema"
        schema_path.write_text(SCHEMA_TEXT, encoding="utf-8-sig")
        schema = load_schema(schema_path)
        assert schema.columns[0].name == "default"
        data = load_csv(path, schema)
        assert data.names == ("default", "edu", "group")
        np.testing.assert_array_equal(data.columns["default"], [1.0, 0.0])

    @pytest.mark.parametrize(
        "values",
        [[1.0, "x", 2.0], ["x", 1.0, 2.0], [1.0, "3", 2.0]],
        ids=["number_first", "string_first", "numeric_string"],
    )
    def test_make_dataset_mixed_numeric_column(self, values):
        with pytest.raises(DataError, match="'a'"):
            make_dataset({"a": values})

    def test_loan_table_roundtrip(self, tmp_path, table1_data):
        path = tmp_path / "loan.csv"
        write_csv(path, table1_data)
        data = load_csv(path, parse_schema(SCHEMA_TEXT))
        assert data.n_rows == 1000
        assert set(data.columns["default"]) == {0.0, 1.0}
        assert set(data.columns["edu"]) == {"low", "high"}
        assert set(data.columns["group"]) == {"s-", "s+"}
        np.testing.assert_allclose(
            data.columns["default"], table1_data.columns["default"]
        )


class TestEncode:
    def test_single_binary_sensitive(self):
        data = make_dataset({"y": [1.0, 2.0, 3.0, 4.0], "g": ["a", "b", "a", "b"]})
        schema = Schema(
            columns=(
                ColumnSpec("y", Role.RESPONSE),
                ColumnSpec("g", Role.SENSITIVE, categorical=True),
            )
        )
        design = encode(data, schema)
        assert design.s.shape == (4, 1)
        assert design.s_labels == ("g=b",)
        assert abs(design.s[:, 0].mean()) < 1e-12
        assert design.s_means == pytest.approx([0.5])
        assert design.s_group_labels == ("a", "b", "a", "b")

    def test_one_hot_drops_first_level(self):
        data = make_dataset(
            {"y": [0.0, 0.0, 0.0], "c": ["red", "green", "blue"]}
        )
        schema = Schema(
            columns=(
                ColumnSpec("y", Role.RESPONSE),
                ColumnSpec("c", Role.LEGITIMATE, categorical=True),
            )
        )
        design = encode(data, schema)
        assert design.x_labels == ("c=green", "c=blue")
        # no all-ones column possible once the reference level is dropped
        raw = design.x + design.x_means
        assert not np.any(np.all(raw == 1.0, axis=0))

    def test_sensitive_times_legitimate_lands_in_x(self):
        data = make_dataset(
            {
                "y": [1.0, 2.0, 3.0, 4.0],
                "g": ["a", "b", "a", "b"],
                "edu": [0.0, 1.0, 1.0, 0.0],
            }
        )
        schema = Schema(
            columns=(
                ColumnSpec("y", Role.RESPONSE),
                ColumnSpec("g", Role.SENSITIVE, categorical=True),
                ColumnSpec("edu", Role.LEGITIMATE),
            ),
            interactions=(("g", "edu"),),
        )
        design = encode(data, schema)
        assert design.x_labels == ("edu", "g=b*edu")
        assert design.x.shape == (4, 2)

    @pytest.mark.parametrize(
        "role_a,role_b,expected_block",
        [
            (Role.SENSITIVE, Role.SENSITIVE, "s"),
            (Role.LEGITIMATE, Role.LEGITIMATE, "x"),
            (Role.SUSPECT, Role.SUSPECT, "w"),
            (Role.SENSITIVE, Role.SUSPECT, "w"),
            (Role.LEGITIMATE, Role.SUSPECT, "w"),
            (Role.SENSITIVE, Role.BLACKBOX, "w"),
            (Role.LEGITIMATE, Role.BLACKBOX, "w"),
        ],
    )
    def test_interaction_role_rules(self, role_a, role_b, expected_block):
        data = make_dataset(
            {
                "y": [1.0, 2.0, 3.0, 4.0],
                "u": [0.0, 1.0, 0.0, 1.0],
                "v": [1.0, 1.0, 0.0, 0.0],
            }
        )
        schema = Schema(
            columns=(
                ColumnSpec("y", Role.RESPONSE),
                ColumnSpec("u", role_a),
                ColumnSpec("v", role_b),
            ),
            interactions=(("u", "v"),),
        )
        design = encode(data, schema)
        assert "u*v" in design.labels(expected_block)

    def test_loan_table_blocks(self, table1_design):
        assert table1_design.s_labels == ("group=s+",)
        assert table1_design.x_labels == ("edu=high",)
        assert table1_design.w_labels == ()
        assert table1_design.s_means == pytest.approx([0.45])
        assert table1_design.x_means == pytest.approx([0.4])

    def test_deterministic(self, table1_data, table1_schema):
        a = encode(table1_data, table1_schema)
        b = encode(table1_data, table1_schema)
        assert a.fingerprint() == b.fingerprint()
        np.testing.assert_array_equal(a.s, b.s)
        np.testing.assert_array_equal(a.x, b.x)

    def test_file_roundtrip_is_bit_identical(self, tmp_path, table1_data, table1_schema):
        path = tmp_path / "loan.csv"
        write_csv(path, table1_data)
        first = encode(load_csv(path, table1_schema), table1_schema)
        second = encode(load_csv(path, table1_schema), table1_schema)
        assert first.fingerprint() == second.fingerprint()
        np.testing.assert_array_equal(first.y, second.y)

    def test_means_equal_raw_means(self, table1_data, table1_schema):
        design = encode(table1_data, table1_schema)
        raw_edu = np.array(
            [1.0 if e == "high" else 0.0 for e in table1_data.columns["edu"]]
        )
        assert design.x_means[0] == pytest.approx(raw_edu.mean(), abs=1e-12)
        assert np.abs(design.x.mean(axis=0)).max() < 1e-12

    def test_role_partition(self):
        data = make_dataset(
            {
                "y": [1.0, 2.0, 3.0],
                "a": [1.0, 0.0, 1.0],
                "b": [0.5, 0.25, 0.125],
                "c": ["u", "v", "u"],
                "d": [1.0, 2.0, 4.0],
            }
        )
        schema = Schema(
            columns=(
                ColumnSpec("y", Role.RESPONSE),
                ColumnSpec("a", Role.SENSITIVE),
                ColumnSpec("b", Role.LEGITIMATE),
                ColumnSpec("c", Role.SUSPECT, categorical=True),
                ColumnSpec("d", Role.BLACKBOX),
            )
        )
        design = encode(data, schema)
        all_labels = (
            design.s_labels + design.x_labels + design.w_labels + design.b_labels
        )
        assert sorted(all_labels) == ["a", "b", "c=v", "d"]

    def test_levels_override(self, table1_data, table1_schema):
        levels = collect_levels(table1_data, table1_schema)
        assert levels == {"edu": ("low", "high"), "group": ("s-", "s+")}
        subset = take(table1_data, range(450, 1000))  # rows beyond the first cell
        design = encode(subset, table1_schema, levels=levels)
        assert design.x_labels == ("edu=high",)
        assert design.s_labels == ("group=s+",)

    def test_levels_override_unknown_value(self, table1_data, table1_schema):
        levels = {"edu": ("low",), "group": ("s-", "s+")}
        with pytest.raises(DataError, match="high"):
            encode(table1_data, table1_schema, levels=levels)


class TestSubsets:
    def test_take_dataset(self, table1_data):
        sub = take(table1_data, [0, 10, 999])
        assert sub.n_rows == 3
        assert sub.columns["group"] == ("s-", "s-", "s+")

    def test_take_design_recentered(self, table1_design):
        sub = take_design(table1_design, np.arange(0, 600))
        assert np.abs(sub.x.mean(axis=0)).max() < 1e-12
        # raw values survive: centered + means match the original slice
        raw_full = table1_design.x[:600] + table1_design.x_means
        raw_sub = sub.x + sub.x_means
        np.testing.assert_allclose(raw_sub, raw_full, atol=1e-12)

    def test_take_design_empty_rejected(self, table1_design):
        with pytest.raises(DataError):
            take_design(table1_design, [])

    @pytest.mark.parametrize("subset", ["random", "without_first_level"])
    def test_take_design_of_assembled_equals_encode_of_take(self, subset):
        # Encode once, slice per fold: a row subset of the assembled design
        # must be exactly the encoding of the same rows under frozen levels.
        rng = np.random.default_rng(7)
        n = 300
        g = rng.choice(["a", "b", "c"], n)
        data = make_dataset(
            {
                "y": rng.normal(size=n),
                "g": list(g),
                "h": list(rng.choice(["u", "v"], n)),
                "k": rng.integers(0, 3, n).astype(float),
                "x": rng.normal(size=n),
                "w": rng.normal(size=n) + (g == "b"),
                "bb": rng.normal(size=n),
            }
        )
        schema = parse_schema(
            "y = response\ng = sensitive,categorical\nh = legitimate,categorical\n"
            "k = suspect,categorical\nx = legitimate\nw = suspect\nbb = blackbox\n"
            "interact = g * x\ninteract = h * w\ninteract = g * bb\n"
        )
        if subset == "random":
            idx = np.sort(rng.choice(n, size=n // 2, replace=False))
        else:
            idx = np.flatnonzero(g != g[0])
        levels = collect_levels(data, schema)
        sliced = take_design(assemble(data, schema), idx)
        direct = encode(take(data, idx), schema, levels=levels)
        assert sliced.y.tobytes() == direct.y.tobytes()
        for key in ("s", "x", "w", "b"):
            assert direct.block(key).shape[1] > 0
            assert sliced.block(key).tobytes() == direct.block(key).tobytes()
            assert sliced.means(key).tobytes() == direct.means(key).tobytes()
            assert sliced.labels(key) == direct.labels(key)
        assert sliced.s_group_labels == direct.s_group_labels
