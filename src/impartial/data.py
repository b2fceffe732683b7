"""CSV ingestion, covariate roles, and design-matrix encoding.

A Schema assigns each CSV column a role (response / sensitive / legitimate
/ suspect / blackbox / ignore) and a kind (numeric or categorical).
``encode`` turns a Dataset into one centered matrix Z = [S|X|W|B] whose
blocks (sensitive, legitimate, suspect, black-box) are column ranges, with
one-hot expansion (first level dropped) and interaction products. This
module is the only one that knows how blocks map to columns: the others
ask a design for a block or a block combination (``index``), and a role
change moves block boundaries (``merged``) instead of copying columns.
Encoding is two steps: ``assemble`` builds the uncentered matrix and
``center`` centers it. Centering means are retained so the identical
shift can be applied to prediction-time data, and a row subset of an
assembled design (``take_design``) is exactly the encoding of the same
rows.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import functools
import hashlib
import io
import itertools
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, DataError, SchemaError
from .linalg import column_center, r_factor


class Role(enum.Enum):
    RESPONSE = "response"
    SENSITIVE = "sensitive"
    LEGITIMATE = "legitimate"
    SUSPECT = "suspect"
    BLACKBOX = "blackbox"
    IGNORE = "ignore"


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    role: Role
    categorical: bool = False


@dataclass(frozen=True)
class Schema:
    """Column roles plus optional interaction terms (pairs of column names)."""

    columns: tuple[ColumnSpec, ...]
    interactions: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names in schema")
        responses = [c for c in self.columns if c.role is Role.RESPONSE]
        if len(responses) != 1:
            raise SchemaError(
                f"schema must declare exactly one response column, got {len(responses)}"
            )
        if responses[0].categorical:
            raise SchemaError("response column must be numeric")
        by_name = {c.name: c for c in self.columns}
        for a, b in self.interactions:
            for name in (a, b):
                if name not in by_name:
                    raise SchemaError(f"interaction references unknown column '{name}'")
                if by_name[name].role in (Role.RESPONSE, Role.IGNORE):
                    raise SchemaError(
                        f"interaction may not involve response/ignore column '{name}'"
                    )

    @property
    def response(self) -> ColumnSpec:
        return next(c for c in self.columns if c.role is Role.RESPONSE)

    def column(self, name: str) -> ColumnSpec:
        for c in self.columns:
            if c.name == name:
                return c
        raise SchemaError(f"no column '{name}' in schema")


_ROLE_SPELLINGS = {r.value: r for r in Role}


def parse_schema(text: str) -> Schema:
    """Parse the flat key-value schema format.

    One line per column: ``name = role[,categorical]``; zero or more
    ``interact = nameA * nameB`` lines. Blank lines and ``#`` comments are
    skipped.
    """
    columns: list[ColumnSpec] = []
    interactions: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SchemaError(f"schema line {lineno}: expected 'name = role', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "interact":
            parts = [p.strip() for p in value.split("*")]
            if len(parts) != 2 or not all(parts):
                raise SchemaError(
                    f"schema line {lineno}: expected 'interact = nameA * nameB'"
                )
            interactions.append((parts[0], parts[1]))
            continue
        tokens = [t.strip() for t in value.split(",")]
        role_token = tokens[0].lower()
        if role_token not in _ROLE_SPELLINGS:
            raise SchemaError(
                f"schema line {lineno}: unknown role '{tokens[0]}' "
                f"(expected one of {sorted(_ROLE_SPELLINGS)})"
            )
        categorical = False
        for extra in tokens[1:]:
            if extra.lower() == "categorical":
                categorical = True
            elif extra:
                raise SchemaError(f"schema line {lineno}: unexpected token '{extra}'")
        columns.append(ColumnSpec(key, _ROLE_SPELLINGS[role_token], categorical))
    return Schema(columns=tuple(columns), interactions=tuple(interactions))


def load_schema(path) -> Schema:
    p = Path(path)
    if not p.exists():
        raise DataError(f"schema file not found: {p}")
    return parse_schema(p.read_text(encoding="utf-8-sig"))


def format_schema(schema: Schema) -> str:
    lines = []
    for c in schema.columns:
        suffix = ",categorical" if c.categorical else ""
        lines.append(f"{c.name} = {c.role.value}{suffix}")
    for a, b in schema.interactions:
        lines.append(f"interact = {a} * {b}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Dataset:
    """Rectangular typed columns; numeric columns are float arrays,
    categorical columns are tuples of labels."""

    names: tuple[str, ...]
    columns: dict
    n_rows: int

    def replace_column(self, name: str, values) -> "Dataset":
        if name not in self.columns:
            raise DataError(f"no column '{name}' in dataset")
        cols = dict(self.columns)
        cols[name] = values
        return Dataset(names=self.names, columns=cols, n_rows=self.n_rows)


_NUMBER_TYPES = (int, float, np.floating, np.integer)


def make_dataset(columns: dict[str, object]) -> Dataset:
    """Build a Dataset from name -> column values, validating rectangularity.

    A column is numeric when it is an array or holds numbers, categorical
    when it holds only non-numbers; a list mixing both is a DataError.
    """
    names = tuple(columns)
    if not names:
        raise DataError("dataset must have at least one column")
    sizes = {name: len(columns[name]) for name in names}
    n = sizes[names[0]]
    if any(sz != n for sz in sizes.values()):
        raise DataError(f"columns have unequal lengths: {sizes}")
    if n < 1:
        raise DataError("dataset must have at least one row")
    typed: dict[str, object] = {}
    for name in names:
        col = columns[name]
        kinds = set() if isinstance(col, np.ndarray) else set(map(type, col))
        numbers = {k for k in kinds if issubclass(k, _NUMBER_TYPES)}
        if numbers and numbers != kinds:
            raise DataError(f"column '{name}' mixes numbers with non-numeric values")
        if isinstance(col, np.ndarray) or numbers:
            try:
                arr = np.asarray(col, dtype=float)
            except (TypeError, ValueError) as exc:
                raise DataError(
                    f"numeric column '{name}' holds a non-numeric value: {exc}"
                ) from None
            if not np.all(np.isfinite(arr)):
                raise DataError(f"column '{name}' contains non-finite values")
            typed[name] = arr
        else:
            typed[name] = tuple(str(v) for v in col)
    return Dataset(names=names, columns=typed, n_rows=n)


def take(data: Dataset, indices) -> Dataset:
    """Row subset of a Dataset (used for fold splits)."""
    idx = np.asarray(indices, dtype=int)
    cols: dict[str, object] = {}
    for name in data.names:
        col = data.columns[name]
        if isinstance(col, np.ndarray):
            cols[name] = col[idx]
        else:
            cols[name] = tuple(col[i] for i in idx)
    return Dataset(names=data.names, columns=cols, n_rows=len(idx))


def collect_levels(data: Dataset, schema: Schema) -> dict[str, tuple[str, ...]]:
    """First-appearance category levels per categorical column.

    Computed on a reference dataset (usually the full data) so that row
    subsets encode with identical columns.
    """
    levels: dict[str, tuple[str, ...]] = {}
    for spec in schema.columns:
        if spec.role is Role.IGNORE or not spec.categorical:
            continue
        col = data.columns[spec.name]
        if isinstance(col, np.ndarray):
            col = tuple(format(v, "g") for v in col)
        seen: list[str] = []
        seen_set = set()
        for v in col:
            if v not in seen_set:
                seen_set.add(v)
                seen.append(v)
        levels[spec.name] = tuple(seen)
    return levels


def load_csv(path, schema: Schema) -> Dataset:
    """Read an RFC-4180-style CSV and type its columns per the schema.

    Every schema column must be present; extra file columns must be
    declared ``ignore``. Ignored columns are dropped. Missing cells and
    unparseable numerics raise DataError naming the row and column.

    The data rows are parsed column-wise by numpy's C reader. Whenever it
    refuses the file (or the header does not match the schema), the row
    loop ``_load_csv_rows`` reads it instead: that loop defines the result
    and is the only source of the error messages.
    """
    p = Path(path)
    if not p.exists():
        raise DataError(f"data file not found: {p}")
    with p.open(newline="", encoding="utf-8-sig") as fh:
        columns = _parse_columns(fh, next(csv_records(fh, p), None), schema)
    if columns is None:
        return _load_csv_rows(p, schema)
    return make_dataset(columns)


def csv_records(fh, p: Path):
    """The CSV records left in ``fh``: the one rule of every header read and
    row loop. A cell may be of any length, as numpy's reader takes it (the
    csv field size limit is lifted while reading); a record the csv module
    refuses is a DataError naming the file and row (the header is row 1)."""
    limit = csv.field_size_limit(sys.maxsize)
    count = 0
    try:
        for row in csv.reader(fh):
            count += 1
            yield row
    except csv.Error as exc:
        raise DataError(f"{p}: cannot read row {count + 1}: {exc}") from None
    finally:
        csv.field_size_limit(limit)


def _level_code(table: dict, cell: str) -> int:
    """First-appearance code of a categorical cell; an empty cell raises."""
    label = cell.strip()
    if not label:
        raise ValueError("missing value")
    return table.setdefault(label, len(table))


def _ignored_cell(cell: str) -> float:
    return 0.0


def read_table(fh, converters: dict) -> np.ndarray:
    """The rest of ``fh`` as an (n, fields) array, in one C pass.

    Quoting follows the csv module, blank lines are skipped and a row of
    another width raises ValueError. There is no comment syntax.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(
            fh, delimiter=",", comments=None, quotechar='"', ndmin=2, converters=converters
        )


def _parse_columns(fh, header, schema: Schema) -> dict | None:
    """Schema-ordered kept columns of the data rows left in ``fh``, or None
    where the row loop must decide (header mismatch, no rows, or any cell
    numpy does not parse exactly as ``float``/``str.strip`` would).

    Every column is parsed, ignored ones to 0.0, so that a row of the wrong
    width is refused; categorical cells become first-appearance codes.
    """
    if header is None:
        return None
    names = [h.strip() for h in header]
    specs = {c.name: c for c in schema.columns}
    if len(set(names)) != len(names) or set(names) != set(specs):
        return None
    tables: dict[str, dict] = {}
    converters = {}
    for j, name in enumerate(names):
        if specs[name].role is Role.IGNORE:
            converters[j] = _ignored_cell
        elif specs[name].categorical:
            converters[j] = functools.partial(_level_code, tables.setdefault(name, {}))
    try:
        values = read_table(fh, converters)
    except ValueError:
        return None
    if values.shape[0] == 0 or values.shape[1] != len(names):
        return None
    columns: dict[str, object] = {}
    for spec in schema.columns:
        if spec.role is Role.IGNORE:
            continue
        col = values[:, names.index(spec.name)]
        if spec.categorical:
            labels = tuple(tables[spec.name])
            columns[spec.name] = tuple(map(labels.__getitem__, col.astype(np.intp).tolist()))
        else:
            columns[spec.name] = col.copy()
    return columns


def _load_csv_rows(p: Path, schema: Schema) -> Dataset:
    """``load_csv`` one row and one cell at a time: the reference reader."""
    with p.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv_records(fh, p)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{p}: file is empty")
        header = [h.strip() for h in header]
        schema_names = {c.name for c in schema.columns}
        missing = [c.name for c in schema.columns if c.name not in header]
        if missing:
            raise DataError(f"{p}: schema column(s) missing from header: {missing}")
        extra = [h for h in header if h not in schema_names]
        if extra:
            raise DataError(
                f"{p}: header column(s) not in schema: {extra} (declare them 'ignore')"
            )
        keep = [c for c in schema.columns if c.role is not Role.IGNORE]
        positions = {name: header.index(name) for name in (c.name for c in keep)}
        raw: dict[str, list] = {c.name: [] for c in keep}
        width = len(header)
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise DataError(f"{p}: row {rownum} has {len(row)} fields, expected {width}")
            for spec in keep:
                cell = row[positions[spec.name]].strip()
                if cell == "":
                    raise DataError(
                        f"{p}: missing value at row {rownum}, column '{spec.name}'"
                    )
                if spec.categorical:
                    raw[spec.name].append(cell)
                else:
                    try:
                        raw[spec.name].append(float(cell))
                    except ValueError:
                        raise DataError(
                            f"{p}: cannot parse {cell!r} as number at row {rownum}, "
                            f"column '{spec.name}'"
                        ) from None
    if not raw or not next(iter(raw.values())):
        raise DataError(f"{p}: no data rows")
    # Numeric cells are parsed already; arrays skip make_dataset's type scan.
    return make_dataset(
        {c.name: raw[c.name] if c.categorical else np.array(raw[c.name]) for c in keep}
    )


def write_csv(path, data: Dataset) -> None:
    """Write a Dataset as CSV: numeric cells with 17 significant digits,
    labels quoted as ``csv.writer`` quotes them, CRLF line endings."""
    cols = [data.columns[n] for n in data.names]
    formats, cells = [], []
    for col in cols:
        if isinstance(col, np.ndarray):
            formats.append("%.17g")
            cells.append(col)
        else:
            quoted = _csv_cells(col, len(cols))
            formats.append("%s")
            cells.append(tuple(map(quoted.__getitem__, col)))
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(data.names)
        write_rows(fh, formats, cells)


def _csv_cells(values, width: int) -> dict:
    """Each distinct value as ``csv.writer`` writes it as one cell of a
    ``width``-cell row (QUOTE_MINIMAL; a lone empty cell is quoted)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    pad = [""] if width > 1 else []
    cells = {}
    for value in dict.fromkeys(values):
        writer.writerow([value, *pad])
        cells[value] = buf.getvalue()[: -2 - len(pad)]
        buf.seek(0)
        buf.truncate()
    return cells


_CHUNK_ROWS = 4096


def write_rows(fh, formats: list[str], columns: list) -> None:
    """Write equal-length columns to ``fh`` as CSV rows, CRLF-terminated.

    Row i is ``",".join(formats[j] % columns[j][i])``; numeric arrays are
    converted to Python numbers a chunk of rows at a time. Cells with
    ``"%.17g"`` are ``format(v, ".17g")``, so with pre-quoted text cells the
    bytes are those of ``csv.writer``.
    """
    template = ",".join(formats) + "\r\n"
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        part = [c[start : start + _CHUNK_ROWS] for c in columns]
        part = [c.tolist() if isinstance(c, np.ndarray) else c for c in part]
        fh.write("".join(map(template.__mod__, zip(*part))))


BLOCKS = "sxwb"


@dataclass(frozen=True)
class BlockLayout:
    """Column layout of a design matrix Z = [S|X|W|B].

    The blocks s (sensitive), x (legitimate), w (suspect) and b (black-box
    estimates) are consecutive column ranges of Z with sizes ``widths``;
    any may be empty. ``columns`` labels every column and ``column_means``
    holds the raw means removed by centering. The per-block ``*_labels``
    and ``*_means`` are read-only views of them.
    """

    columns: tuple[str, ...]
    column_means: np.ndarray
    widths: tuple[int, int, int, int]

    def index(self, keys: str):
        """Columns of the named blocks (e.g. ``"xwb"``) in the order named:
        a slice when they are adjacent in Z, else an index array."""
        bounds = (0, *itertools.accumulate(self.widths))
        spans = [range(bounds[k], bounds[k + 1]) for k in map(BLOCKS.index, keys)]
        if keys in BLOCKS:
            return slice(spans[0].start, spans[-1].stop)
        return np.array([j for span in spans for j in span], dtype=int)

    def width(self, keys: str) -> int:
        """Number of columns of the named blocks (e.g. ``"wb"``)."""
        return sum(self.widths[BLOCKS.index(key)] for key in keys)

    @property
    def column_blocks(self) -> tuple[str, ...]:
        """The block key of every column."""
        return tuple(key for key, w in zip(BLOCKS, self.widths) for _ in range(w))

    def labels(self, key: str) -> tuple[str, ...]:
        return self.columns[self.index(key)]

    def means(self, key: str) -> np.ndarray:
        return self.column_means[self.index(key)]

    s_labels = property(lambda self: self.labels("s"))
    x_labels = property(lambda self: self.labels("x"))
    w_labels = property(lambda self: self.labels("w"))
    b_labels = property(lambda self: self.labels("b"))
    s_means = property(lambda self: self.means("s"))
    x_means = property(lambda self: self.means("x"))
    w_means = property(lambda self: self.means("w"))
    b_means = property(lambda self: self.means("b"))

    def replace(self, **changes):
        return dataclasses.replace(self, **changes)

    def merged(self, keys: str, into: str):
        """Copy in which the adjacent blocks ``keys`` form the one block
        ``into``: a role change moves block boundaries and copies no data."""
        if keys not in BLOCKS or into not in keys:
            raise ContractError(f"cannot merge blocks {keys!r} into {into!r}")
        widths = [0 if key in keys else w for key, w in zip(BLOCKS, self.widths)]
        widths[BLOCKS.index(into)] = self.width(keys)
        return self.replace(widths=tuple(widths))


@dataclass(frozen=True)
class EncodedDesign(BlockLayout):
    """Centered design matrix ``z`` = [S|X|W|B] plus provenance.

    ``s``, ``x``, ``w`` and ``b`` are read-only column views of ``z``.
    ``s_group_labels`` keeps the original per-row sensitive label(s) for
    group metrics. ``r`` is the R factor of [Z | centered y], factored on
    first use and shared by every role view of the design; ``z`` and ``y``
    are never changed in place.
    """

    y: np.ndarray
    z: np.ndarray
    s_group_labels: tuple[str, ...]
    response_name: str = "y"
    _r: list = dataclasses.field(default_factory=list, compare=False, repr=False)

    def replace(self, **changes):
        """Copy with fields changed; a role change keeps the R factor, a
        new ``z`` or ``y`` drops it."""
        if "z" in changes or "y" in changes:
            changes["_r"] = []
        return dataclasses.replace(self, **changes)

    @property
    def r(self) -> np.ndarray:
        if not self._r:
            r = r_factor(self.z, self.y - self.y.mean())
            r.flags.writeable = False
            self._r.append(r)
        return self._r[0]

    s = property(lambda self: self.block("s"))
    x = property(lambda self: self.block("x"))
    w = property(lambda self: self.block("w"))
    b = property(lambda self: self.block("b"))

    @classmethod
    def from_blocks(cls, y, blocks: dict, s_group_labels, response_name: str = "y"):
        """Stack per-block ``(columns, labels, means)`` into one design.

        ``blocks`` is keyed by "s", "x", "w", "b" (a missing key is an
        empty block); ``columns`` is a list of 1-D column arrays.
        """
        parts = [blocks.get(key, ([], (), np.zeros(0))) for key in BLOCKS]
        cols = [col for part_cols, _, _ in parts for col in part_cols]
        return cls(
            columns=tuple(label for _, labels, _ in parts for label in labels),
            column_means=np.concatenate([means for _, _, means in parts]),
            widths=tuple(len(labels) for _, labels, _ in parts),
            y=y,
            z=np.column_stack(cols) if cols else np.zeros((len(y), 0)),
            s_group_labels=tuple(s_group_labels),
            response_name=response_name,
        )

    @property
    def n_rows(self) -> int:
        return self.y.shape[0]

    def block(self, key: str) -> np.ndarray:
        return self.z[:, self.index(key)]

    def appended(self, values: np.ndarray, labels, means) -> "EncodedDesign":
        """Copy with centered columns appended to Z, i.e. to the B block."""
        return self.replace(
            z=np.hstack([self.z, values]),
            columns=self.columns + tuple(labels),
            column_means=np.concatenate([self.column_means, means]),
            widths=self.widths[:3] + (self.widths[3] + len(labels),),
        )

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(self.y.tobytes())
        h.update(self.z.tobytes())
        h.update(repr((self.columns, self.widths)).encode())
        return h.hexdigest()[:16]


_ROLE_TO_BLOCK = {
    Role.SENSITIVE: "s",
    Role.LEGITIMATE: "x",
    Role.SUSPECT: "w",
    Role.BLACKBOX: "b",
}


def _interaction_role(role_a: Role, role_b: Role) -> Role:
    # Precedence: anything x blackbox -> suspect; anything x suspect ->
    # suspect; sensitive x legitimate -> legitimate; within-group -> group.
    pair = {role_a, role_b}
    if Role.BLACKBOX in pair or Role.SUSPECT in pair:
        return Role.SUSPECT
    if pair == {Role.SENSITIVE, Role.LEGITIMATE}:
        return Role.LEGITIMATE
    return role_a  # within-group


def _encode_source_column(data: Dataset, spec: ColumnSpec, levels_override):
    """Return (column matrix before centering, column labels)."""
    col = data.columns[spec.name]
    if spec.categorical:
        if isinstance(col, np.ndarray):
            col = tuple(format(v, "g") for v in col)
        if levels_override is not None and spec.name in levels_override:
            levels = list(levels_override[spec.name])
            unknown = sorted(set(col) - set(levels))
            if unknown:
                raise DataError(
                    f"column '{spec.name}' has values {unknown} outside the "
                    f"provided level list"
                )
        else:
            levels = []
            seen = set()
            for v in col:
                if v not in seen:
                    seen.add(v)
                    levels.append(v)
        # First-appearance order, first level is the dropped reference.
        kept = levels[1:]
        mat = np.zeros((data.n_rows, len(kept)))
        index = {lvl: j for j, lvl in enumerate(kept)}
        for i, v in enumerate(col):
            j = index.get(v)
            if j is not None:
                mat[i, j] = 1.0
        labels = tuple(f"{spec.name}={lvl}" for lvl in kept)
        return mat, labels
    arr = np.asarray(col, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DataError(f"column '{spec.name}' contains non-finite values")
    return arr.reshape(-1, 1), (spec.name,)


def assemble(
    data: Dataset, schema: Schema, levels: dict[str, tuple[str, ...]] | None = None
) -> EncodedDesign:
    """Expand a Dataset into an uncentered Z = [S|X|W|B] with zero means.

    Categoricals are one-hot encoded with the first-appearance level
    dropped. Interaction columns are products of the encoded parent
    columns and join the block implied by the parents' roles. Pass
    ``levels`` (from ``collect_levels`` on a reference dataset) to fix the
    category vocabulary when encoding row subsets.
    """
    for spec in schema.columns:
        if spec.role is Role.IGNORE:
            continue
        if spec.name not in data.columns:
            raise DataError(f"dataset is missing schema column '{spec.name}'")

    resp = schema.response
    y = np.asarray(data.columns[resp.name], dtype=float)
    if not np.all(np.isfinite(y)):
        raise DataError(f"response column '{resp.name}' contains non-finite values")

    pre: dict[str, list[np.ndarray]] = {k: [] for k in BLOCKS}
    labels: dict[str, list[str]] = {k: [] for k in BLOCKS}
    encoded_cols: dict[str, tuple[np.ndarray, tuple[str, ...]]] = {}

    for spec in schema.columns:
        if spec.role in (Role.RESPONSE, Role.IGNORE):
            continue
        mat, col_labels = _encode_source_column(data, spec, levels)
        encoded_cols[spec.name] = (mat, col_labels)
        block = _ROLE_TO_BLOCK[spec.role]
        for j in range(mat.shape[1]):
            pre[block].append(mat[:, j])
            labels[block].append(col_labels[j])

    for a, b in schema.interactions:
        spec_a, spec_b = schema.column(a), schema.column(b)
        role = _interaction_role(spec_a.role, spec_b.role)
        block = _ROLE_TO_BLOCK[role]
        mat_a, labels_a = encoded_cols[a]
        mat_b, labels_b = encoded_cols[b]
        for ja in range(mat_a.shape[1]):
            for jb in range(mat_b.shape[1]):
                pre[block].append(mat_a[:, ja] * mat_b[:, jb])
                labels[block].append(f"{labels_a[ja]}*{labels_b[jb]}")

    return EncodedDesign.from_blocks(
        y,
        {key: (pre[key], labels[key], np.zeros(len(pre[key]))) for key in BLOCKS},
        _group_labels(data, schema),
        response_name=resp.name,
    )


def center(design: EncodedDesign) -> EncodedDesign:
    """Center every column of z; the removed means are added to ``column_means``."""
    centered, shift = column_center(design.z)
    return design.replace(z=centered, column_means=design.column_means + shift)


def encode(
    data: Dataset, schema: Schema, levels: dict[str, tuple[str, ...]] | None = None
) -> EncodedDesign:
    """Expand a Dataset into a centered Z = [S|X|W|B].

    ``center(assemble(data, schema, levels))``: see ``assemble`` for the
    column rules and ``levels``.
    """
    return center(assemble(data, schema, levels))


def take_design(design: EncodedDesign, indices) -> EncodedDesign:
    """Row subset of an EncodedDesign, re-centered within the subset.

    The recorded means are updated so they still equal the raw column
    means of the retained rows. On an ``assemble`` result this equals
    ``encode(take(data, indices), schema, levels)`` bit for bit.
    """
    idx = np.asarray(indices, dtype=int)
    if idx.size < 1:
        raise DataError("design subset must keep at least one row")
    return center(
        design.replace(
            y=design.y[idx],
            z=design.z[idx],
            s_group_labels=tuple(map(design.s_group_labels.__getitem__, idx.tolist())),
        )
    )


def _group_labels(data: Dataset, schema: Schema) -> tuple[str, ...]:
    """Per-row sensitive group key: the original labels, joined with '|'
    when several sensitive source columns exist."""
    sensitive = [c for c in schema.columns if c.role is Role.SENSITIVE]
    if not sensitive:
        return tuple("" for _ in range(data.n_rows))
    parts = []
    for spec in sensitive:
        col = data.columns[spec.name]
        if isinstance(col, np.ndarray):
            parts.append(tuple(format(v, "g") for v in col))
        else:
            parts.append(col)
    return tuple("|".join(vals) for vals in zip(*parts))
