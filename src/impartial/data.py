"""CSV ingestion, covariate roles, and design-matrix encoding.

A Schema assigns each CSV column a role (response / sensitive / legitimate
/ suspect / blackbox / ignore) and a kind (numeric or categorical). A
categorical column is held as integer codes into its labels
(``Categorical``), never as one Python object per row.
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
import math
import sys
import warnings
from collections.abc import Sequence
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


def _present(codes: np.ndarray, k: int) -> np.ndarray:
    """The codes among 0..k-1 that occur in ``codes``, in order of first
    appearance: one pass over the rows per code, for a small ``k``."""
    first = {}
    for code in range(k):
        hit = codes == code
        if hit.any():
            first[int(hit.argmax())] = code
    return np.array([first[row] for row in sorted(first)], dtype=np.intp)


def _factorize(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Codes of integer ``keys`` numbered in order of first appearance, and
    the row where each code first appears."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[inverse.reshape(-1)], first[order]


class Categorical(Sequence):
    """A column of labels held as integer ``codes`` into ``levels``.

    It reads as the sequence of per-row labels (``len``, indexing, slicing
    to a tuple, iteration, ``np.asarray``) and compares equal to another
    one, or to a tuple, with the same labels row by row. A Dataset column
    numbers its levels in order of first appearance and uses every one;
    a design's group key (``EncodedDesign.groups``) keeps the level table
    of the whole data in its row subsets.
    """

    __slots__ = ("codes", "levels")

    def __init__(self, codes: np.ndarray, levels: tuple):
        self.codes = codes
        self.levels = levels

    @classmethod
    def from_labels(cls, labels) -> "Categorical":
        """Factor a sequence of hashable labels in first-appearance order."""
        index = {label: code for code, label in enumerate(dict.fromkeys(labels))}
        codes = np.fromiter(map(index.__getitem__, labels), np.intp, len(labels))
        return cls(codes, tuple(index))

    @classmethod
    def from_codes(cls, codes, levels) -> "Categorical":
        """The labels ``levels[codes]``, renumbered in first-appearance order
        (one pass over the rows per level: for a small level table)."""
        codes = np.asarray(codes, dtype=np.intp)
        present = _present(codes, len(levels))
        rank = np.zeros(len(levels), dtype=np.intp)
        rank[present] = np.arange(present.size)
        return cls(rank[codes], tuple(levels[j] for j in present.tolist()))

    def present(self) -> np.ndarray:
        """The codes that occur, in order of first appearance."""
        return _present(self.codes, len(self.levels))

    def rows(self) -> dict:
        """Row indices per label that occurs, in order of first appearance."""
        return {self.levels[k]: np.flatnonzero(self.codes == k) for k in self.present().tolist()}

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.levels.__getitem__, self.codes[i].tolist()))
        return self.levels[self.codes[i]]

    def __iter__(self):
        return map(self.levels.__getitem__, self.codes.tolist())

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.levels, dtype=dtype)[self.codes]

    def __eq__(self, other):
        if isinstance(other, (Categorical, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Categorical(codes={self.codes!r}, levels={self.levels!r})"


def as_categorical(column) -> Categorical:
    """A Dataset column as a Categorical.

    Labels are factored as they are. A numeric column gets one level per
    exact value (bit pattern), labelled ``format(v, "g")``, or ``repr(v)``
    when two of those labels would coincide.
    """
    if isinstance(column, Categorical):
        return column
    if not isinstance(column, np.ndarray):
        return Categorical.from_labels(column)
    values = np.ascontiguousarray(column, dtype=float)
    codes, rows = _factorize(values.view(np.int64))
    distinct = values[rows].tolist()
    labels = tuple(format(v, "g") for v in distinct)
    if len(set(labels)) < len(labels):
        labels = tuple(map(repr, distinct))
    return Categorical(codes, labels)


@dataclass(frozen=True)
class Dataset:
    """Rectangular typed columns; numeric columns are float arrays,
    categorical columns are ``Categorical`` codes in first-appearance
    order plus their labels."""

    names: tuple[str, ...]
    columns: dict
    n_rows: int

    def replace_column(self, name: str, values) -> "Dataset":
        """Copy with column ``name`` replaced, checked as ``make_dataset``
        checks every column."""
        if name not in self.columns:
            raise DataError(f"no column '{name}' in dataset")
        return make_dataset({**self.columns, name: values})


_NUMBER_TYPES = (int, float, np.floating, np.integer)


def make_dataset(columns: dict[str, object]) -> Dataset:
    """Build a Dataset from name -> column values, validating rectangularity.

    A column is numeric when it is an array or holds numbers, categorical
    when it is a Categorical or holds only non-numbers (labels are kept as
    ``str``); a list mixing both is a DataError. A Categorical's codes must
    number distinct string levels in first-appearance order, each used.
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
        if isinstance(col, Categorical):
            typed[name] = _checked_categorical(name, col)
            continue
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
            typed[name] = Categorical.from_labels(col if kinds == {str} else [str(v) for v in col])
    return Dataset(names=names, columns=typed, n_rows=n)


def _checked_categorical(name: str, col: Categorical) -> Categorical:
    """``col`` with intp codes, or a DataError unless its codes number its
    levels in first-appearance order and use each one, and the levels are
    distinct strings."""
    codes, levels = col.codes, col.levels
    if not isinstance(codes, np.ndarray) or codes.ndim != 1 or codes.dtype.kind not in "iu":
        raise DataError(f"categorical column '{name}' needs a vector of integer codes")
    if not isinstance(levels, tuple) or not all(type(v) is str for v in levels):
        raise DataError(f"categorical column '{name}' needs a tuple of string levels")
    if len(set(levels)) != len(levels):
        raise DataError(f"categorical column '{name}' repeats a level")
    codes = codes.astype(np.intp, copy=False)
    reached = np.maximum.accumulate(codes)
    if (
        codes[0] != 0
        or codes.min() < 0
        or np.any(codes[1:] > reached[:-1] + 1)
        or reached[-1] != len(levels) - 1
    ):
        raise DataError(
            f"categorical column '{name}' does not number its {len(levels)} levels "
            "in first-appearance order"
        )
    return Categorical(codes, levels)


def take(data: Dataset, indices) -> Dataset:
    """Row subset of a Dataset (used for fold splits)."""
    idx = np.asarray(indices, dtype=int)
    cols: dict[str, object] = {}
    for name in data.names:
        col = data.columns[name]
        if isinstance(col, np.ndarray):
            cols[name] = col[idx]
        else:
            col = as_categorical(col)
            codes, rows = _factorize(col.codes[idx])
            cols[name] = Categorical(codes, tuple(col[i] for i in idx[rows].tolist()))
    return Dataset(names=data.names, columns=cols, n_rows=len(idx))


def collect_levels(data: Dataset, schema: Schema) -> dict[str, tuple[str, ...]]:
    """First-appearance category levels per categorical column.

    Computed on a reference dataset (usually the full data) so that row
    subsets encode with identical columns.
    """
    return {
        spec.name: as_categorical(data.columns[spec.name]).levels
        for spec in schema.columns
        if spec.categorical and spec.role is not Role.IGNORE
    }


def load_csv(path, schema: Schema, comments: bool = False) -> Dataset:
    """Read an RFC-4180-style CSV and type its columns per the schema.

    Every schema column must be present; extra file columns must be
    declared ``ignore``. Ignored columns are dropped. Missing cells,
    unparseable and non-finite numerics raise DataError naming the row and
    column. With ``comments``, every row whose first cell starts with ``#``
    is skipped.

    The data rows are parsed column-wise by numpy's C reader. Whenever it
    refuses the file (or the header does not match the schema), the row
    loop ``_load_csv_rows`` reads it instead: that loop defines the result
    and is the only source of the error messages.
    """
    p = Path(path)
    if not p.exists():
        raise DataError(f"data file not found: {p}")
    with p.open(newline="", encoding="utf-8-sig") as fh:
        columns = _parse_columns(fh, next(csv_records(fh, p), None), schema, comments)
    if columns is None:
        return _load_csv_rows(p, schema, comments)
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


def _ends_in_comment(path) -> bool:
    """Whether the last nonempty line of the file starts with ``#``, from
    its last 4 KiB."""
    with open(path, "rb") as raw:
        raw.seek(max(0, raw.seek(0, 2) - 4096))
        lines = raw.read().rstrip(b"\r\n").splitlines()
    return bool(lines) and lines[-1].startswith(b"#")


def _parse_columns(fh, header, schema: Schema, comments: bool) -> dict | None:
    """Schema-ordered kept columns of the data rows left in ``fh``, in one
    C pass, or None where the row loop must decide (header mismatch, no
    rows, a non-finite number, or any cell numpy does not parse exactly as
    ``float``/``str.strip`` would).

    Quoting follows the csv module and blank lines are skipped. Every
    column is parsed, ignored ones to 0.0, so that a row of the wrong width
    is refused; categorical cells become first-appearance codes. With
    ``comments``, the first column is parsed as a number, which a ``#`` cell
    is not, and a file that ends in ``#`` lines (as ``correct`` output does)
    is parsed up to the first line starting with ``#``; the rest of it may
    hold only such lines and empty ones.
    """
    if header is None:
        return None
    names = [h.strip() for h in header]
    specs = {c.name: c for c in schema.columns}
    if len(set(names)) != len(names) or set(names) != set(specs):
        return None
    if comments and specs[names[0]].categorical:
        return None
    tables: dict[str, dict] = {}
    converters = {}
    for j, name in enumerate(names):
        if specs[name].role is Role.IGNORE and not (comments and j == 0):
            converters[j] = _ignored_cell
        elif specs[name].categorical:
            converters[j] = functools.partial(_level_code, tables.setdefault(name, {}))
    lines = fh
    if comments and _ends_in_comment(fh.name):
        lines = itertools.takewhile(lambda line: not line.startswith("#"), fh)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            values = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2,
                                converters=converters)
    except ValueError:
        return None
    if any(line.strip("\r\n") and line[0] != "#" for line in fh):
        return None
    if values.shape[0] == 0 or values.shape[1] != len(names):
        return None
    columns: dict[str, object] = {}
    for spec in schema.columns:
        if spec.role is Role.IGNORE:
            continue
        col = values[:, names.index(spec.name)]
        if spec.categorical:
            columns[spec.name] = Categorical(col.astype(np.intp), tuple(tables[spec.name]))
        elif np.isfinite(col).all():
            columns[spec.name] = col.copy()
        else:
            return None
    return columns


def _load_csv_rows(p: Path, schema: Schema, comments: bool = False) -> Dataset:
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
            if not row or comments and row[0].startswith("#"):
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
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"{p}: cannot parse {cell!r} as number at row {rownum}, "
                        f"column '{spec.name}'"
                    ) from None
                if not math.isfinite(value):
                    raise DataError(f"{p}: {spec.name} {cell!r} at row {rownum} is not finite")
                raw[spec.name].append(value)
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
            col = as_categorical(col)
            formats.append("%s")
            cells.append(np.array(_csv_cells(col.levels, len(cols)), dtype=object)[col.codes])
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(data.names)
        write_rows(fh, formats, cells)


def _csv_cells(values, width: int) -> list[str]:
    """Each value as ``csv.writer`` writes it as one cell of a ``width``-cell
    row (QUOTE_MINIMAL; a lone empty cell is quoted)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    pad = [""] if width > 1 else []
    cells = []
    for value in values:
        writer.writerow([value, *pad])
        cells.append(buf.getvalue()[: -2 - len(pad)])
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
    ``groups`` is every row's sensitive group, as codes into a table of
    group labels (see ``_groups``), for group metrics; ``s_group_labels``
    reads it as per-row labels. ``r`` is the R factor of [Z | centered y],
    factored on first use and shared by every role view of the design;
    ``z`` and ``y`` are never changed in place.
    """

    y: np.ndarray
    z: np.ndarray
    groups: Categorical
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
    s_group_labels = property(lambda self: self.groups)

    @classmethod
    def from_blocks(cls, y, blocks: dict, s_group_labels, response_name: str = "y"):
        """Stack per-block ``(columns, labels, means)`` into one design.

        ``blocks`` is keyed by "s", "x", "w", "b" (a missing key is an
        empty block); ``columns`` is a list of 1-D column arrays.
        ``s_group_labels`` is the per-row group labels or a Categorical.
        """
        parts = [blocks.get(key, ([], (), np.zeros(0))) for key in BLOCKS]
        cols = [col for part_cols, _, _ in parts for col in part_cols]
        return cls(
            columns=tuple(label for _, labels, _ in parts for label in labels),
            column_means=np.concatenate([means for _, _, means in parts]),
            widths=tuple(len(labels) for _, labels, _ in parts),
            y=y,
            z=np.column_stack(cols) if cols else np.zeros((len(y), 0)),
            groups=as_categorical(s_group_labels),
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
        col = as_categorical(col)
        levels, codes = col.levels, col.codes
        if levels_override is not None and spec.name in levels_override:
            position = {lvl: j for j, lvl in enumerate(levels_override[spec.name])}
            unknown = sorted(set(levels) - set(position))
            if unknown:
                raise DataError(
                    f"column '{spec.name}' has values {unknown} outside the "
                    f"provided level list"
                )
            codes = np.array([position[lvl] for lvl in levels], dtype=np.intp)[codes]
            levels = tuple(position)
        # First-appearance order, first level is the dropped reference.
        mat = np.zeros((data.n_rows, len(levels) - 1))
        rows = np.flatnonzero(codes)
        mat[rows, codes[rows] - 1] = 1.0
        labels = tuple(f"{spec.name}={lvl}" for lvl in levels[1:])
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
        _groups(data, schema),
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
    column rules and ``levels``. The assembled ``z`` is this call's own,
    so it is centered in place.
    """
    design = assemble(data, schema, levels)
    z, shift = column_center(design.z, out=design.z)
    return design.replace(z=z, column_means=design.column_means + shift)


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
            groups=Categorical(design.groups.codes[idx], design.groups.levels),
        )
    )


def _groups(data: Dataset, schema: Schema) -> Categorical:
    """Every row's sensitive group: one per distinct combination of the
    sensitive columns' levels, in first-appearance order, labelled by the
    levels joined with '|' (a DataError when two groups would share a
    label). With no sensitive column every row is in the one group "".
    """
    sensitive = [as_categorical(data.columns[c.name]) for c in schema.columns
                 if c.role is Role.SENSITIVE]
    if not sensitive:
        return Categorical(np.zeros(data.n_rows, dtype=np.intp), ("",))
    if len(sensitive) == 1:
        return sensitive[0]
    key = sensitive[0].codes
    for col in sensitive[1:]:
        key = _factorize(key * len(col.levels) + col.codes)[0]
    key, rows = _factorize(key)
    labels: dict[str, tuple] = {}
    for i in rows.tolist():
        combo = tuple(col[i] for col in sensitive)
        label = "|".join(combo)
        if label in labels:
            raise DataError(
                f"sensitive groups {labels[label]} and {combo} would share the "
                f"label {label!r}"
            )
        labels[label] = combo
    return Categorical(key, tuple(labels))
