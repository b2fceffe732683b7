"""CSV ingestion, covariate roles, and design-matrix encoding.

A Schema assigns each CSV column a role (response / sensitive / legitimate
/ suspect / blackbox / ignore) and a kind (numeric or categorical).
``encode`` turns a Dataset into centered numeric blocks S, X, W, B keyed by
role, with one-hot expansion (first level dropped) and interaction
products. It is two steps: ``assemble`` builds the uncentered blocks and
``center`` centers them. Centering means are retained so the identical
shift can be applied to prediction-time data, and a row subset of an
assembled design (``take_design``) is exactly the encoding of the same
rows.
"""

from __future__ import annotations

import csv
import enum
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, SchemaError
from .linalg import column_center


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

    def with_roles(self, mapping: dict[Role, Role]) -> "Schema":
        """Copy of this schema with source roles rewritten (interactions kept)."""
        cols = tuple(
            ColumnSpec(c.name, mapping.get(c.role, c.role), c.categorical)
            for c in self.columns
        )
        return Schema(columns=cols, interactions=self.interactions)


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

    def column(self, name: str):
        return self.columns[name]

    def replace_column(self, name: str, values) -> "Dataset":
        if name not in self.columns:
            raise DataError(f"no column '{name}' in dataset")
        cols = dict(self.columns)
        cols[name] = values
        return Dataset(names=self.names, columns=cols, n_rows=self.n_rows)


def make_dataset(columns: dict[str, object]) -> Dataset:
    """Build a Dataset from name -> column values, validating rectangularity."""
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
        if isinstance(col, np.ndarray) or (
            len(col) and isinstance(col[0], (int, float, np.floating, np.integer))
        ):
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
    """
    p = Path(path)
    if not p.exists():
        raise DataError(f"data file not found: {p}")
    with p.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{p}: file is empty") from None
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
    return make_dataset(raw)


def write_csv(path, data: Dataset) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.names)
        cols = [data.columns[n] for n in data.names]
        for i in range(data.n_rows):
            writer.writerow(
                [
                    format(c[i], ".17g") if isinstance(c, np.ndarray) else c[i]
                    for c in cols
                ]
            )


@dataclass(frozen=True)
class EncodedDesign:
    """Centered numeric design blocks plus provenance.

    Blocks: s (sensitive), x (legitimate), w (suspect), b (black-box
    estimates); any may have zero columns. ``*_means`` hold the raw column
    means removed by centering. ``s_group_labels`` keeps the original
    per-row sensitive label(s) for group metrics.
    """

    y: np.ndarray
    s: np.ndarray
    x: np.ndarray
    w: np.ndarray
    b: np.ndarray
    s_labels: tuple[str, ...]
    x_labels: tuple[str, ...]
    w_labels: tuple[str, ...]
    b_labels: tuple[str, ...]
    s_means: np.ndarray
    x_means: np.ndarray
    w_means: np.ndarray
    b_means: np.ndarray
    s_group_labels: tuple[str, ...]
    response_name: str = "y"

    @property
    def n_rows(self) -> int:
        return self.y.shape[0]

    def block(self, key: str) -> np.ndarray:
        return getattr(self, key)

    def labels(self, key: str) -> tuple[str, ...]:
        return getattr(self, f"{key}_labels")

    def means(self, key: str) -> np.ndarray:
        return getattr(self, f"{key}_means")

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(self.y.tobytes())
        for key in ("s", "x", "w", "b"):
            h.update(self.block(key).tobytes())
            h.update("|".join(self.labels(key)).encode())
        return h.hexdigest()[:16]

    def replace(self, **changes) -> "EncodedDesign":
        from dataclasses import replace as _replace

        return _replace(self, **changes)


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
    """Expand a Dataset into uncentered S/X/W/B blocks with zero means.

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

    pre: dict[str, list[np.ndarray]] = {k: [] for k in ("s", "x", "w", "b")}
    labels: dict[str, list[str]] = {k: [] for k in ("s", "x", "w", "b")}
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

    blocks = {
        key: np.column_stack(cols) if cols else np.zeros((data.n_rows, 0))
        for key, cols in pre.items()
    }
    return EncodedDesign(
        y=y,
        s=blocks["s"],
        x=blocks["x"],
        w=blocks["w"],
        b=blocks["b"],
        s_labels=tuple(labels["s"]),
        x_labels=tuple(labels["x"]),
        w_labels=tuple(labels["w"]),
        b_labels=tuple(labels["b"]),
        s_means=np.zeros(blocks["s"].shape[1]),
        x_means=np.zeros(blocks["x"].shape[1]),
        w_means=np.zeros(blocks["w"].shape[1]),
        b_means=np.zeros(blocks["b"].shape[1]),
        s_group_labels=_group_labels(data, schema),
        response_name=resp.name,
    )


def center(design: EncodedDesign) -> EncodedDesign:
    """Center every block; the removed column means are added to ``*_means``."""
    changes: dict = {}
    for key in ("s", "x", "w", "b"):
        centered, shift = column_center(design.block(key))
        changes[key] = centered
        changes[f"{key}_means"] = design.means(key) + shift
    return design.replace(**changes)


def encode(
    data: Dataset, schema: Schema, levels: dict[str, tuple[str, ...]] | None = None
) -> EncodedDesign:
    """Expand a Dataset into centered S/X/W/B blocks.

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
            s_group_labels=tuple(design.s_group_labels[i] for i in idx),
            **{key: design.block(key)[idx] for key in ("s", "x", "w", "b")},
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
