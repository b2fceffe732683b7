"""The cells of a CSV file as fixed-width byte slots, made with numpy.

``data.write_rows`` lays a chunk of rows out as one byte matrix, each cell
in a slot of fixed width whose unused bytes are ``FREE``, and joins the
chunk with one boolean compaction. ``slot`` picks a column's cell rule
from its type. A float cell is ``format(x, ".17g")`` exactly, made from
numpy integer and float arithmetic rather than one Python ``%`` per cell
(``format_floats``).
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .data import Categorical

# The filler of a slot's unused bytes: no UTF-8 text holds it.
FREE = 0xFF
# A "%.17g" cell is made in 40 bytes: the sign and "0.000" right-aligned
# to byte 10, the digits from byte 11 (digit j at 11 + j, or at 12 + j
# after the "."), the exponent right-aligned to byte 35. Its slot is bytes
# 5-35; so laid out, the compaction copies few runs of bytes.
FLOAT_WIDTH = 31


def _text_slot(col):
    """A Categorical's level bytes (UTF-8), left-aligned."""
    cells = [label.encode() for label in col.levels]
    table = np.full((len(cells), max(map(len, cells), default=0)), FREE, np.uint8)
    for row, cell in zip(table, cells):
        row[: len(cell)] = np.frombuffer(cell, np.uint8)
    return table.shape[1], lambda start, stop, out: table.take(col.codes[start:stop], 0, out)


def _float_slot(col):
    values = np.asarray(col, dtype=float)
    return FLOAT_WIDTH, lambda start, stop, out: format_floats(values[start:stop], out)


def _range_slot(col: range):
    """A row number below 10**17 is its ``"%.17g"`` as a float."""
    return FLOAT_WIDTH, lambda start, stop, out: format_floats(
        np.arange(col[start], col[start] + (stop - start) * col.step, col.step, dtype=float), out)


def slot(col):
    """The width of ``col``'s slots and a function that writes the slots of
    rows [start, stop) to ``out``: a range gives row numbers, a Categorical
    text cells, anything else ``"%.17g"`` floats."""
    if isinstance(col, range):
        return _range_slot(col)
    if isinstance(col, Categorical):
        return _text_slot(col)
    return _float_slot(col)


@functools.cache
def _tables():
    """4-digit ASCII groups and their trailing zeros; hi, hi's halves and lo
    of 10**k = hi + lo for k in -300..300; 36 * the mode of each exponent;
    per key, a cell's literal bytes and masks of digits at 11 + j, 12 + j."""
    i = np.arange(10_000)
    groups = (np.stack([i // 1000, i // 100, i // 10, i], axis=1) % 10 + 48).astype(np.uint8)
    zeros = np.where(i == 0, 4, sum(i % 10**k == 0 for k in (1, 2, 3)))
    pow10 = []
    for k in range(-300, 301):  # 10**k = n / m; hi = a / b
        n, m = 10 ** max(k, 0), 10 ** max(-k, 0)
        a, b = (n / m).as_integer_ratio()
        pow10.append((a / b, (n * b - a * m) / (m * b)))
    hi, lo = np.array(pow10).T
    half = 134217729.0 * hi
    half -= half - hi
    # A cell's mode: E + 4 in fixed notation (-4 <= E < 17), else 21-24 for
    # E >= 17 and E < -4, with 2 or 3 exponent digits.
    e10 = np.arange(-300, 301)
    modes = np.where(e10 >= 17, 21 + (e10 >= 100), np.where(e10 >= -4, e10 + 4, 23 + (e10 <= -100)))
    shapes = []
    for mode, nd, prefix in itertools.product(range(25), range(18), ("", "-")):
        point, suffix = mode - 3, ""  # digits before the "."
        if mode > 20:
            point, suffix = 1, "e" + "+-"[mode > 22] + "X" * (3 if mode % 2 == 0 else 2)
        elif mode < 4:
            point, prefix = nd, prefix + "0." + "0" * (3 - mode)
        body = "L" * point + ("." + "R" * (nd - point)) * (nd > point)
        shapes.append(prefix.rjust(11) + body.ljust(20) + suffix.rjust(5) + " " * 4)
    shapes = np.frombuffer("".join(shapes).encode(), np.uint8).reshape(len(shapes), -1)
    literal = np.where(np.isin(shapes, list(b"LRX")), 0, np.where(shapes == 32, FREE, shapes))
    left, right = (np.where(np.isin(shapes, list(c)), FREE, 0) for c in (b"LX", b"R"))
    return (groups.view("<u4")[:, 0], zeros, np.stack([hi, half, hi - half, lo]), 36 * modes,
            *(t.astype(np.uint8) for t in (literal, left, right)))


def _scaled(a: np.ndarray, k: np.ndarray, pow10: np.ndarray):
    """a * 10**k as p + e: p = fl(a * hi) and its exact error (Dekker's
    two-product, Veltkamp's split) plus a * lo. e is off by less than
    1e-14; it is exact when 0 <= k <= 22, where 10**k is a double."""
    hi, h1, h2, lo = pow10.take(k + 300, axis=1)
    a1 = 134217729.0 * a
    a1 -= a1 - a
    a2 = a - a1
    p = a * hi
    return p, ((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2 + a * lo


def format_floats(v: np.ndarray, out: np.ndarray) -> None:
    """Write ``format(x, ".17g")`` of each x in ``v`` to its row of ``out``
    (``FLOAT_WIDTH`` bytes, unused ones ``FREE``).

    For 1e-280 < |x| < 1e280 the 17 digits are D = round(|x| * 10**(16-E)),
    E = floor(log10|x|), from ``_scaled``; where the scaled value leaves
    [1e16, 1e17], E moves by one. A tie rounds half to even where the
    product is exact; any other x within 1e-6 of a tie, and every x out of
    that range (non-finite, tiny or huge), is formatted by Python. A zero
    is D = 0 with E = 0, which shows as "0" or "-0".
    """
    groups, zeros, pow10, modes, literal, left, right = _tables()
    a = np.abs(v)
    zero = a == 0
    fast = (a > 1e-280) & (a < 1e280)
    a[~fast] = 1.0
    e10 = np.floor(np.log10(a)).astype(np.int64)
    p, e = _scaled(a, 16 - e10, pow10)
    move = ((p > 1e17) | (p == 1e17) & (e >= 0)).astype(np.int64)
    move -= (p < 1e16) | (p == 1e16) & (e < 0)
    redo = np.flatnonzero(move)
    if redo.size:
        e10[redo] += move[redo]
        p[redo], e[redo] = _scaled(a[redo], 16 - e10[redo], pow10)
    whole = np.floor(e)
    e -= whole
    d = p.astype(np.int64) + whole.astype(np.int64)
    d += (e > 0.5) | (e == 0.5) & ((d & 1) == 1)
    fast &= (e10 >= -6) & (e10 <= 16) | (np.abs(e - 0.5) > 1e-6)
    top = d == 10**17
    d[top], e10[top] = 10**16, e10[top] + 1
    fast &= (d >= 10**16) & (d < 10**17)
    d[~fast] = 10**16
    d[zero], fast[zero] = 0, True
    # D as d0 and four 4-digit groups, from D // 10**8 and D % 10**8 in
    # uint32 (where a - a // b * b is faster than a % b).
    high = d // 10**8
    low = (d - high * 10**8).astype(np.uint32)
    high = high.astype(np.uint32)
    d0, g1, g3 = high // 10**8, high // 10**4, low // 10**4
    g = [d0, g1 - d0 * 10**4, high - g1 * 10**4, g3, low - g3 * 10**4]
    cell = np.zeros((len(v), 10), np.uint32)
    for j, group in enumerate(g):
        groups.take(group, out=cell[:, 2 + j])
    groups.take(np.abs(e10), out=cell[:, 8])
    # 17 digits less the trailing zeros of g4, and of g3, g2, g1 while every
    # group after them is 0000.
    shown, tail = 17 - zeros.take(g[4]), g[4] == 0
    for j in (3, 2, 1):
        shown -= tail * zeros.take(g[j])
        tail &= g[j] == 0
    key = modes.take(e10 + 300) + 2 * shown + np.signbit(v)
    data, text = cell.view(np.uint8).reshape(-1), literal.take(key, axis=0).reshape(-1)
    for mask, shift in ((left, 0), (right, 1)):
        mask = mask.take(key, axis=0).reshape(-1)[shift:]
        mask &= data[: len(mask)]
        text[shift:] |= mask
    out[:] = text.reshape(len(v), -1)[:, 5:36]
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array([b"%.17g" % x for x in v[slow].tolist()], dtype=f"S{FLOAT_WIDTH}")
        text = text.view(np.uint8).reshape(-1, FLOAT_WIDTH)
        out[slow] = np.where(text == 0, FREE, text)
