"""A content-keyed binary sidecar for the command line's data files.

``load_data`` reads a data CSV exactly as ``load_csv`` does and keeps the
parsed columns next to it, in ``<data>.impartial.npz``, so that the next
command on the same file loads them instead of parsing the text again.
The sidecar's key is the sha256 of a format tag, the schema text, the
file's identity (device, inode and status-change time) and its bytes. It
is keyed by content, never by modification time, so an edited file or
schema is a miss whatever its size and mtime say. The identity binds the
key to this one file: no one can set a file's status-change time, so a
sidecar that arrives with its data (a clone, an archive, a copy) never
matches the copy it lands next to, even with the key its maker computed.
A hit passes the stored columns through ``make_dataset``, so every type
and finiteness check still runs.

A sidecar is used only when it is a regular file owned by the current
user and writable by no one else; a damaged, foreign, copied or
older-format one is a miss and is replaced. Only regular data files are
cached: a FIFO or ``/dev/stdin`` is read once, by ``load_csv``. A sidecar
that cannot be written (a read-only directory) is skipped silently, and
deleting one is always safe.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import stat
import tempfile
import zipfile
from pathlib import Path

import numpy as np

from .data import Categorical, Dataset, Role, Schema, format_schema, load_csv, make_dataset
from .errors import DataError

SUFFIX = ".impartial.npz"
# Part of every key: a change to the stored layout changes the tag, which
# turns every older sidecar into a miss.
_TAG = b"impartial data sidecar 1\n"
_BLOCK = 1 << 20
# What reading a damaged or foreign sidecar raises: an empty, truncated or
# non-zip file, a pickle, a member missing or of the wrong type, codes out
# of range, or columns that make_dataset refuses. Each is a miss, and the
# data file itself decides.
_DAMAGED = (
    OSError, EOFError, ValueError, LookupError, TypeError, NotImplementedError,
    zipfile.BadZipFile, DataError,
)


def load_data(path, schema: Schema) -> Dataset:
    """``load_csv(path, schema)``, through the sidecar when ``path`` is a
    regular file."""
    p = Path(path)
    key = _key(p, schema)
    if key is None:
        return load_csv(p, schema)
    sidecar = p.with_name(p.name + SUFFIX)
    data = _read(sidecar, key, schema)
    if data is None:
        data = load_csv(p, schema)
        # Stored only if the file did not change while it was parsed.
        if _key(p, schema) == key:
            _write(sidecar, key, data)
    return data


def _identity(st: os.stat_result) -> bytes:
    """Device, inode and status-change time of the data file: what a copy,
    however faithful, cannot carry."""
    return b"%d %d %d\n" % (st.st_dev, st.st_ino, st.st_ctime_ns)


def _key(p: Path, schema: Schema) -> bytes | None:
    """sha256 of the tag, the schema, the identity and the bytes of ``p``,
    read 1 MiB at a time; None when ``p`` is not a regular file or cannot
    be read."""
    text = format_schema(schema).encode()
    h = hashlib.sha256(_TAG + b"%d\n" % len(text) + text)
    buf = bytearray(_BLOCK)
    view = memoryview(buf)
    try:
        # stat first: opening a FIFO, even to look at it, would connect to
        # its writer.
        if not stat.S_ISREG(os.stat(p).st_mode):
            return None
        fd = os.open(p, os.O_RDONLY | os.O_NONBLOCK)
        try:
            st = os.fstat(fd)
            if not stat.S_ISREG(st.st_mode):
                return None
            h.update(_identity(st))
            while n := os.readv(fd, [buf]):
                h.update(view[:n])
        finally:
            os.close(fd)
    except OSError:
        return None
    return h.digest()


def _read(sidecar: Path, key: bytes, schema: Schema) -> Dataset | None:
    """The dataset stored under ``key``, or None (a miss)."""
    try:
        fd = os.open(sidecar, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
    except OSError:
        return None
    try:
        st = os.fstat(fd)
        if (
            not stat.S_ISREG(st.st_mode)
            or st.st_uid != os.getuid()
            or st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
        ):
            return None
        with open(fd, "rb", closefd=False) as fh, np.load(fh, allow_pickle=False) as z:
            if z["key"].tobytes() != key:
                return None
            columns = _columns(z, schema)
        return make_dataset(columns)
    except _DAMAGED:
        return None
    finally:
        os.close(fd)


def _columns(z, schema: Schema) -> dict:
    """Schema-ordered columns from the members ``c<i>`` (float64 values, or
    integer codes) and ``l<i>`` (the labels of a categorical column, in
    first-appearance order, as UTF-8 JSON)."""
    columns: dict[str, object] = {}
    kept = [c for c in schema.columns if c.role is not Role.IGNORE]
    for i, spec in enumerate(kept):
        values = z[f"c{i}"]
        if values.ndim != 1:
            raise ValueError(f"member c{i} is not a vector")
        if spec.categorical:
            labels = json.loads(z[f"l{i}"].tobytes())
            if not isinstance(labels, list):
                raise ValueError(f"member l{i} holds no labels")
            # make_dataset checks the codes and the labels.
            columns[spec.name] = Categorical(values, tuple(labels))
        elif values.dtype == np.float64:
            columns[spec.name] = values
        else:
            raise ValueError(f"member c{i} is not float64")
    return columns


def _write(sidecar: Path, key: bytes, data: Dataset) -> None:
    """Store ``data`` (a ``load_csv`` result) under ``key``, atomically;
    skipped on any OSError."""
    members = {"key": np.frombuffer(key, dtype=np.uint8)}
    for i, name in enumerate(data.names):
        col = data.columns[name]
        if isinstance(col, np.ndarray):
            members[f"c{i}"] = col
        else:
            members[f"c{i}"] = col.codes.astype(np.int64)
            members[f"l{i}"] = np.frombuffer(json.dumps(list(col.levels)).encode(), np.uint8)
    try:
        fd, tmp = tempfile.mkstemp(prefix=f".{sidecar.name}.", dir=sidecar.parent)
    except OSError:
        return
    try:
        with open(fd, "wb") as fh:
            np.savez(fh, **members)
        os.replace(tmp, sidecar)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if not isinstance(exc, OSError):
            raise
