"""Deterministic output formats: 17-significant-digit CSV, JSON-lines, and
key: value text records.  Files are written atomically (temp + rename)."""

from __future__ import annotations

import itertools
import math
import os
import tempfile

from .errors import CurvlabError
import numpy as np

WRITE_SLICE = 1 << 20   # characters encoded and written per write call


def chunks_of(text):
    """`text` as an iterable of str: a plain str is one chunk."""
    return (text,) if isinstance(text, str) else text


def atomic_write_text(path, text):
    """Write `text`, a str or an iterable of str chunks, as UTF-8 in slices,
    so that only one slice at a time is held encoded beside its chunk.  An
    OSError is raised as a CurvlabError naming `path`."""
    try:
        target = os.path.abspath(path)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp-",
                                   suffix="~")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                for chunk in chunks_of(text):
                    for start in range(0, len(chunk), WRITE_SLICE):
                        fh.write(chunk[start:start + WRITE_SLICE])
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as e:
        raise CurvlabError(f"cannot write '{path}': {e.strerror or e}") from None


def csv_chunks(header, axes, values):
    """CSV of a table keyed by the C-order product of the 1-D `axes` (the
    last axis fastest), as str chunks that each end a line: a header line,
    then one leading column per axis and one column per row of `values`
    (none is allowed).  Every cell is printed at 17 significant digits (the
    shortest width that round-trips any double).

    A one-axis table is one chunk, one `%` pass over all its cells: its
    values (line, `solve` and `oracle` tables) are nearly all distinct, so
    looking for repeats would only add a sort.  A grid is one chunk per
    value of every axis but the last two (a torus table at n = 3: one
    (t, x1) block of m^2 rows), the header with the first.  The keys of the
    last two axes are formatted once per table.  A grid's values repeat (a
    torus table holds ~150 distinct doubles in 110,592 cells), so each
    distinct value, keyed by bit pattern to keep -0.0 apart from 0.0, is
    formatted once per first-axis slab; a table of nearly distinct values
    then holds one slab's strings at a time, not the whole table's."""
    axes = [np.asarray(a, dtype=float) for a in axes]
    values = np.asarray(values, dtype=float)
    head = ",".join(header) + "\n"
    if len(axes) == 1:
        cells = ",%.17g" * len(values) + "\n"
        table = np.column_stack([axes[0], values.T])
        body = (("%.17g" + cells) * len(table)) % tuple(table.ravel().tolist())
        yield head + body
        return
    *lead, inner, last = [["%.17g" % v for v in a.tolist()] for a in axes]
    keys = [("," if lead else "") + a + "," + b for a in inner for b in last]
    blocks = [",".join(p) for p in itertools.product(*lead)]
    # a slab is one first-axis value's blocks; two axes are one slab
    slabs = len(axes[0]) if lead else 1
    per_slab, size = math.prod(map(len, lead[1:])), len(keys)
    cells = values.reshape(len(values), slabs, per_slab * size)
    # each row is its block's leading key, the rest of its key, a comma and
    # a cell per value column, and a newline
    width = 2 * len(values) + 3
    rows = [","] * (size * width)
    rows[1::width] = keys
    rows[width - 1::width] = ["\n"] * size
    for s in range(slabs):
        slab = cells[:, s]
        distinct, index = np.unique(slab.view(np.int64), return_inverse=True)
        formatted = np.array((",%.17g" * len(distinct) % tuple(
            distinct.view(float).tolist())).split(",")[1:], dtype=object)
        columns = formatted[index.reshape(slab.shape)].tolist()
        for b, block in enumerate(blocks[s * per_slab:(s + 1) * per_slab]):
            pieces = rows.copy()
            pieces[0::width] = [block] * size
            for j, column in enumerate(columns):
                pieces[3 + 2 * j::width] = column[b * size:(b + 1) * size]
            yield head + "".join(pieces)
            head = ""
    if head:    # a grid with no blocks is its header line alone
        yield head


def csv_text(header, axes, values):
    """The whole of `csv_chunks(header, axes, values)` as one str."""
    return "".join(csv_chunks(header, axes, values))


def jsonl_text(records):
    """One already-serialized JSON object (e.g. Verdict.to_json()) per
    line."""
    return "\n".join(records) + "\n"
