"""Deterministic output formats: 17-significant-digit CSV, JSON-lines, and
key: value text records.  Files are written atomically (temp + rename)."""

from __future__ import annotations

import os
import tempfile

import numpy as np


WRITE_SLICE = 1 << 20   # characters encoded and written per write call


def chunks_of(text):
    """`text` as an iterable of str: a plain str is one chunk."""
    return (text,) if isinstance(text, str) else text


def atomic_write_text(path, text):
    """Write `text`, a str or an iterable of str chunks, as UTF-8 in slices,
    so that only one slice at a time is held encoded beside its chunk."""
    path = os.path.abspath(path)
    d = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for chunk in chunks_of(text):
                for start in range(0, len(chunk), WRITE_SLICE):
                    fh.write(chunk[start:start + WRITE_SLICE])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header, axes, values):
    """CSV of a table keyed by the C-order product of the 1-D `axes` (the
    last axis fastest): one leading column per axis, then one column per row
    of `values` (none is allowed), after a header line unless `header` is
    None (a later chunk of a table written in pieces).  Every cell is
    printed at 17 significant digits (the shortest width that round-trips
    any double).

    A one-axis table is one `%` pass over all its cells: its values (line,
    `solve` and `oracle` tables) are nearly all distinct, so looking for
    repeats would only add a sort.  A grid's values repeat (a torus table
    holds ~150 distinct doubles in 110,592 cells), so each distinct value,
    keyed by bit pattern to keep -0.0 apart from 0.0, is formatted once, as
    is each axis value; the text is one join over a list of those shared
    strings, with no per-slab text held beside it."""
    axes = [np.asarray(a, dtype=float) for a in axes]
    values = np.asarray(values, dtype=float)
    head = "" if header is None else ",".join(header) + "\n"
    if len(axes) == 1:
        cells = ",%.17g" * len(values) + "\n"
        table = np.column_stack([axes[0], values.T])
        body = (("%.17g" + cells) * len(table)) % tuple(table.ravel().tolist())
        return head + body
    first = ["%.17g" % v for v in axes[0].tolist()]
    tail = [""]
    for a in axes[1:]:
        strings = [",%.17g" % v for v in a.tolist()]
        tail = [key + s for key in tail for s in strings]
    distinct, index = np.unique(values.ravel().view(np.int64),
                                return_inverse=True)
    formatted = np.array((",%.17g" * len(distinct) % tuple(
        distinct.view(float).tolist())).split(",")[1:], dtype=object)
    # after the header, each row is its first-axis value, the rest of its
    # key, a comma and a cell per value column, and a newline
    rows = len(first) * len(tail)
    width = 2 * len(values) + 3
    pieces = [","] * (1 + rows * width)
    pieces[0] = head
    pieces[1::width] = [lead for lead in first for _ in tail]
    pieces[2::width] = tail * len(first)
    for j in range(len(values)):
        column = index[j * rows:(j + 1) * rows]
        pieces[4 + 2 * j::width] = formatted[column].tolist()
    pieces[width::width] = ["\n"] * rows
    return "".join(pieces)


def jsonl_text(records):
    """One already-serialized JSON object (e.g. Verdict.to_json()) per
    line."""
    return "\n".join(records) + "\n"
