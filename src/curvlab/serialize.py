"""Deterministic output formats: 17-significant-digit CSV, JSON-lines, and
key: value text records.  Files are written atomically (temp + rename)."""

from __future__ import annotations

import os
import tempfile

import numpy as np


def atomic_write_text(path, text):
    path = os.path.abspath(path)
    d = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header, axes, values):
    """CSV of a table keyed by the C-order product of the 1-D `axes` (the
    last axis fastest): one leading column per axis, then one column per row
    of `values` (none is allowed).  Every cell is printed at 17 significant
    digits (the shortest width that round-trips any double).  A one-axis
    table is one `%` pass over all its cells; a `%` per row costs it a third
    more.  With more axes, each axis value is formatted once and only the
    value cells go through `%`, one template per value of the first axis,
    which takes a fifth less time and half the memory of one template for
    the whole grid."""
    axes = [np.asarray(a, dtype=float) for a in axes]
    values = np.asarray(values, dtype=float)
    cells = ",%.17g" * len(values) + "\n"
    if len(axes) == 1:
        table = np.column_stack([axes[0], values.T])
        body = (("%.17g" + cells) * len(table)) % tuple(table.ravel().tolist())
        return ",".join(header) + "\n" + body
    first = ["%.17g" % v for v in axes[0].tolist()]
    tail = [""]
    for a in axes[1:]:
        strings = [",%.17g" % v for v in a.tolist()]
        tail = [key + s for key in tail for s in strings]
    slabs = values.T.reshape(len(first), len(tail) * len(values))  # per lead
    return "".join([",".join(header) + "\n"] + [
        (lead + (cells + lead).join(tail) + cells) % tuple(slab.tolist())
        for lead, slab in zip(first, slabs)])


def read_csv(path):
    """Parse a csv_text table back into header + float rows (non-numeric
    cells stay strings)."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        cells = []
        for cell in ln.split(","):
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(cells)
    return header, rows


def jsonl_text(records):
    """One already-serialized JSON object (e.g. Verdict.to_json()) per
    line."""
    return "\n".join(records) + "\n"
