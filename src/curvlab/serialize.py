"""Deterministic output formats: 17-significant-digit CSV, JSON-lines, and
key: value text records.  Files are written atomically (temp + rename)."""

from __future__ import annotations

import json
import os
import tempfile


def fmt17(x):
    """Shortest representation that round-trips a double (17 sig digits)."""
    return f"{float(x):.17g}"


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


def csv_text(header, rows):
    """CSV with all floats at 17 significant digits."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            fmt17(v) if isinstance(v, (int, float)) or hasattr(v, "__float__")
            else str(v) for v in row))
    return "\n".join(lines) + "\n"


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
    """One sorted-key JSON object per line."""
    out = []
    for rec in records:
        if isinstance(rec, str):
            # already serialized (e.g. Verdict.to_json())
            out.append(rec)
        else:
            out.append(json.dumps(rec, sort_keys=True))
    return "\n".join(out) + "\n"
