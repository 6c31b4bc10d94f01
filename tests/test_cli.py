"""CLI dispatch, output formats, determinism, and exit codes."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from curvlab import cli, ode, oracle
from curvlab.cli import build_parser, main, parse_range
from curvlab.errors import CurvlabError, DomainError
from curvlab.oracle import fd_scalar_curvature
from curvlab.polar import BaseGrid, PolarWarpField, polar_scalar_curvature
from curvlab.serialize import (WRITE_SLICE, atomic_write_text, csv_chunks,
                               csv_text)


# child interpreters import this checkout's curvlab, as pytest itself does
SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(args, tmp_path=None):
    proc = subprocess.run([sys.executable, "-m", "curvlab.cli"] + args,
                          capture_output=True, text=True, env=CHILD_ENV)
    return proc.returncode, proc.stdout, proc.stderr


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


class TestParseRange:
    def test_log_spacing(self):
        vals = parse_range("1:100:3")
        assert np.allclose(vals, [1.0, 10.0, 100.0])

    def test_single_value(self):
        assert parse_range("4.5").tolist() == [4.5]

    def test_bad_ranges(self):
        for bad in ("1:2", "0:5:3", "5:1:3"):
            with pytest.raises(DomainError):
                parse_range(bad)

    @pytest.mark.parametrize("text, why", [
        ("abc", "'abc' is not a number"),
        ("3:5:abc", "'abc' is not an integer"),
        ("3:5:2.5", "'2.5' is not an integer"),
        ("3:x:2", "'x' is not a number"),
        ("1.1:inf:3", "'inf' is not finite"),
        ("nan", "'nan' is not finite"),
    ])
    def test_bad_parts_are_named(self, text, why):
        # these used to end in a bare ValueError, or in rk45's late
        # "need t_span[0] < t_span[1]" for an infinite endpoint
        with pytest.raises(DomainError) as err:
            parse_range(text)
        assert str(err.value) == f"bad range '{text}': {why}"

    @pytest.mark.parametrize("args", [
        ["sweep", "--c", "1.1:inf:3"],
        ["curvature", "--profile", "t", "--n", "3", "--t", "3:5:2.5"]],
        ids=lambda a: a[0])
    def test_bad_range_is_one_error_line(self, args, capsys):
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: bad range '{args[-1]}': ")
        assert captured.err.count("\n") == 1


class TestCurvature:
    def test_hyperbolic_csv(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(["curvature", "--profile", "exp(t)", "--n", "3",
                     "--base-R", "0", "--t", "2.5:10:20",
                     "--out", str(out), "--domain-min", "0.5"])
        assert code == 0
        header, rows = read_csv(str(out))
        assert header == ["t", "R"]
        assert all(abs(row[1] + 12.0) < 1e-9 for row in rows)

    def test_csv_round_trip_bits(self, tmp_path):
        out = tmp_path / "r.csv"
        main(["curvature", "--profile", "t*ln(t)", "--n", "3",
              "--base-R", "-6", "--t", "2.5:50:33", "--out", str(out)])
        header, rows = read_csv(str(out))
        # re-formatting the parsed values reproduces the file exactly
        table = np.array(rows)
        assert csv_text(header, [table[:, 0]], table[:, 1:].T) == out.read_text()

    def test_missing_n_is_usage_error(self):
        code, _, err = run_cli(["curvature", "--profile", "t",
                                "--base", "torus", "--t", "3:5:2"])
        assert code == 2
        assert "--n" in err

    @pytest.mark.parametrize("args", [
        ["curvature", "--profile", "t", "--t", "3"],
        ["oracle", "--profile", "t", "--t", "3"],
        ["solve"],
        ["raylength", "--u", "t^-2"]], ids=lambda args: args[0])
    def test_n_is_a_required_flag(self, args):
        code, out, err = run_cli(args)
        assert (code, out) == (2, "")
        assert err.endswith(f"curvlab {args[0]}: error: "
                            "the following arguments are required: --n\n")

    def test_domain_error_exit_1(self):
        code, _, err = run_cli(["curvature", "--profile", "ln(t)-10",
                                "--n", "3", "--base-R", "0", "--t", "3:5:2"])
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("base", [
        ["--profile", "exp(exp(t))"],
        ["--profile", "exp(exp(t)) + 0*x1", "--base", "torus", "--m", "8"]])
    def test_overflow_is_a_domain_error(self, base, tmp_path):
        # exp(exp(t)) overflows from t ~ 6.6 on; nothing may be written
        out = tmp_path / "r.csv"
        code, _, err = run_cli(["curvature", "--n", "3", "--t", "3:10:5",
                                "--out", str(out)] + base)
        assert code == 1
        assert "error: curvature is not finite at t = 7.40082804492285" in err
        assert not out.exists()


class TestCertify:
    def test_oscillation_verdict_jsonl(self, tmp_path):
        out = tmp_path / "v.jsonl"
        code = main(["certify", "--kind", "oscillation", "--c", "1.2",
                     "--t0", "3", "--out", str(out)])
        assert code == 0
        rec = json.loads(out.read_text())
        assert rec["kind"] == "nonexistence"

    def test_inconclusive_exits_zero(self):
        code, stdout, _ = run_cli(["certify", "--kind", "thm413", "--n", "3",
                                   "--c", "7", "--b", "1"])
        assert code == 0
        assert json.loads(stdout)["kind"] == "inconclusive"

    def test_text_format(self):
        code, stdout, _ = run_cli(["certify", "--kind", "thm48",
                                   "--b", "0.5", "--format", "text"])
        assert code == 0
        assert stdout.startswith("kind: nonexistence")


GOLDEN = json.loads((Path(__file__).parent / "data" / "certify_golden.json")
                    .read_text())


@pytest.mark.parametrize("fmt", ["jsonl", "text"])
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_certify_golden_bytes(case, fmt, capsys):
    """certify stdout for one valid job per kind, every hypothesis-violation
    case and each thm38 stage, recorded before the certificates shared one
    skeleton."""
    assert main(GOLDEN[case]["args"] + ["--format", fmt]) == 0
    assert capsys.readouterr().out == GOLDEN[case][fmt]


ORACLE_GOLDEN = json.loads((Path(__file__).parent / "data" / "oracle_golden.json")
                           .read_text())


@pytest.mark.parametrize("case", sorted(ORACLE_GOLDEN))
def test_oracle_golden_bytes(case, capsys):
    """oracle stdout on flat, sphere and hyperbolic bases at n = 3..7, the
    torus (fd2 and spectral) at n = 3 and 4, integer-power profiles and two
    non-default steps, recorded before the stencil was evaluated in one
    batch."""
    assert main(ORACLE_GOLDEN[case]["args"]) == 0
    assert capsys.readouterr().out == ORACLE_GOLDEN[case]["stdout"]


TORUS_ORACLE_CASES = sorted(c for c in ORACLE_GOLDEN if c.startswith("torus"))


@pytest.mark.parametrize("case", TORUS_ORACLE_CASES)
def test_torus_oracle_takes_the_closed_form_at_its_node(case, monkeypatch,
                                                        capsys):
    """The torus oracle never computes a whole curvature slice: with the
    whole-grid BaseGrid.laplacian made to raise, its bytes are still the
    golden ones."""
    def whole_slice(grid, arr):
        raise AssertionError("the torus oracle computed a whole slice")

    monkeypatch.setattr(BaseGrid, "laplacian", whole_slice)
    args = ORACLE_GOLDEN[case]["args"]
    assert main(args) == 0
    assert capsys.readouterr().out == ORACLE_GOLDEN[case]["stdout"]
    # the guard is live: curvature on the same flags, less --x0, meets it
    x0 = args.index("--x0")
    with pytest.raises(AssertionError, match="whole slice"):
        main(["curvature"] + args[1:x0] + args[x0 + 2:])


def test_torus_oracle_checks_the_whole_slice(capsys):
    # f > 0 at the node nearest x0 = 0, but not at x1 = pi
    assert main(["oracle", "--profile", "t*(0.5+cos(x1))", "--n", "3",
                 "--base", "torus", "--m", "8", "--t", "3", "--x0", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: field 't*(0.5+cos(x1))' is nonpositive at t = 3.0\n"


TABLE_GOLDEN = json.loads((Path(__file__).parent / "data" / "table_golden.json")
                          .read_text())


@pytest.mark.parametrize("case", sorted(TABLE_GOLDEN))
def test_table_golden_bytes(case, capsys):
    """curvature tables on constant, hyperbolic and sphere bases (stdout)
    and on the torus (fd2 and spectral, n = 3 and 4), recorded while
    csv_text still formatted one cell at a time, and two solve tables
    (sha256), recorded when monotone_solve took its shift per node and
    re-recorded when du became second order at both ends.  The
    constant-warp torus tables (every cell +0) were recorded while the torus
    closed form still took a base_scalar argument."""
    assert main(TABLE_GOLDEN[case]["args"]) == 0
    out = capsys.readouterr().out
    if "stdout" in TABLE_GOLDEN[case]:
        assert out == TABLE_GOLDEN[case]["stdout"]
    else:
        assert out.count("\n") - 1 == TABLE_GOLDEN[case]["rows"]
        assert hashlib.sha256(out.encode()).hexdigest() == \
            TABLE_GOLDEN[case]["sha256"]


def per_cell_csv_text(header, rows):
    """The writer csv_text replaced: each cell type-checked and formatted
    on its own."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            f"{float(v):.17g}" if isinstance(v, (int, float))
            or hasattr(v, "__float__") else str(v) for v in row))
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.5e-310, 1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308]
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(EDGE_FLOATS))


def product_table(axes, values):
    """The (rows, columns) table csv_text writes, flattened as
    cmd_curvature once built it: np.repeat of the first axis, np.tile of
    the meshgrid nodes of the others, then the value columns."""
    nodes = np.stack([x.ravel() for x in np.meshgrid(*axes[1:], indexing="ij")],
                     axis=1) if len(axes) > 1 else np.empty((1, 0))
    return np.column_stack([np.repeat(axes[0], len(nodes)),
                            np.tile(nodes, (len(axes[0]), 1)), values.T])


def assert_chunks_match_per_cell_writer(header, axes, values, table):
    """csv_chunks joins to the per-cell text, one chunk per value of every
    axis but the last two (a one-axis table is one chunk), the header line
    first, and every chunk ends a line."""
    chunks = list(csv_chunks(header, axes, values))
    assert "".join(chunks) == per_cell_csv_text(header, table)
    assert len(chunks) == int(np.prod([len(a) for a in axes[:-2]]))
    assert chunks[0].startswith(",".join(header) + "\n")
    assert all(chunk.endswith("\n") for chunk in chunks)


@st.composite
def keyed_tables(draw):
    """1-4 key axes (four is the n = 3 torus shape) and a values array with
    one row per value column.  One axis of 1-12 values with 0-11 value
    columns is every table of at most 12 x 12 cells; later axes of 1-6
    values keep the grid at 144 rows or fewer, and the value columns at 144
    cells or fewer."""
    axes = [draw(hnp.arrays(np.float64, st.integers(1, 12), elements=FLOATS))]
    for _ in range(draw(st.integers(0, 3))):
        rows = int(np.prod([len(a) for a in axes]))
        size = st.integers(1, max(1, min(6, 144 // rows)))
        axes.append(draw(hnp.arrays(np.float64, size, elements=FLOATS)))
    rows = int(np.prod([len(a) for a in axes]))
    columns = draw(st.integers(0, max(1, min(11, 144 // rows))))
    return axes, draw(hnp.arrays(np.float64, (columns, rows), elements=FLOATS))


@settings(max_examples=120, deadline=None)
@given(keyed=keyed_tables())
def test_csv_text_matches_per_cell_writer_and_round_trips(keyed, tmp_path_factory):
    axes, values = keyed
    table = product_table(axes, values)
    header = [f"c{j}" for j in range(table.shape[1])]
    text = csv_text(header, axes, values)
    assert text == per_cell_csv_text(header, table)
    assert_chunks_match_per_cell_writer(header, axes, values, table)
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_text(text)
    back_header, rows = read_csv(str(path))
    assert back_header == header
    back = np.array(rows, dtype=float).reshape(table.shape)
    assert back.tobytes() == table.tobytes()


@st.composite
def repeating_grids(draw):
    """2-4 key axes whose later axes hold 4-6, 1-4 and 1-3 values, and 0-3
    value columns drawn from a pool of three doubles, 0.0 and -0.0 among
    them: every first-axis slab has at least four cells per column, so it
    repeats a value, and on four axes it spans several chunks."""
    axes = [draw(hnp.arrays(np.float64, st.integers(1, 4), elements=FLOATS)),
            draw(hnp.arrays(np.float64, st.integers(4, 6), elements=FLOATS))]
    for most in (4, 3)[:draw(st.integers(0, 2))]:
        axes.append(draw(hnp.arrays(np.float64, st.integers(1, most),
                                    elements=FLOATS)))
    pool = st.sampled_from([0.0, -0.0, draw(FLOATS)])
    rows = int(np.prod([len(a) for a in axes]))
    columns = draw(st.integers(0, 3))
    return axes, draw(hnp.arrays(np.float64, (columns, rows), elements=pool))


@settings(max_examples=120, deadline=None)
@given(grid=repeating_grids())
def test_csv_text_formats_repeated_grid_values_like_the_per_cell_writer(grid):
    axes, values = grid
    table = product_table(axes, values)
    header = [f"c{j}" for j in range(table.shape[1])]
    assert csv_text(header, axes, values) == per_cell_csv_text(header, table)
    assert_chunks_match_per_cell_writer(header, axes, values, table)


@pytest.mark.parametrize("empty", range(4))
def test_csv_text_of_a_grid_with_an_empty_axis_is_its_header(empty):
    axes = [[1.0], [2.0, 3.0], [4.0], [5.0]]
    axes[empty] = []
    assert csv_text(["a", "b", "c", "d", "v"], axes, [[]]) == "a,b,c,d,v\n"


def test_atomic_write_text_writes_every_slice(tmp_path):
    # three whole slices and an odd remainder, with multi-byte characters on
    # both sides of the first slice boundary
    text = "a" * (WRITE_SLICE - 2) + "é€😀ü" + "b" * (2 * WRITE_SLICE + 12345)
    path = tmp_path / "t.csv"
    atomic_write_text(str(path), text)
    assert path.read_bytes() == text.encode()
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_atomic_write_text_writes_chunks_in_order(tmp_path):
    # a generator of chunks, one longer than a slice, one empty, one
    # multi-byte
    chunks = ["h\n", "a" * (WRITE_SLICE + 3), "", "é€😀\n"]
    path = tmp_path / "t.csv"
    atomic_write_text(str(path), (chunk for chunk in chunks))
    assert path.read_bytes() == "".join(chunks).encode()
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_atomic_write_text_names_a_path_it_cannot_write(tmp_path, monkeypatch):
    # the path as given, not made absolute, and no temp file left behind
    monkeypatch.chdir(tmp_path)
    with pytest.raises(CurvlabError) as exc:
        atomic_write_text("missing/t.csv", "a\n")
    assert str(exc.value) == ("cannot write 'missing/t.csv': "
                              "No such file or directory")
    (tmp_path / "d").mkdir()
    with pytest.raises(CurvlabError) as exc:
        atomic_write_text("d", "a\n")
    assert str(exc.value) == "cannot write 'd': Is a directory"
    assert list((tmp_path / "d").iterdir()) == []


# the warp of a torus table whose cells are nearly all distinct (91,866
# distinct doubles in the 110,592 cells of the fd2 table below)
MIXED_WARP = ("t*(3+0.2*sin(x1)*cos(x2)+0.15*cos(2*x2+x3)"
              "+0.1*sin(x1-3*x3))")
TORUS_TABLE = ["curvature", "--n", "3", "--base", "torus", "--m", "24",
               "--t", "3:10:8"]


class TestTorusTableInSlices:
    """A torus table is formatted and written one t-slice at a time."""

    @pytest.mark.parametrize("profile, stencil", [
        ("t*(2+0.3*sin(x1)*cos(x3))", "fd2"),
        ("t*(2+0.3*sin(x1)*cos(x3))", "spectral"),
        (MIXED_WARP, "fd2"),
    ], ids=["fd2", "spectral", "mixed-fd2"])
    def test_bytes_equal_one_csv_text_over_the_grid(self, profile, stencil,
                                                    tmp_path, capsys):
        args = TORUS_TABLE + ["--profile", profile, "--stencil", stencil]
        base = BaseGrid(3, 24, stencil=stencil)
        f = PolarWarpField(profile, base, domain_min=2.0)
        t_vals = parse_range("3:10:8")
        values = np.concatenate([polar_scalar_curvature(f, float(t)).ravel()
                                 for t in t_vals])
        whole = csv_text(["t", "x1", "x2", "x3", "value"],
                         [t_vals] + [base.axis_points] * 3, [values])
        assert main(args) == 0
        assert capsys.readouterr().out == whole
        out = tmp_path / "r.csv"
        assert main(args + ["--out", str(out)]) == 0
        assert out.read_text() == whole

    def test_overflow_writes_nothing_to_stdout(self, capsys):
        # every slice is checked before the first is written
        assert main(["curvature", "--profile", "exp(exp(t)) + 0*x1", "--n",
                     "3", "--base", "torus", "--m", "8", "--t", "3:10:5"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: curvature is not finite at t = 7.400828044922854\n")

    def test_peak_memory_stays_below_the_table(self, tmp_path):
        # a table is formatted and written one block of rows at a time, so
        # only a block's text and a slab's formatted values are held;
        # MIXED_WARP's values are nearly all distinct, which fills the slab
        out = tmp_path / "r.csv"
        for profile in ("t*(2+0.3*sin(x1)*cos(x3))", MIXED_WARP):
            args = TORUS_TABLE + ["--profile", profile, "--out", str(out)]
            tracemalloc.start()
            try:
                assert main(args) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < out.stat().st_size / 2, profile


class TestOutputErrors:
    # sizes past any address space (over 128 PiB), so that the allocation
    # fails before a page is touched, whatever the host's overcommit policy
    @pytest.mark.parametrize("args", [
        ["--t", "1:2:100000000000000000"],
        ["--base", "torus", "--m", "300000", "--t", "3:4:2"],
    ], ids=["t-samples", "torus-m"])
    def test_out_of_memory_is_one_error_line(self, args, tmp_path, capsys):
        out = str(tmp_path / "r.csv")
        assert main(["curvature", "--profile", "t", "--n", "3", "--out", out]
                    + args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Unable to allocate ")
        assert " PiB for an array with shape (" in captured.err
        assert captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("where, reason", [
        ("missing/x.csv", "No such file or directory"),
        (".", "Is a directory"),
    ], ids=["missing-dir", "directory"])
    def test_unwritable_out_is_one_error_line(self, where, reason, tmp_path,
                                              capsys):
        (tmp_path / "d").mkdir()
        out = str(tmp_path / "d" / where)
        assert main(["curvature", "--profile", "t", "--n", "3",
                     "--t", "3:5:3", "--out", out]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: cannot write '{out}': {reason}\n")
        # no temp file and no .meta.json, in the directory or beside it
        assert [p.name for p in tmp_path.iterdir()] == ["d"]
        assert list((tmp_path / "d").iterdir()) == []

    @pytest.mark.parametrize("lines_read", [0, 1], ids=["at-once", "one-line"])
    def test_closed_stdout_ends_quietly(self, lines_read):
        proc = subprocess.Popen(
            [sys.executable, "-m", "curvlab.cli"] + TORUS_TABLE
            + ["--profile", "t*(2+0.3*sin(x1)*cos(x3))"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV)
        for _ in range(lines_read):
            assert proc.stdout.readline() == b"t,x1,x2,x3,value\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (1, b"")


class TestCertifyInputErrors:
    @pytest.mark.parametrize("kind, args, flag", [
        ("oscillation", [], "--c"),
        ("thm48", [], "--b"),
        ("thm413", ["--b", "1"], "--c"),
        ("thm418", ["--C1", "1", "--C", "1", "--b", "1"], "--C2"),
        ("thm112", [], None),       # eps defaults to 1: nothing is required
        ("thm38", ["--delta", "1", "--profile", "t*ln(t)"], "--kappa-sq"),
        ("barrier33", ["--n", "3"], "--kappa-sq"),
    ])
    def test_missing_parameter_is_named(self, kind, args, flag, capsys):
        code = main(["certify", "--kind", kind] + args)
        captured = capsys.readouterr()
        if flag is None:
            assert code == 0 and json.loads(captured.out)["kind"]
            return
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {kind} requires {flag}\n"

    @pytest.mark.parametrize("kind, args, flag", [
        ("thm413", ["--c", "1", "--b", "1", "--T", "5"], "--T"),
        ("thm48", ["--b", "1", "--T", "5"], "--T"),
        ("thm418", ["--C1", "1", "--C2", "1", "--C", "1", "--b", "1",
                    "--kappa-sq", "2"], "--kappa-sq"),
        ("thm38", ["--kappa-sq", "6", "--delta", "1", "--profile", "t",
                   "--base-R", "-6"], "--base-R"),
        ("oscillation", ["--c", "1.2", "--b", "1"], "--b"),
        ("barrier33", ["--kappa-sq", "6", "--eps", "1"], "--eps"),
        ("oscillation", ["--c", "1.2", "--n", "2"], "--n"),
    ])
    def test_unread_flag_is_named(self, kind, args, flag, capsys):
        assert main(["certify", "--kind", kind] + args) == 1
        assert capsys.readouterr().err == f"error: {kind} does not read {flag}\n"

    @pytest.mark.parametrize("kind, args", [
        ("oscillation", ["--c", "1.2"]),
        ("thm48", ["--b", "1"]),
        ("thm413", ["--c", "1", "--b", "1"]),
        ("thm418", ["--C1", "1", "--C2", "1", "--C", "1", "--b", "1"]),
        ("thm112", []),
        ("barrier33", ["--kappa-sq", "6"]),
    ])
    def test_domain_min_is_unread_without_a_warp(self, kind, args, tmp_path,
                                                 capsys):
        # --domain-min is the domain of a warp --profile, which only thm38
        # and barrier33 read, and barrier33 only when given; --domain-min is
        # refused on the command line and from a config
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("domain_min = 7\n")
        argv = ["certify", "--kind", kind] + args
        for extra in (["--domain-min", "7"], ["--config", str(cfg)]):
            assert main(argv + extra) == 1
            assert capsys.readouterr() == (
                "", f"error: {kind} does not read --domain-min\n")
        assert main(argv) == 0

    @pytest.mark.parametrize("argv", [
        ["thm38", "--kappa-sq", "6", "--delta", "1", "--profile", "t*ln(t)"],
        ["barrier33", "--kappa-sq", "6", "--profile", "t^2"],
    ], ids=lambda a: a[0])
    def test_domain_min_sets_the_warp_domain(self, argv, capsys):
        # not given, the warp keeps parse_profile's domain t > 2; given as
        # 2, the verdict is the same
        verdicts = []
        for extra in ([], ["--domain-min", "2"]):
            assert main(["certify", "--kind"] + argv + extra) == 0
            verdicts.append(capsys.readouterr().out)
        assert verdicts[0] == verdicts[1]
        assert main(["certify", "--kind"] + argv + ["--domain-min", "5"]) == 1
        # the first t below the domain is t0 = 3
        assert capsys.readouterr().err == (
            f"error: {argv[0]}: t must exceed domain_min = 5.0 at t = 3.0\n")

    @pytest.mark.parametrize("args", [
        ["oscillation", "--c", "0.8", "--T", "2.5"],
        ["oscillation", "--c", "1.2", "--t0", "5", "--T", "5"],
        ["thm38", "--kappa-sq", "6", "--delta", "1", "--profile", "t*ln(t)",
         "--T", "2.5"],
        ["barrier33", "--kappa-sq", "6", "--t0", "5", "--T", "4"],
    ], ids=lambda a: a[0])
    def test_reversed_window_fails_up_front(self, args, capsys):
        assert main(["certify", "--kind"] + args) == 1
        assert capsys.readouterr().err == f"error: {args[0]}: need t0 < T\n"

    def test_every_declared_parameter_has_a_flag(self):
        # a parameter with no flag is one no user can set: the comparison
        # ODEs' initial data were such parameters.  f is read from
        # --profile, and t0, which every kind takes, has its own flag
        declared = {"profile" if name == "f" else name
                    for kind in ode.CERTIFICATE_KINDS
                    for names in ode.comparison_parameters(kind)
                    for name in names}
        assert declared - {"t0"} == set(cli._CERTIFY_FLAGS)

    def test_non_finite_witness_is_named_with_the_kind(self, monkeypatch,
                                                       capsys):
        monkeypatch.setattr(ode, "comparison_certificate", lambda kind, p:
                            ode.Verdict("inconclusive",
                                        witnesses={"x": float("inf")}))
        assert main(["certify", "--kind", "thm48", "--b", "1"]) == 1
        assert capsys.readouterr() == (
            "", "error: thm48: witness x is not finite\n")

    def test_sweep_reversed_window(self, capsys):
        assert main(["sweep", "--c", "0.5:2:3", "--T", "2.5"]) == 1
        assert capsys.readouterr().err == "error: need t0 < T\n"

    @pytest.mark.parametrize("args", [
        ["thm48", "--b", "1", "--t0", "-3"],
        ["thm413", "--c", "1", "--b", "1", "--t0", "-30"],
        ["thm418", "--C1", "1", "--C2", "1", "--C", "1", "--b", "1",
         "--t0", "0"],
        ["thm112", "--t0", "-1"],
        ["barrier33", "--kappa-sq", "6", "--t0", "-1"],
    ], ids=lambda a: a[0])
    def test_nonpositive_t0_fails_up_front(self, args, tmp_path, capsys):
        # thm48 used to certify a crossing at t = -1.43, thm413 and barrier33
        # to fail late inside the integrator
        out = tmp_path / "c.jsonl"
        assert main(["certify", "--kind"] + args + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {args[0]}: need t0 > 0\n"
        assert not out.exists()

    def test_thm38_overflow_is_a_domain_error(self, tmp_path, capsys):
        # f f'' = exp(2t) overflows past t ~ 355 on the default [3, 1e4]:
        # an error naming the first such grid t, not a NaN witness
        out = tmp_path / "c.jsonl"
        code = main(["certify", "--kind", "thm38", "--kappa-sq", "6",
                     "--delta", "1", "--profile", "exp(t)", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: thm38: f f'' is not finite at t = 365.77842061829665\n")
        assert not out.exists()


class TestCertificateWindows:
    """Parameters whose search window overflows or rounds to nothing used to
    end in a bare OverflowError or ZeroDivisionError traceback, or in rk45's
    late "need t_span[0] < t_span[1]".  So did a window on which a
    right-hand side's t^2 overflows; one that reached that point only as it
    grew read t^2 as inf, and barrier33's hypothesis check then passed on
    nan margins."""

    @pytest.mark.parametrize("args, named", [
        (["thm418", "--C1", "1e300", "--C2", "1", "--C", "1", "--b", "1"],
         "C1 = 1e+300"),
        (["thm418", "--C1", "1", "--C2", "1", "--C", "1", "--b", "1e-300"],
         "b = 1e-300"),
        (["thm418", "--C1", "1", "--C2", "1e300", "--C", "1", "--b", "1"],
         "C2 = 1e+300"),
        (["thm48", "--b", "1e300"], "b = 1e+300"),
        (["thm48", "--b", "1", "--t0", "1e300"], "t0 = 1e+300"),
        (["oscillation", "--c", "1e300"], "c = 1e+300"),
        (["oscillation", "--c", "0.5", "--t0", "2e4"], "t0 = 20000.0"),
        (["thm413", "--c", "1", "--b", "1", "--t0", "1e200"], "t0 = 1e+200"),
        (["thm413", "--c", "1", "--b", "1", "--t0", "1e152"],
         "t^2 overflows a float on the growth search window [1e+152, 1e+156]"),
        (["thm112", "--t0", "1e200"], "t0 = 1e+200"),
        # b^2 and eps^2 overflow: rk45's "right-hand side is not finite at
        # t0 = 3.0", which names neither kind nor parameter
        (["thm413", "--c", "1", "--b", "1e300"],
         "b = 1e+300: b^2 = inf is not a positive float"),
        (["thm112", "--eps", "1e300"],
         "eps = 1e+300: eps^2 = inf is not a positive float"),
        (["thm112", "--eps", "1e-300"],
         "eps = 1e-300: eps^2 = 0.0 is not a positive float"),
        (["barrier33", "--kappa-sq", "6", "--t0", "1e200", "--T", "1e201"],
         "t0 = 1e+200"),
        (["barrier33", "--kappa-sq", "6", "--T", "1e160", "--profile", "t",
          "--base-R", "-6"], "T = 1e+160"),
        # t0^2 below the normal floats: a ZeroDivisionError traceback at
        # 1e-300, and rk45's "right-hand side is not finite at t0", which
        # names no kind, at 1e-160
        (["thm413", "--c", "1.2", "--b", "1.2", "--t0", "1e-300"],
         "t^2 underflows a float on the growth search window [1e-300, "),
        (["thm413", "--c", "1.2", "--b", "1.2", "--t0", "1e-160"],
         "t^2 underflows a float on the growth search window [1e-160, "),
        (["thm112", "--t0", "1e-300"],
         "t^2 underflows a float on the search window [1e-300, "),
        (["barrier33", "--kappa-sq", "3", "--t0", "1e-300"],
         "t^2 underflows a float on the growth search window [1e-300, "),
    ], ids=["thm418-C1", "thm418-b", "thm418-C2", "thm48-b", "thm48-t0",
            "oscillation-c", "oscillation-t0", "thm413-t0", "thm413-growth",
            "thm112-t0", "thm413-b-squared", "thm112-eps-squared",
            "thm112-eps-squared-underflow", "barrier33-t0", "barrier33-hypothesis",
            "thm413-t0-underflow", "thm413-t0-subnormal", "thm112-t0-underflow",
            "barrier33-t0-underflow"])
    def test_named_before_integrating(self, args, named, tmp_path, capsys,
                                      monkeypatch):
        def integrate(*a, **kw):
            raise AssertionError("integrated on a window floats cannot hold")

        monkeypatch.setattr(ode, "solve_ivp", integrate)
        out = tmp_path / "c.jsonl"
        assert main(["certify", "--kind"] + args + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {args[0]} with ")
        assert named in captured.err and captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("t0", ["1e16", "1e150"])
    def test_crossing_that_rounds_to_t0_is_named(self, t0, tmp_path, capsys):
        # the crossing, ~2.4 past t0, is below the float spacing at t0, so
        # the event search stopped at t0 and reported F(t0) = 1 > 0 as a
        # crossing; the window [t0, 2 t0] itself is fine
        out = tmp_path / "c.jsonl"
        args = ["certify", "--kind", "thm413", "--c", "1", "--b", "1",
                "--t0", t0, "--out", str(out)]
        assert main(args) == 1
        captured = capsys.readouterr()
        shown = repr(float(t0))
        assert captured.out == ""
        assert captured.err == (
            f"error: thm413 with t0 = {shown}: the crossing found at {shown} "
            f"is not past t0 = {shown} in floating point\n")
        assert not out.exists()

    def test_crossing_past_large_t0_still_certifies(self, capsys):
        assert main(["certify", "--kind", "thm413", "--c", "1", "--b", "1",
                     "--t0", "1e15"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["kind"] == "nonexistence"
        assert record["witnesses"]["crossings"][0] > 1e15



@st.composite
def certify_argv(draw):
    """certify arguments: a kind, and for each flag the kind reads, from its
    declaration, a value or nothing, with edge values among them (a required
    flag left out, a reversed window); now and then a flag it does not read."""
    kind = draw(st.sampled_from(ode.CERTIFICATE_KINDS))
    required, optional = ode.comparison_parameters(kind)
    flags = ["profile" if name == "f" else name for name in required + optional]
    if draw(st.integers(0, 9)) == 0:
        flags.append(draw(st.sampled_from(cli._CERTIFY_FLAGS)))
    argv = ["certify", "--kind", kind]
    for name in flags:
        if draw(st.integers(0, 9)) < (1 if name in required else 3):
            continue
        if name == "n":
            value = draw(st.sampled_from([2, 3, 4, 40, 0, -1]))
        elif name == "profile":
            value = draw(st.sampled_from(["t", "t*ln(t)", "t^2", "exp(t)",
                                          "2 - t", "1/(t-4)+5"]))
        elif draw(st.integers(0, 2)) == 0:
            value = draw(st.sampled_from([0.0, -1.0, 1e-300, 1e300]))
        else:
            value = draw(st.floats(0.05, 60.0))
        argv.append(f"{cli._flag(name)}={value}")
    return argv


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


class TestCertifyContract:
    """The certify contract, on kinds and flags drawn from the certificate
    declaration: exit 0 with one strict JSON record on stdout, or exit 1 with
    exactly one error line on stderr that names the kind once, first, and
    never a traceback."""

    @settings(max_examples=400, deadline=None)
    @given(argv=certify_argv())
    def test_exit_and_output(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 0:
            assert err.getvalue() == ""
            assert out.getvalue().count("\n") == 1
            _strict_json(out.getvalue())
        else:
            assert code == 1
            assert out.getvalue() == ""
            kind = argv[2]
            assert err.getvalue().startswith(f"error: {kind}")
            assert err.getvalue().count(kind) == 1
            assert err.getvalue().count("\n") == 1
            assert err.getvalue().endswith("\n")

    # certify errors whose line used to name no kind
    @pytest.mark.parametrize("args, err", [
        (["barrier33", "--kappa-sq", "1e300"],
         "barrier33: integrator failed: Required step size is less than "
         "spacing between numbers."),
        (["thm48", "--b", "1e-300"],
         "thm48 with b = 1e-300, t0 = 3.0: no crossing found for "
         "F'' = -b^2 F"),
        (["thm38", "--kappa-sq", "6", "--delta", "1", "--profile",
          "exp(exp(t))"], "thm38: f f'' is not finite at t = 6.04026359601155"),
        (["oscillation", "--c", "2", "--t0", "1e-300"],
         "oscillation: need t0 > 2"),
    ], ids=["barrier33-integrator", "thm48-no-crossing", "thm38-overflow",
            "oscillation-domain"])
    def test_error_names_the_kind(self, args, err, capsys):
        assert main(["certify", "--kind"] + args) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")

    # thm38 used to copy the total of a ray length it could not certify
    # finite into its witnesses as inf or nan, which reached the JSON as
    # Infinity or NaN; it writes null now, as RayLengthReport.to_json does
    @pytest.mark.parametrize("flags", [
        ["--kappa-sq", "6", "--delta", "1", "--profile", "t^0.3*(1+(t/30)^8)",
         "--T", "30"],
        ["--kappa-sq", "1e300", "--delta", "1e-300", "--profile", "t*ln(t)",
         "--T", "1e300"],
    ], ids=["divergent", "undetermined"])
    def test_thm38_ray_total_is_strict_json(self, flags, capsys):
        assert main(["certify", "--kind", "thm38"] + flags) == 0
        witnesses = _strict_json(capsys.readouterr().out)["witnesses"]
        assert witnesses["ray_verdict"] != "finite"
        assert witnesses["ray_total"] is None


def _takes_a_float(action):
    try:
        return isinstance(action.type("0.5"), float)
    except (TypeError, ValueError):
        return False


def float_options():
    """(subcommand, flag) for every option of every subcommand whose type
    parses a float, so a flag added later is covered too."""
    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    return [(name, action.option_strings[0])
            for name, sub in subcommands.items()
            for action in sub._actions if _takes_a_float(action)]


class TestNonFiniteFlags:
    """nan and inf used to pass every float flag: into a NaN JSON token, a
    nan CSV cell, a late integrator message or a traceback."""

    def test_every_float_flag_is_walked(self):
        found = set(float_options())
        assert {("certify", "--b"), ("oracle", "--h"), ("oracle", "--x0"),
                ("solve", "--R-const"), ("sweep", "--t0"),
                ("curvature", "--domain-min")} <= found

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command, flag", float_options(),
                             ids=lambda x: x)
    def test_non_finite_value_is_a_usage_error(self, command, flag, value,
                                               capsys):
        # flag=value, so that argparse hands "-inf" to the flag's type
        with pytest.raises(SystemExit) as exc:
            main([command, f"{flag}={value}"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith(f"usage: curvlab {command}")
        assert err.endswith(
            f"error: argument {flag}: '{value}' is not a finite number\n")
        assert "Traceback" not in err

    def test_config_value_goes_through_the_same_type(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("command=certify\nkind=thm48\nb=nan\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --b: 'nan' is not a finite number\n")

    def test_non_numeric_value_keeps_argparse_wording(self, capsys):
        with pytest.raises(SystemExit):
            main(["certify", "--kind", "thm48", "--b", "abc"])
        assert capsys.readouterr().err.endswith(
            "error: argument --b: invalid float value: 'abc'\n")


class TestCleanErrors:
    """Input that used to end in an OverflowError or IndexError traceback,
    or print numpy warnings ahead of its error line."""

    @pytest.mark.parametrize("args, message", [
        (["certify", "--kind", "oscillation", "--c", "1.0001"],
         "oscillation: c = 1.0001 is too close to 1"),
        (["sweep", "--c", "1.00001:1.2:3"], "c = 1.00001 is too close to 1"),
        # from c ~ 8.1e32 the first closed-form zero rounds onto t0 = 3
        (["certify", "--kind", "oscillation", "--c", "9e32"],
         "oscillation with c = 9e+32, t0 = 3.0, T = None: the crossings [3.0, "),
        (["solve", "--n", "3", "--points", "0"], "need at least 3 grid points"),
        (["solve", "--n", "3", "--points", "1"], "need at least 3 grid points"),
        (["solve", "--n", "3", "--points", "2"], "need at least 3 grid points"),
        # radius^2 underflows: a ZeroDivisionError in BaseGeometry.sphere
        (["curvature", "--profile", "t", "--n", "3", "--base", "sphere",
          "--radius", "1e-300", "--t", "3:10:2"],
         "sphere radius 1e-300 is too small: n(n-1)/radius^2 overflows"),
        (["oracle", "--profile", "t", "--n", "3", "--base", "sphere",
          "--radius", "1e-300", "--t", "3:10:2"],
         "sphere radius 1e-300 is too small: n(n-1)/radius^2 overflows"),
        # the closed form at a Python-float t: f'^2 overflowed, or f^2
        # underflowed to a zero divisor, in warped_scalar_curvature
        (["oracle", "--profile", "t^400", "--n", "2", "--t", "4:8:3"],
         "metric is not finite at t = 4.0"),
        (["oracle", "--profile", "t^400", "--n", "2", "--base", "sphere",
          "--t", "4:8:3"], "metric is not finite at t = 4.0"),
        (["oracle", "--profile", "1e-200*t", "--n", "3", "--t", "4:8:3"],
         "metric not positive definite at t = 4.0"),
        # on an array of t too, where f' is the Python-float constant 1e300
        (["curvature", "--profile", "1e300*t", "--n", "3", "--t", "3:10:3"],
         "curvature is not finite at t = 3.0"),
        # solve wrote nan rows with exit 0: the solution overflowed, or its
        # barriers underflowed
        (["solve", "--n", "3", "--points", "50", "--R-const", "2",
          "--R-power", "0.5", "--T", "1e300"],
         "u is not finite at t = 2.0408163265306123e+298"),
        (["solve", "--n", "2", "--points", "50", "--bc-left", "1e-300",
          "--u-minus-const", "1e-300"], "u is not finite at t = 4.979591836734694"),
        # the closed form is 0 and the FD curvature ~ -1e9: rel_err was inf
        (["oracle", "--profile", "t", "--n", "16", "--base", "sphere",
          "--t", "3:5:3"], "rel_err is not finite at t = 3.0"),
        (["oracle", "--profile", "t", "--n", "41", "--t", "3"],
         "oracle needs n <= 40, got n = 41"),
    ], ids=["certify-c", "sweep-c", "certify-crossing-on-t0", "points0",
            "points1", "points2",
            "curvature-radius-underflow", "oracle-radius-underflow",
            "oracle-square-overflow", "oracle-sphere-square-overflow",
            "oracle-square-underflow", "curvature-constant-square-overflow",
            "solve-overflow", "solve-underflow", "oracle-rel-err-overflow",
            "oracle-n-bound"])
    def test_one_error_line_and_nothing_written(self, args, message, tmp_path,
                                                capsys):
        out = tmp_path / "o"
        assert main(args + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["curvature", "--profile", "t", "--n", "3", "--t", "1:3:3"],
         "t must exceed domain_min = 2.0 at t = 1.0"),
        (["solve", "--n", "3", "--u-minus-const", "0"],
         "subsolution must be positive at t = 3.0"),
        (["solve", "--n", "3", "--t0", "1e-300", "--T", "1"],
         "ordering violated: u_minus > u_plus at t = 1e-300"),
        (["raylength", "--u", "0-t", "--n", "3"],
         "u must be positive along the ray at t = 3.0"),
    ], ids=["domain-min", "subsolution", "ordering", "ray"])
    def test_a_bad_value_is_named_at_its_first_t(self, args, message,
                                                 tmp_path, capsys):
        # each of these errors used to name no t
        out = tmp_path / "o"
        assert main(args + ["--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["curvature", "oracle"])
    def test_a_sphere_too_large_to_square_is_flat(self, command, capsys):
        # radius^2 overflowed with an OverflowError traceback; n(n-1)/inf is
        # the flat base's curvature, 0
        table = ["--profile", "t", "--n", "3", "--t", "3:10:2"]
        assert main([command] + table + ["--base", "sphere",
                                         "--radius", "1e200"]) == 0
        sphere = capsys.readouterr().out
        assert main([command] + table + ["--base-R", "0"]) == 0
        assert sphere == capsys.readouterr().out

    @pytest.mark.parametrize("args, err", [
        (["oracle", "--profile", "exp(exp(t))", "--n", "3", "--t", "3:10:3"],
         "error: curvature is not finite at t = 5.477225575051662\n"),
        (["certify", "--kind", "thm38", "--kappa-sq", "6", "--delta", "1",
          "--profile", "exp(t)"],
         "error: thm38: f f'' is not finite at t = 365.77842061829665\n"),
        (["curvature", "--profile", "exp(exp(t))", "--n", "3",
          "--t", "3:10:5"],
         "error: curvature is not finite at t = 7.400828044922854\n"),
        (["raylength", "--u", "exp(exp(t))", "--n", "3", "--T", "20"],
         "error: u is not finite at t = 6.566716739113921\n"),
    ], ids=["oracle", "certify-thm38", "curvature", "raylength"])
    def test_overflow_prints_no_numpy_warning(self, args, err):
        # numpy's RuntimeWarnings must not reach stderr ahead of the error
        code, stdout, stderr = run_cli(args)
        assert (code, stdout, stderr) == (1, "", err)


class TestDeterminism:
    CASES = [
        ["curvature", "--profile", "exp(t)", "--n", "3", "--base-R", "0",
         "--t", "2.5:10:10", "--domain-min", "0.5"],
        ["certify", "--kind", "oscillation", "--c", "2", "--t0", "3"],
        ["certify", "--kind", "thm48", "--b", "0.5"],
        ["raylength", "--u", "t^-2", "--n", "3"],
        ["sweep", "--c", "1.5:3:3"],
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0] + "-" + c[2])
    def test_byte_identical_runs(self, case, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(case + ["--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestConfigFile:
    def test_config_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("command=certify\nkind=oscillation\nc=0.8\nt0=3\n")
        out1 = tmp_path / "v1.jsonl"
        assert main(["--config", str(cfg), "certify", "--out", str(out1)]) == 0
        assert json.loads(out1.read_text())["params"]["c"] == 0.8
        out2 = tmp_path / "v2.jsonl"
        assert main(["--config", str(cfg), "certify", "--c", "1.2",
                     "--out", str(out2)]) == 0
        assert json.loads(out2.read_text())["params"]["c"] == 1.2

    @pytest.mark.parametrize("given", [["--n", "3"], ["--n=3"]],
                             ids=["space", "equals"])
    def test_either_flag_spelling_overrides_the_config(self, tmp_path,
                                                       capsys, given):
        # the config's n would be a usage error if it reached the parser
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = x\n")
        argv = ["raylength", "--u", "t^-2"]
        assert main(["--config", str(cfg)] + argv + given) == 0
        out = capsys.readouterr().out
        assert main(argv + ["--n", "3"]) == 0
        assert out == capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["solve", "--n", "3", "--points", "5"],
        ["raylength", "--u", "t^-2", "--n", "3"],
        ["sweep", "--c", "1.5"]], ids=["solve", "raylength", "sweep"])
    def test_domain_min_is_only_for_a_profile(self, argv, tmp_path, capsys):
        # --domain-min is the domain of a warp --profile, which only
        # curvature, oracle and certify parse; from a config file too
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("domain_min = 7\n")
        for args in (argv + ["--domain-min", "7"], ["--config", str(cfg)] + argv):
            with pytest.raises(SystemExit) as exc:
                main(args)
            assert exc.value.code == 2
            assert capsys.readouterr().err.endswith(
                "error: unrecognized arguments: --domain-min 7\n")

    def test_config_supplies_the_required_n(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("command=raylength\nn=3\nu=t^-2\n")
        code, out, err = run_cli(["--config", str(cfg)])
        assert (code, err) == (0, "")
        assert out == run_cli(["raylength", "--n", "3", "--u", "t^-2"])[1]

    def test_both_config_spellings_apply_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "d.cfg"
        cfg.write_text("base_R=-6\n")
        args = ["curvature", "--profile", "t", "--n", "3", "--t", "3:5:2"]
        outs = []
        for config in (["--config", str(cfg)], [f"--config={cfg}"], []):
            assert main(config + args) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] != outs[2]

    @pytest.mark.parametrize("joined", [False, True])
    def test_repeated_config_is_a_config_error(self, tmp_path, capsys, joined):
        cfg = tmp_path / "d.cfg"
        cfg.write_text("base_R=-6\n")
        second = [f"--config={cfg}"] if joined else ["--config", str(cfg)]
        code = main(["--config", str(cfg)] + second + [
            "curvature", "--profile", "t", "--n", "3", "--t", "3:5:2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "config error: --config given more than once\n"

    @pytest.mark.parametrize("before", [[], ["curvature", "--n", "3"]])
    def test_config_without_a_path_is_a_config_error(self, capsys, before):
        # it used to print "config error: list index out of range"
        code = main(before + ["--config"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "config error: --config needs a path\n"

    def test_abbreviated_config_flag_is_a_usage_error(self, tmp_path):
        cfg = tmp_path / "d.cfg"
        cfg.write_text("base_R=-6\n")
        code, out, _ = run_cli([f"--conf={cfg}", "curvature", "--profile", "t",
                                "--n", "3", "--t", "3:5:2"])
        assert (code, out) == (2, "")


class TestSolveAndOracle:
    def test_solve_csv(self, tmp_path):
        out = tmp_path / "u.csv"
        code = main(["solve", "--n", "3", "--R-const", "-1",
                     "--u-minus-const", "1", "--u-plus-coeff", "10",
                     "--u-plus-power", "0", "--bc-left", "6",
                     "--bc-right", "6", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(str(out))
        assert header == ["t", "u", "du"]
        assert all(abs(row[1] - 6.0) < 1e-8 for row in rows)

    def test_solve_that_reaches_the_iteration_cap_fails(self, monkeypatch,
                                                         tmp_path, capsys):
        # n = 5 on this bracket converges in 37 iterations (n = 3 takes 2,
        # under a cap of 3); stopped at the cap, solve used to write the
        # unconverged iterate and exit 0
        monkeypatch.setattr(ode, "MONOTONE_MAX_ITER", 3)
        out = tmp_path / "u.csv"
        args = ["solve", "--n", "5", "--R-coeff", "60", "--u-plus-power", "3",
                "--T", "1e4", "--out", str(out)]
        assert main(args) == 1
        stdout, err = capsys.readouterr()
        prefix = "error: monotone iteration did not converge in 3 iterations: last step "
        assert stdout == "" and err.startswith(prefix) and err.endswith("\n")
        assert float(err[len(prefix):]) > 0
        assert not out.exists()
        monkeypatch.undo()
        assert main(args) == 0
        assert json.loads(Path(f"{out}.meta.json").read_text())["iterations"] == 37

    @pytest.mark.parametrize("args", [["--n", "4"],
                                      ["--n", "3", "--R-coeff", "3"]])
    def test_solve_rejects_a_bad_barrier_up_front(self, args, tmp_path,
                                                  capsys):
        # 6 t^2 is a supersolution only for n = 3 and C >= 7 (alpha = 2)
        out = tmp_path / "u.csv"
        assert main(["solve", *args, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: u_plus is not a supersolution: residual ")
        assert not out.exists()

    @staticmethod
    def cone_errors(n, C, points, t0=3.0, T=100.0):
        """solve with R = -C/t^2, whose exact solution is the cone
        u = A t^q, q = (n+1)/2, A = (n(n-1)/(C - n(n-1)))^((n+1)/4): the
        largest relative errors of u and du, and du's at t0 and at T."""
        q = (n + 1) / 2
        A = (n * (n - 1) / (C - n * (n - 1))) ** ((n + 1) / 4)
        # a constant below u(t0) that is a subsolution down to t0
        lo = 0.5 * (n * (n - 1) * t0 ** 2 / C) ** ((n + 1) / 4)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["solve", "--n", str(n), "--R-coeff", repr(C),
                         "--R-power", "2", "--t0", repr(t0), "--T", repr(T),
                         "--points", str(points), "--u-minus-const", repr(lo),
                         "--u-plus-coeff", repr(2 * A),
                         "--u-plus-power", repr(q),
                         "--bc-left", repr(A * t0 ** q),
                         "--bc-right", repr(A * T ** q)]) == 0
        t, u, du = np.loadtxt(io.StringIO(out.getvalue()), delimiter=",",
                              skiprows=1).T
        e_u = np.abs(u / (A * t ** q) - 1)
        e_du = np.abs(du / (A * q * t ** (q - 1)) - 1)
        return np.array([e_u.max(), e_du.max(), e_du[0], e_du[-1]])

    @settings(max_examples=20, deadline=None)
    @given(n=st.sampled_from([3, 4, 5]), k=st.floats(1.05, 10.0))
    def test_solve_matches_the_exact_cone(self, n, k):
        # R = -C/t^2 with C = k n(n-1).  At n = 3 the cone is A t^2, on
        # which the 3-point stencil and du's second-order ends are exact.  At n = 4 both u and du are second order, and at n = 5
        # (u = A t^3, u^p = A^(1/3) t) u is exact to round-off and du is
        # second order; a first-order du end would halve per doubling.
        C = k * n * (n - 1)
        if n == 3:
            assert self.cone_errors(n, C, 101).max() < 1e-12
            return
        errs = np.array([self.cone_errors(n, C, p) for p in (101, 201, 401)])
        ratios = errs[:-1] / errs[1:]
        checked = ratios if n == 4 else ratios[:, 1:]
        assert np.all((3.5 <= checked) & (checked <= 4.5)), ratios
        if n == 5:
            assert errs[:, 0].max() < 1e-12
        # du within 0.1 h^2 of the cone, relative, at every node
        h = (100.0 - 3.0) / np.array([100, 200, 400])
        assert np.all(errs[:, 1] <= 0.1 * h ** 2)

    @pytest.mark.parametrize("args", [
        ["oracle", "--profile", "1/(t-4)+5", "--n", "3", "--t", "4"],
        ["oracle", "--profile", "(t-4)^-1+5", "--n", "3", "--t", "4"],
        ["oracle", "--profile", "t^400", "--n", "3", "--t", "1000"],
        ["curvature", "--profile", "1/(t-4)+5", "--n", "3", "--t", "4",
         "--base", "torus", "--m", "8"]])
    def test_python_float_inf_is_a_domain_error(self, args, tmp_path,
                                                 capsys):
        # Python-float evaluation gives the IEEE inf, which the finite
        # checks then name, instead of a ZeroDivisionError or OverflowError
        out = tmp_path / "o.csv"
        assert main(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not finite at" in err
        assert not out.exists()

    @pytest.mark.parametrize("args, err", [
        (["--profile", "1/(t-4)+5", "--t", "4"],
         "error: metric is not finite at t = 4.0\n"),
        (["--profile", "t^400", "--t", "1000"],
         "error: metric is not finite at t = 1000.0\n"),
        (["--profile", "t-3.5", "--t", "3.5015", "--domain-min", "0.5"],
         "error: warp is nonpositive at t = 3.4995000000000003\n"),
    ], ids=["pole", "overflow", "nonpositive"])
    def test_oracle_errors_name_t(self, args, err, capsys):
        # the stencil point's t as its repr, not the point array's print
        assert main(["oracle", "--n", "3"] + args) == 1
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("command", ["curvature", "oracle"])
    def test_torus_mu_underflow_names_t(self, command, capsys):
        # f^((n-2)/2) = f^1.5 ~ 1e-375 underflows to 0: curvature said "mu
        # must be positive" with no t, and the oracle's node path skipped
        # the check; a positive mu on the lines through the node passes
        argv = [command, "--profile", "t*1e-250*(2+cos(x1))", "--n", "5",
                "--base", "torus", "--m", "8", "--t", "3:4:3"]
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "", "error: f^((n-2)/2) underflows to 0 at t = 3.0\n")

    def test_nonpositive_field_names_the_first_bad_t(self, capsys):
        code = main(["curvature", "--profile", "5-t", "--n", "3",
                     "--t", "2.5:10:400"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: field '5-t' is nonpositive at t = 5.008693604020039\n")

    @pytest.mark.parametrize("t, bad_t", [("3:10:3", "5.477225575051662"),
                                          ("5.4772", "5.4772"),
                                          ("10", None)])
    def test_oracle_overflow_is_a_domain_error(self, t, bad_t, tmp_path,
                                               capsys):
        # exp(exp(t)) overflows near t ~ 6.6: the FD stencil first, then the
        # metric at the point itself
        out = tmp_path / "o.csv"
        code = main(["oracle", "--profile", "exp(exp(t))", "--n", "3",
                     "--t", t, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        if bad_t is None:
            assert "error: metric is not finite at" in err
        else:
            assert f"error: curvature is not finite at t = {bad_t}" in err
        assert not out.exists()

    @pytest.mark.parametrize("h", ["0", "-1"])
    def test_oracle_nonpositive_step_is_named(self, h, tmp_path, capsys):
        # --h 0 used to fail as "curvature is not finite", --h -1 exited 0
        out = tmp_path / "o.csv"
        code = main(["oracle", "--profile", "t", "--n", "3", "--t", "3:5:2",
                     "--h", h, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: need h > 0, got h = {float(h)!r}\n"
        assert not out.exists()

    def test_raylength_overflow_is_a_domain_error(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        code = main(["raylength", "--u", "exp(exp(t))", "--n", "3",
                     "--T", "20", "--out", str(out)])
        assert code == 1
        assert "error: u is not finite at t = 6.566716739113921" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_raylength_divergent_bytes(self, capsys):
        # strict JSON: a divergent verdict writes its infinite tail and
        # total as null, where it used to write Infinity
        assert main(["raylength", "--u", "t", "--n", "3"]) == 0
        assert capsys.readouterr().out == (
            '{"T": 10000.0, "integral": 49999995.5, "n": 3, "t0": 3.0, '
            '"tail_estimate": null, "tail_exponent": 1.0, '
            '"total": null, "verdict": "divergent", "x0": null}\n')

    def test_raylength_undetermined_writes_null(self, capsys):
        # it used to write NaN for the tail and the total
        assert main(["raylength", "--u", "1/t", "--n", "3"]) == 0
        rec = json.loads(capsys.readouterr().out,
                         parse_constant=lambda name: pytest.fail(name))
        assert rec["verdict"] == "undetermined"
        assert rec["tail_estimate"] is None and rec["total"] is None

    @pytest.mark.parametrize("kind, args", [
        ("raylength", ["--u", "1/t+10*t^-3", "--n", "3", "--T", "4"]),
        ("certify", ["--kind", "thm38", "--kappa-sq", "6", "--delta", "1",
                     "--profile", "t^1.2", "--T", "5"]),
    ], ids=["raylength", "certify-thm38"])
    def test_a_window_shorter_than_a_decade_certifies_nothing(self, kind, args,
                                                              capsys):
        # on [3, 4] the fit read the local slope -1.91 of 10 t^-3, where the
        # tail is 1/t, and called the ray finite; thm38 certified
        # incompleteness from such a slope on [3, 5]
        assert main([kind] + args) == 0
        rec = _strict_json(capsys.readouterr().out)
        if kind == "certify":
            assert rec["kind"] == "inconclusive"
            rec = {"verdict": rec["witnesses"]["ray_verdict"],
                   "total": rec["witnesses"]["ray_total"]}
        assert rec["verdict"] == "undetermined" and rec["total"] is None

    def test_raylength_overflowing_integral_is_named(self, tmp_path, capsys):
        # a constant u, which used to end in numpy's IndexError traceback
        out = tmp_path / "r.jsonl"
        code = main(["raylength", "--u", "1e300", "--n", "3", "--T", "1e10",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == \
            "error: ray length integral is not finite\n"
        assert not out.exists()

    def test_oracle_runs_up_to_its_bound_on_n(self, capsys):
        # the largest n oracle takes runs; n + 1 is refused (oracle-n-bound)
        assert main(["oracle", "--profile", "t", "--n", str(cli.ORACLE_MAX_N),
                     "--t", "3"]) == 0
        (row,) = np.loadtxt(io.StringIO(capsys.readouterr().out),
                            delimiter=",", skiprows=1, ndmin=2)
        assert row[4] < 1e-6

    def test_oracle_evaluates_points_in_blocks(self, monkeypatch, capsys):
        # blocks are sized by the dim^4 arrays (d2 and R_ijkl): at n = 7
        # (dim 8) 2^14 doubles hold 4 points; the table is the one the
        # point-by-point evaluation writes
        argv = ["oracle", "--profile", "t^2+t", "--n", "7", "--t", "3:5:10"]
        blocks = []

        def fd(metric, points, h=None):
            blocks.append(np.shape(points))
            return fd_scalar_curvature(metric, points, h)

        monkeypatch.setattr(oracle, "fd_scalar_curvature", fd)
        assert main(argv) == 0
        table = capsys.readouterr().out
        assert blocks == [(4, 8), (4, 8), (2, 8)]
        blocks.clear()
        monkeypatch.setattr(oracle, "BLOCK_DOUBLES", 1)
        assert main(argv) == 0
        assert capsys.readouterr().out == table
        assert blocks == [(1, 8)] * 10

    def test_a_failing_block_is_evaluated_once_then_row_by_row(
            self, monkeypatch, capsys):
        # the stencil of the first row reaches below --domain-min: the block
        # is evaluated once as a stack and then once at its first row, which
        # names its t; no row is evaluated a third time
        calls = []
        stack_curvature = oracle._stack_curvature

        def counted(metric, points, h):
            calls.append(np.shape(points))
            return stack_curvature(metric, points, h)

        monkeypatch.setattr(oracle, "_stack_curvature", counted)
        assert main(["oracle", "--profile", "t", "--n", "3",
                     "--t", "2.5:4:10", "--domain-min", "2.499"]) == 1
        assert capsys.readouterr().err == (
            "error: t - 2h must exceed domain_min = 2.499 at t = 2.5\n")
        assert calls == [(10, 4), (1, 4)]

    def test_oracle_report(self, tmp_path):
        out = tmp_path / "o.csv"
        code = main(["oracle", "--profile", "exp(t)", "--n", "3",
                     "--base-R", "0", "--t", "2.5:4:3", "--out", str(out),
                     "--domain-min", "0.5"])
        assert code == 0
        header, rows = read_csv(str(out))
        assert header == ["point", "closed_form", "fd", "abs_err", "rel_err"]
        assert all(row[4] < 1e-4 for row in rows)


def scipy_modules_loaded(jobs, tmp_path):
    """Run the CLI jobs through main() in a fresh interpreter and return
    the scipy modules it loaded."""
    outs = [str(tmp_path / f"out{i}") for i in range(len(jobs))]
    script = textwrap.dedent(f"""
        import json, sys
        from curvlab.cli import main
        for job, out in zip({jobs!r}, {outs!r}):
            assert main(job + ["--out", out]) == 0, job
        print(json.dumps(sorted(m for m in sys.modules
                                if m.split(".")[0] == "scipy")))
    """)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestScipyLoading:
    def test_non_integrating_commands_leave_scipy_unloaded(self, tmp_path):
        jobs = [
            ["curvature", "--profile", "t*(2+0.1*sin(x1))", "--n", "3",
             "--base", "torus", "--m", "8", "--t", "3:5:2"],
            ["oracle", "--profile", "exp(t)", "--n", "3", "--base-R", "0",
             "--t", "2.5:4:2", "--domain-min", "0.5"],
            ["raylength", "--u", "t^-2", "--n", "3"],
        ]
        assert scipy_modules_loaded(jobs, tmp_path) == []

    def test_certificates_and_sweep_leave_scipy_unloaded(self, tmp_path):
        certify = ["certify", "--n", "3", "--kind"]
        jobs = [
            ["certify", "--kind", "oscillation", "--c", "1.2"],
            ["certify", "--kind", "oscillation", "--c", "0.8"],
            certify + ["thm48", "--b", "0.5"],
            certify + ["thm413", "--c", "5", "--b", "1"],
            certify + ["thm418", "--C1", "1", "--C2", "1", "--C", "1",
                       "--b", "1"],
            certify + ["thm112", "--eps", "1"],
            certify + ["thm38", "--kappa-sq", "6", "--delta", "1",
                       "--profile", "t*ln(t)"],
            certify + ["thm38", "--kappa-sq", "6", "--delta", "1",
                       "--profile", "t^2"],
            certify + ["barrier33", "--kappa-sq", "6"],
            ["sweep", "--c", "0.5:3:4"],
        ]
        assert scipy_modules_loaded(jobs, tmp_path) == []

    def test_solve_leaves_scipy_unloaded(self, tmp_path):
        jobs = [["solve", "--n", "3", "--R-const", "-1", "--u-minus-const",
                 "1", "--u-plus-coeff", "10", "--u-plus-power", "0",
                 "--bc-left", "6", "--bc-right", "6", "--points", "101"],
                ["solve", "--n", "3", "--points", "201"]]
        assert scipy_modules_loaded(jobs, tmp_path) == []

    def test_integration_goes_through_module_solve_ivp(self, monkeypatch):
        # the traced benchmark counts calls by rebinding ode.solve_ivp
        calls = []
        real = ode.solve_ivp

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(ode, "solve_ivp", counting)
        verdict = ode.comparison_certificate("thm48", {"b": 0.5, "t0": 3.0})
        assert verdict.kind == "nonexistence"
        assert calls
