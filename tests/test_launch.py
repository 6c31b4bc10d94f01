"""Smoke test of the traced benchmark launcher (perfbench/launch.py): it
must still find every package name it wraps, and leave the output alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAUNCH = ROOT / "perfbench" / "launch.py"
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def run(cmd):
    return subprocess.run(cmd, capture_output=True, text=True, env=CHILD_ENV,
                          timeout=120)


@pytest.mark.parametrize("args, counter", [
    (["certify", "--kind", "thm48", "--b", "0.5"], "ode.certificate.calls"),
    (["oracle", "--profile", "t^2*(2 + sin(x1)*cos(x3))", "--n", "3",
      "--base", "torus", "--m", "8", "--t", "3:6:3"], "oracle.points"),
], ids=["certify-thm48", "oracle-torus"])
def test_traced_run_matches_untraced(args, counter, tmp_path):
    trace = tmp_path / "trace.json"
    traced = run([sys.executable, str(LAUNCH), str(trace)] + args)
    plain = run([sys.executable, "-m", "curvlab.cli"] + args)
    assert (traced.returncode, traced.stderr) == (0, "")
    assert plain.returncode == 0
    assert traced.stdout == plain.stdout != ""
    assert json.loads(trace.read_text())["counts"][counter] > 0
