"""Importing any curvlab module that loads numpy loads it with one OpenBLAS
thread, unless the user set a thread count or numpy was already loaded, and
leaves os.environ as it found it.  The pin sits in curvlab.errors, which
each such module imports ahead of numpy; so each is imported alone, in a
fresh child (~0.2 s of tier-1 time a child).  curvlab.cli and the bare
package load no numpy when imported, and are not among them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
NUMERIC = sorted(p.stem for p in (Path(SRC) / "curvlab").glob("*.py")
                 if p.stem not in ("__init__", "cli"))
VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
UNSET = dict.fromkeys(VARIABLES)
REPORT = ("import json, os; print(json.dumps([len(os.listdir('/proc/self/task')), "
          "{k: os.environ.get(k) for k in %r}]))" % (VARIABLES,))


def threads_and_variables(imports, **variables):
    """(threads of a child that ran `imports`, the child's values of the
    thread variables), with only `variables` of them set by the caller."""
    env = {k: v for k, v in os.environ.items() if k not in VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env.update(variables)
    proc = subprocess.run([sys.executable, "-c", f"{imports}; {REPORT}"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    return tuple(json.loads(proc.stdout))


@pytest.fixture(scope="module")
def numpy_threads():
    """Threads after a plain `import numpy`; the tests skip where that
    starts no BLAS helper thread, as nothing then tells a pin apart."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("threads are counted in /proc/self/task")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a single CPU gives OpenBLAS no helper thread to start")
    threads, _ = threads_and_variables("import numpy")
    if threads < 2:
        pytest.skip("plain numpy starts no BLAS helper thread here")
    return threads


def test_one_thread_and_no_variable_left(numpy_threads):
    # any of them may be the first module a program imports
    found = {m: threads_and_variables(f"import curvlab.{m}") for m in NUMERIC}
    assert found == dict.fromkeys(NUMERIC, (1, UNSET))


def test_a_thread_count_the_user_set_is_kept(numpy_threads):
    assert threads_and_variables("import curvlab.ode", OMP_NUM_THREADS="2") == (
        2, {**UNSET, "OMP_NUM_THREADS": "2"})


def test_numpy_loaded_first_is_left_as_it_is(numpy_threads):
    assert threads_and_variables("import numpy, curvlab.ode") == (
        numpy_threads, UNSET)
