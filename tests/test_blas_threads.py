"""Importing curvlab loads numpy with one OpenBLAS thread, unless the user
set a thread count or numpy was already loaded, and leaves os.environ as it
found it.  The children import curvlab.cli, as the command line does: a bare
`import curvlab` loads no module that needs numpy, so where the user set a
count it loads no numpy either."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
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
    assert threads_and_variables("import curvlab.cli") == (1, UNSET)


def test_a_thread_count_the_user_set_is_kept(numpy_threads):
    assert threads_and_variables("import curvlab.cli", OMP_NUM_THREADS="2") == (
        2, {**UNSET, "OMP_NUM_THREADS": "2"})


def test_numpy_loaded_first_is_left_as_it_is(numpy_threads):
    assert threads_and_variables("import numpy, curvlab.cli") == (
        numpy_threads, UNSET)
