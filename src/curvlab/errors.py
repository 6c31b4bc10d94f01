"""Exception hierarchy shared across the package, the one rule for naming
a bad value, and the one IEEE fallback for Python-float arithmetic.  Every
module that imports numpy imports this one first, for the BLAS set-up."""

import os
import sys

# numpy's bundled OpenBLAS starts a helper thread per core as it loads, and
# no curvlab array is large enough for it to help (the largest BLAS call is
# a 4096 x 2 least-squares fit).  So, unless the user chose a thread count
# in a variable OpenBLAS reads, numpy is loaded here, ahead of every module
# that imports it, with one thread.  OpenBLAS reads the variable only while
# it loads, so it is removed at once: os.environ and child processes keep
# the user's environment.
if "numpy" not in sys.modules and not any(
        name in os.environ for name in
        ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

import numpy as np


class CurvlabError(Exception):
    """Base class for all curvlab errors."""


class ExpressionError(CurvlabError):
    """Syntax or semantic error in a profile expression string."""

    def __init__(self, message, column=None):
        if column is not None:
            message = f"{message} at column {column}"
        super().__init__(message)


class DomainError(CurvlabError):
    """Input violates a mathematical precondition (nonpositive profile,
    point outside the chart, dimension too small, ...)."""


class StiffFailure(CurvlabError):
    """A solver gave up before its stop rule: an integrator step that
    underflowed or a non-finite start, an event root, crossing or barrier
    search that found nothing, or monotone_solve at MONOTONE_MAX_ITER
    iterations; not a verdict."""


def name_first(t, ok, message):
    """Raise DomainError(f"{message} at t = ...") at the t of the first
    False entry of ok, in C order; t is one value or one per entry."""
    ok = np.asarray(ok)
    if not ok.all():
        t, ok = np.broadcast_arrays(t, ok)
        raise DomainError(f"{message} at t = {float(t[~ok][0])!r}")


def ieee(fn, *args):
    """fn of the arguments as numpy floats (an array stays an array) with
    IEEE flags ignored: +-inf or nan where Python-float arithmetic raises."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return fn(*(np.asarray(a, dtype=float)[()] for a in args))
