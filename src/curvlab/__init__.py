"""Scalar curvature of warped and polar-type end metrics: closed forms,
expression-based warp profiles, ODE solvers and comparison certificates,
finite-difference oracle, and completeness tests.  The modules are the API;
the package itself re-exports nothing and only sets up BLAS, below."""

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
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

__version__ = "0.1.0"
