"""Scalar curvature of warped and polar-type end metrics: closed forms,
expression-based warp profiles, ODE solvers and comparison certificates,
finite-difference oracle, and completeness tests."""

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

from .errors import (BracketError, CurvlabError, DomainError, ExpressionError,
                     StiffFailure, WindowTooSmall)
from .expr import parse
from .geometry import BaseGeometry, DimensionConstants, sphere_volume
from .warp import (Field, SubstitutedProfile, WarpProfile, cone_log_curvature,
                   default_probe_grid, ode_residual, parse_field,
                   parse_profile, power_law_curvature, substitute_u,
                   warped_scalar_curvature)
from .polar import (BaseGrid, PolarWarpField, conformal_base_curvature,
                    conformal_scalar_curvature, polar_laplacian,
                    polar_scalar_curvature)
from .ode import (MonotoneSolution, OdeSpec, SubSuperPair, Verdict,
                  barrier_certificate_33, comparison_certificate,
                  monotone_solve, oscillation_certificate)
from .oracle import (BaseChart, CurvatureTensorSample, MetricGrid,
                     assemble_metric, chart_for, fd_scalar_curvature)
from .completeness import RayLengthReport, ray_length, yamabe_test_integral

__version__ = "0.1.0"

__all__ = [
    "BracketError", "CurvlabError", "DomainError", "ExpressionError",
    "StiffFailure", "WindowTooSmall", "parse", "BaseGeometry",
    "DimensionConstants", "sphere_volume", "Field", "SubstitutedProfile",
    "WarpProfile", "cone_log_curvature", "default_probe_grid", "ode_residual",
    "parse_field", "parse_profile", "power_law_curvature", "substitute_u",
    "warped_scalar_curvature", "BaseGrid",
    "PolarWarpField", "conformal_base_curvature",
    "conformal_scalar_curvature", "polar_laplacian",
    "polar_scalar_curvature",
    "MonotoneSolution", "OdeSpec", "SubSuperPair", "Verdict",
    "barrier_certificate_33", "comparison_certificate", "monotone_solve",
    "oscillation_certificate", "BaseChart", "CurvatureTensorSample",
    "MetricGrid", "assemble_metric", "chart_for", "fd_scalar_curvature",
    "RayLengthReport", "ray_length", "yamabe_test_integral",
]
