"""Scalar curvature of warped and polar-type end metrics: closed forms,
expression-based warp profiles, ODE solvers and comparison certificates,
finite-difference oracle, and completeness tests.  The modules are the API;
the package itself re-exports nothing and imports nothing."""

__version__ = "0.1.0"
