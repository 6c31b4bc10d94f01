"""Closed-form scalar curvature of g' = dt^2 + f^2(t) g.

All quantities come from the warp profile f and its exact symbolic
derivatives; nothing here touches finite differences (the oracle module is
the independent cross-check).
"""

from __future__ import annotations

from .errors import DomainError, ExpressionError, ieee, name_first
import numpy as np

from . import expr
from .geometry import BaseGeometry, DimensionConstants


def default_probe_grid(t_min=2.0, t_max=1.0e3, num=64):
    """Log-spaced probe points on [t_min + 0.5, t_max]."""
    return np.geomspace(t_min + 0.5, t_max, num)


class Field:
    """A scalar field given by an expression in t and declared coordinates
    x1..xn, with exact first and second t-derivatives.

    A plain Field carries no positivity contract (domain_min is None).
    WarpProfile and polar.PolarWarpField fix the contract: the field must be
    positive wherever it is evaluated or sampled, at t > domain_min.
    """

    def __init__(self, source, allowed_vars=("t",), domain_min=None):
        if domain_min is not None and domain_min <= 0:
            raise DomainError("domain_min must be positive")
        self.source = source
        self.domain_min = domain_min
        self.ast = expr.parse(source)
        unknown = self.ast.free_vars() - set(allowed_vars)
        if unknown:
            raise ExpressionError(
                f"unknown identifier(s) {sorted(unknown)} (allowed: {list(allowed_vars)})")
        # each coordinate x<k> the tree reads, with its index k - 1 in a
        # point's x part (the parser admits no other name but t)
        self.coords = sorted((v, int(v[1:]) - 1)
                             for v in self.ast.free_vars() - {"t"})
        self._d1 = self.ast.diff("t")
        self._d2 = self._d1.diff("t")

    def _checked(self, t, evaluate):
        """The positivity contract: t > domain_min, then a positive value."""
        if self.domain_min is None:
            return evaluate()
        name_first(t, ~(np.asarray(t) <= self.domain_min),
                   f"t must exceed domain_min = {self.domain_min}")
        val = evaluate()
        # not val > 0: a nan passes here and is named later as not finite
        name_first(t, ~(np.asarray(val) <= 0),
                   f"field '{self.source}' is nonpositive")
        return val

    def eval(self, t):
        return self._checked(t, lambda: self.ast.eval({"t": t}))

    def d1(self, t):
        return self._d1.eval({"t": t})

    def d2(self, t):
        return self._d2.eval({"t": t})

    def eval_point(self, t, x):
        """Unchecked value at the point (t, x1..xn); only the coordinates the
        tree reads enter the environment."""
        env = {"t": t}
        for v, i in self.coords:
            env[v] = x[i]
        return self.ast.eval(env)


class WarpProfile(Field):
    """Warp function f(t) > 0 with exact first/second derivative oracle.

    Positivity is enforced lazily: each evaluation checks f(t) > 0.
    """

    def __init__(self, source, domain_min=2.0):
        super().__init__(source, allowed_vars=("t",), domain_min=domain_min)


def parse_profile(source, domain_min=2.0):
    """Parse an expression string in t into a WarpProfile."""
    return WarpProfile(source, domain_min=domain_min)


def substitute_u(f: WarpProfile, n: int) -> Field:
    """u = f^((n+1)/2) as the Field exp(m ln f): its derivatives are the
    tree's own, and any f <= 0 gives u = 0 or nan, where an integer power m
    would turn a negative f positive."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    m = (n + 1) / 2.0
    return Field(f"exp({m!r}*ln({f.source}))", domain_min=f.domain_min)


def warped_scalar_curvature(f: WarpProfile, base: BaseGeometry, t):
    """Scalar curvature of dt^2 + f^2(t) g at radius t.

    R(t) = (1/f^2) [R(g) - 2 n f f'' - n (n-1) f'^2].

    A square that overflows, or one that underflows to a zero divisor, gives
    the IEEE inf or nan where a value is a Python float too (a float t, or
    a derivative that is a constant), as it does in an array.
    """
    n = base.n

    def curvature(fval, fp, fpp):
        return (base.scalar_curvature - 2.0 * n * fval * fpp
                - n * (n - 1) * fp ** 2) / fval ** 2

    values = f.eval(t), f.d1(t), f.d2(t)
    try:
        return curvature(*values)
    except (OverflowError, ZeroDivisionError):  # Python floats raise
        return ieee(curvature, *values)


def ode_residual(u: Field, R, base: BaseGeometry, t):
    """Left-hand side of (4n/(n+1)) u'' + R u - R(g) u^((n-3)/(n+1)).

    Zero iff (u, R) solve the substituted curvature equation at t.  A u
    from substitute_u is named at t where it is not finite (a negative f)
    or nonpositive (a zero of f, which a field with a domain_min names).
    """
    n = base.n
    uval = u.eval(t)
    name_first(t, np.isfinite(uval), "u is not finite")
    name_first(t, uval > 0, "u is nonpositive")
    p = DimensionConstants(n).nonlin_exp
    u_pow = np.exp(p * np.log(uval))
    Rval = R(t) if callable(R) else R
    return (4.0 * n / (n + 1)) * u.d2(t) + Rval * uval - base.scalar_curvature * u_pow


def power_law_curvature(alpha, n, t):
    """Curvature profile produced by u(t) = t^alpha over a scalar-flat base:
    R = (4n/(n+1)) alpha (1 - alpha) / t^2.  Maximal over alpha at 1/2."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise DomainError("t must be positive")
    out = (4.0 * n / (n + 1)) * alpha * (1.0 - alpha) / t ** 2
    return out if out.shape else float(out)


def cone_log_curvature(n, t):
    """Hard-coded curvature of dt^2 + (t ln t)^2 g with R(g) = -n(n-1):

    R(t) = -(1/t^2) [n(n-1)(ln t + 1)^2/(ln t)^2 + 2n/ln t + n(n-1)/(ln t)^2]
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 1.0):
        raise DomainError("t must exceed 1 so that ln t > 0")
    L = np.log(t)
    out = -(n * (n - 1) * (L + 1.0) ** 2 / L ** 2
            + 2.0 * n / L
            + n * (n - 1) / L ** 2) / t ** 2
    return out if out.shape else float(out)
