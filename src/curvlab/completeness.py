"""Ray-length integrals deciding completeness of conformally deformed end
metrics, and the sign test for the end's contribution to the total-curvature
quadratic form."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import DomainError, name_first
import numpy as np


@dataclass
class RayLengthReport:
    x0: object
    n: int
    t0: float
    T: float
    integral: float          # quadrature over [t0, T]
    tail_exponent: float     # fitted log-log slope of the integrand's last decade
    tail_estimate: float     # analytic power-law completion beyond T (finite case)
    total: float             # integral + tail_estimate when finite
    verdict: str             # finite | divergent | undetermined

    def to_json(self):
        """Strict JSON.  Only a finite verdict has a tail estimate and a
        total; the others write both as null.  Any other non-finite field,
        such as an integral that overflowed, is a DomainError naming it."""
        fields = {
            "x0": list(np.atleast_1d(np.asarray(self.x0, dtype=float)))
            if self.x0 is not None else None,
            "n": self.n, "t0": self.t0, "T": self.T,
            "integral": self.integral, "tail_exponent": self.tail_exponent,
            "tail_estimate": self.tail_estimate, "total": self.total}
        if self.verdict != "finite":
            fields["tail_estimate"] = fields["total"] = None
        for name, value in fields.items():
            if value is not None and not np.isfinite(value).all():
                raise DomainError(f"ray length {name} is not finite")
        return json.dumps({**fields, "verdict": self.verdict}, sort_keys=True,
                          allow_nan=False)


TAIL_MARGIN = 0.05
RAY_SAMPLES = 4096   # log-spaced quadrature nodes on [t0, T]


def fit_loglog_slope(t, v):
    """Least-squares slope of ln v against ln t over the points with v > 0."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    keep = v > 0
    lt, lv = np.log(t[keep]), np.log(v[keep])
    A = np.vstack([lt, np.ones_like(lt)]).T
    slope, _ = np.linalg.lstsq(A, lv, rcond=None)[0]
    return float(slope)


def ray_length(u, x0, n, t0, T) -> RayLengthReport:
    """Length of the radial curve t -> (t, x0) in the deformed metric:
    quadrature of u^(2/(n-1)) on [t0, T] plus a fitted power-law tail.
    u is a callable t -> u(t, x0) on arrays of t; x0 is only reported.

    The verdict follows the fitted tail exponent p of the integrand:
    p < -1 - margin -> finite (with analytic tail completion),
    p > -1 + margin -> divergent, otherwise undetermined.  A window shorter
    than a decade (T < 10 t0) is undetermined: its fit reads a local slope.
    """
    if n < 3:
        raise DomainError("need n >= 3")
    if not (0 < t0 < T):
        raise DomainError("need 0 < t0 < T")
    t = np.geomspace(t0, T, RAY_SAMPLES)
    # a u that does not read t, such as a constant, gives one value
    uval = np.broadcast_to(np.asarray(u(t), dtype=float), t.shape)
    name_first(t, np.isfinite(uval), "u is not finite")
    name_first(t, ~(uval <= 0), "u must be positive along the ray")
    integrand = uval ** (2.0 / (n - 1))
    integral = float(np.trapezoid(integrand, t))

    # fitted exponent over the last decade in log-log
    last = t >= T / 10.0
    p = fit_loglog_slope(t[last], integrand[last])
    decade = T >= 10.0 * t0

    if decade and p < -1.0 - TAIL_MARGIN:
        # integrand ~ c t^p beyond T: tail = c T^(p+1)/(-(p+1))
        tail = float(integrand[-1] * T / (-(p + 1.0)))
        verdict = "finite"
        total = integral + tail
    elif decade and p > -1.0 + TAIL_MARGIN:
        tail = math.inf
        verdict = "divergent"
        total = math.inf
    else:
        tail = math.nan
        verdict = "undetermined"
        total = math.nan
    return RayLengthReport(x0=x0, n=n, t0=t0, T=T, integral=integral,
                           tail_exponent=p, tail_estimate=tail, total=total,
                           verdict=verdict)


def yamabe_test_integral(R_end, n, b, cutoff_gradient_bound, vol_N):
    """End contribution of the radial cutoff profile (u = 1 on (2, b),
    linear ramp to 0 on (b, b+1)) to int (4n/(n-1)) |grad u|^2 + R u^2:

        vol_N * [ (4n/(n-1)) C_o^2 + R_end (b - 2) + R_end * int ramp u^2 ]

    Returns (value, threshold): the value turns negative once b exceeds
    threshold = 2 + (4n/(n-1)) C_o^2 / (-R_end).
    """
    if R_end >= 0:
        raise DomainError("end curvature constant must be negative")
    if n < 3:
        raise DomainError("need n >= 3")
    if b <= 2:
        raise DomainError("need b > 2")
    if cutoff_gradient_bound < 0:
        raise DomainError("gradient bound must be nonnegative")
    if vol_N <= 0:
        raise DomainError("base volume must be positive")
    grad_term = (4.0 * n / (n - 1.0)) * cutoff_gradient_bound ** 2
    ramp_sq = 1.0 / 3.0  # int_0^1 (1 - s)^2 ds
    value = vol_N * (grad_term + R_end * (b - 2.0) + R_end * ramp_sq)
    threshold = 2.0 + grad_term / (-R_end)
    return value, threshold
