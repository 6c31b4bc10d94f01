"""Monotone sub/supersolution iteration and comparison-ODE certificates for
the prescribed-curvature equation

    (4n/(n+1)) u'' + R(t) u - R(g) u^((n-3)/(n+1)) = 0.

Certificates integrate the EQUALITY case of a proof's differential
inequality from positive initial data; by the comparison principle the true
averaged profile lies below that trajectory, so a zero crossing of the
trajectory is a numerical witness of the contradiction the proof forces.
Inconclusive is a valid answer and is returned whenever hypotheses fail.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import DomainError, StiffFailure, name_first
import numpy as np

from .completeness import fit_loglog_slope, ray_length
from .geometry import BaseGeometry, DimensionConstants
from .rk45 import solve_ivp  # every integration goes through this one name
from .warp import warped_scalar_curvature

DEFAULT_T_MAX = 1.0e4
RTOL = 1.0e-10
ATOL = 1.0e-12
MONOTONE_TOL = 1.0e-12      # a monotone_solve step this small ends the solve
MONOTONE_MAX_ITER = 1000    # ~25x the most a valid bracket takes (39, n = 5)


# ---------------------------------------------------------------------------
# problem description and results


@dataclass(frozen=True)
class OdeSpec:
    """The second-order equation monotone_solve solves, in the one form
    'eq31', which pins the base curvature to -n(n-1) (class-C
    normalization).
    """

    n: int
    R: object            # callable R(t) or constant
    R_g: float
    t0: float
    T: float
    form: str = "eq31"

    def __post_init__(self):
        if self.t0 <= 0 or self.T <= self.t0:
            raise DomainError("need 0 < t0 < T")
        if self.form != "eq31":
            raise DomainError(f"unknown form '{self.form}'")
        expected = -self.n * (self.n - 1)
        if abs(self.R_g - expected) > 1e-12 * abs(expected):
            raise DomainError(
                f"form eq31 requires R(g) = {expected}, got {self.R_g}")

    def R_at(self, t):
        return self.R(t) if callable(self.R) else self.R


@dataclass
class Verdict:
    """Existence / nonexistence / incompleteness / inconclusive certificate
    with numeric witnesses."""

    kind: str
    reason: str = ""
    witnesses: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("existence", "nonexistence", "incompleteness",
                             "inconclusive"):
            raise DomainError(f"unknown verdict kind '{self.kind}'")
        if self.kind == "nonexistence":
            w = self.witnesses
            if not w.get("crossings") and "sign_change_at" not in w:
                raise DomainError(
                    "nonexistence verdict needs a crossing or sign-change witness")

    def to_json(self):
        """Strict JSON.  A witness or param that is or holds a non-finite
        number is a DomainError naming the first, in key order."""
        def clean(v, name):
            if isinstance(v, (np.floating, np.integer)):
                v = float(v)
            if isinstance(v, float) and not math.isfinite(v):
                raise DomainError(f"{name} is not finite")
            if isinstance(v, (list, tuple, np.ndarray)):
                return [clean(x, name) for x in v]
            if isinstance(v, dict):
                return {k: clean(x, name) for k, x in v.items()}
            return v

        witnesses = {k: clean(v, f"witness {k}")
                     for k, v in sorted(self.witnesses.items())}
        params = {k: clean(v, f"param {k}")
                  for k, v in sorted(self.params.items())}
        return json.dumps({"kind": self.kind, "reason": self.reason,
                           "witnesses": witnesses, "params": params},
                          sort_keys=True, allow_nan=False)

    def to_text(self):
        lines = [f"kind: {self.kind}"]
        if self.reason:
            lines.append(f"reason: {self.reason}")
        for key in sorted(self.params):
            lines.append(f"param {key}: {self.params[key]}")
        for key in sorted(self.witnesses):
            lines.append(f"witness {key}: {self.witnesses[key]}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# integration


def _signed_pow(u, p):
    if p == 0:
        return np.ones_like(np.asarray(u, dtype=float))
    return np.sign(u) * np.abs(u) ** p


def _second_order(rhs, t_span, y0, crossing=False, **kw):
    """Integrate y'' = rhs(t, y, y') as a first-order system.  With crossing
    the first downward zero of y ends the run, in t_events[0]."""
    def sys(t, y):
        return [y[1], rhs(t, y[0], y[1])]

    if crossing:
        def event(t, y):
            return y[0]
        event.terminal = True
        event.direction = -1
        kw["events"] = event
    return solve_ivp(sys, t_span, y0, rtol=RTOL, atol=ATOL, **kw)


def _named(kind, p, names):
    """'kind with name = value, ...' for the parameters that set a window."""
    return f"{kind} with " + ", ".join(f"{k} = {p[k]!r}" for k in names)


def _positive_float(who, what, value):
    """value, a constant the right-hand side reads; one that overflowed or
    underflowed to 0 is a DomainError naming `who` before anything is
    integrated."""
    if not 0 < value < math.inf:
        raise DomainError(f"{who}: {what} = {value!r} is not a positive float")
    return value


def _check_window(who, start, end, what="", squares_t=False):
    """A search window that overflow or rounding left empty or infinite is a
    DomainError naming `who`, before anything is integrated on it; so is one
    on which t^2 overflows, or underflows below the normal floats (a quotient
    by it is then inf or a ZeroDivisionError), for a right-hand side that
    squares t."""
    if not start < end < math.inf:
        raise DomainError(f"{who}: the {what}search window [{start!r}, "
                          f"{end!r}] is empty or infinite in floating point")
    if squares_t and not end * end < math.inf:
        raise DomainError(f"{who}: t^2 overflows a float on the {what}search "
                          f"window [{start!r}, {end!r}]")
    if squares_t and not start * start >= np.finfo(float).tiny:
        raise DomainError(f"{who}: t^2 underflows a float on the {what}search "
                          f"window [{start!r}, {end!r}]")


# ---------------------------------------------------------------------------
# monotone sub/supersolution iteration


class SubSuperPair:
    """The barriers of a monotone solve: a subsolution u_minus and a
    supersolution u_plus above it, each a callable of t or a constant.
    monotone_solve checks both on its grid."""

    def __init__(self, u_minus, u_plus):
        self.u_minus = u_minus if callable(u_minus) else (lambda t, v=u_minus: np.full_like(np.asarray(t, dtype=float), v))
        self.u_plus = u_plus if callable(u_plus) else (lambda t, v=u_plus: np.full_like(np.asarray(t, dtype=float), v))


def _discrete_residual(spec, t, u):
    """Centered-difference residual of the equation for u on the uniform
    grid t, at its interior nodes."""
    n = spec.n
    p = DimensionConstants(n).nonlin_exp
    h = t[1] - t[0]
    d2u = (u[2:] - 2 * u[1:-1] + u[:-2]) / h ** 2
    return ((4.0 * n / (n + 1)) * d2u + spec.R_at(t[1:-1]) * u[1:-1]
            - spec.R_g * _signed_pow(u[1:-1], p))


@dataclass
class MonotoneSolution:
    t: np.ndarray
    u: np.ndarray
    residual_norm: float
    iterations: int
    monotone: bool
    bracketed: bool


def _solve_tridiagonal(dl, d, du, b):
    """Solve the tridiagonal system with sub-diagonal dl, diagonal d and
    super-diagonal du for the right-hand side b.

    Gaussian elimination without pivoting in the operation order of LAPACK
    dgtsv, which takes no row interchange when every pivot |d_i| is at least
    |dl_i| (a diagonally dominant matrix), so the result is then bit for bit
    scipy.linalg.solve_banded((1, 1), ...).
    """
    d, x = list(d), list(b)
    for i in range(len(d) - 1):
        fact = dl[i] / d[i]
        d[i + 1] -= fact * du[i]
        x[i + 1] -= fact * x[i]
    x[-1] /= d[-1]
    for i in range(len(d) - 2, -1, -1):
        x[i] = (x[i] - du[i] * x[i + 1]) / d[i]
    return np.array(x)


def monotone_solve(spec: OdeSpec, pair: SubSuperPair, bc,
                   num_points=801) -> MonotoneSolution:
    """Monotone iteration on the centered-difference discretization.

    The barriers are checked first: each must be a discrete sub- or
    supersolution up to the round-off of its residual.  At each
    node the nonlinearity is shifted by M_i, its Lipschitz bound on that
    node's bracket, so iterates march monotonically up from the
    subsolution to the true solution.  The iteration stops when the step falls
    below MONOTONE_TOL or stops shrinking (round-off); reaching
    MONOTONE_MAX_ITER first is a StiffFailure.  bc = (left, right) Dirichlet
    values.
    """
    if num_points < 3:
        raise DomainError(
            f"need at least 3 grid points (one interior node), got {num_points}")
    n = spec.n
    p = DimensionConstants(n).nonlin_exp
    a = 4.0 * n / (n + 1)
    t = np.linspace(spec.t0, spec.T, num_points)
    h = t[1] - t[0]
    lo = np.asarray(pair.u_minus(t), dtype=float)
    hi = np.asarray(pair.u_plus(t), dtype=float)
    name_first(t, ~(lo <= 0), "subsolution must be positive")
    name_first(t, ~(lo > hi), "ordering violated: u_minus > u_plus")

    bc_l, bc_r = bc
    if not (lo[0] - 1e-12 <= bc_l <= hi[0] + 1e-12
            and lo[-1] - 1e-12 <= bc_r <= hi[-1] + 1e-12):
        raise DomainError("boundary values must lie inside the bracket")

    R_vals = np.asarray(spec.R_at(t), dtype=float)
    if R_vals.ndim == 0:
        R_vals = np.full_like(t, float(R_vals))

    R_int = R_vals[1:-1]

    # each barrier may miss its sign only by the round-off of its residual:
    # every value off by ~2 eps, weighted by the stencil (1, -2, 1)
    eps = np.finfo(float).eps
    for name, kind, vals, sign in (("u_minus", "sub", lo, 1.0),
                                   ("u_plus", "super", hi, -1.0)):
        res = _discrete_residual(spec, t, vals)
        slack = 2 * eps * (a / h ** 2 * (vals[2:] + 2 * vals[1:-1] + vals[:-2])
                           + np.abs(R_int) * vals[1:-1]
                           - spec.R_g * _signed_pow(vals[1:-1], p))
        bad = sign * res < -slack
        if bad.any():
            i = int(np.argmax(bad))
            raise DomainError(
                f"{name} is not a {kind}solution: residual {res[i]:.6g} "
                f"{'<' if sign > 0 else '>'} 0 at t = {float(t[i + 1])!r}")

    def nonlin(u):
        # n(n-1) u^p + R u, the non-second-derivative part of eq31
        return -spec.R_g * _signed_pow(u, p) + R_int * u

    # per-node shift keeping Phi_i(u) + M_i u nondecreasing on [lo_i, hi_i]:
    # M_i >= sup(-Phi_i'), Phi_i' = n(n-1) p u^(p-1) + R_i, monotone in u
    # for u > 0, so the sup is at one end of the bracket
    def neg_dphi(v):
        return spec.R_g * p * _signed_pow(v, p - 1) - R_int
    M = np.maximum(0.0, np.maximum(neg_dphi(lo[1:-1]), neg_dphi(hi[1:-1])))

    # tridiagonal a*D2 - diag(M), Dirichlet rows folded in: weakly diagonally
    # dominant, its end rows strictly, so the elimination needs no pivoting
    off = [a / h ** 2] * (num_points - 3)
    diag = (-2.0 * a / h ** 2 - M).tolist()

    u = lo.copy()
    u[0], u[-1] = bc_l, bc_r
    monotone = True
    delta = math.inf
    iterations = 0
    for iterations in range(1, MONOTONE_MAX_ITER + 1):
        rhs = -M * u[1:-1] - nonlin(u[1:-1])
        rhs[0] -= a / h ** 2 * bc_l
        rhs[-1] -= a / h ** 2 * bc_r
        new_interior = _solve_tridiagonal(off, diag, off, rhs)
        # later steps would only carry a nan on
        name_first(t[1:-1], np.isfinite(new_interior), "u is not finite")
        step = new_interior - u[1:-1]
        size = float(np.abs(new_interior).max())
        if iterations > 1 and np.any(step < -1e-9 * max(1.0, size)):
            monotone = False
        u[1:-1] = new_interior
        prev_delta, delta = delta, float(np.abs(step).max())
        # steps stall at a few eps * max|u|; one that has stopped shrinking
        # is round-off once it is that small (early steps can grow)
        stalled = delta >= prev_delta and delta < math.sqrt(eps) * size
        if delta < MONOTONE_TOL or stalled:
            break
    else:
        raise StiffFailure(f"monotone iteration did not converge in "
                           f"{MONOTONE_MAX_ITER} iterations: last step {delta!r}")

    margin = 1e-8 * max(1.0, float(hi.max()))
    bracketed = bool(np.all(u >= lo - margin) and np.all(u <= hi + margin))
    res = _discrete_residual(spec, t, u)
    return MonotoneSolution(t=t, u=u, residual_norm=float(np.abs(res).max()),
                            iterations=iterations, monotone=monotone,
                            bracketed=bracketed)


# ---------------------------------------------------------------------------
# comparison certificates


def _forced_crossing(rhs, t0, y0, T, what, who, tries=1, grow=None,
                     squares_t=True):
    """First downward zero crossing of y'' = rhs(t, y, y') with y(t0) = y0,
    searched on [t0, T], then on [t0, grow(T)], ... over `tries` windows.
    Finding none is a StiffFailure naming `who` and `what`, never a
    verdict; a window that floats cannot hold, or on which t^2 overflows for
    an rhs that squares t, is a DomainError naming `who`, and so is a
    crossing that rounds to t0 (no sign change)."""
    for _ in range(tries):
        _check_window(who, t0, T, squares_t=squares_t)
        sol = _second_order(rhs, (t0, T), y0, crossing=True)
        if len(sol.t_events[0]):
            cross = float(sol.t_events[0][0])
            if not cross > t0:
                raise DomainError(f"{who}: the crossing found at {cross!r} is "
                                  f"not past t0 = {t0!r} in floating point")
            return cross
        if grow is not None:
            T = grow(T)
    raise StiffFailure(f"{who}: no crossing found {what}")


def _growth_exponent(coeff_fn, t0, T, dy0, who):
    """Measured power-law growth of the extremal solution of
    v'' = coeff(t) v, v(t0) = 1, v'(t0) = dy0, over the last decade of
    [t0, T]; coeff(t) squares t."""
    _check_window(who, t0, T, "growth ", squares_t=True)
    sol = _second_order(lambda t, v, dv: coeff_fn(t) * v, (t0, T), [1.0, dy0],
                        t_eval=np.geomspace(T / 10.0, T, 40))
    return fit_loglog_slope(sol.t, sol.y[0]), sol


# Certificate bodies: each takes its checked, coerced parameters and returns
# (verdict kind, reason, witnesses); comparison_certificate does the rest.


def _oscillation(p):
    """Classify the comparison equation t^2 u'' + (c/4) u = 0 on [t0, T].

    In log time s it is w'' - w' + (c/4) w = 0, solved from w(s0) = 1,
    w'(s0) = 1/2 by e^((s-s0)/2) cos(delta (s-s0)), delta = sqrt(c-1)/2
    (cosh, never 0, for c <= 1).  c > 1: nonexistence, its zeros
    t0 e^((k+1/2) pi/delta), k = 0, 1, 2, the crossing witnesses, with
    ratios e^(2 pi / sqrt(c-1)); ones that do not rise strictly past t0 in
    floating point are a DomainError.  c <= 1: inconclusive, with
    the positive power-law witness u = t^alpha, alpha(1-alpha) = c/4.
    T = None sizes the window: three crossings for c > 1, DEFAULT_T_MAX
    otherwise.
    """
    c, t0, T = p["c"], p["t0"], p["T"]
    who = _named("oscillation", p, ("c", "t0", "T"))
    if c <= 1:
        horizon = T if T is not None else DEFAULT_T_MAX
    else:
        delta = math.sqrt(c - 1.0) / 2.0
        # the zeros k = 0, 1, 2 lie within a factor ratio^3 of t0
        try:
            ratio = math.exp(math.pi / delta)
            required_T = t0 * ratio ** 3
        except OverflowError:
            required_T = math.inf
        if math.isinf(required_T):
            raise DomainError(
                f"c = {c!r} is too close to 1 for t0 = {t0!r}: the window for "
                f"three crossings, t0 * e^(6 pi / sqrt(c - 1)), overflows a float")
        if T is not None and T < required_T:
            raise DomainError("window cannot contain two predicted crossings"
                              f" (required T >= {required_T:.6g})")
        horizon = required_T
    _check_window(who, math.log(t0), math.log(horizon), "log-time ")
    if c <= 1:
        alpha = 0.5 * (1.0 - math.sqrt(1.0 - c))
        return ("inconclusive",
                "c <= 1: comparison solution does not oscillate",
                {"positive_witness_exponent": alpha,
                 "witness_check": alpha * (1 - alpha) - c / 4.0,
                 "crossings": []})
    crossings = [t0 * math.exp((k + 0.5) * math.pi / delta) for k in range(3)]
    if not all(a < b for a, b in zip([t0] + crossings, crossings)):
        raise DomainError(f"{who}: the crossings {crossings!r} do not rise "
                          f"strictly past t0 = {t0!r} in floating point")
    ratios = [b / a for a, b in zip(crossings, crossings[1:])]
    return ("nonexistence",
            "comparison solution of t^2 u'' + (c/4) u = 0 oscillates",
            {"crossings": crossings,
             "crossing_count": len(crossings),
             "crossing_ratios": ratios,
             "predicted_ratio": ratio,
             "delta": delta})


def _thm48(p):
    """F'' <= -b^2 F forces F to vanish: integrate the equality and report
    the crossing (cosine solution: t0 + pi/(2b) from F = 1, F' = 0)."""
    b, t0 = p["b"], p["t0"]
    cross = _forced_crossing(lambda t, F, dF: -b * b * F, t0, [1.0, 0.0],
                             t0 + 4.0 * math.pi / b, "for F'' = -b^2 F",
                             _named("thm48", p, ("b", "t0")), squares_t=False)
    return ("nonexistence", "averaged square-warp profile is forced to vanish",
            {"crossings": [cross],
             "predicted_crossing": t0 + math.pi / (2.0 * b)})


def _thm413(p):
    """F'' <= -b^2/n + (c'/t^2) F with c' = c/n < 2: growth-capped profile
    is forced to vanish."""
    n, t0 = p["n"], p["t0"]
    b2 = _positive_float(_named("thm413", p, ("b",)), "b^2", p["b"] * p["b"])
    cp = p["c"] / n
    witnesses = {}
    if cp > 0:
        # extremal growth of F'' = (c'/t^2) F: the indicial exponent, the
        # larger root of eps(eps - 1) = c', against the measured one
        eps = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * cp))
        measured, _ = _growth_exponent(lambda t: cp / t ** 2, t0, 1.0e4 * t0,
                                       1.0 / t0, _named("thm413", p, ("t0",)))
        witnesses["indicial_exponent"] = eps
        witnesses["measured_growth_exponent"] = measured

    def grow(T):
        return max(2.0 * T, t0 + 10.0)
    witnesses["crossings"] = [_forced_crossing(
        lambda t, F, dF: -b2 / n + (cp / t ** 2) * F, t0,
        [1.0, 0.0], grow(t0), "for the comparison ODE",
        _named("thm413", p, ("t0",)), 12, grow)]
    return ("nonexistence", "averaged square-warp profile is forced to vanish",
            witnesses)


def _thm418(p):
    """With derivative bounds |f_t| <= C1 f/t, |f_tt| <= C2 f/t^2,
    |u_t| <= C u, the weighted average calF = int f^n u obeys
    calF'' <= k(t) calF with k(t) -> -c^2 < 0; integrate past the point
    where k <= -c^2/2 and report the forced crossing."""
    n, b, C1 = p["n"], p["b"], p["C1"]
    c2 = _positive_float(_named("thm418", p, ("b",)), "c^2 = c_(n+1) b^2",
                         DimensionConstants(n).c_np1 * b * b)
    try:
        A = n * (n - 1) * C1 ** 2 + n * p["C2"]
    except OverflowError:
        raise DomainError(f"{_named('thm418', p, ('C1',))}: C1^2 overflows "
                          "a float") from None
    B = n * p["C"] * C1
    # A/t^2 + B/t <= c^2/2  <=>  (c^2/2) t^2 - B t - A >= 0
    t_bar = (B + math.sqrt(B * B + 2.0 * A * c2)) / c2
    t_start = max(t_bar, p["t0"])
    cp = math.sqrt(c2 / 2.0)
    cross = _forced_crossing(lambda t, F, dF: (A / t ** 2 + B / t - c2) * F,
                             t_start, [1.0, 0.0], t_start + 4.0 * math.pi / cp,
                             "for the comparison ODE",
                             _named("thm418", p, ("C1", "C2", "C", "b", "t0")))
    return ("nonexistence",
            "averaged f^n-weighted conformal factor is forced to vanish",
            {"crossings": [cross],
             "coefficient_negative_from": t_bar,
             "c_squared": c2,
             "c_prime": cp})


def _thm112(p):
    """Deforming dt^2 + t^(2/(n+1)) g to uniformly positive curvature forces
    the base-averaged conformal factor to vanish: integrate

        U'' + (n/(n+1)) U'/t - ((n-1)/(4(n+1))) U/t^2 = -eps^2 U^((n+3)/(n-1))
    """
    n, t0 = p["n"], p["t0"]
    eps2 = _positive_float(_named("thm112", p, ("eps",)), "eps^2",
                           p["eps"] * p["eps"])
    q = (n + 3.0) / (n - 1.0)
    a1 = n / (n + 1.0)
    a0 = (n - 1.0) / (4.0 * (n + 1.0))

    def rhs(t, U, dU):
        return -a1 * dU / t + a0 * U / t ** 2 - eps2 * _signed_pow(U, q)

    def grow(T):
        return 2.0 * T + 10.0
    cross = _forced_crossing(rhs, t0, [1.0, 0.0], grow(t0),
                             "for the comparison ODE",
                             _named("thm112", p, ("t0",)), 16, grow)
    return ("nonexistence", "base-averaged conformal factor is forced to vanish",
            {"crossings": [cross], "transform_alpha": -(n - 1.0) / 2.0})


def _thm38(p):
    """Class-C end with warp f: conformal deformation to nonnegative
    curvature leaves radial rays of finite length.

    Follows the proof chain: substitute U = f^(-(n-1)/2) v, integrate the
    extremal (f v')' = -delta v / f alongside the stretched time
    tau = int dt/f, confirm the decay bound

        v(t) <= exp(-(delta / (2 C^2)) (ln ln t - ln ln t0)^2)

    on the positive arc of the trajectory (case f <= C t ln t; the
    power-growth case yields a bounded v instead), then certify a finite
    ray length of the bounding profile via completeness.ray_length.
    """
    n, kappa_sq, delta = p["n"], p["kappa_sq"], p["delta"]
    t0, T, f = p["t0"], p["T"], p["f"]

    # stated vs proof-form bound constants for f f''
    c_sq_statement = 2.0 * (kappa_sq - delta) / (3.0 * n + 1.0)
    ff_bound = 2.0 * (-kappa_sq + delta) / (3.0 * n + 1.0)
    grid = np.geomspace(t0, T, 256)
    fvals = np.asarray(f.eval(grid), dtype=float)
    ffpp = fvals * np.asarray(f.d2(grid), dtype=float)
    finite = np.isfinite(fvals) & np.isfinite(ffpp)
    if not finite.all():
        i = int(np.argmin(finite))
        what = "f" if not np.isfinite(fvals[i]) else "f f''"
        raise DomainError(f"{what} is not finite at t = {float(grid[i])!r}")
    if float(np.min(ffpp - ff_bound)) < -1e-12:
        return ("inconclusive",
                "hypothesis f f'' >= 2(-kappa^2+delta)/(3n+1) violated",
                {"min_f_fpp": float(np.min(ffpp)), "required_bound": ff_bound})

    # growth class: (i) f <= C t ln t (the ratio f/(t ln t) stays bounded on
    # the window), else (ii) f >= C t^alpha with alpha > 1
    slope_tail = fit_loglog_slope(grid[-64:], fvals[-64:])
    ratio = fvals / (grid * np.log(grid))
    if float(ratio.max()) <= 2.0 * float(np.median(ratio)):
        case = "log"
    elif slope_tail > 1.05:
        case = "power"
    else:
        return ("inconclusive",
                "f matches neither growth hypothesis (i) nor (ii)",
                {"f_tail_log_slope": slope_tail})

    alpha = -(n - 1.0) / 2.0     # U = f^alpha v, n + 2 alpha = 1

    # extremal trajectory of (f v')' = -delta v / f with stretched time tau
    def sys(t, y):
        fv = float(f.eval(t))
        return [y[1] / fv, -delta * y[0] / fv, 1.0 / fv]

    t_eval = np.geomspace(t0, T, 1024)
    sol = solve_ivp(sys, (t0, T), [1.0, 0.0, 0.0], rtol=RTOL, atol=ATOL,
                    t_eval=t_eval)
    tt, v, tau = sol.t, sol.y[0], sol.y[2]
    pos = v > 1e-12
    witnesses = {"growth_case": case,
                 "f_tail_log_slope": slope_tail,
                 "c_squared_statement": c_sq_statement,
                 "ff_second_derivative_bound": ff_bound,
                 "transform_alpha": alpha}

    beta = (n - 1.0) / 2.0
    if case == "log":
        # decay bound on the positive arc, with C = sup f/(t ln t)
        C_f = float(ratio.max())
        decay_rate = delta / (2.0 * C_f ** 2)
        lnln = np.log(np.log(tt[pos])) - math.log(math.log(t0))
        bound = np.exp(-decay_rate * lnln ** 2)
        decay_ok = bool(np.all(v[pos] <= bound * (1.0 + 1e-8)))
        witnesses["decay_rate"] = decay_rate
        witnesses["decay_bound_holds"] = decay_ok
        witnesses["decay_margin"] = float(np.min(bound - v[pos]))
        if not decay_ok:
            return ("inconclusive", "decay bound not confirmed on trajectory",
                    witnesses)
        # weaken to v <= C'/(ln t)^beta and bound U = f^alpha v
        C_prime = float(np.max(v[pos] * np.log(tt[pos]) ** beta))
        witnesses["beta"] = beta
        witnesses["C_prime"] = C_prime

        def u_bound(t):
            t = np.asarray(t, dtype=float)
            return C_prime * np.asarray(f.eval(t), dtype=float) ** alpha \
                / np.log(t) ** beta
    else:
        # power growth: f v' stays bounded, so v is bounded
        v_cap = float(np.max(np.abs(v)))
        witnesses["v_bound"] = v_cap

        def u_bound(t):
            t = np.asarray(t, dtype=float)
            return v_cap * np.asarray(f.eval(t), dtype=float) ** alpha

    report = ray_length(u_bound, None, n, t0, T)
    witnesses["ray_integral"] = report.integral
    witnesses["ray_tail_exponent"] = report.tail_exponent
    # as RayLengthReport.to_json writes it: a total only once it is finite
    witnesses["ray_total"] = report.total if report.verdict == "finite" else None
    witnesses["ray_verdict"] = report.verdict
    if report.verdict != "finite":
        return ("inconclusive",
                "ray-length integral of the bounding profile not certified finite",
                witnesses)
    return ("incompleteness",
            "radial rays have finite length in the deformed metric", witnesses)


def _barrier33(p):
    """No warped end can keep its curvature above -n(n-1)/t^2 when the base
    curvature dips to -kappa^2 < 0 somewhere.

    Follows the proof chain numerically: growth cap t^((n+1)/2) for the
    extremal of u''/u = (n+1)(n-1)/(4 t^2), the improved linear cap, and
    the forced sign change of u.  When a profile is supplied, its curvature
    (over a constant base of scalar curvature base_R, -kappa^2 by default)
    is first checked against the barrier hypothesis; a profile that dips
    below -n(n-1)/t^2 yields an inconclusive verdict (hypotheses unmet).
    """
    kappa_sq, n, t0, T = p["kappa_sq"], p["n"], p["t0"], p["T"]
    profile, base_R = p["profile"], p["base_R"]
    if profile is not None:
        # hypothesis check: R(t) >= -n(n-1)/t^2 on the window
        _check_window(_named("barrier33", p, ("t0", "T")), t0, T,
                      "hypothesis ", squares_t=True)
        base = BaseGeometry.constant(n, base_R if base_R is not None
                                     else -kappa_sq)
        grid = np.geomspace(t0, T, 256)
        Rvals = np.asarray(warped_scalar_curvature(profile, base, grid), dtype=float)
        margin = Rvals * grid ** 2 + n * (n - 1)
        if float(margin.min()) < 0:
            return ("inconclusive",
                    "profile curvature dips below -n(n-1)/t^2; "
                    "barrier hypothesis unmet",
                    {"min_margin_t2R_plus_nn1": float(margin.min())})

    C0 = (n + 1.0) * (n - 1.0) / 4.0
    eps_ind = (n + 1.0) / 2.0    # the indicial root: eps(eps - 1) = C0
    measured, sol = _growth_exponent(lambda t: C0 / t ** 2, t0, 100.0 * t0,
                                     eps_ind / t0,
                                     _named("barrier33", p, ("t0",)))
    cap_c = float(np.max(sol.y[0] / sol.t ** eps_ind)) * 1.05

    # improved bound: kappa^2/u^(4/(n+1)) >= c'/t^2 with the measured cap
    c_prime = kappa_sq / cap_c ** (4.0 / (n + 1.0))
    C_lin = cap_c  # after u'' <= 0 kicks in: u <= C t

    # final stage: u''/u <= ((n+1)/(4n)) [ n(n-1)/t^2 - kappa^2/(C t)^(4/(n+1)) ]
    coeff = (n + 1.0) / (4.0 * n)
    expo = 4.0 / (n + 1.0)

    def k(t):
        return coeff * (n * (n - 1.0) / t ** 2
                        - kappa_sq / (C_lin * t) ** expo)

    # start where the coefficient is safely negative
    t_neg = t0
    while k(t_neg) >= 0 and t_neg < 1e12:
        t_neg *= 2.0
    if k(t_neg) >= 0:
        raise StiffFailure("coefficient never turns negative")

    def grow(T):
        return 2.0 * T + 10.0
    cross = _forced_crossing(lambda t, u, du: k(t) * u, t_neg,
                             [C_lin * t_neg, C_lin], grow(t_neg),
                             "in the barrier chain",
                             _named("barrier33", p, ("kappa_sq", "t0")),
                             16, grow)
    return ("nonexistence",
            "substituted warp forced through zero under the barrier",
            {"crossings": [cross],
             "growth_exponent_cap": eps_ind,
             "measured_growth_exponent": measured,
             "improved_constant": c_prime,
             "linear_cap_constant": C_lin,
             "coefficient_negative_from": t_neg})


class _Comparison(NamedTuple):
    body: object            # checked params -> (verdict kind, reason, witnesses)
    required: tuple
    defaults: dict          # each optional parameter and its value if not given
    domain: dict = {}       # name -> holds(params), in order: else "need <name>"
    hypotheses: dict = {}   # name -> holds(params), in order: else inconclusive
    echo: tuple = None      # the params echoed, given or defaulted; None: as given


_N_T0 = {"n": 3, "t0": 3.0}
_N_AT_LEAST_3 = {"n >= 3": lambda p: p["n"] >= 3}

# in the order `certify --kind` lists them
_COMPARISONS = {
    "oscillation": _Comparison(
        _oscillation, ("c",), {"t0": 3.0, "T": None},
        domain={"c > 0": lambda p: p["c"] > 0, "t0 > 2": lambda p: p["t0"] > 2},
        echo=("c", "t0")),
    "thm48": _Comparison(_thm48, ("b",), _N_T0,
                         hypotheses={**_N_AT_LEAST_3,
                                     "b > 0": lambda p: p["b"] > 0}),
    "thm413": _Comparison(_thm413, ("c", "b"), _N_T0,
                          hypotheses={**_N_AT_LEAST_3,
                                      "c < 2n": lambda p: p["c"] < 2 * p["n"],
                                      "b > 0": lambda p: p["b"] > 0}),
    "thm418": _Comparison(_thm418, ("C1", "C2", "C", "b"), _N_T0, hypotheses={
        **_N_AT_LEAST_3, "positive constants":
        lambda p: min(p["C1"], p["C2"], p["C"], p["b"]) > 0}),
    "thm112": _Comparison(_thm112, (), {**_N_T0, "eps": 1.0},
                          hypotheses={**_N_AT_LEAST_3,
                                      "eps > 0": lambda p: p["eps"] > 0}),
    "thm38": _Comparison(_thm38, ("kappa_sq", "delta", "f"),
                         {**_N_T0, "T": DEFAULT_T_MAX},
                         hypotheses={**_N_AT_LEAST_3, "0 < delta < kappa^2":
                                     lambda p: 0 < p["delta"] < p["kappa_sq"]}),
    "barrier33": _Comparison(
        _barrier33, ("kappa_sq",),
        {**_N_T0, "T": DEFAULT_T_MAX, "profile": None, "base_R": None},
        domain={**_N_AT_LEAST_3, "kappa^2 > 0": lambda p: p["kappa_sq"] > 0},
        echo=("kappa_sq", "n", "t0", "T", "profile")),
}
CERTIFICATE_KINDS = tuple(_COMPARISONS)
_WARPS = ("f", "profile")       # taken as given, echoed by their source
# the domain of every kind, checked after its own
_WINDOW = {"t0 > 0": lambda p: p["t0"] > 0,
           "t0 < T": lambda p: p.get("T") is None or p["t0"] < p["T"]}


def _coerce(kind, name, value):
    """A parameter as the bodies read it: a warp as given, n an int and every
    other a finite float; anything else is a DomainError naming it."""
    if name in _WARPS:
        return value
    try:
        x = int(value) if name == "n" else float(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{kind} parameter '{name}' must be a number") from None
    if name == "n" and x != value:
        raise DomainError(f"{kind} parameter 'n' must be an integer, "
                          f"got {value!r}")
    if isinstance(x, float) and not math.isfinite(x):
        raise DomainError(f"{kind} parameter '{name}' must be finite, got {x!r}")
    return x


def comparison_parameters(kind):
    """(required, optional) parameter names of a certificate kind."""
    if kind not in _COMPARISONS:
        raise DomainError(f"unknown certificate kind '{kind}'")
    cert = _COMPARISONS[kind]
    return cert.required, tuple(cert.defaults)


def comparison_certificate(kind, params) -> Verdict:
    """Run one certificate: the oscillation threshold, the -n(n-1)/t^2
    barrier, or one of the averaged comparison-ODE certificates.

    The params are checked against the kind's declaration and coerced; a
    missing or unknown parameter, or a value out of the kind's domain, is a
    DomainError naming it.  A failed hypothesis is an inconclusive verdict
    naming it.  The verdict echoes the caller's params (or the kind's
    declared ones, defaults filled in), each warp given by its source.
    """
    required, optional = comparison_parameters(kind)
    for name in required:
        if name not in params:
            raise DomainError(f"{kind} requires parameter '{name}'")
    cert = _COMPARISONS[kind]
    p = dict(cert.defaults)
    for name, value in params.items():
        if name not in required + optional:
            raise DomainError(f"{kind} takes no parameter '{name}'")
        p[name] = _coerce(kind, name, value)
    for name, holds in {**cert.domain, **_WINDOW}.items():
        if not holds(p):
            raise DomainError(f"need {name}")
    echo = (dict(params) if cert.echo is None else
            {name: params.get(name, p[name]) for name in cert.echo
             if p[name] is not None})
    for name in _WARPS:
        if name in echo:
            echo[name] = echo[name].source

    for name, holds in cert.hypotheses.items():
        if not holds(p):
            return Verdict("inconclusive", reason=f"hypothesis {name} violated",
                           params=echo)
    verdict, reason, witnesses = cert.body(p)
    return Verdict(verdict, reason=reason, witnesses=witnesses, params=echo)


def oscillation_certificate(c, t0, T=None) -> Verdict:
    """comparison_certificate("oscillation", ...), with T = None for a
    window sized from c."""
    window = {"t0": t0} if T is None else {"t0": t0, "T": T}
    return comparison_certificate("oscillation", {"c": c, **window})


def barrier_certificate_33(g_curvature_min, n, t_range, profile=None,
                           base_scalar=None) -> Verdict:
    """comparison_certificate("barrier33", ...) for kappa^2 = g_curvature_min
    and t_range = (t0, T)."""
    t0, T = t_range
    params = {"kappa_sq": g_curvature_min, "n": n, "t0": t0, "T": T}
    if profile is not None:
        params["profile"] = profile
    if base_scalar is not None:
        params["base_R"] = base_scalar
    return comparison_certificate("barrier33", params)
