"""Adaptive explicit Runge-Kutta 5(4) integration: the Dormand-Prince pair
(J. R. Dormand, P. J. Prince, "A family of embedded Runge-Kutta formulae",
J. Comput. Appl. Math. 6, 1980) with error control on the 4th-order
estimate, local extrapolation, a quartic dense output and event location.

This is a port of the RK45 path of scipy 1.17.1's
`scipy.integrate.solve_ivp` (`_ivp/ivp.py`, `rk.py`, `common.py`,
`base.py`, and the Brent root finder of `optimize/Zeros/brentq.c`), cut
down to what curvlab integrates: forward in time, at most one event
function, optional `t_eval`, scalar `rtol` and `atol`, and no step cap.  It
keeps scipy's operation order throughout, so for the same inputs it returns
bit-identical `t`, `y`, `t_events` and `nfev` (where scipy loops forever on
a non-finite fun(t0, y0), it raises StiffFailure); importing it costs numpy
only, where `scipy.integrate` costs most of a CLI process's start-up.

scipy is Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers,
and distributed under the BSD 3-Clause license.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, StiffFailure, ieee
import numpy as np

EPS = np.finfo(float).eps

SAFETY = 0.9        # multiplies steps predicted from the error estimate
MIN_FACTOR = 0.2    # smallest step decrease
MAX_FACTOR = 10     # largest step increase
ERROR_EXPONENT = -1 / 5   # -1 / (error estimator order + 1)
BRENT_XTOL = BRENT_RTOL = 4 * EPS   # event roots: solve_ivp's brentq call
BRENT_MAXITER = 100

# Dormand-Prince tableau: stage times C, stage coefficients A, 5th-order
# weights B, error weights E (5th minus 4th order, with the FSAL stage) and
# the dense-output coefficients P (optimum c_6 variant).
C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
              1/40])
P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
# per stage s >= 1: the coefficient row A[s, :s] and the stage time C[s]
STAGES = [(A[s, :s], float(C[s])) for s in range(1, len(C))]

TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


@dataclass
class OdeResult:
    """t: output times; y: states, shape (n, len(t)); t_events: [roots of
    the event function] or None; nfev: right-hand-side evaluations."""

    t: np.ndarray
    y: np.ndarray
    t_events: list | None
    nfev: int


def _norm(x):
    """RMS norm of a 1-D float array, as np.linalg.norm computes it.  It is a
    numpy float, so that a later division by zero gives inf or nan, as in
    scipy, and not ZeroDivisionError."""
    return np.float64(math.sqrt(x.dot(x))) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """Hairer, Norsett & Wanner's starting step (Solving ODEs I, II.4);
    costs one right-hand-side evaluation."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _norm(y0 / scale)
    d1 = _norm(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * f0
    f1 = fun(t0 + h0, y1)
    d2 = _norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval_length)


def _rk_step(fun, t, y, f, h, K, KT):
    """One Dormand-Prince step of size h; fills the stages into K, whose
    view K[:s].T is KT[s - 1]."""
    K[0] = f
    for s, (a, c) in enumerate(STAGES, start=1):
        dy = np.dot(KT[s - 1], a) * h
        K[s] = fun(t + c * h, y + dy)
    y_new = y + h * np.dot(KT[-2], B)
    f_new = fun(t + h, y_new)
    K[-1] = f_new
    return y_new, f_new


def _step(fun, t, y, f, h_abs, t_bound, rtol, atol, K, KT):
    """Advance by one accepted step, shrinking the step on rejection.
    Returns (t_new, y_new, f_new, next h_abs)."""
    min_step = 10 * abs(math.nextafter(t, math.inf) - t)
    if h_abs < min_step:
        h_abs = min_step
    rejected = False
    while True:
        if h_abs < min_step:
            raise StiffFailure(f"integrator failed: {TOO_SMALL_STEP}")
        t_new = t + h_abs
        if t_new > t_bound:
            t_new = t_bound
        h = t_new - t
        h_abs = abs(h)
        y_new, f_new = _rk_step(fun, t, y, f, h, K, KT)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        error_norm = _norm(np.dot(KT[-1], E) * h / scale)
        if error_norm < 1:
            if error_norm == 0:
                factor = MAX_FACTOR
            else:
                factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            if rejected:
                factor = min(1, factor)
            return t_new, y_new, f_new, h_abs * factor
        h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
        rejected = True


def _dense_output(K, t_old, t, y_old):
    """Quartic interpolant of the step [t_old, t] whose stages are in K."""
    Q = K.T.dot(P)
    h = t - t_old

    def sol(s):
        s = np.asarray(s)
        x = (s - t_old) / h
        if s.ndim == 0:
            p = np.cumprod(np.tile(x, 4))
        else:
            p = np.cumprod(np.tile(x, (4, 1)), axis=0)
        y = h * np.dot(Q, p)
        if y.ndim == 2:
            y += y_old[:, None]
        else:
            y += y_old
        return y
    return sol


def _signbit(x):
    return math.copysign(1.0, x) < 0


def _div(a, b):
    """a / b with C semantics: inf or nan, not an exception, for b == 0."""
    return a / b if b else float(ieee(np.divide, a, b))


def _brentq(f, xa, xb):
    """Brent's root finder, a line-for-line port of scipy's brentq.c."""
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = float(f(xpre))
    fcur = float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise StiffFailure(
            f"event root is not bracketed on [{xpre!r}, {xcur!r}]")
    for _ in range(BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (BRENT_XTOL + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:
                # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre),
                            dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if abs(spre) < bound:
                bound = abs(spre)
            if 2 * abs(stry) < bound:
                spre, scur = scur, stry      # good short step
            else:
                spre = scur = sbis           # bisect
        else:
            spre = scur = sbis               # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
    raise StiffFailure(f"event root not converged in {BRENT_MAXITER} iterations")


def _event_occurred(g, g_new, direction):
    up = g <= 0 and g_new >= 0
    down = g >= 0 and g_new <= 0
    return ((up and direction > 0) or (down and direction < 0)
            or ((up or down) and direction == 0))


def solve_ivp(fun, t_span, y0, t_eval=None, events=None, rtol=1e-3,
              atol=1e-6) -> OdeResult:
    """Integrate y' = fun(t, y), y(t_span[0]) = y0, forward to t_span[1].

    t_eval: increasing output times inside t_span (default: every step).
    events: one function event(t, y); its zeros are located on the dense
    output and returned in t_events[0].  Its `terminal` attribute stops the
    integration at the first zero; its `direction` (+1, -1, 0) keeps only
    rising, falling or all zeros.  Raises StiffFailure (scipy's status -1)
    when the step would fall below ten float spacings at t, and when
    fun(t0, y0) is not finite.
    """
    t0, t_bound = map(float, t_span)
    if not t0 < t_bound:
        raise DomainError("need t_span[0] < t_span[1]")
    if atol < 0:
        raise DomainError("atol must be nonnegative")
    rtol = max(rtol, 100 * EPS)
    y = np.asarray(y0).astype(float, copy=False)
    if y.ndim != 1 or not np.isfinite(y).all():
        raise DomainError("y0 must be a finite 1-D state")
    if t_eval is not None:
        t_eval = np.asarray(t_eval)
        if t_eval.ndim != 1 or np.any(np.diff(t_eval) <= 0):
            raise DomainError("t_eval must be 1-D and increasing")
        if np.any(t_eval < t0) or np.any(t_eval > t_bound):
            raise DomainError("t_eval must lie inside t_span")
        t_eval_i = 0

    nfev = 0

    def rhs(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y), dtype=float)

    f = rhs(t0, y)
    if not np.isfinite(f).all():
        # a nan first step never falls below the minimum step, so the step
        # loop would never end (scipy's solve_ivp hangs the same way)
        raise StiffFailure(f"right-hand side is not finite at t0 = {t0!r}")
    h_abs = _initial_step(rhs, t0, y, t_bound, f, rtol, atol)
    K = np.empty((len(C) + 1, y.size))
    KT = [K[:s].T for s in range(1, len(K) + 1)]
    ts, ys = ([t0], [y]) if t_eval is None else ([], [])
    t_events = None
    if events is not None:
        terminal = bool(getattr(events, "terminal", False))
        direction = getattr(events, "direction", 0)
        g = events(t0, y)
        t_events = []

    t = t0
    done = False
    while not done:
        t_old, y_old = t, y
        t, y, f, h_abs = _step(rhs, t, y, f, h_abs, t_bound, rtol, atol, K,
                               KT)
        done = t >= t_bound
        sol = None
        if events is not None:
            g_new = events(t, y)
            if _event_occurred(g, g_new, direction):
                sol = _dense_output(K, t_old, t, y_old)
                root = _brentq(lambda s: events(s, sol(s)), t_old, t)
                t_events.append(root)
                if terminal:
                    done = True
                    t = np.float64(root)
                    y = sol(t)
            g = g_new
        if t_eval is None:
            ts.append(t)
            ys.append(y)
        else:
            t_eval_i_new = np.searchsorted(t_eval, t, side="right")
            t_eval_step = t_eval[t_eval_i:t_eval_i_new]
            if t_eval_step.size > 0:
                if sol is None:
                    sol = _dense_output(K, t_old, t, y_old)
                ts.append(t_eval_step)
                ys.append(sol(t_eval_step))
                t_eval_i = t_eval_i_new

    if t_eval is None:
        ts, ys = np.array(ts), np.vstack(ys).T
    elif ts:
        ts, ys = np.hstack(ts), np.hstack(ys)
    else:
        ts, ys = np.array([]), np.empty((y.size, 0))
    if t_events is not None:
        t_events = [np.asarray(t_events)]
    return OdeResult(t=ts, y=ys, t_events=t_events, nfev=nfev)
