"""The in-house RK45 integrator against scipy.integrate.solve_ivp, its
reference: for the same problem both must return the same bits."""

import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.optimize import brentq as scipy_brentq

from curvlab import ode
from curvlab.errors import DomainError, StiffFailure
from curvlab.rk45 import EPS, _brentq, solve_ivp
from curvlab.warp import parse_profile

coef = st.floats(-2.0, 2.0, allow_nan=False)


def reference(fun, t_span, y0, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # scipy warns when it floors rtol
        return scipy_solve_ivp(fun, t_span, y0, **kw)


def assert_same(fun, t_span, y0, **kw):
    """solve_ivp and scipy agree bit for bit, or both fail alike."""
    ref = reference(fun, t_span, y0, **kw)
    if ref.status == -1:
        with pytest.raises(StiffFailure) as exc:
            solve_ivp(fun, t_span, y0, **kw)
        assert str(exc.value) == f"integrator failed: {ref.message}"
        return
    ours = solve_ivp(fun, t_span, y0, **kw)
    assert np.array_equal(ours.t, ref.t)
    if np.size(ref.y):
        assert np.array_equal(ours.y, ref.y)
    else:   # no t_eval point was reached
        assert ours.y.size == 0
    assert ours.nfev == ref.nfev
    if ref.t_events is None:
        assert ours.t_events is None
    else:
        assert len(ours.t_events) == len(ref.t_events) == 1
        assert np.array_equal(ours.t_events[0], ref.t_events[0])


@st.composite
def systems(draw):
    """(fun, y0) for a linear or nonlinear system of 2 or 3 equations."""
    kind = draw(st.sampled_from(["linear", "forced", "pendulum", "vdp",
                                 "lorenz"]))
    n = 3 if kind == "lorenz" else draw(st.integers(2, 3))
    y0 = np.array(draw(st.lists(coef, min_size=n, max_size=n)))
    if kind in ("linear", "forced"):
        M = np.array(draw(st.lists(coef, min_size=n * n,
                                   max_size=n * n))).reshape(n, n)
        if kind == "linear":
            return (lambda t, y: M @ y), y0
        w = draw(st.floats(0.1, 5.0))
        return (lambda t, y: M @ y + np.sin(w * t)), y0
    a, b = draw(coef), draw(coef)
    if kind == "pendulum":
        return (lambda t, y: [y[1], -a * math.sin(y[0]) - b * y[1]]), y0[:2]
    if kind == "vdp":
        return (lambda t, y: [y[1], a * (1 - y[0] ** 2) * y[1] - y[0]]), y0[:2]
    return (lambda t, y: [10.0 * (y[1] - y[0]), y[0] * (28.0 - y[2]) - y[1],
                          y[0] * y[1] - (8.0 / 3.0) * y[2]]), y0


@st.composite
def options(draw, t0, t1):
    kw = {"rtol": draw(st.sampled_from([1e-3, 1e-6, 1e-10, 1e-15])),
          "atol": draw(st.sampled_from([1e-6, 1e-12]))}
    choice = draw(st.sampled_from(["none", "linspace", "points"]))
    if choice == "linspace":
        kw["t_eval"] = np.linspace(t0, t1, draw(st.integers(1, 30)))
    elif choice == "points":
        pts = draw(st.lists(st.floats(t0, t1), min_size=1, max_size=20,
                            unique=True))
        kw["t_eval"] = np.sort(pts)
    if draw(st.booleans()):
        level = draw(coef)

        def event(t, y):
            return y[0] - level
        event.terminal = draw(st.booleans())
        event.direction = draw(st.sampled_from([-1, 0, 1]))
        kw["events"] = event
    return kw


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bit_identical_to_scipy(data):
    fun, y0 = data.draw(systems())
    t0 = data.draw(st.floats(-2.0, 2.0))
    t1 = t0 + data.draw(st.floats(0.1, 6.0))
    kw = data.draw(options(t0, t1))
    with np.errstate(all="ignore"):
        assert_same(fun, (t0, t1), y0, **kw)


@pytest.mark.parametrize("terminal", [False, True])
@pytest.mark.parametrize("direction", [-1, 0, 1])
def test_events_on_an_oscillator(terminal, direction):
    def crossing(t, y):
        return y[0]
    crossing.terminal = terminal
    crossing.direction = direction
    assert_same(lambda t, y: [y[1], -y[0]], (0.0, 20.0), [1.0, 0.0],
                rtol=1e-10, atol=1e-12, events=crossing,
                t_eval=np.linspace(0.0, 20.0, 41))


def test_blow_up_raises_stiff_failure():
    ref = reference(lambda t, y: y ** 2, (0.0, 2.0), [1.0])
    assert ref.status == -1
    with pytest.raises(StiffFailure) as exc:
        solve_ivp(lambda t, y: y ** 2, (0.0, 2.0), [1.0])
    assert str(exc.value) == f"integrator failed: {ref.message}"


def test_overflowed_first_norm_divides_like_scipy():
    # |f0 / scale| ~ 1e210 overflows the norm of f0 to inf, so the first
    # trial step is 0 and the next norm divides 0 by it: nan in scipy, where
    # a norm that was a Python float raised ZeroDivisionError instead
    with np.errstate(all="ignore"):
        assert_same(lambda t, y: [1e200], (0.0, 1.0), [1.0], rtol=1e-10,
                    atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(coef, min_size=4, max_size=4), coef, coef)
def test_brentq_matches_scipy(c, a, b):
    def f(x):
        return c[0] + c[1] * x + c[2] * x ** 2 + c[3] * x ** 3
    a, b = min(a, b), max(a, b)
    fa, fb = f(a), f(b)
    if a == b or fa == 0 or fb == 0 or math.copysign(1, fa) == math.copysign(1, fb):
        return
    try:
        root = scipy_brentq(f, a, b, xtol=4 * EPS, rtol=4 * EPS)
    except RuntimeError:    # no convergence in 100 iterations (e.g. x^3)
        with pytest.raises(StiffFailure, match="not converged"):
            _brentq(f, a, b)
    else:
        assert _brentq(f, a, b) == root


def test_non_finite_first_derivative_raises_instead_of_hanging():
    # a nan first step is never below the minimum step, so the step loop
    # used to run forever (as scipy's does).  barrier33 reached it with a nan
    # kappa^2, which it now rejects up front (test_ode.TestBarrier).  The
    # child runs under a timeout, which a hang exceeds
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = textwrap.dedent("""
        from curvlab.errors import StiffFailure
        from curvlab.rk45 import solve_ivp
        runs = [lambda: solve_ivp(lambda t, y: [y[1], float("nan")],
                                  (3, 10), [1.0, 0.0]),
                lambda: solve_ivp(lambda t, y: [y[1], float("inf")],
                                  (3, 10), [1.0, 0.0])]
        for run in runs:
            try:
                run()
            except StiffFailure as e:
                print(e)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "right-hand side is not finite at t0 = 3.0\n" * 2


def test_bad_arguments():
    fun = lambda t, y: -y   # noqa: E731
    for kw in ({"t_span": (1.0, 0.0)}, {"t_eval": [0.5, 0.2]},
               {"t_eval": [0.5, 2.0]}, {"y0": [np.nan]}):
        args = {"t_span": (0.0, 1.0), "y0": [1.0], **kw}
        with pytest.raises(DomainError):
            solve_ivp(fun, args.pop("t_span"), args.pop("y0"), **args)


CERTIFICATES = {
    "oscillation-above": lambda: ode.oscillation_certificate(1.2, 3.0),
    "oscillation-below": lambda: ode.oscillation_certificate(0.8, 3.0),
    "thm48": lambda: ode.comparison_certificate("thm48", {"b": 0.5, "t0": 3.0}),
    "thm413": lambda: ode.comparison_certificate(
        "thm413", {"n": 3, "c": 5.0, "b": 1.0}),
    "thm418": lambda: ode.comparison_certificate(
        "thm418", {"n": 3, "C1": 1.0, "C2": 1.0, "C": 1.0, "b": 1.0}),
    "thm112": lambda: ode.comparison_certificate(
        "thm112", {"n": 3, "eps": 1.0, "t0": 3.0}),
    "thm38-log": lambda: ode.comparison_certificate(
        "thm38", {"n": 3, "kappa_sq": 6.0, "delta": 1.0, "t0": 3.0,
                  "f": parse_profile("t*ln(t)")}),
    "thm38-power": lambda: ode.comparison_certificate(
        "thm38", {"n": 3, "kappa_sq": 6.0, "delta": 1.0, "t0": 3.0,
                  "f": parse_profile("t^2")}),
    "barrier33": lambda: ode.barrier_certificate_33(6.0, 3, (3.0, 1e4)),
}


@pytest.mark.parametrize("name", sorted(CERTIFICATES))
def test_certificate_bytes_match_scipy(name, monkeypatch):
    ours = CERTIFICATES[name]().to_json()
    monkeypatch.setattr(ode, "solve_ivp", scipy_solve_ivp)
    assert CERTIFICATES[name]().to_json() == ours
