"""Certificate crossings against an independent integrator: each comparison
ODE is integrated again by mpmath's Taylor-series `odefun` at 30 digits, and
its zero is found by `findroot` from the curvlab witness.  The witness comes
from rk45 at rtol = ode.RTOL (1e-10); it agrees with the 30-digit zero to
~1e-11 relative or better, so each is checked at rel = ode.RTOL."""

import mpmath as mp
import pytest

from curvlab import ode
from curvlab.geometry import DimensionConstants

DIGITS = 30


def mp_crossing(rhs, t0, y0, guess):
    """Zero of y, where y'' = rhs(t, y, y') and (y, y')(t0) = y0, nearest
    `guess`."""
    sol = mp.odefun(lambda t, y: [y[1], rhs(t, y[0], y[1])], t0, y0)
    return mp.findroot(lambda t: sol(t)[0], mp.mpf(guess))


def thm413(p, witnesses):
    n, t0 = p.get("n", 3), p.get("t0", 3.0)
    b2, cp = mp.mpf(p["b"]) ** 2, mp.mpf(p["c"]) / n
    return mp_crossing(lambda t, F, dF: -b2 / n + cp / t ** 2 * F, t0, [1, 0],
                       witnesses["crossings"][0])


def thm418(p, witnesses):
    # the comparison ODE starts where its coefficient is below -c^2/2
    n = p.get("n", 3)
    C1, C2, C, b = (mp.mpf(p[k]) for k in ("C1", "C2", "C", "b"))
    c2 = DimensionConstants(n).c_np1 * b * b
    A = n * (n - 1) * C1 ** 2 + n * C2
    B = n * C * C1
    start = max((B + mp.sqrt(B * B + 2 * A * c2)) / c2, p.get("t0", 3.0))
    return mp_crossing(lambda t, F, dF: (A / t ** 2 + B / t - c2) * F, start,
                       [1, 0], witnesses["crossings"][0])


def thm112(p, witnesses):
    n, eps = p.get("n", 3), mp.mpf(p.get("eps", 1.0))
    q = mp.mpf(n + 3) / (n - 1)
    a1, a0 = mp.mpf(n) / (n + 1), mp.mpf(n - 1) / (4 * (n + 1))
    return mp_crossing(
        lambda t, U, dU: (-a1 * dU / t + a0 * U / t ** 2
                          - eps ** 2 * mp.sign(U) * abs(U) ** q),
        p.get("t0", 3.0), [1, 0], witnesses["crossings"][0])


@pytest.mark.parametrize("kind, params, reference", [
    ("thm413", {"c": 5, "b": 1}, thm413),
    ("thm413", {"n": 5, "c": 2, "b": 0.7, "t0": 4}, thm413),
    ("thm418", {"C1": 1, "C2": 1, "C": 1, "b": 1}, thm418),
    ("thm418", {"n": 4, "t0": 6, "C1": 0.5, "C2": 2, "C": 1.5, "b": 0.8},
     thm418),
    ("thm112", {}, thm112),
    ("thm112", {"n": 5, "eps": 0.5, "t0": 4}, thm112),
], ids=["thm413", "thm413-n-t0", "thm418", "thm418-n-t0", "thm112",
        "thm112-n-t0"])
def test_comparison_crossing_matches_mpmath(kind, params, reference):
    verdict = ode.comparison_certificate(kind, params)
    assert verdict.kind == "nonexistence"
    with mp.workdps(DIGITS):
        expected = reference(params, verdict.witnesses)
    assert verdict.witnesses["crossings"][0] == pytest.approx(float(expected),
                                                              rel=ode.RTOL)


def test_barrier33_final_crossing_matches_mpmath():
    # the last stage of the chain, from the linear cap C and the start
    # t_neg the verdict reports (both come from curvlab's own growth
    # measurement): u'' = k(t) u, u(t_neg) = C t_neg, u'(t_neg) = C
    kappa_sq, n = 6.0, 3
    verdict = ode.barrier_certificate_33(kappa_sq, n, (3.0, 1.0e4))
    w = verdict.witnesses
    with mp.workdps(DIGITS):
        C, start = mp.mpf(w["linear_cap_constant"]), w["coefficient_negative_from"]
        coeff, expo = mp.mpf(n + 1) / (4 * n), mp.mpf(4) / (n + 1)

        def k(t):
            return coeff * (n * (n - 1) / t ** 2 - kappa_sq / (C * t) ** expo)

        expected = mp_crossing(lambda t, u, du: k(t) * u, start,
                               [C * start, C], w["crossings"][0])
    assert w["crossings"][0] == pytest.approx(float(expected), rel=ode.RTOL)
