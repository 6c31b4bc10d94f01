"""Oscillation classification, monotone iteration, and the comparison
certificates."""

import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import solve_banded

from curvlab import ode
from curvlab.errors import DomainError, StiffFailure
from curvlab.ode import (OdeSpec, SubSuperPair, _solve_tridiagonal,
                         barrier_certificate_33, comparison_certificate,
                         monotone_solve, oscillation_certificate)
from curvlab.warp import parse_profile


def same(value):
    return value, value


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# (value as a certificate holds it, value as its JSON reads back)
JSON_VALUES = st.recursive(
    st.one_of(st.none().map(same), st.booleans().map(same),
              st.integers(-2 ** 53, 2 ** 53).map(same), st.text().map(same),
              FINITE.map(same), FINITE.map(lambda x: (np.float64(x), x)),
              st.integers(-2 ** 53, 2 ** 53).map(
                  lambda i: (np.int64(i), float(i))),
              st.lists(FINITE, max_size=4).map(
                  lambda xs: (np.array(xs, dtype=float), xs))),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(
            lambda items: ([w for w, _ in items], [b for _, b in items])),
        st.lists(inner, max_size=4).map(
            lambda items: (tuple(w for w, _ in items),
                           [b for _, b in items])),
        st.dictionaries(st.text(), inner, max_size=4).map(
            lambda d: ({k: w for k, (w, _) in d.items()},
                       {k: b for k, (_, b) in d.items()}))),
    max_leaves=12)


class TestOdeSpec:
    def test_eq31_requires_normalized_base(self):
        with pytest.raises(DomainError):
            OdeSpec(n=3, R=-1.0, R_g=-5.0, t0=3.0, T=10.0, form="eq31")

    def test_bad_window(self):
        with pytest.raises(DomainError):
            OdeSpec(n=3, R=0.0, R_g=0.0, t0=5.0, T=2.0)


class TestOscillation:
    def test_euler_closed_form_crossing(self):
        # t^2 u'' + (c/4) u = 0 with c = 2, u(1) = 1, u'(1) = 1/2 is
        # sqrt(t) cos(ln t / 2): first zero at e^pi
        v = oscillation_certificate(2.0, 2.5)
        # crossing ratio check stands in for the closed form; verify the
        # predicted spacing against e^(2 pi / sqrt(c-1))
        assert v.witnesses["predicted_ratio"] == pytest.approx(
            math.exp(2*math.pi), rel=1e-12)

    @pytest.mark.parametrize("c", [1.2, 3.0])
    def test_crossing_ratio_law(self, c):
        v = oscillation_certificate(c, 3.0)
        pred = math.exp(2*math.pi/math.sqrt(c - 1.0))
        for ratio in v.witnesses["crossing_ratios"]:
            assert ratio == pytest.approx(pred, rel=1e-2)

    def test_subcritical_witness(self):
        v = oscillation_certificate(0.8, 3.0)
        assert v.kind == "inconclusive"
        alpha = v.witnesses["positive_witness_exponent"]
        assert alpha*(1 - alpha) == pytest.approx(0.2, rel=1e-12)
        assert len(v.witnesses["crossings"]) <= 1

    def test_critical_half(self):
        v = oscillation_certificate(1.0, 3.0)
        assert v.witnesses["positive_witness_exponent"] == pytest.approx(0.5)

    def test_window_too_small(self):
        with pytest.raises(DomainError,
                           match=r"window cannot contain two predicted") as err:
            oscillation_certificate(1.2, 3.0, T=100.0)
        required_T = re.search(r"\(required T >= (\S+)\)$", str(err.value))
        assert float(required_T.group(1)) > 100.0

    def test_crossing_time_stability(self):
        # re-integration at tighter tolerance moves crossings by < 0.1%
        v1 = oscillation_certificate(2.0, 3.0)
        c1 = v1.witnesses["crossings"]
        # the certificate's log-time equation w'' - w' + (c/4) w = 0
        sol = ode.solve_ivp(lambda s, y: [y[1], y[1] - 0.5 * y[0]],
                            (math.log(3.0), math.log(c1[-1]*1.01)), [1.0, 0.5],
                            rtol=1e-12, atol=ode.ATOL, events=lambda s, y: y[0])
        c2 = [math.exp(s) for s in sol.t_events[0]]
        for a, b in zip(c1, c2):
            assert abs(a/b - 1.0) < 1e-3

    @settings(max_examples=40, deadline=None)
    @given(c=st.one_of(st.floats(0.2, 1.0), st.floats(1.05, 6.0)),
           t0=st.floats(2.5, 40.0), lam=st.floats(0.1, 20.0))
    def test_crossings_scale_with_t(self, c, t0, lam):
        # t^2 u'' + (c/4) u = 0 is invariant under t -> lam t, so the
        # crossings scale by lam and their ratios stay.  In log time the
        # scaled run is the same integration shifted by ln(lam): only
        # rounding tells the two apart (<= 7e-14 relative, measured), so a
        # gap as large as the integrator's RTOL breaks the symmetry
        assume(lam * t0 > 2.0)
        T = None if c > 1 else 1e3 * t0   # c > 1 sizes its window from t0
        v = oscillation_certificate(c, t0, T)
        w = oscillation_certificate(c, lam * t0, None if T is None else lam * T)
        assert len(w.witnesses["crossings"]) == len(v.witnesses["crossings"])
        for a, b in zip(v.witnesses["crossings"], w.witnesses["crossings"]):
            assert b == pytest.approx(lam * a, rel=ode.RTOL)
        for a, b in zip(v.witnesses.get("crossing_ratios", []),
                        w.witnesses.get("crossing_ratios", [])):
            assert b == pytest.approx(a, rel=ode.RTOL)


class TestMonotoneSolve:
    def spec_const(self):
        return OdeSpec(n=3, R=-1.0, R_g=-6.0, t0=3.0, T=100.0, form="eq31")

    def test_constant_solution(self):
        sol = monotone_solve(self.spec_const(), SubSuperPair(1.0, 10.0),
                             bc=(6.0, 6.0))
        assert np.max(np.abs(sol.u - 6.0)) < 1e-8
        assert sol.residual_norm < 1e-10
        assert sol.monotone and sol.bracketed

    def test_ordering_rejected(self):
        with pytest.raises(DomainError, match="ordering violated"):
            monotone_solve(self.spec_const(), SubSuperPair(2.0, 1.0),
                           bc=(1.5, 1.5))

    def test_bc_outside_bracket_rejected(self):
        with pytest.raises(DomainError):
            monotone_solve(self.spec_const(), SubSuperPair(1.0, 10.0),
                           bc=(20.0, 6.0))

    def spec_alpha2(self, T=30.0):
        return OdeSpec(n=3, R=lambda t: -7.0/np.asarray(t, dtype=float)**2,
                       R_g=-6.0, t0=3.0, T=T, form="eq31")

    def pair_alpha2(self):
        return SubSuperPair(
            lambda t: np.full_like(np.asarray(t, dtype=float), 0.5),
            lambda t: 6.0*np.asarray(t, dtype=float)**2)

    def test_alpha2_case_positive_solution(self):
        sol = monotone_solve(self.spec_alpha2(100.0), self.pair_alpha2(),
                             bc=(2.0, 2.0), num_points=1601)
        assert np.min(sol.u) > 0
        assert sol.residual_norm < 1e-6
        assert sol.monotone and sol.bracketed

    def test_grid_refinement_second_order(self):
        spec, pair = self.spec_alpha2(), self.pair_alpha2()
        ref = monotone_solve(spec, pair, bc=(2.0, 2.0), num_points=6401)
        errs = []
        for num in (401, 801):
            sol = monotone_solve(spec, pair, bc=(2.0, 2.0), num_points=num)
            step = 6400 // (num - 1)
            errs.append(float(np.max(np.abs(sol.u - ref.u[::step]))))
        assert errs[0]/errs[1] > 3.5  # ~4x per halving

    def test_default_bracket_converges_in_a_few_iterations(self):
        # the per-node shift gives a contraction factor ~1e-6 here (n = 3:
        # the equation is linear); one global shift needed ~3,600 steps
        for num in (201, 801, 6401):
            sol = monotone_solve(self.spec_alpha2(100.0), self.pair_alpha2(),
                                 bc=(2.0, 2.0), num_points=num)
            assert sol.iterations <= 10
            assert sol.residual_norm < 1e-6 and sol.bracketed

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_stop_rule_is_reached(self, n):
        # constant R = -c: u* with c u* = n(n-1) u*^p solves eq31, and the
        # constants u*/3, 3 u* bracket every solution with boundary values
        # between them; for n = 10 the step stalls at round-off (~eps u*)
        # above tol = 1e-12, which must still stop the iteration
        c = 0.5
        p = (n - 3) / (n + 1)
        ustar = (n * (n - 1) / c) ** (1 / (1 - p))
        spec = OdeSpec(n=n, R=-c, R_g=-n * (n - 1), t0=3.0, T=100.0,
                       form="eq31")
        sol = monotone_solve(spec, SubSuperPair(ustar / 3, 3 * ustar),
                             bc=(ustar / 2, 2 * ustar))
        assert sol.iterations < 100
        assert sol.residual_norm < 1e-11 * c * ustar
        assert sol.monotone and sol.bracketed

    def test_linear_case_matches_a_direct_solve(self):
        # n = 3: eq31 is a u'' + R u + 6 = 0, linear; one banded solve of the
        # same centered-difference system is the independent reference
        spec, bc = self.spec_alpha2(100.0), (2.0, 2.5)
        sol = monotone_solve(spec, self.pair_alpha2(), bc=bc)
        t = sol.t
        h, k = t[1] - t[0], 3.0 / (t[1] - t[0]) ** 2
        N = len(t) - 2
        ab = np.zeros((3, N))
        ab[0, 1:], ab[2, :-1] = k, k
        ab[1] = -2.0 * k + spec.R_at(t[1:-1])
        rhs = np.full(N, -6.0)
        rhs[0] -= k * bc[0]
        rhs[-1] -= k * bc[1]
        ref = solve_banded((1, 1), ab, rhs)
        assert np.max(np.abs(sol.u[1:-1] / ref - 1.0)) < 1e-10

    @pytest.mark.parametrize("pair, bc, message", [
        (SubSuperPair(7.0, 10.0), (8.0, 8.0),
         "u_minus is not a subsolution: residual -1 < 0 at t = 3.12125"),
        (SubSuperPair(1.0, 5.0), (3.0, 3.0),
         "u_plus is not a supersolution: residual 1 > 0 at t = 3.12125")])
    def test_barriers_checked_up_front(self, pair, bc, message):
        # the constant solution of R = -1 is 6: 7 lies above it, 5 below
        with pytest.raises(DomainError) as exc:
            monotone_solve(self.spec_const(), pair, bc=bc)
        assert str(exc.value) == message

    def test_bracketed_checks_the_final_iterate(self, monkeypatch):
        # an iterate pushed out of the bracket is reported, not assumed away
        real = ode._solve_tridiagonal
        monkeypatch.setattr(ode, "_solve_tridiagonal",
                            lambda *args: real(*args) + 20.0)
        sol = monotone_solve(self.spec_const(), SubSuperPair(1.0, 10.0),
                             bc=(6.0, 6.0))
        assert not sol.bracketed

    @pytest.mark.parametrize("spec, pair, bc, bad_t, steps", [
        # u overflows on a window out to 1e300
        (OdeSpec(n=3, R=2.0, R_g=-6.0, t0=3.0, T=1e300, form="eq31"),
         SubSuperPair(0.5, lambda t: 6.0 * np.asarray(t, dtype=float) ** 2),
         (2.0, 2.0), 2.0408163265306123e+298, 49),
        # the shift reads u^(p-1) = u^(-4/3), which overflows at u = 1e-300,
        # so the first step is not finite
        (OdeSpec(n=2, R=lambda t: -7.0 / np.asarray(t, dtype=float) ** 2,
                 R_g=-2.0, t0=3.0, T=100.0, form="eq31"),
         SubSuperPair(1e-300, lambda t: 6.0 * np.asarray(t, dtype=float) ** 2),
         (1e-300, 2.0), 4.979591836734694, 1),
    ], ids=["overflow", "underflow"])
    def test_stops_at_the_first_non_finite_iterate(self, spec, pair, bc, bad_t,
                                                   steps, monkeypatch):
        # it used to run all MONOTONE_MAX_ITER steps on nan and return them
        real, calls = ode._solve_tridiagonal, []
        monkeypatch.setattr(ode, "_solve_tridiagonal",
                            lambda *args: calls.append(1) or real(*args))
        with pytest.raises(DomainError) as exc, \
                np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            monotone_solve(spec, pair, bc=bc, num_points=50)
        assert str(exc.value) == f"u is not finite at t = {bad_t!r}"
        assert len(calls) == steps

    def test_supersolution_residual_signs(self):
        # u+ = 7 t^2 is a strict supersolution (residual 6 - 7 = -1 < 0) and
        # u- = 1/2 a strict subsolution (6 - 3.5/t^2 > 0): the pair passes
        # the up-front check and brackets the solution
        pair = SubSuperPair(0.5, lambda t: 7.0*np.asarray(t, dtype=float)**2)
        sol = monotone_solve(self.spec_alpha2(), pair, bc=(2.0, 2.0),
                             num_points=401)
        assert sol.monotone and sol.bracketed
        assert sol.residual_norm < 1e-6


@settings(max_examples=200, deadline=None)
@given(N=st.integers(1, 900), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(-6.0, 6.0), zeros=st.integers(0, 3))
def test_tridiagonal_solve_matches_solve_banded(N, seed, scale, zeros):
    # diagonally dominant by rows and columns, so dgtsv takes no row
    # interchange; every bit of the solution must match, signed zeros too
    rng = np.random.default_rng(seed)
    dl, du = (rng.uniform(-1, 1, N - 1) * 10.0 ** rng.uniform(-3, 3, N - 1)
              for _ in range(2))
    # off-diagonal magnitudes of row and column i: |dl|, |du| at i - 1 and i
    off = np.zeros(N + 1)
    off[1:-1] = np.abs(dl) + np.abs(du)
    bound = off[:-1] + off[1:]
    d = (bound + rng.uniform(1e-3, 10.0, N)) * rng.choice([-1.0, 1.0], N)
    b = rng.uniform(-1, 1, N) * 10.0 ** (scale + rng.uniform(-3, 3, N))
    b[rng.integers(0, N, zeros)] = 0.0
    ab = np.zeros((3, N))
    ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
    expected = solve_banded((1, 1), ab, b)
    got = _solve_tridiagonal(dl.tolist(), d.tolist(), du.tolist(), b)
    assert got.tobytes() == expected.tobytes()


class TestCertificates:
    def test_thm48_crossing(self):
        v = comparison_certificate("thm48", {"b": 0.5, "t0": 3.0})
        assert v.kind == "nonexistence"
        assert v.witnesses["crossings"][0] == pytest.approx(
            3.0 + math.pi/(2*0.5), rel=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(b=st.floats(0.05, 7.0), t0=st.floats(0.1, 100.0),
           shift=st.floats(0.1, 100.0))
    def test_thm48_crossing_is_shift_invariant(self, b, t0, shift):
        # F'' = -b^2 F does not read t, so the crossing minus t0 does not
        # depend on t0: only rounding of t tells the runs apart (<= 1e-13
        # of pi/(2b), measured), far inside the integrator's RTOL
        first = comparison_certificate("thm48", {"b": b, "t0": t0})
        later = comparison_certificate("thm48", {"b": b, "t0": t0 + shift})
        assert later.witnesses["crossings"][0] - (t0 + shift) == pytest.approx(
            first.witnesses["crossings"][0] - t0, rel=ode.RTOL)

    def test_thm413(self):
        v = comparison_certificate("thm413", {"n": 3, "c": 5.0, "b": 1.0})
        assert v.kind == "nonexistence"
        eps = v.witnesses["indicial_exponent"]
        assert eps*(eps - 1) == pytest.approx(5.0/3.0, rel=1e-12)
        assert v.witnesses["measured_growth_exponent"] == pytest.approx(
            eps, abs=1e-2)
        assert v.witnesses["crossings"]

    def test_thm413_hypothesis_violation(self):
        v = comparison_certificate("thm413", {"n": 3, "c": 7.0, "b": 1.0})
        assert v.kind == "inconclusive"
        assert "c < 2n" in v.reason

    @pytest.mark.parametrize("b", [0.0, -1.0])
    def test_thm413_needs_positive_b(self, b):
        # only b^2 enters the comparison ODE: b = -1 certified nonexistence,
        # and b = 0 searched twelve windows for a crossing and failed
        v = comparison_certificate("thm413", {"n": 3, "c": 1.0, "b": b})
        assert (v.kind, v.reason) == ("inconclusive",
                                      "hypothesis b > 0 violated")

    @pytest.mark.parametrize("kind, params, message", [
        ("thm413", {"c": 1.0, "b": 1e300},
         "thm413 with b = 1e+300: b^2 = inf is not a positive float"),
        ("thm413", {"c": 1.0, "b": 1e-300},
         "thm413 with b = 1e-300: b^2 = 0.0 is not a positive float"),
        ("thm112", {"eps": 1e300},
         "thm112 with eps = 1e+300: eps^2 = inf is not a positive float"),
    ], ids=["thm413-b-overflow", "thm413-b-underflow", "thm112-eps-overflow"])
    def test_squared_parameter_is_named_before_integrating(
            self, kind, params, message, monkeypatch):
        # each ended in rk45's "right-hand side is not finite at t0 = 3.0"
        # or, underflowed, in a search for a crossing that never comes
        monkeypatch.setattr(ode, "solve_ivp", None)     # nothing is integrated
        with pytest.raises(DomainError, match=re.escape(message)):
            comparison_certificate(kind, params)

    def test_thm418(self):
        params = {"n": 3, "C1": 1.0, "C2": 1.0, "C": 1.0, "b": 1.0}
        v = comparison_certificate("thm418", params)
        assert v.kind == "nonexistence"
        t_bar = v.witnesses["coefficient_negative_from"]
        c2 = v.witnesses["c_squared"]
        # at t_bar the bracket coefficient equals -c^2/2 by construction
        k = 6.0/t_bar**2 + 3.0/t_bar**2 + 3.0/t_bar - c2
        assert k == pytest.approx(-c2/2.0, rel=1e-10)
        assert v.witnesses["crossings"][0] > t_bar

    def test_thm112(self):
        v = comparison_certificate("thm112", {"n": 3, "eps": 1.0, "t0": 3.0})
        assert v.kind == "nonexistence"
        assert v.witnesses["crossings"]
        assert v.witnesses["transform_alpha"] == -1.0

    def test_thm38_log_case(self):
        f = parse_profile("t*ln(t)", domain_min=2.0)
        v = comparison_certificate(
            "thm38", {"n": 3, "kappa_sq": 6.0, "delta": 1.0, "t0": 3.0,
                      "f": f})
        assert v.kind == "incompleteness"
        assert v.witnesses["growth_case"] == "log"
        assert v.witnesses["decay_bound_holds"]
        assert v.witnesses["ray_verdict"] == "finite"
        assert v.witnesses["ray_total"] < np.inf

    def test_thm38_power_case(self):
        f = parse_profile("t^2", domain_min=2.0)
        v = comparison_certificate(
            "thm38", {"n": 3, "kappa_sq": 6.0, "delta": 1.0, "t0": 3.0,
                      "f": f})
        assert v.kind == "incompleteness"
        assert v.witnesses["growth_case"] == "power"

    def test_thm38_delta_hypothesis(self):
        f = parse_profile("t*ln(t)", domain_min=2.0)
        v = comparison_certificate(
            "thm38", {"n": 3, "kappa_sq": 6.0, "delta": 7.0, "t0": 3.0,
                      "f": f})
        assert v.kind == "inconclusive"
        assert "delta" in v.reason

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            comparison_certificate("thm999", {})

    @pytest.mark.parametrize("kind, params, message", [
        ("thm48", {"t0": 3.0}, "thm48 requires parameter 'b'"),
        ("thm38", {"kappa_sq": 6.0, "delta": 1.0}, "thm38 requires parameter 'f'"),
        ("thm413", {"c": 1.0, "b": 1.0, "T": 5.0},
         "thm413 takes no parameter 'T'"),
        ("thm112", {"eps": None}, "thm112 parameter 'eps' must be a number"),
        ("thm38", {"kappa_sq": 6.0, "delta": 1.0, "T": 2.5,
                   "f": parse_profile("t")}, "need t0 < T"),
    ])
    def test_parameters_checked_against_declaration(self, kind, params,
                                                     message):
        with pytest.raises(DomainError, match=message):
            comparison_certificate(kind, params)

    @pytest.mark.parametrize("params, message", [
        ({"t0": 3.0, "b": float("nan")}, "'b' must be finite, got nan"),
        ({"b": 1.0, "t0": float("inf")}, "'t0' must be finite, got inf"),
        ({"b": "-inf"}, "'b' must be finite, got -inf"),
        ({"b": 1.0, "n": float("inf")}, "'n' must be a number"),
    ])
    def test_non_finite_parameters_are_named(self, params, message):
        # a NaN would reach the verdict's JSON as a non-standard token
        with pytest.raises(DomainError, match="thm48 parameter " + message):
            comparison_certificate("thm48", params)

    @pytest.mark.parametrize("run, message", [
        (lambda: comparison_certificate("thm48", {"b": 1, "n": 3.7}),
         "thm48 parameter 'n' must be an integer, got 3.7"),
        (lambda: barrier_certificate_33(6.0, 3.5, (3.0, 1e4)),
         "barrier33 parameter 'n' must be an integer, got 3.5"),
    ], ids=["thm48", "barrier33"])
    def test_non_integral_n_is_named(self, run, message):
        # n = 3.7 was truncated to 3, and the verdict echoed 3.7
        with pytest.raises(DomainError, match=re.escape(message)):
            run()

    def test_params_echoed_as_given(self):
        v = comparison_certificate("thm48", {"b": 1, "n": 3.0})
        assert v.params == {"b": 1, "n": 3.0}
        assert v.witnesses["crossings"][0] == pytest.approx(3.0 + math.pi / 2)


@pytest.mark.parametrize("args, message", [
    ((float("nan"), 3.0), "oscillation parameter 'c' must be finite, got nan"),
    ((float("inf"), 3.0), "oscillation parameter 'c' must be finite, got inf"),
    ((1.2, float("nan")), "oscillation parameter 't0' must be finite, got nan"),
    ((1.2, 3.0, float("inf")),
     "oscillation parameter 'T' must be finite, got inf"),
], ids=["c-nan", "c-inf", "t0-nan", "T-inf"])
def test_oscillation_non_finite_parameters_are_named(args, message):
    # each used to end in rk45's late "need t_span[0] < t_span[1]"
    with pytest.raises(DomainError, match=re.escape(message)):
        oscillation_certificate(*args)


@pytest.mark.parametrize("kind, params, named", [
    ("thm48", {"b": 1e-310}, "thm48 with b = 1e-310, t0 = 3.0"),
    ("thm418", {"C1": 1.0, "C2": 1.0, "C": 1e160, "b": 1.0},
     "thm418 with C1 = 1.0, C2 = 1.0, C = 1e+160, b = 1.0, t0 = 3.0"),
], ids=["thm48", "thm418"])
def test_infinite_search_window_is_named(kind, params, named, monkeypatch):
    monkeypatch.setattr(ode, "solve_ivp", None)     # nothing is integrated
    with pytest.raises(DomainError, match=re.escape(named + ": the search "
                                                    "window [")):
        comparison_certificate(kind, params)


# windows [t0, T] each crossing search integrates before it gives up
HORIZONS = {
    "thm48": (lambda: comparison_certificate("thm48", {"b": 0.5}),
              [3.0 + 8.0 * math.pi]),
    "thm413": (lambda: comparison_certificate("thm413", {"c": 1.0, "b": 1.0}),
               [13.0 * 2.0 ** k for k in range(12)]),
    "thm418": (lambda: comparison_certificate(
        "thm418", {"C1": 1.0, "C2": 1.0, "C": 1.0, "b": 1.0}), None),
    "thm112": (lambda: comparison_certificate("thm112", {}),
               [26.0 * 2.0 ** k - 10.0 for k in range(16)]),
    "barrier33": (lambda: barrier_certificate_33(6.0, 3, (3.0, 1e4)),
                  [26.0 * 2.0 ** k - 10.0 for k in range(16)]),
}


@pytest.mark.parametrize("name", sorted(HORIZONS))
def test_crossing_search_horizons(name, monkeypatch):
    """Each kind keeps its window sequence, and finding no crossing in any
    window is a StiffFailure, not a verdict."""
    real, spans = ode.solve_ivp, []

    def no_crossing(fun, t_span, y0, **kwargs):
        if "events" not in kwargs:
            return real(fun, t_span, y0, **kwargs)
        spans.append(t_span)
        return SimpleNamespace(t_events=[[]])

    monkeypatch.setattr(ode, "solve_ivp", no_crossing)
    run, expected = HORIZONS[name]
    with pytest.raises(StiffFailure, match="no crossing found"):
        run()
    assert len({t0 for t0, _ in spans}) == 1
    if expected is None:     # one window past t_bar
        assert len(spans) == 1 and spans[0][1] > spans[0][0]
    else:
        assert [T for _, T in spans] == expected


class TestBarrier:
    def test_nonexistence_with_growth_cap(self):
        v = barrier_certificate_33(6.0, 3, (3.0, 1e4))
        assert v.kind == "nonexistence"
        assert v.witnesses["measured_growth_exponent"] == pytest.approx(
            2.0, abs=1e-3)
        assert v.witnesses["crossings"]

    def test_log_profile_fails_hypothesis(self):
        v = barrier_certificate_33(6.0, 3, (3.0, 1e4),
                                   profile=parse_profile("t*ln(t)"),
                                   base_scalar=-6.0)
        assert v.kind == "inconclusive"
        assert v.witnesses["min_margin_t2R_plus_nn1"] < 0

    @pytest.mark.parametrize("args, kwargs, name", [
        ((float("inf"), 3, (3.0, 1e4)), {}, "'kappa_sq' must be finite, got inf"),
        ((float("nan"), 3, (3.0, 1e4)), {}, "'kappa_sq' must be finite, got nan"),
        ((6.0, 3, (3.0, float("inf"))), {}, "'T' must be finite, got inf"),
        ((6.0, 3, (3.0, 1e4)), {"profile": parse_profile("t"),
                                "base_scalar": float("-inf")},
         "'base_R' must be finite, got -inf"),
    ], ids=["args0-kwargs0-kappa^2 must be finite, got inf",
            "args1-kwargs1-kappa^2 must be finite, got nan",
            "args2-kwargs2-T must be finite, got inf",
            "args3-kwargs3-base_scalar must be finite, got -inf"])
    def test_non_finite_parameters_are_named(self, args, kwargs, name):
        # an infinite kappa^2 used to end in rk45's StiffFailure
        with pytest.raises(DomainError, match=re.escape(
                "barrier33 parameter " + name)):
            barrier_certificate_33(*args, **kwargs)

    def test_n2_rejected(self):
        with pytest.raises(DomainError):
            barrier_certificate_33(6.0, 2, (3.0, 100.0))


class TestVerdictSerialization:
    def test_json_round_trip(self):
        import json
        v = comparison_certificate("thm48", {"b": 1.0, "t0": 3.0})
        rec = json.loads(v.to_json())
        assert rec["kind"] == "nonexistence"
        assert rec["witnesses"]["crossings"]

    def test_nonexistence_requires_witness(self):
        from curvlab.ode import Verdict
        with pytest.raises(DomainError):
            Verdict("nonexistence", reason="no witness")

    @pytest.mark.parametrize("witnesses, params, message", [
        ({"x": math.inf, "y": math.nan}, {}, "witness x is not finite"),
        ({"crossings": [3.5, np.float64(math.nan)], "a": 1.0}, {},
         "witness crossings is not finite"),
        ({"b": {"c": (1.0, -math.inf)}}, {"t0": 3.0},
         "witness b is not finite"),
        ({"x": 1.0}, {"T": np.array([math.inf])}, "param T is not finite"),
    ], ids=["top-level", "in-crossings", "nested", "param"])
    def test_non_finite_value_is_named(self, witnesses, params, message):
        # it was written as Infinity or NaN, which strict JSON rejects
        from curvlab.ode import Verdict
        with pytest.raises(DomainError) as exc:
            Verdict("inconclusive", witnesses=witnesses,
                    params=params).to_json()
        assert str(exc.value) == message

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["existence", "nonexistence", "incompleteness",
                            "inconclusive"]), st.text(),
           st.dictionaries(st.text(), JSON_VALUES),
           st.dictionaries(st.text(), JSON_VALUES))
    def test_json_reads_back(self, kind, reason, witnesses, params):
        # numpy scalars and arrays, and tuples, are written as the plain
        # floats and lists they read back as
        from curvlab.ode import Verdict
        if kind == "nonexistence":
            witnesses["sign_change_at"] = (np.float64(3.5), 3.5)
        v = Verdict(kind, reason, {k: w for k, (w, _) in witnesses.items()},
                    {k: w for k, (w, _) in params.items()})
        assert json.loads(v.to_json()) == {
            "kind": kind, "reason": reason,
            "witnesses": {k: back for k, (_, back) in witnesses.items()},
            "params": {k: back for k, (_, back) in params.items()}}
