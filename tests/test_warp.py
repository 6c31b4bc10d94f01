"""Closed-form warped curvature and the power substitution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvlab.errors import DomainError
from curvlab.geometry import BaseGeometry, DimensionConstants
from curvlab.warp import (cone_log_curvature, default_probe_grid, ode_residual,
                          Field, parse_profile, power_law_curvature,
                          substitute_u, warped_scalar_curvature)


class TestDimensionConstants:
    def test_n3_values(self):
        c = DimensionConstants(3)
        assert c.c_n == pytest.approx(1.0 / 8.0)
        assert c.c_np1 == pytest.approx(1.0 / 6.0)
        assert c.nonlin_exp == 0.0

    def test_rejects_n1(self):
        with pytest.raises(DomainError):
            DimensionConstants(1)


class TestWarpedScalarCurvature:
    def test_cone_over_unit_sphere_is_flat(self):
        f = parse_profile("t", domain_min=0.5)
        base = BaseGeometry.sphere(3, radius=1.0)  # R(g) = 6
        t = default_probe_grid(1.0, 100.0)
        R = warped_scalar_curvature(f, base, t)
        assert np.max(np.abs(R)) < 1e-12

    def test_exponential_warp_hyperbolic(self):
        f = parse_profile("exp(t)", domain_min=0.1)
        base = BaseGeometry.constant(3, 0.0)
        t = default_probe_grid(0.5, 20.0)
        R = warped_scalar_curvature(f, base, t)
        assert np.allclose(R, -12.0, rtol=1e-12)

    def test_constant_warp_rescales_base(self):
        lam = 2.5
        f = parse_profile(f"{lam}", domain_min=0.5)
        base = BaseGeometry.constant(4, 7.0)
        R = warped_scalar_curvature(f, base, 3.0)
        assert R == pytest.approx(7.0 / lam**2, rel=1e-14)

    def test_positivity_enforced(self):
        f = parse_profile("ln(t)", domain_min=0.5)  # negative on (0.5, 1)
        base = BaseGeometry.constant(3, 0.0)
        with pytest.raises(DomainError):
            warped_scalar_curvature(f, base, 0.7)

    def test_domain_min_enforced(self):
        # domain_min = 2.0 itself is outside: t must exceed it
        f = parse_profile("t")
        for t in (1.0, 2.0):
            with pytest.raises(DomainError) as err:
                f.eval(t)
            assert str(err.value) == f"t must exceed domain_min = 2.0 at t = {t!r}"


class TestSubstitution:
    def test_u_is_f_to_the_m(self):
        f = parse_profile("t*ln(t)", domain_min=2.0)
        u = substitute_u(f, 3)
        t = np.linspace(2.5, 20.0, 11)
        assert np.allclose(u.eval(t), (t*np.log(t))**2, rtol=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_u_is_exp_m_ln_f_to_the_bit(self, n):
        f = parse_profile("t*ln(t) + 1/t")
        u = substitute_u(f, n)
        m = (n + 1) / 2.0
        t = np.linspace(2.5, 40.0, 17)
        assert u.eval(t).tobytes() == np.exp(m * np.log(f.eval(t))).tobytes()
        for s in t.tolist():
            assert np.float64(u.eval(s)).tobytes() == \
                np.exp(m * np.log(f.eval(s))).tobytes()

    def test_chain_rule_derivatives(self):
        f = parse_profile("t^2 + 1", domain_min=0.1)
        u = substitute_u(f, 5)  # m = 3
        t = 1.7
        h = 1e-5
        d1_fd = (u.eval(t + h) - u.eval(t - h)) / (2*h)
        d2_fd = (u.eval(t + h) - 2*u.eval(t) + u.eval(t - h)) / h**2
        assert u.d1(t) == pytest.approx(d1_fd, rel=1e-8)
        assert u.d2(t) == pytest.approx(d2_fd, rel=1e-5)


class TestGuards:
    """Each guard warp keeps, and the nonpositive f that ode_residual names."""

    @pytest.mark.parametrize("n", [1, 0])
    def test_power_law_needs_n_at_least_2(self, n):
        with pytest.raises(DomainError, match=f"need n >= 2, got {n}"):
            power_law_curvature(0.5, n, 3.0)

    @pytest.mark.parametrize("t", [0.0, -1.0, [3.0, 0.0]])
    def test_power_law_needs_a_positive_t(self, t):
        with pytest.raises(DomainError, match="t must be positive"):
            power_law_curvature(0.5, 3, t)

    @pytest.mark.parametrize("t", [1.0, 0.5, [3.0, 1.0]])
    def test_cone_log_needs_t_above_1(self, t):
        with pytest.raises(DomainError, match="t must exceed 1 so that ln t > 0"):
            cone_log_curvature(3, t)

    @pytest.mark.parametrize("domain_min", [0.0, -1.0])
    def test_domain_min_must_be_positive(self, domain_min):
        # 0 itself is refused: t ranges over t > domain_min > 0
        with pytest.raises(DomainError, match="^domain_min must be positive$"):
            parse_profile("t", domain_min=domain_min)

    def test_substitute_u_needs_n_at_least_2(self):
        with pytest.raises(DomainError, match="need n >= 2, got 1"):
            substitute_u(parse_profile("t"), 1)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_residual_names_a_nonpositive_f(self, n):
        # f = t - 3 is negative at 2.5, so u = exp(m ln f) is nan there,
        # and 0 at t = 3; an integer m = 2 (n = 3) must not make u positive
        u = substitute_u(parse_profile("t-3"), n)
        base = BaseGeometry.constant(n, 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(DomainError) as exc:
                ode_residual(u, 0.0, base, 2.5)
            assert str(exc.value) == "u is not finite at t = 2.5"
            with pytest.raises(DomainError) as exc:
                ode_residual(u, 0.0, base, np.array([3.5, 3.0]))
            assert str(exc.value) == f"field '{u.source}' is nonpositive at t = 3.0"

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_residual_names_a_zero_of_f_with_no_domain(self, n):
        # with no domain_min the field checks no sign, so u = 0 at t = 3
        # reaches the residual, which names it rather than return nan
        u = substitute_u(parse_profile("t-3", domain_min=None), n)
        base = BaseGeometry.constant(n, -n * (n - 1))
        with np.errstate(invalid="ignore", divide="ignore"):
            for t in (3.0, np.array([3.5, 3.0])):
                with pytest.raises(DomainError) as exc:
                    ode_residual(u, 0.0, base, t)
                assert str(exc.value) == "u is nonpositive at t = 3.0"
            with pytest.raises(DomainError) as exc:
                ode_residual(u, 0.0, base, 2.5)
            assert str(exc.value) == "u is not finite at t = 2.5"


RANDOM_ATOMS = ["ln(t)", "sin(t/50)", "cos(t/90)", "sqrt(t)/40", "1/t"]


def random_profile(rng):
    """A random smooth profile kept positive on [2.5, 1e3] by construction:
    exp of a small random combination, times a power of t."""
    k = rng.integers(1, 4)
    picks = rng.choice(len(RANDOM_ATOMS), size=k, replace=False)
    coeffs = rng.uniform(-0.3, 0.3, size=k)
    inner = " + ".join(f"{c:.6f}*{RANDOM_ATOMS[i]}"
                       for c, i in zip(coeffs, picks))
    p = rng.uniform(0.2, 1.5)
    return f"t^{p:.6f} * exp({inner})"


class TestCurvatureOdeAlgebra:
    def test_residual_vanishes_for_random_profiles(self):
        # warped_scalar_curvature and the substituted second-order form are
        # algebraically equivalent: feeding the one into the other must
        # produce a zero residual for arbitrary smooth positive profiles.
        rng = np.random.default_rng(20240817)
        t = default_probe_grid(2.0, 1.0e3, 64)
        for trial in range(100):
            n = int(rng.integers(3, 9))
            src = random_profile(rng)
            f = parse_profile(src, domain_min=2.0)
            base = BaseGeometry.constant(n, float(rng.uniform(-20.0, 20.0)))
            u = substitute_u(f, n)
            R = warped_scalar_curvature(f, base, t)
            res = ode_residual(u, lambda s, R=R: R, base, t)
            scale = np.max(np.abs(R) * u.eval(t)) + 1.0
            assert np.max(np.abs(res)) / scale < 1e-8, (trial, src, n)


class TestPowerLawCurvature:
    def test_matches_substituted_residual(self):
        # u = t^alpha over a scalar-flat base realizes exactly this curvature
        n, alpha = 4, 0.3
        base = BaseGeometry.constant(n, 0.0)
        f = parse_profile(f"t^{2*alpha/(n + 1)}", domain_min=0.5)
        t = default_probe_grid(1.0, 50.0)
        R = power_law_curvature(alpha, n, t)
        res = ode_residual(substitute_u(f, n), lambda s: np.interp(s, t, R),
                           base, t)
        assert np.max(np.abs(res)) < 1e-10

    def test_n2_value(self):
        # n = 2 is the smallest n taken: (4n/(n+1)) alpha (1 - alpha) / t^2
        assert power_law_curvature(0.3, 2, 3.0) == pytest.approx(
            (8.0 / 3.0) * 0.3 * 0.7 / 9.0, rel=1e-15)

    def test_maximal_at_half(self):
        alphas = np.linspace(0.0, 1.0, 101)
        vals = [power_law_curvature(a, 3, 10.0) for a in alphas]
        assert np.argmax(vals) == 50


class TestCoordinateList:
    """Field.coords is what eval_point binds: each coordinate the tree
    reads, with its index in a point's x part."""

    NAMES = tuple(f"x{k}" for k in range(1, 11))

    @settings(max_examples=50, deadline=None)
    @given(t=st.floats(0.5, 50.0),
           x=st.lists(st.floats(-3.0, 3.0), min_size=10, max_size=10))
    def test_sparse_reads_of_ten_coordinates(self, t, x):
        # checked against the tree with all ten bound, never on an n = 10 grid
        g = Field("t*x2 - x10^2 + sin(x2*x10)",
                  allowed_vars=("t",) + self.NAMES)
        assert dict(g.coords) == {"x2": 1, "x10": 9}
        assert g.eval_point(t, np.array(x)) == g.ast.eval(
            {"t": t, **dict(zip(self.NAMES, x))})

    def test_t_only_field_reads_no_coordinate(self):
        g = Field("t^2", allowed_vars=("t",) + self.NAMES)
        assert g.coords == []
        assert g.eval_point(3.0, np.full(10, np.nan)) == 9.0


class TestConeLogCurvature:
    def test_approaches_barrier_from_below(self):
        # t^2 R -> -n(n-1) from below as t grows
        n = 3
        t = np.geomspace(10.0, 1e150, 32)
        vals = cone_log_curvature(n, t) * t**2
        assert np.all(vals < -n*(n - 1))
        assert np.all(np.diff(vals) > 0)  # monotone approach (1/ln t rate)
        assert vals[-1] == pytest.approx(-n*(n - 1), rel=1e-2)

    def test_agrees_with_generic_path(self):
        f = parse_profile("t*ln(t)", domain_min=1.5)
        base = BaseGeometry.constant(3, -6.0)
        t = np.geomspace(2.0, 100.0, 16)
        assert np.allclose(cone_log_curvature(3, t),
                           warped_scalar_curvature(f, base, t), rtol=1e-13)
