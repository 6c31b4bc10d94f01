"""Polar-type curvature slices, grid operators, and the conformal equation."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvlab.errors import DomainError
from curvlab.geometry import BaseGeometry, DimensionConstants
from curvlab.polar import (BaseGrid, PolarWarpField,
                           conformal_base_curvature,
                           conformal_scalar_curvature,
                           polar_laplacian, polar_scalar_curvature)
from curvlab.warp import parse_profile, warped_scalar_curvature


@pytest.fixture(params=["fd2", "spectral"])
def grid(request):
    return BaseGrid(3, 24, stencil=request.param)


def green_pair(grid):
    """Two fields on a 3-torus grid whose Dirichlet pairing is not 0."""
    x = np.meshgrid(*([grid.axis_points] * grid.n), indexing="ij")
    a = np.sin(x[0]) + np.cos(2*x[1])*np.sin(x[2]) + np.cos(x[0])*np.sin(x[1])
    b = np.cos(x[0])*np.cos(x[1]) + np.sin(x[0])
    return a, b


def forward_difference(grid, arr, ax):
    return (np.roll(arr, -1, axis=ax) - arr) / grid.spacing


def lines_through(arr, node):
    """The n grid lines of arr through node, one per axis."""
    return [arr[node[:ax] + (slice(None),) + node[ax + 1:]]
            for ax in range(arr.ndim)]


class TestBaseGrid:
    def test_laplacian_kills_constants(self, grid):
        arr = np.full((24,) * 3, 3.7)
        assert np.max(np.abs(grid.laplacian(arr))) == 0.0

    def test_laplacian_eigenfunction(self, grid):
        x = np.meshgrid(*([grid.axis_points] * grid.n), indexing="ij")
        arr = np.sin(2*x[0]) * np.cos(x[1])
        lap = grid.laplacian(arr)
        expect = -(4.0 + 1.0) * arr
        tol = 1e-10 if grid.stencil == "spectral" else 0.25
        assert np.max(np.abs(lap - expect)) < tol

    def test_greens_identity(self, grid):
        # sum a Lap b = -sum <grad a, grad b>, the quadrature weight
        # spacing**n common to both sides, for fields that are not
        # orthogonal on the torus: spectral meets it with its own gradient,
        # fd2 with forward differences (summation by parts)
        a, b = green_pair(grid)
        lhs = np.sum(a * grid.laplacian(b))
        if grid.stencil == "spectral":
            # -(1/2) m^3, the exact integral -(2 pi)^3/2 times (m/2pi)^3
            assert lhs == pytest.approx(-0.5 * grid.m ** 3, rel=1e-13)
            rhs = -np.sum(grid.grad_inner(a, b))
        else:
            assert lhs == pytest.approx(-6872.611665693689, rel=1e-13)
            rhs = -sum(np.sum(forward_difference(grid, a, ax)
                              * forward_difference(grid, b, ax))
                       for ax in range(grid.n))
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_fd2_meets_greens_identity_with_gradient_at_second_order(self):
        # fd2's Laplacian with the centred gradient: the gap is O(h^2), so it
        # shrinks about fourfold when m doubles (6.7%, 1.7%, 0.43%)
        gaps = []
        for m in (12, 24, 48):
            grid = BaseGrid(3, m, stencil="fd2")
            a, b = green_pair(grid)
            lhs = np.sum(a * grid.laplacian(b))
            gaps.append(abs(lhs + np.sum(grid.grad_inner(a, b))) / abs(lhs))
        assert 0.06 < gaps[0] < 0.07
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 3.8 < coarse / fine < 4.2

    @pytest.mark.parametrize("n, m, seed", [(2, 8, 0), (3, 24, 1), (4, 10, 2),
                                            (5, 8, 3)])
    def test_laplacian_at_is_the_laplacian_at_the_node(self, n, m, seed):
        # fd2 sums the same neighbours in the same order, so to the bit;
        # spectral differs from the n-D FFT by round-off only
        rng = np.random.default_rng(seed)
        arr = rng.uniform(1.0, 3.0, (m,) * n)
        for stencil in ("fd2", "spectral"):
            g = BaseGrid(n, m, stencil=stencil)
            full = g.laplacian(arr)
            for node in [(0,) * n, (m - 1,) * n,
                         tuple(rng.integers(0, m, n).tolist())]:
                at = g.laplacian_at(lines_through(arr, node), node)
                assert at.shape == (1,)
                if stencil == "fd2":
                    assert at[0] == full[node]
                else:
                    assert abs(at[0] - full[node]) <= 1e-12 * np.abs(full).max()

    def test_rejects_small_grid(self):
        with pytest.raises(DomainError):
            BaseGrid(3, 4)


class TestConformalBaseCurvature:
    def test_constant_factor_flat_base(self, grid):
        lam = 1.7
        mu = np.full((24,)*3, lam**((3 - 2)/2.0))
        R = conformal_base_curvature(3, mu, grid.laplacian(mu))
        assert np.max(np.abs(R)) < 1e-12

    def test_x_dependent_factor_spot_check(self):
        # independent closed form: for f^2 g = e^(2 ln f) g on a flat base,
        # R = f^-2 [-2(n-1) Lap ln f - (n-1)(n-2) |grad ln f|^2]
        n = 3
        g = BaseGrid(n, 32, stencil="spectral")
        f = PolarWarpField("2 + cos(x1)", g, domain_min=0.1)
        t = 1.0
        fv = f.sample(t)
        mu = fv ** ((n - 2) / 2.0)
        R = conformal_base_curvature(n, mu, g.laplacian(mu))
        lnf = np.log(fv)
        expect = (-2*(n - 1)*g.laplacian(lnf)
                  - (n - 1)*(n - 2)*g.grad_inner(lnf, lnf)) / fv**2
        assert np.max(np.abs(R - expect)) < 1e-7


@pytest.mark.parametrize("n, source, reads", [
    (2, "t^2 + 1", {}),
    (2, "t*(2 + sin(x2))", {"x2": 1}),
    (3, "t*(2 + cos(x1)*sin(x3))", {"x1": 0, "x3": 2}),
    (4, "t^1.5*(3 + sin(x2) + cos(x4)^2*x3)", {"x2": 1, "x3": 2, "x4": 3}),
    (4, "exp(t/9)*(3 + sin(x4))", {"x4": 3}),
])
def test_eval_point_matches_sample_at_grid_nodes(n, source, reads):
    # eval_point binds only the coordinates the tree reads; sample binds
    # every axis of the grid, so the two agree at every node
    grid = BaseGrid(n, 8)
    f = PolarWarpField(source, grid)
    assert dict(f.coords) == reads
    for t in (2.5, 7.0):
        slab = f.sample(t)
        for node in np.ndindex(slab.shape):
            x = grid.axis_points[list(node)]
            assert f.eval_point(t, x) == pytest.approx(slab[node], rel=1e-15)


class TestPolarScalarCurvature:
    def test_reduces_to_warped_product(self):
        g = BaseGrid(3, 16)
        f = PolarWarpField("t*ln(t)", g, domain_min=2.0)
        prof = parse_profile("t*ln(t)", domain_min=2.0)
        base = BaseGeometry.constant(3, 0.0)
        for t in [2.5, 4.0, 9.0]:
            slice_vals = polar_scalar_curvature(f, t)
            expect = warped_scalar_curvature(prof, base, t)
            assert np.max(np.abs(slice_vals - expect)) < 1e-12

    def test_x_independence_gives_constant_slice(self):
        g = BaseGrid(3, 16)
        f = PolarWarpField("exp(t)", g, domain_min=0.1)
        R = polar_scalar_curvature(f, 1.0)
        assert np.allclose(R, -12.0, rtol=1e-12)

    def test_positivity_check(self):
        g = BaseGrid(2, 16)
        f = PolarWarpField("cos(x1) + 0*t", g, domain_min=0.1)
        with pytest.raises(DomainError):
            f.sample(1.0)

    @pytest.mark.parametrize("domain_min", [0.0, -1.0])
    def test_nonpositive_domain_min_rejected(self, domain_min):
        with pytest.raises(DomainError, match="domain_min"):
            PolarWarpField("exp(t)", BaseGrid(3, 8), domain_min=domain_min)
        with pytest.raises(DomainError, match="domain_min"):
            parse_profile("exp(t)", domain_min=domain_min)


# low-degree trig warps: the spectral Laplacian is exact to round-off on them
TRIG_TERMS = ["cos({k}*x1)", "sin({k}*x1)*cos(x2)", "cos(x{n})*sin({k}*x2)",
              "sin(x1+{k}*x{n})"]


@st.composite
def trig_warps(draw):
    n = draw(st.integers(3, 5))
    m = draw(st.sampled_from([8, 10, 12, 16] if n < 5 else [8, 10]))
    terms = draw(st.lists(st.sampled_from(TRIG_TERMS), min_size=1, max_size=3))
    coeffs = [draw(st.floats(0.05, 0.4)) for _ in terms]
    ks = [draw(st.integers(1, 3)) for _ in terms]
    radial = draw(st.sampled_from(["t", "t^1.4", "t^2", "exp(t/5)"]))
    body = "+".join(f"{c!r}*{term.format(k=k, n=n)}"
                    for c, term, k in zip(coeffs, terms, ks))
    source = f"{radial}*(3.5+{body})"
    node = tuple(draw(st.integers(0, m - 1)) for _ in range(n))
    t = draw(st.floats(2.5, 12.0))
    return n, m, source, node, t


class TestPolarScalarCurvatureAt:
    @settings(max_examples=60, deadline=None)
    @given(trig_warps(), st.sampled_from(["fd2", "spectral"]))
    def test_matches_the_slice_at_the_node(self, warp, stencil):
        n, m, source, node, t = warp
        f = PolarWarpField(source, BaseGrid(n, m, stencil=stencil))
        full = polar_scalar_curvature(f, t)
        at = polar_scalar_curvature(f, t, node)
        if stencil == "fd2":
            assert at == full[node]
        else:
            assert abs(at - full[node]) <= 1e-12 * np.abs(full).max()

    @pytest.mark.parametrize("stencil", ["fd2", "spectral"])
    def test_constant_warp_gives_plus_zero(self, stencil):
        f = PolarWarpField("3 + 0*x1", BaseGrid(4, 8, stencil=stencil))
        R = polar_scalar_curvature(f, 3.0, (1, 2, 3, 4))
        assert R == 0.0 and math.copysign(1.0, R) == 1.0

    def test_needs_n_at_least_3(self):
        f = PolarWarpField("t*(2+cos(x1))", BaseGrid(2, 8))
        with pytest.raises(DomainError, match="formula degenerates for n < 3"):
            polar_scalar_curvature(f, 3.0, (0, 0))


class TestPolarLaplacian:
    def test_reduces_to_warped_form(self):
        g = BaseGrid(3, 16)
        f = PolarWarpField("t^2", g, domain_min=0.5)
        u = PolarWarpField("1/t", g, domain_min=0.5)
        t = 2.0
        lap = polar_laplacian(f, u, t)
        # x-independent: u_tt + (n f_t/f) u_t
        expect = 2.0/t**3 + 3 * (2*t/t**2) * (-1.0/t**2)
        assert np.allclose(lap, expect, rtol=1e-12)

    def test_cross_term_sign(self):
        # grad f and grad u aligned: the (n-2)/f^3 <grad f, grad u> term
        g = BaseGrid(3, 32, stencil="spectral")
        f = PolarWarpField("2 + sin(x1) + 0*t", g, domain_min=0.1)
        u = PolarWarpField("3 + sin(x1) + 0*t", g, domain_min=0.1)
        t = 1.0
        lap = polar_laplacian(f, u, t)
        fv = f.sample(t)
        uv = u.sample(t)
        expect = (3 - 2)/fv**3 * g.grad_inner(fv, uv) + g.laplacian(uv)/fv**2
        assert np.max(np.abs(lap - expect)) < 1e-9


class TestConformalScalarCurvature:
    def test_constant_unit_factor_identity(self):
        g = BaseGrid(3, 16)
        f = PolarWarpField("exp(t)", g, domain_min=0.1)
        u = PolarWarpField("1 + 0*t", g, domain_min=0.1)
        R = conformal_scalar_curvature(u, f, 1.0)
        assert np.allclose(R, -12.0, rtol=1e-10)

    def test_constant_factor_rescales(self):
        g = BaseGrid(3, 16)
        f = PolarWarpField("exp(t)", g, domain_min=0.1)
        lam = 2.0
        u = PolarWarpField(f"{lam} + 0*t", g, domain_min=0.1)
        R = conformal_scalar_curvature(u, f, 1.0)
        # u^(4/(n-1)) g with constant u scales curvature by u^(-4/(n-1))
        assert np.allclose(R, -12.0 / lam**(4.0/2.0), rtol=1e-10)

    def test_equation_rearrangement_residual(self):
        # R_c solved from the conformal equation must satisfy it identically
        g = BaseGrid(3, 24, stencil="spectral")
        f = PolarWarpField("t*(2 + 0.3*cos(x1))", g, domain_min=0.5)
        u = PolarWarpField("1 + 0.2*sin(x2)/t", g, domain_min=0.5)
        t = 3.0
        n = 3
        cnp1 = DimensionConstants(n).c_np1
        Rc = conformal_scalar_curvature(u, f, t)
        uval = u.sample(t)
        res = (polar_laplacian(f, u, t) - cnp1*polar_scalar_curvature(f, t)*uval
               + cnp1*Rc*uval**((n + 3.0)/(n - 1.0)))
        assert np.max(np.abs(res)) < 1e-12


def rescaled(source, lam):
    """F(s) = lam f(s/lam) as an expression string."""
    body = re.sub(r"\bt\b", f"(t/{lam!r})", source)
    return f"{lam!r}*({body})"


# warps positive for t > 2, with drawn coefficients a, b and p
SCALED_PROFILES = ["{a}*t^{p}", "t*ln(t)", "{a}*exp({b}*t)", "t^{p}+{a}*t",
                   "{a}+t^{p}", "t*(2+sin(t))"]


class TestScalingSymmetry:
    """F(s) = lam f(s/lam) has F' = f', F F'' = f f'' and F^2 = lam^2 f^2, so
    R_F(lam t) = R_f(t)/lam^2.  On 3,000 random warped draws and 400 torus
    draws the two sides differed by at most 1.8e-14 (warped) and 1.5e-14
    (spectral torus) of the scale of R's terms, |R(g)| or max |R| on the
    slice plus (2n |f f''| + n(n-1) f'^2)/f^2; the bound is 1e-13, and
    4,000 and 800 hypothesis examples stayed within it."""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(SCALED_PROFILES), st.floats(0.2, 5.0),
           st.floats(0.01, 0.3), st.floats(0.5, 3.0), st.floats(0.1, 10.0),
           st.integers(2, 6), st.floats(-30.0, 30.0),
           st.lists(st.floats(2.5, 30.0), min_size=1, max_size=8))
    def test_warped(self, form, a, b, p, lam, n, R_g, ts):
        source = form.format(a=repr(a), b=repr(b), p=repr(p))
        f = parse_profile(source)
        F = parse_profile(rescaled(source, lam), domain_min=2.0 * lam)
        base = BaseGeometry.constant(n, R_g)
        t = np.array(ts)
        R_f = warped_scalar_curvature(f, base, t)
        R_F = warped_scalar_curvature(F, base, lam * t)
        fv = f.eval(t)
        scale = (abs(R_g) + 2 * n * np.abs(fv * f.d2(t))
                 + n * (n - 1) * f.d1(t) ** 2) / fv ** 2
        assert np.all(np.abs(lam ** 2 * R_F - R_f) <= 1e-13 * scale)

    @settings(max_examples=40, deadline=None)
    @given(trig_warps(), st.floats(0.1, 10.0))
    def test_polar_on_a_spectral_torus(self, warp, lam):
        n, m, source, _, t = warp
        grid = BaseGrid(n, m, stencil="spectral")
        f = PolarWarpField(source, grid)
        F = PolarWarpField(rescaled(source, lam), grid, domain_min=2.0 * lam)
        R_f = polar_scalar_curvature(f, t)
        R_F = polar_scalar_curvature(F, lam * t)
        fv = f.sample(t)
        scale = np.abs(R_f).max() + np.max(
            (2 * n * np.abs(fv * f.sample_dtt(t))
             + n * (n - 1) * f.sample_dt(t) ** 2) / fv ** 2)
        assert np.abs(lam ** 2 * R_F - R_f).max() <= 1e-13 * scale
