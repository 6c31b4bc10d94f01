"""Finite-difference tensor calculus against closed forms."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvlab import oracle
from curvlab.errors import DomainError
from curvlab.geometry import BaseGeometry
from curvlab.oracle import (MetricGrid, assemble_metric, fd_rows,
                            fd_scalar_curvature)
from curvlab.polar import BaseGrid, PolarWarpField, conformal_scalar_curvature
from curvlab.warp import Field, parse_profile


def torus_point(n, t):
    return np.concatenate([[t], np.full(n, 0.3)])


class TestCharts:
    def test_chart_for_signs(self):
        # R = 0 (a constant base or the flat torus) gives the flat chart, and
        # R > 0 and R < 0 the sphere and hyperbolic space, here of unit
        # radius: dx1^2 + s(x1)^2 (dx2^2 + sin^2 x2 dx3^2), s = sin or sinh
        xs = np.array([[0.4, 1.1, 0.7], [2.0, 0.3, 1.9]])
        for base in (BaseGeometry.constant(3, 0.0), BaseGrid(3, 16)):
            assert same_bits(oracle._chart(base, xs), np.stack([np.eye(3)] * 2))
        for base, s in ((BaseGeometry.sphere(3), np.sin),
                        (BaseGeometry.constant(3, -6.0), np.sinh)):
            for x, g in zip(xs, oracle._chart(base, xs)):
                s2 = s(x[0]) ** 2
                assert g == pytest.approx(
                    np.diag([1.0, s2, s2 * np.sin(x[1]) ** 2]), rel=1e-15)

    def test_sphere_chart_radius(self):
        # R(g) = n(n-1)/rho^2 must invert to the chart radius
        g = oracle._chart(BaseGeometry.constant(4, 3.0), np.zeros((1, 4)))
        assert g[0, 0, 0] == pytest.approx(4*3/3.0)


class TestChristoffel:
    def test_flat_product_all_zero(self):
        f = parse_profile("1 + 0*t", domain_min=0.1)
        metric = assemble_metric(f, BaseGrid(3, 16))
        gamma = fd_scalar_curvature(metric, torus_point(3, 2.0)).gamma
        assert np.max(np.abs(gamma)) < 1e-10

    def test_cone_closed_forms(self):
        # f = t over the torus: Gamma^0_jk = -t delta_jk, Gamma^i_0k = delta_ik/t
        f = parse_profile("t", domain_min=0.1)
        metric = assemble_metric(f, BaseGrid(3, 16))
        t = 2.0
        gamma = fd_scalar_curvature(metric, torus_point(3, t)).gamma
        assert gamma[0, 1, 1] == pytest.approx(-t, abs=1e-8)
        assert gamma[1, 0, 1] == pytest.approx(1.0/t, abs=1e-8)
        assert gamma[0, 0, 0] == pytest.approx(0.0, abs=1e-10)
        assert gamma[1, 0, 0] == pytest.approx(0.0, abs=1e-10)

    def test_exponential_warp(self):
        f = parse_profile("exp(t)", domain_min=0.1)
        metric = assemble_metric(f, BaseGrid(3, 16))
        gamma = fd_scalar_curvature(metric, torus_point(3, 1.0)).gamma
        for i in range(1, 4):
            assert gamma[i, 0, i] == pytest.approx(1.0, abs=1e-5)

    def test_symmetry(self):
        f = PolarWarpField("t*(2 + 0.4*sin(x1))", BaseGrid(3, 16),
                          domain_min=0.1)
        metric = assemble_metric(f, BaseGrid(3, 16))
        gamma = fd_scalar_curvature(metric, torus_point(3, 2.0)).gamma
        assert np.max(np.abs(gamma - gamma.transpose(0, 2, 1))) < 1e-9


class TestScalarCurvature:
    def test_flat(self):
        f = parse_profile("1 + 0*t", domain_min=0.1)
        metric = assemble_metric(f, BaseGrid(3, 16))
        assert abs(fd_scalar_curvature(metric, torus_point(3, 2.0)).scalar) < 1e-8

    def test_hyperbolic_parts(self):
        f = parse_profile("exp(t)", domain_min=0.1)
        metric = assemble_metric(f, BaseGrid(3, 16))
        point = torus_point(3, 1.0)
        sample = fd_scalar_curvature(metric, point)
        assert sample.scalar == pytest.approx(-12.0, abs=1e-6)
        # the mixed radial and the tangential contractions of R_ijkl, which
        # the oracle assembles but does not return
        g, dg, d2 = oracle._derivatives(metric, point[None], metric.h)
        ginv = np.linalg.inv(g)
        R = oracle._riemann(g, oracle._christoffel(ginv, dg), d2)[0]
        inner = ginv[0, 1:, 1:]
        mixed = np.einsum("jl,jl->", inner, R[0, 1:, 0, 1:])
        tangential = np.einsum("jl,ik,ijkl->", inner, inner, R[1:, 1:, 1:, 1:])
        assert mixed == pytest.approx(-3.0, abs=1e-4)  # -n f_tt/f
        assert tangential == pytest.approx(-6.0, abs=1e-4)
        # decomposition: scalar = 2 mixed + tangential
        assert sample.scalar == pytest.approx(2*mixed + tangential, abs=1e-9)

    def test_unit_sphere_cone_flat(self):
        f = parse_profile("t", domain_min=0.1)
        metric = assemble_metric(f, BaseGeometry.sphere(3, radius=1.0))
        point = np.array([2.0, 1.1, 1.2, 1.3])
        assert abs(fd_scalar_curvature(metric, point).scalar) < 1e-5

    def test_convergence_order(self):
        f = parse_profile("t*ln(t)", domain_min=1.5)
        base = BaseGeometry.constant(3, -6.0)
        metric = assemble_metric(f, base)
        point = np.array([np.e, 0.4, 0.5, 0.6])
        exact = -36.0/np.e**2
        errs = []
        for h in (4e-3, 2e-3, 1e-3):
            val = fd_scalar_curvature(metric, point, h=h).scalar
            errs.append(abs(val - exact))
        order = np.log2(errs[0]/errs[1])
        assert order > 1.9
        assert errs[-1]/abs(exact) < 1e-4


class TestConformalMetric:
    def test_constant_conformal_scaling(self):
        f = parse_profile("t", domain_min=0.1)
        grid = BaseGrid(3, 16)
        lam = 2.0
        u = PolarWarpField(f"{lam} + 0*t", grid, domain_min=0.1)
        metric = assemble_metric(f, grid, conformal=u)
        g = metric.components(torus_point(3, 2.0))
        assert g[0, 0] == pytest.approx(lam**2, rel=1e-12)  # u^(4/(n-1)) = u^2
        # constant scaling of a flat-sliced metric divides curvature by lam^2
        plain = assemble_metric(f, grid)
        s1 = fd_scalar_curvature(metric, torus_point(3, 2.0)).scalar
        s0 = fd_scalar_curvature(plain, torus_point(3, 2.0)).scalar
        assert s1 == pytest.approx(s0/lam**2, abs=1e-7)

    def test_plain_field_factor_matches_polar_field(self):
        f = parse_profile("t", domain_min=0.1)
        grid = BaseGrid(3, 16)
        src = "1 + 0.3*sin(x1)*cos(x3)/t"
        plain = assemble_metric(
            f, grid, conformal=Field(src, allowed_vars=("t", "x1", "x2", "x3")))
        polar = assemble_metric(
            f, grid, conformal=PolarWarpField(src, grid, domain_min=0.1))
        for t in (0.5, 2.0, 7.0):
            point = np.array([t, 0.3, 1.1, 2.4])
            assert np.array_equal(plain.components(point), polar.components(point))

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(-0.3, 0.3), b=st.floats(-0.2, 0.2),
           k=st.tuples(st.integers(1, 2), st.integers(1, 2)),
           t=st.floats(2.5, 8.0), node=st.tuples(*[st.integers(0, 31)] * 3))
    def test_conformal_closed_form_matches_the_oracle(self, a, b, k, t, node):
        # R of u^(4/(n-1)) (dt^2 + f^2 g), solved from the conformal
        # equation, against the tensor calculus on the deformed metric.  u
        # shares x1 with f, so <grad f, grad u> counts.  The spectral grid is
        # exact to round-off on these fields, so what is left is the
        # oracle's O(h^2): at most 0.08 h^2 relative, measured over the
        # corners of this box
        grid = BaseGrid(3, 32, stencil="spectral")
        f = PolarWarpField(f"t*(2+{a!r}*cos({k[0]}*x1))", grid, domain_min=0.5)
        u = PolarWarpField(f"1+{b!r}*sin({k[1]}*x1+x2)/t", grid, domain_min=0.5)
        h = 2e-3
        closed = conformal_scalar_curvature(u, f, t)[node]
        point = np.concatenate([[t], grid.axis_points[list(node)]])
        fd = fd_scalar_curvature(assemble_metric(f, grid, conformal=u, h=h),
                                 point).scalar
        assert abs(fd - closed) <= 0.2 * h**2 * abs(closed)

    def test_positive_definiteness_guard(self):
        f = parse_profile("t - 3", domain_min=0.1)  # vanishes at t = 3
        metric = assemble_metric(f, BaseGrid(3, 16))
        with pytest.raises(DomainError,
                           match=r"^warp is nonpositive at t = 3\.0$"):
            fd_scalar_curvature(metric, torus_point(3, 3.0))

    def test_non_finite_metric_is_rejected(self):
        # f^2 = exp(2 exp(10)) overflows: a DomainError, not eigvalsh failing
        # and quietly: the overflow is named, so numpy warns of nothing
        f = parse_profile("exp(exp(t))")
        metric = assemble_metric(f, BaseGeometry.constant(3, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="metric is not finite"):
                fd_scalar_curvature(metric, np.array([10.0, 0.3, 0.3, 0.3]))

    def test_stencil_guard_uses_the_step_given(self):
        # with h = 0.5 the stencil reaches t = 1.01, below domain_min = 2
        metric = assemble_metric(parse_profile("t", domain_min=2.0),
                                 BaseGeometry.constant(3, 0.0))
        point = [2.01, 0.3, 0.3, 0.3]
        # the metric's own h = 1e-3 stays above 2
        fd_scalar_curvature(metric, point)
        with pytest.raises(DomainError,
                           match="t - 2h must exceed domain_min = 2.0"):
            fd_scalar_curvature(metric, point, h=0.5)
        # on a stack the first row whose stencil reaches below is named
        stack = np.array([[3.5, 0.3, 0.3, 0.3], point, [2.005, 0.3, 0.3, 0.3]])
        with pytest.raises(DomainError, match=r"= 2\.0 at t = 2\.01$"):
            fd_scalar_curvature(metric, stack, h=0.5)
        # a stencil that reaches domain_min exactly, 2.5 - 2 * 0.25 = 2.0
        with pytest.raises(DomainError, match=r"= 2\.0 at t = 2\.5$"):
            fd_scalar_curvature(metric, [2.5, 0.3, 0.3, 0.3], h=0.25)

    def test_each_stencil_point_is_evaluated_once(self):
        # the centre is checked on its own and then reused, and the stencil
        # holds +-h and +-2h on each of the 4 axes: no mixed +-h+-h points
        rows = []

        def components(point):
            rows.append(tuple(point))
            return np.eye(4)

        fd_scalar_curvature(MetricGrid(3, components), [3.0, 0.3, 0.3, 0.3])
        assert len(rows) == len(set(rows)) == 1 + 4 * 4
        assert rows[0] == (3.0, 0.3, 0.3, 0.3)

    def test_point_errors_name_t(self):
        # t as its repr, not the rounded print of the whole point array; a
        # zero eigenvalue is not positive either
        point = np.array([0.1 + 0.2, 0.3])
        for last in (-1.0, 0.0):
            metric = MetricGrid(1, lambda p: np.diag([1.0, last]))
            with pytest.raises(DomainError) as err:
                fd_scalar_curvature(metric, point)
            assert str(err.value) == \
                "metric not positive definite at t = 0.30000000000000004"

    def test_a_non_diagonal_metric_is_refused(self):
        # the stencil has no mixed points, which only a diagonal metric's
        # scalar can do without; the first non-diagonal row is named, after
        # the finite check (the last row is both)
        def components(p):
            g = np.eye(2)
            g[0, 1] = 0.0 if p[0] < 4.0 else 0.1
            g[1, 1] = np.inf if p[0] > 6.0 else 1.0
            return g

        metric = MetricGrid(1, components)
        for t, message in ((3.0, None), (5.0, "metric is not diagonal"),
                           (7.0, "metric is not finite")):
            points = np.array([[3.0, 0.3], [t, 0.3]])
            if message is None:
                fd_scalar_curvature(metric, points)
                continue
            with pytest.raises(DomainError) as err:
                fd_scalar_curvature(metric, points)
            assert str(err.value) == f"{message} at t = {t!r}"

    def test_a_metric_diagonal_only_at_its_centre_is_refused(self):
        # g_01 = (t - 5) x1 is 0 at t = 5 but not at the +-h, +-2h points,
        # where the mixed differences left 0 would be wrong
        def components(p):
            g = np.eye(2)
            g[0, 1] = (p[0] - 5.0) * p[1]
            return g

        with pytest.raises(DomainError) as err:
            fd_scalar_curvature(MetricGrid(1, components), [5.0, 0.3])
        assert str(err.value) == "metric is not diagonal at t = 5.0"

    def test_domain_guard(self):
        f = parse_profile("t", domain_min=2.0)
        metric = assemble_metric(f, BaseGrid(3, 16))
        with pytest.raises(DomainError):
            fd_scalar_curvature(metric, torus_point(3, 2.001))

    @pytest.mark.parametrize("shape", [(3,), (5,), (2, 1, 4)],
                             ids=["dim-1", "dim+1", "3-D"])
    def test_point_shape_is_checked(self, shape):
        metric = assemble_metric(parse_profile("t"), BaseGeometry.constant(3, 0.0))
        points = np.full(shape, 3.0)
        for evaluate in (metric.components,
                         lambda p: fd_scalar_curvature(metric, p)):
            with pytest.raises(DomainError) as err:
                evaluate(points)
            assert str(err.value) == "point must have 4 coordinates"

    @pytest.mark.parametrize("h", [0.0, -1.0e-3])
    def test_nonpositive_step_is_named(self, h):
        # h = 0 used to surface as a non-finite curvature, h < 0 passed
        metric = assemble_metric(parse_profile("t"), BaseGeometry.constant(3, 0.0))
        with pytest.raises(DomainError) as err:
            fd_scalar_curvature(metric, torus_point(3, 3.0), h=h)
        assert str(err.value) == f"need h > 0, got h = {h!r}"


# ---------------------------------------------------------------------------
# the batched stencil against the point-by-point evaluation it replaced


def per_point_chart(base, x):
    """The chart components at one point, one scalar at a time."""
    n = base.n
    R = base.scalar_curvature
    diag = np.ones(n)
    if R == 0.0:
        return np.diag(diag)
    rho2 = np.sqrt(n * (n - 1) / abs(R)) ** 2
    diag = diag * rho2
    first = 1
    if R < 0:
        diag[1] = rho2 * np.sinh(x[0]) ** 2
        first = 2
    for i in range(first, n):
        diag[i] = diag[i - 1] * np.sin(x[i - 1]) ** 2
    return np.diag(diag)


def per_point_metric(f, base, conformal=None, h=1.0e-3):
    """assemble_metric's metric built as perfbench/checks.py builds one: a
    component function of one point, so a stack is evaluated row by row."""
    n = base.n

    def components(point):
        g = np.zeros((n + 1, n + 1))
        g[0, 0] = 1.0
        fv = f.eval_point(point[0], point[1:])
        g[1:, 1:] = fv * fv * per_point_chart(base, point[1:])
        if conformal is not None:
            g *= conformal.eval_point(point[0], point[1:]) ** (4.0 / (n - 1))
        return g

    return MetricGrid(n, components, h=h, domain_min=f.domain_min)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBatchedStencil:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["sphere", "hyperbolic"]),
           n=st.integers(2, 7), radius=st.floats(0.2, 5.0),
           centre=st.lists(st.floats(-4.0, 4.0), min_size=7, max_size=7),
           h=st.floats(1e-5, 1e-2), seed=st.integers(0, 2 ** 32 - 1))
    def test_stacked_chart_matches_the_per_point_chart(self, kind, n, radius,
                                                       centre, h, seed):
        # rows that share coordinates as a stencil's do, then free rows:
        # about 1 in 1200 squares has a last bit that an array ** 2 misses
        rng = np.random.default_rng(seed)
        steps = rng.choice([0.0, 1.0, -1.0, 2.0, -2.0], size=(40, n))
        xs = np.array(centre[:n]) + steps * h
        xs = np.vstack([xs, rng.uniform(-4.0, 4.0, size=(400, n))])
        sign = {"sphere": 1.0, "hyperbolic": -1.0}[kind]
        base = BaseGeometry.constant(n, sign * n * (n - 1) / radius ** 2)
        stacked = oracle._chart(base, xs)
        for x, g in zip(xs, stacked):
            assert same_bits(g, per_point_chart(base, x))

    @settings(max_examples=30, deadline=None)
    @given(base=st.sampled_from(["flat", "sphere", "hyperbolic", "torus"]),
           n=st.integers(3, 6),
           profile=st.sampled_from(["t^3+t", "1.3*t*ln(t)", "t+2*sqrt(t)",
                                    "0.7*t^1.4", "t^2"]),
           t=st.floats(2.5, 10.0), x=st.floats(0.2, 1.2),
           h=st.floats(1e-4, 5e-3), conformal=st.booleans())
    def test_per_point_metric_gives_the_same_bits(self, base, n, profile, t, x,
                                                  h, conformal):
        if base == "torus":
            geometry = BaseGrid(n, 8)
            f = PolarWarpField(f"({profile})*(3+0.2*sin(x1)*cos(x{n}))",
                               geometry, domain_min=0.1)
        else:
            R = {"flat": 0.0, "sphere": 1.5, "hyperbolic": -1.5}[base]
            geometry = BaseGeometry.constant(n, R * n * (n - 1))
            f = parse_profile(profile, domain_min=0.1)
        coords = tuple(f"x{i + 1}" for i in range(n))
        u = (Field("1 + 0.2*sin(x1)*cos(x2)/t", ("t",) + coords)
             if conformal else None)
        point = np.concatenate([[t], x + 0.1 * np.arange(n)])
        batched = fd_scalar_curvature(
            assemble_metric(f, geometry, conformal=u, h=h), point)
        reference = fd_scalar_curvature(
            per_point_metric(f, geometry, conformal=u, h=h), point)
        assert same_bits(batched.gamma, reference.gamma)
        assert same_bits(batched.scalar, reference.scalar)

    @settings(max_examples=25, deadline=None)
    @given(dim=st.integers(4, 8), seed=st.integers(0, 2 ** 32 - 1))
    def test_riemann_assembly_matches_the_quadruple_loop(self, dim, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(dim, dim))
        gamma = rng.normal(size=(dim, dim, dim))
        d2 = rng.normal(size=(dim,) * 4) * 10.0 ** rng.integers(-3, 4)
        # gg[i, j, k, l] = g_ab Gamma^b_il Gamma^a_jk, summed over b and then
        # over a, each in increasing order, as _riemann contracts it; the
        # g_ab Gamma^b_ik Gamma^a_jl term is gg[i, j, l, k]
        low = np.zeros((dim,) * 3)
        for b in range(dim):
            low += g[:, b, None, None] * gamma[None, b]
        gg = np.zeros((dim,) * 4)
        for a in range(dim):
            gg += low[a][:, None, None, :] * gamma[a][None, :, :, None]
        loop = np.empty((dim,) * 4)
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    for el in range(dim):
                        second = 0.5 * (d2[i, el, j, k] + d2[j, k, i, el]
                                        - d2[j, el, i, k] - d2[i, k, j, el])
                        loop[i, j, k, el] = (second + gg[i, j, k, el]
                                             - gg[i, j, el, k])
        riemann = oracle._riemann(g, gamma, d2)
        # the contractions' einsum summation order follows the layout
        assert riemann.flags.c_contiguous
        assert same_bits(riemann, loop)

    @settings(max_examples=50, deadline=None)
    @given(dim=st.integers(2, 9), rows=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_diagonal_g_keeps_the_three_operand_bits(self, dim, rows, seed):
        # assemble_metric's g is diagonal, and for it the two-step
        # contraction, on a stack or not, gives the bits of the O(dim^6)
        # three-operand einsum it replaced; the symbols of a warped metric
        # hold exact zeros, so the drawn ones do too
        rng = np.random.default_rng(seed)
        g = np.zeros((rows, dim, dim))
        g[:, range(dim), range(dim)] = (rng.uniform(0.1, 10.0, (rows, dim))
                                        * 10.0 ** rng.integers(-3, 4, (rows, dim)))
        gamma = rng.normal(size=(rows,) + (dim,) * 3)
        gamma[rng.random(gamma.shape) < 0.4] = 0.0
        zero = np.zeros((rows,) + (dim,) * 4)
        stacked = oracle._riemann(g, gamma, zero)
        for r in range(rows):
            gg1 = np.einsum("ab,bil,ajk->ijkl", g[r], gamma[r], gamma[r])
            gg2 = np.einsum("ab,bik,ajl->ijkl", g[r], gamma[r], gamma[r])
            expected = 0.5 * zero[r] + gg1 - gg2
            assert same_bits(oracle._riemann(g[r], gamma[r], zero[r]), expected)
            assert same_bits(stacked[r], expected)

    @settings(max_examples=40, deadline=None)
    @given(base=st.sampled_from(["flat", "sphere", "hyperbolic", "torus"]),
           n=st.integers(2, 6),
           profile=st.sampled_from(["t^3+t", "1.3*t*ln(t)", "0.7*t^1.4",
                                    "(t-4)*exp(exp(t))"]),
           ts=st.lists(st.floats(2.5, 8.0), min_size=1, max_size=6),
           x=st.floats(0.2, 1.2), conformal=st.booleans())
    def test_a_stack_is_its_rows(self, base, n, profile, ts, x, conformal):
        # each row of a stack gets the bits of a call on that row alone; a
        # stack holding failing points (the last profile is nonpositive
        # below t = 4 and overflows above t ~ 6.56) raises one of their
        # errors, and fd_rows yields the rows before the first one, which
        # then raises its own error
        if base == "torus":
            geometry = BaseGrid(n, 8)
            f = PolarWarpField(f"({profile})*(3+0.2*sin(x1)*cos(x{n}))",
                               geometry, domain_min=0.1)
        else:
            R = {"flat": 0.0, "sphere": 1.5, "hyperbolic": -1.5}[base]
            geometry = BaseGeometry.constant(n, R * n * (n - 1))
            f = parse_profile(profile, domain_min=0.1)
        coords = tuple(f"x{i + 1}" for i in range(n))
        u = (Field("1 + 0.2*sin(x1)*cos(x2)/t", ("t",) + coords)
             if conformal else None)
        metric = assemble_metric(f, geometry, conformal=u)
        points = np.column_stack([ts, np.tile(x + 0.1 * np.arange(n),
                                              (len(ts), 1))])
        # near t ~ 6.5 the curvature overflows, as the CLI allows it to
        with np.errstate(over="ignore", invalid="ignore"):
            self.check_stack(metric, points)

    def test_fd_rows_reaches_a_failing_row_in_order(self):
        # the profile is nonpositive below t = 4 and overflows above t ~ 6.56:
        # the rows before the first failing one are yielded with a stack's
        # bits, and that row raises its own error only when it is reached
        metric = assemble_metric(parse_profile("(t-4)*exp(exp(t))",
                                               domain_min=0.1),
                                 BaseGeometry.constant(3, 0.0))
        points = np.column_stack([[4.5, 5.0, 3.0, 7.0], np.full((4, 3), 0.3)])
        rows = fd_rows(metric, points)
        stacked = fd_scalar_curvature(metric, points[:2]).scalar
        assert same_bits([next(rows), next(rows)], stacked)
        with pytest.raises(DomainError,
                           match=r"^warp is nonpositive at t = 3\.0$"):
            next(rows)

    @staticmethod
    def check_stack(metric, points):
        alone = []  # each row's sample, or the message of its error
        for point in points:
            try:
                alone.append(fd_scalar_curvature(metric, point))
            except DomainError as e:
                alone.append(str(e))
        errors = [one for one in alone if isinstance(one, str)]
        if errors:
            with pytest.raises(DomainError) as err:
                fd_scalar_curvature(metric, points)
            assert str(err.value) in errors
            rows = fd_rows(metric, points)
            for one in alone[:alone.index(errors[0])]:
                assert same_bits(next(rows), one.scalar)
            with pytest.raises(DomainError) as err:
                next(rows)
            assert str(err.value) == errors[0]
            return
        stacked = fd_scalar_curvature(metric, points)
        for r, one in enumerate(alone):
            for part in ("scalar", "gamma"):
                assert same_bits(getattr(stacked, part)[r], getattr(one, part))
