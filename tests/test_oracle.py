"""Finite-difference tensor calculus against closed forms."""

import numpy as np
import pytest

from curvlab.errors import DomainError
from curvlab.geometry import BaseGeometry
from curvlab.oracle import (BaseChart, MetricGrid, assemble_metric, chart_for,
                            fd_christoffel, fd_scalar_curvature)
from curvlab.polar import BaseGrid, PolarWarpField
from curvlab.warp import parse_field, parse_profile


def torus_point(n, t):
    return np.concatenate([[t], np.full(n, 0.3)])


class TestCharts:
    def test_chart_for_signs(self):
        assert chart_for(BaseGeometry.constant(3, 0.0)).kind == "flat"
        assert chart_for(BaseGeometry.sphere(3)).kind == "sphere"
        assert chart_for(BaseGeometry.constant(3, -6.0)).kind == "hyperbolic"
        assert chart_for(BaseGrid(3, 16)).kind == "flat"

    def test_sphere_chart_radius(self):
        # R(g) = n(n-1)/rho^2 must invert to the chart radius
        base = BaseGeometry.constant(4, 3.0)
        chart = chart_for(base)
        assert chart.radius == pytest.approx(np.sqrt(4*3/3.0))


class TestChristoffel:
    def test_flat_product_all_zero(self):
        f = parse_profile("1 + 0*t", domain_min=0.1)
        metric = assemble_metric(f, BaseGrid(3, 16))
        gamma = fd_christoffel(metric, torus_point(3, 2.0)).gamma
        assert np.max(np.abs(gamma)) < 1e-10

    def test_cone_closed_forms(self):
        # f = t over the torus: Gamma^0_jk = -t delta_jk, Gamma^i_0k = delta_ik/t
        f = parse_profile("t", domain_min=0.1)
        metric = assemble_metric(f, BaseGrid(3, 16))
        t = 2.0
        gamma = fd_christoffel(metric, torus_point(3, t)).gamma
        assert gamma[0, 1, 1] == pytest.approx(-t, abs=1e-8)
        assert gamma[1, 0, 1] == pytest.approx(1.0/t, abs=1e-8)
        assert gamma[0, 0, 0] == pytest.approx(0.0, abs=1e-10)
        assert gamma[1, 0, 0] == pytest.approx(0.0, abs=1e-10)

    def test_exponential_warp(self):
        f = parse_profile("exp(t)", domain_min=0.1)
        metric = assemble_metric(f, BaseGrid(3, 16))
        gamma = fd_christoffel(metric, torus_point(3, 1.0)).gamma
        for i in range(1, 4):
            assert gamma[i, 0, i] == pytest.approx(1.0, abs=1e-5)

    def test_symmetry(self):
        f = PolarWarpField("t*(2 + 0.4*sin(x1))", BaseGrid(3, 16),
                          domain_min=0.1)
        metric = assemble_metric(f, BaseGrid(3, 16))
        gamma = fd_christoffel(metric, torus_point(3, 2.0)).gamma
        assert np.max(np.abs(gamma - gamma.transpose(0, 2, 1))) < 1e-9


class TestScalarCurvature:
    def test_flat(self):
        f = parse_profile("1 + 0*t", domain_min=0.1)
        metric = assemble_metric(f, BaseGrid(3, 16))
        assert abs(fd_scalar_curvature(metric, torus_point(3, 2.0)).scalar) < 1e-8

    def test_hyperbolic_parts(self):
        f = parse_profile("exp(t)", domain_min=0.1)
        metric = assemble_metric(f, BaseGrid(3, 16))
        sample = fd_scalar_curvature(metric, torus_point(3, 1.0))
        assert sample.scalar == pytest.approx(-12.0, abs=1e-6)
        assert sample.mixed == pytest.approx(-3.0, abs=1e-4)  # -n f_tt/f
        assert sample.tangential == pytest.approx(-6.0, abs=1e-4)
        # decomposition: scalar = 2 mixed + tangential
        assert sample.scalar == pytest.approx(2*sample.mixed + sample.tangential,
                                              abs=1e-9)

    def test_unit_sphere_cone_flat(self):
        f = parse_profile("t", domain_min=0.1)
        metric = assemble_metric(f, BaseGeometry.sphere(3, radius=1.0))
        point = np.array([2.0, 1.1, 1.2, 1.3])
        assert abs(fd_scalar_curvature(metric, point).scalar) < 1e-5

    def test_riemann_symmetries(self):
        f = PolarWarpField("t*(2 + 0.3*cos(x1) + 0.2*sin(x2))",
                          BaseGrid(3, 16), domain_min=0.1)
        metric = assemble_metric(f, BaseGrid(3, 16))
        R = fd_scalar_curvature(metric, torus_point(3, 2.5)).riemann
        scale = np.max(np.abs(R)) + 1.0
        assert np.max(np.abs(R + R.transpose(1, 0, 2, 3))) / scale < 1e-6
        assert np.max(np.abs(R + R.transpose(0, 1, 3, 2))) / scale < 1e-6
        assert np.max(np.abs(R - R.transpose(2, 3, 0, 1))) / scale < 1e-6

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
            f, grid, conformal=parse_field(src, allowed_vars=("t", "x1", "x2", "x3")))
        polar = assemble_metric(
            f, grid, conformal=PolarWarpField(src, grid, domain_min=0.1))
        for t in (0.5, 2.0, 7.0):
            point = np.array([t, 0.3, 1.1, 2.4])
            assert np.array_equal(plain.components(point), polar.components(point))

    def test_positive_definiteness_guard(self):
        f = parse_profile("t - 3", domain_min=0.1)  # vanishes at t = 3
        metric = assemble_metric(f, BaseGrid(3, 16))
        with pytest.raises(DomainError):
            metric.check_point(torus_point(3, 3.0))

    def test_non_finite_metric_is_rejected(self):
        # f^2 = exp(2 exp(10)) overflows: a DomainError, not eigvalsh failing
        f = parse_profile("exp(exp(t))")
        metric = assemble_metric(f, BaseGeometry.constant(3, 0.0))
        with pytest.raises(DomainError, match="metric is not finite"):
            metric.check_point(np.array([10.0, 0.3, 0.3, 0.3]))

    def test_domain_guard(self):
        f = parse_profile("t", domain_min=2.0)
        metric = assemble_metric(f, BaseGrid(3, 16))
        with pytest.raises(DomainError):
            fd_christoffel(metric, torus_point(3, 2.001))
