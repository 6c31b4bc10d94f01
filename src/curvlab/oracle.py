"""Finite-difference tensor calculus on the full (n+1)-dimensional metric.

Assembles coordinate metric components, differentiates them numerically,
and contracts the curvature tensor directly.  Deliberately never calls the
closed-form curvature routines: this module is the independent ground truth
they are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .polar import BaseGrid


# ---------------------------------------------------------------------------
# base charts: coordinate components g_ij(x) of the model base metrics


class BaseChart:
    """Diagonal coordinate chart for a constant-curvature model base."""

    def __init__(self, kind, n, radius=1.0):
        if kind not in ("flat", "sphere", "hyperbolic"):
            raise DomainError(f"unknown base chart '{kind}'")
        self.kind = kind
        self.n = n
        self.radius = radius

    def components(self, x):
        n = self.n
        diag = np.ones(n)
        if self.kind == "flat":
            return np.diag(diag)
        rho2 = self.radius ** 2
        diag = diag * rho2
        if self.kind == "sphere":
            # hyperspherical: g_ii = rho^2 prod_{j<i} sin^2 x_j
            for i in range(1, n):
                diag[i] = diag[i - 1] * np.sin(x[i - 1]) ** 2
        else:  # hyperbolic: rho^2 (dchi^2 + sinh^2 chi dOmega^2)
            if n >= 2:
                diag[1] = rho2 * np.sinh(x[0]) ** 2
            for i in range(2, n):
                diag[i] = diag[i - 1] * np.sin(x[i - 1]) ** 2
        return np.diag(diag)


def chart_for(base) -> BaseChart:
    """Model chart realizing a BaseGeometry/BaseGrid as coordinate components."""
    if isinstance(base, BaseGrid):
        return BaseChart("flat", base.n)
    R = base.scalar_curvature
    n = base.n
    if R == 0.0:
        return BaseChart("flat", n)
    radius = np.sqrt(n * (n - 1) / abs(R))
    return BaseChart("sphere" if R > 0 else "hyperbolic", n, radius)


# ---------------------------------------------------------------------------
# metric assembly


class MetricGrid:
    """Coordinate metric evaluator for dt^2 + f^2(t,x) g(x), optionally
    conformally scaled by u^(4/(n-1)).  Points are arrays (t, x1..xn)."""

    def __init__(self, n, component_fn, h=1.0e-3, domain_min=0.0):
        self.n = n
        self.dim = n + 1
        self._component_fn = component_fn
        self.h = h
        self.domain_min = domain_min

    def components(self, point):
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dim,):
            raise DomainError(f"point must have {self.dim} coordinates")
        g = self._component_fn(point)
        return 0.5 * (g + g.T)  # enforce exact symmetry

    def inverse(self, point):
        g = self.components(point)
        try:
            return np.linalg.inv(g)
        except np.linalg.LinAlgError:
            raise DomainError(f"metric is singular at {point}")

    def check_point(self, point):
        point = np.asarray(point, dtype=float)
        if point[0] - 2.0 * self.h <= self.domain_min:
            raise DomainError(
                f"t - 2h must exceed domain_min = {self.domain_min}")
        g = self.components(point)
        if not np.isfinite(g).all():
            raise DomainError(f"metric is not finite at {point}")
        if np.any(np.linalg.eigvalsh(g) <= 0):
            raise DomainError(f"metric not positive definite at {point}")


def assemble_metric(f, base, conformal=None, h=1.0e-3):
    """Realize the warped/polar metric (and its conformal deformation) as a
    component evaluator.

    f: a warp field (WarpProfile, PolarWarpField or any Field).  base:
    BaseGeometry or BaseGrid; constant-curvature bases are realized by a
    model chart.  conformal: optional positive field u, scaling all
    components by u^(4/(n-1)).
    """
    n = base.n
    chart = chart_for(base)
    conf_exp = 4.0 / (n - 1)

    def positive(field, point, what):
        val = field.eval_point(point[0], point[1:])
        if val <= 0:
            raise DomainError(f"{what} is nonpositive at {point}")
        return val

    def component_fn(point):
        g = np.zeros((n + 1, n + 1))
        g[0, 0] = 1.0
        fv = positive(f, point, "warp")
        g[1:, 1:] = fv * fv * chart.components(point[1:])
        if conformal is not None:
            g *= positive(conformal, point, "conformal factor") ** conf_exp
        return g

    return MetricGrid(n, component_fn, h=h, domain_min=f.domain_min or 0.0)


# ---------------------------------------------------------------------------
# finite-difference derivatives of the components


def _shift(point, axis, delta):
    p = np.array(point, dtype=float)
    p[axis] += delta
    return p


def _d1_components(metric, point, axis, h):
    gp = metric.components(_shift(point, axis, h))
    gm = metric.components(_shift(point, axis, -h))
    return (gp - gm) / (2.0 * h)


def _d2_components(metric, point, ax_i, ax_j, h):
    if ax_i == ax_j:
        # 5-point second derivative, O(h^4)
        g2p = metric.components(_shift(point, ax_i, 2 * h))
        gp = metric.components(_shift(point, ax_i, h))
        g0 = metric.components(point)
        gm = metric.components(_shift(point, ax_i, -h))
        g2m = metric.components(_shift(point, ax_i, -2 * h))
        return (-g2p + 16.0 * gp - 30.0 * g0 + 16.0 * gm - g2m) / (12.0 * h * h)
    gpp = metric.components(_shift(_shift(point, ax_i, h), ax_j, h))
    gpm = metric.components(_shift(_shift(point, ax_i, h), ax_j, -h))
    gmp = metric.components(_shift(_shift(point, ax_i, -h), ax_j, h))
    gmm = metric.components(_shift(_shift(point, ax_i, -h), ax_j, -h))
    return (gpp - gpm - gmp + gmm) / (4.0 * h * h)


@dataclass
class ChristoffelTable:
    point: np.ndarray
    gamma: np.ndarray  # gamma[a, b, c] = Gamma^a_bc


@dataclass
class CurvatureTensorSample:
    point: np.ndarray
    riemann: np.ndarray  # fully covariant R_ijkl
    mixed: float         # sum_{1<=j,l} g^{jl} R_{0j0l}
    tangential: float    # sum_{1<=i,j,k,l} g^{jl} g^{ik} R_{ijkl}
    scalar: float        # full contraction g^{ik} g^{jl} R_{ijkl}


def fd_christoffel(metric: MetricGrid, point, h=None) -> ChristoffelTable:
    """Gamma^a_bc = (1/2) g^{ad} (d_b g_dc + d_c g_db - d_d g_bc),
    all derivatives by centered differences."""
    h = metric.h if h is None else h
    metric.check_point(point)
    dim = metric.dim
    point = np.asarray(point, dtype=float)
    ginv = metric.inverse(point)
    dg = np.stack([_d1_components(metric, point, ax, h) for ax in range(dim)])
    # dg[c, a, b] = d_c g_ab; bracket[d, b, c] = d_b g_dc + d_c g_db - d_d g_bc
    bracket = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    gamma = 0.5 * np.einsum("ad,dbc->abc", ginv, bracket)
    return ChristoffelTable(point=point, gamma=gamma)


def fd_scalar_curvature(metric: MetricGrid, point, h=None) -> CurvatureTensorSample:
    """Fully covariant curvature components at a point:

        R_ijkl = (1/2)(d_i d_l g_jk + d_j d_k g_il - d_j d_l g_ik - d_i d_k g_jl)
                 + g_ab (Gamma^b_il Gamma^a_jk - Gamma^b_ik Gamma^a_jl)

    with the contractions reported separately (mixed radial part,
    tangential part, full scalar)."""
    h = metric.h if h is None else h
    dim = metric.dim
    point = np.asarray(point, dtype=float)
    gamma = fd_christoffel(metric, point, h=h).gamma
    g = metric.components(point)
    ginv = metric.inverse(point)

    d2 = np.empty((dim, dim, dim, dim))  # d2[i, j, a, b] = d_i d_j g_ab
    for i in range(dim):
        for j in range(i, dim):
            val = _d2_components(metric, point, i, j, h)
            d2[i, j] = val
            d2[j, i] = val

    riemann = np.empty((dim, dim, dim, dim))
    gg1 = np.einsum("ab,bil,ajk->ijkl", g, gamma, gamma)
    gg2 = np.einsum("ab,bik,ajl->ijkl", g, gamma, gamma)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                for el in range(dim):
                    second = 0.5 * (d2[i, el, j, k] + d2[j, k, i, el]
                                    - d2[j, el, i, k] - d2[i, k, j, el])
                    riemann[i, j, k, el] = second + gg1[i, j, k, el] - gg2[i, j, k, el]

    mixed = float(np.einsum("jl,jl->", ginv[1:, 1:], riemann[0, 1:, 0, 1:]))
    tangential = float(np.einsum(
        "jl,ik,ijkl->", ginv[1:, 1:], ginv[1:, 1:], riemann[1:, 1:, 1:, 1:]))
    scalar = float(np.einsum("ik,jl,ijkl->", ginv, ginv, riemann))
    return CurvatureTensorSample(point=point, riemann=riemann, mixed=mixed,
                                 tangential=tangential, scalar=scalar)
