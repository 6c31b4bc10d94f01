"""Finite-difference tensor calculus on the full (n+1)-dimensional metric.

Assembles coordinate metric components, differentiates them numerically,
and contracts the curvature tensor directly.  Deliberately never calls the
closed-form curvature routines: this module is the independent ground truth
they are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CurvlabError, DomainError, name_first
import numpy as np


# ---------------------------------------------------------------------------
# base charts: coordinate components g_ij(x) of the model base metrics


def _chart(base, xs):
    """(k, n, n) diagonal components g_ij at each row of a (k, n) stack, in
    the model chart of a base read from its scalar_curvature R alone: flat
    when R = 0, else a sphere (R > 0) or hyperbolic space (R < 0) of radius
    rho, R = +-n(n-1)/rho^2."""
    R = base.scalar_curvature
    k, n = xs.shape
    diag = np.ones((k, n))
    if R != 0.0:
        rho = np.sqrt(n * (n - 1) / abs(R))
        rho2 = rho ** 2
        diag = diag * rho2
        first = 1
        if R < 0:
            # rho^2 (dchi^2 + sinh^2 chi dOmega^2)
            diag[:, 1] = rho2 * _squared(np.sinh, xs[:, 0])
            first = 2
        # hyperspherical: g_ii = g_(i-1)(i-1) sin^2 x_(i-1)
        for i in range(first, n):
            diag[:, i] = diag[:, i - 1] * _squared(np.sin, xs[:, i - 1])
    g = np.zeros((k, n, n))
    g[:, range(n), range(n)] = diag
    return g


def _squared(fn, column):
    """fn(x) ** 2 at each entry of column, squared as a scalar on each
    distinct value: numpy's scalar ** 2 calls libm pow, the array ** 2
    multiplies, and the two differ in the last bit on a few values."""
    values, where = np.unique(column, return_inverse=True)
    return np.array([fn(v) ** 2 for v in values])[where]


# ---------------------------------------------------------------------------
# metric assembly


class MetricGrid:
    """Coordinate metric evaluator for dt^2 + f^2(t,x) g(x), optionally
    conformally scaled by u^(4/(n-1)).  Points are arrays (t, x1..xn).

    component_fn maps one point to its (dim, dim) components, and a stack
    of points is evaluated row by row; with stacked=True it maps a (k, dim)
    stack to (k, dim, dim) components in one call."""

    def __init__(self, n, component_fn, h=1.0e-3, domain_min=0.0,
                 stacked=False):
        self.dim = n + 1
        self._component_fn = component_fn
        self._stacked = stacked
        self.h = h
        self.domain_min = domain_min

    def components(self, points):
        """Components at a point (dim,) or at each row of a stack (k, dim)."""
        points = np.asarray(points, dtype=float)
        if points.ndim not in (1, 2) or points.shape[-1] != self.dim:
            raise DomainError(f"point must have {self.dim} coordinates")
        stack = points.reshape(-1, self.dim)
        if self._stacked:
            g = self._component_fn(stack)
        else:
            g = np.stack([self._component_fn(p) for p in stack])
        g = 0.5 * (g + g.swapaxes(1, 2))  # enforce exact symmetry
        return g.reshape(points.shape + (self.dim,))


def assemble_metric(f, base, conformal=None, h=1.0e-3):
    """Realize the warped/polar metric (and its conformal deformation) as a
    component evaluator.

    f: a warp field (WarpProfile, PolarWarpField or any Field).  base:
    BaseGeometry or BaseGrid; constant-curvature bases are realized by a
    model chart.  conformal: optional positive field u, scaling all
    components by u^(4/(n-1)).
    """
    n = base.n
    conf_exp = 4.0 / (n - 1)
    # (field, name, map of its value, the point columns it reads)
    factors = [(f, "warp", lambda v: v)]
    if conformal is not None:
        factors.append((conformal, "conformal factor", lambda v: v ** conf_exp))
    factors = [(field, what, fn, [0] + [i + 1 for _, i in field.coords])
               for field, what, fn in factors]

    # a factor that overflows gives inf or nan components, which
    # fd_scalar_curvature names as a metric that is not finite
    @np.errstate(over="ignore", invalid="ignore")
    def component_fn(points):
        # one scalar evaluation per distinct point a factor reads, row by row
        # (warp first), so the first nonpositive row is the one named
        keys = [list(map(tuple, points[:, reads].view(np.int64).tolist()))
                for *_, reads in factors]
        known = [{} for _ in factors]
        for r, row_keys in enumerate(zip(*keys)):
            for (field, what, fn, _), key, seen in zip(factors, row_keys, known):
                if key not in seen:
                    p = points[r]
                    val = field.eval_point(p[0], p[1:])
                    if val <= 0:
                        raise DomainError(
                            f"{what} is nonpositive at t = {float(p[0])!r}")
                    seen[key] = fn(val)
        fv, *scale = (np.array([seen[key] for key in column], dtype=float)
                      for column, seen in zip(keys, known))
        g = np.zeros((len(points), n + 1, n + 1))
        g[:, 0, 0] = 1.0
        g[:, 1:, 1:] = (fv * fv)[:, None, None] * _chart(base, points[:, 1:])
        for s in scale:
            g *= s[:, None, None]
        return g

    return MetricGrid(n, component_fn, h=h, domain_min=f.domain_min or 0.0,
                      stacked=True)


# ---------------------------------------------------------------------------
# finite-difference derivatives of the components


def _derivatives(metric, points, h):
    """Components g at each row of a (k, dim) stack of points, dg[p, c, a, b]
    = d_c g_ab and d2[p, i, j, a, b] = d_i d_j g_ab at row p: centred first
    differences and 5-point O(h^4) second differences along each axis.  The
    mixed d_i d_j g_ab, i != j, are left 0: the scalar of a diagonal metric
    reads them only as d_i d_j g_ij, and g_ij = 0 is checked at each
    point of the stencil.

    The points are checked first: their stencils must stay above
    domain_min, and the metric at the centres, evaluated on their own so
    that a pole there is named at its t, must be finite, diagonal and
    positive definite.  The rest of the stencils, +-h and then +-2h on each
    axis, is then evaluated in one call and must be diagonal too."""
    if not h > 0:
        raise DomainError(f"need h > 0, got h = {h!r}")
    t = points[:, 0]
    name_first(t, t - 2.0 * h > metric.domain_min,
               f"t - 2h must exceed domain_min = {metric.domain_min}")
    g = metric.components(points)
    name_first(t, np.isfinite(g).all(axis=(1, 2)), "metric is not finite")
    dim = metric.dim
    off = ~np.eye(dim, dtype=bool)
    name_first(t, ~g[:, off].any(axis=1), "metric is not diagonal")
    diag = np.arange(dim)
    name_first(t, np.all(g[:, diag, diag] > 0, axis=1),
               "metric not positive definite")
    # the stencil's rows, in (size, axis, sign) order: the centre with
    # point[axis] += steps * h, steps = +-1 on each axis, then +-2
    axes = np.tile(np.repeat(diag, 2), 2)
    steps = np.tile([[1.0, -1.0], [2.0, -2.0]], dim).ravel()
    stack = np.repeat(points[:, None], 4 * dim, axis=1)
    stack[:, np.arange(4 * dim), axes] += steps * h
    G = metric.components(stack.reshape(-1, dim)).reshape(
        len(points), 2, dim, 2, dim, dim)
    # a factor that overflows at a stencil point gives 0 * inf = nan off the
    # diagonal, which is left to the caller's check of the scalar it spoils
    G_off = G[..., off].reshape(len(points), -1)
    name_first(t, ~((G_off != 0) & np.isfinite(G_off)).any(axis=1),
               "metric is not diagonal")
    plus, minus, plus2, minus2 = (G[:, size, :, sign]
                                  for size in (0, 1) for sign in (0, 1))
    dg = (plus - minus) / (2.0 * h)
    d2 = np.zeros((len(points),) + (dim,) * 4)
    d2[:, diag, diag] = (-plus2 + 16.0 * plus - 30.0 * g[:, None]
                         + 16.0 * minus - minus2) / (12.0 * h * h)
    return g, dg, d2


def _christoffel(ginv, dg):
    # dg[..., c, a, b] = d_c g_ab;
    # bracket[..., d, b, c] = d_b g_dc + d_c g_db - d_d g_bc
    bracket = (np.einsum("...bdc->...dbc", dg)
               + np.einsum("...cdb->...dbc", dg) - dg)
    return 0.5 * np.einsum("...ad,...dbc->...abc", ginv, bracket)


def _riemann(g, gamma, d2):
    """R_ijkl from g, gamma[..., a, b, c] = Gamma^a_bc and d2[..., i, j, a, b]
    = d_i d_j g_ab, over any leading axes.

    g_ab Gamma^b_il Gamma^a_jk is contracted in two O(dim^5) steps, first
    over b and then over a; its g_ab Gamma^b_ik Gamma^a_jl twin is the same
    array with k and l swapped.  For a diagonal g this gives the bits of
    the one three-operand contraction over (a, b), which is O(dim^6)."""
    low = np.einsum("...ab,...bil->...ail", g, gamma)
    gg1 = np.einsum("...ail,...ajk->...ijkl", low, gamma)
    # 0.5 (d2[i, l, j, k] + d2[j, k, i, l] - d2[j, l, i, k] - d2[i, k, j, l])
    # + gg1[i, j, k, l] - gg1[i, j, l, k], summed left to right in place,
    # in C order, which the contractions of R then follow
    riemann = np.einsum("...iljk->...ijkl", d2).copy(order="C")
    riemann += np.einsum("...jkil->...ijkl", d2)
    riemann -= np.einsum("...jlik->...ijkl", d2)
    riemann -= np.einsum("...ikjl->...ijkl", d2)
    riemann *= 0.5
    riemann += gg1
    riemann -= gg1.swapaxes(-1, -2)
    return riemann


@dataclass
class CurvatureTensorSample:
    """At one point, or at each row of a stack under a leading point axis."""
    gamma: np.ndarray    # gamma[..., a, b, c] = Gamma^a_bc
    scalar: float | np.ndarray  # full contraction g^{ik} g^{jl} R_{ijkl}


def fd_scalar_curvature(metric: MetricGrid, points,
                        h=None) -> CurvatureTensorSample:
    """Christoffel symbols and scalar curvature of a diagonal metric at a
    point (dim,), or at each row of a stack (k, dim), all derivatives by
    centred differences:

        Gamma^a_bc = (1/2) g^{ad} (d_b g_dc + d_c g_db - d_d g_bc)
        R_ijkl = (1/2)(d_i d_l g_jk + d_j d_k g_il - d_j d_l g_ik - d_i d_k g_jl)
                 + g_ab (Gamma^b_il Gamma^a_jk - Gamma^b_ik Gamma^a_jl)

    and the scalar g^{ik} g^{jl} R_ijkl: a float at a point, a (k,) array
    on a stack.  R_ijkl is assembled with the mixed second differences left
    0, which the scalar of a diagonal metric does not read, so it is not
    returned.  Each row of a stack gets the bits of a call on that row
    alone, and a stack holding a point that fails raises the error of one
    such point; fd_rows names the first."""
    h = metric.h if h is None else h
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        one = _stack_curvature(metric, points[None], h)
        return CurvatureTensorSample(gamma=one.gamma[0],
                                     scalar=float(one.scalar[0]))
    return _stack_curvature(metric, points, h)


# fd_rows evaluates a table's points in blocks whose dim^4 arrays (d2, R_ijkl
# and its curvature term), the largest, hold at most this many doubles each:
# a block shares numpy's per-call cost among its points, while a job's peak
# RSS stays within 0.3 MB of a point's (2^15 added up to 0.6 MB and 2^16 up
# to 2 MB, on 20- to 100-point jobs at n = 3..9)
BLOCK_DOUBLES = 2 ** 14


def fd_rows(metric: MetricGrid, points):
    """Yield the FD scalar curvature at each row of a (k, dim) stack, in
    order, from one fd_scalar_curvature call per block of rows.  A block
    that fails is evaluated again one row at a time, so a failing row
    raises its own error, and only once the caller has reached it."""
    size = max(1, BLOCK_DOUBLES // metric.dim ** 4)
    for start in range(0, len(points), size):
        block = points[start:start + size]
        try:
            scalars = fd_scalar_curvature(metric, block).scalar
        except CurvlabError:
            scalars = (fd_scalar_curvature(metric, point).scalar
                       for point in block)
        yield from scalars


def _stack_curvature(metric, points, h):
    g, dg, d2 = _derivatives(metric, points, h)
    ginv = np.linalg.inv(g)
    gamma = _christoffel(ginv, dg)
    riemann = _riemann(g, gamma, d2)
    scalar = np.einsum("...ik,...jl,...ijkl->...", ginv, ginv, riemann)
    return CurvatureTensorSample(gamma=gamma, scalar=scalar)
