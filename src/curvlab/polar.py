"""Scalar curvature and Laplacian of polar-type metrics dt^2 + f^2(t,x) g(x)
over a discretized flat torus base.

t-derivatives of fields are exact (symbolic on the expression tree);
x-derivatives use the periodic grid operators.  Slice computations are pure
functions of the sampled arrays.
"""

from __future__ import annotations

import math

from .errors import DomainError, name_first
import numpy as np

from .geometry import DimensionConstants
from .warp import Field


class BaseGrid:
    """Flat unit torus [0, 2pi)^n sampled with m points per axis.

    stencil: 'fd2' (centered periodic second differences) or 'spectral'
    (FFT; spectrally accurate for smooth fields).  Both annihilate
    constants.  sum a Lap b = -sum <grad a, grad b> holds to round-off for
    spectral; fd2's Laplacian meets it with forward differences, and with
    gradient's centred ones only to O(h^2).
    """

    scalar_curvature = 0.0  # the flat torus

    def __init__(self, n, m, stencil="fd2"):
        if n < 2:
            raise DomainError(f"need n >= 2, got {n}")
        if m < 8:
            raise DomainError(f"need at least 8 points per axis, got {m}")
        if stencil not in ("fd2", "spectral"):
            raise DomainError(f"unknown stencil '{stencil}'")
        self.n = n
        self.m = m
        self.stencil = stencil
        self.spacing = 2.0 * math.pi / m
        self.axis_points = np.arange(m) * self.spacing
        self._k = np.fft.fftfreq(m, d=1.0 / m)  # integer wavenumbers
        # one broadcastable axis array per coordinate, shape (m, 1, ..) etc.
        self._axes = np.meshgrid(*([self.axis_points] * n), indexing="ij",
                                 sparse=True)
        if stencil == "spectral":
            self._ksq = sum(k ** 2 for k in np.meshgrid(
                *([self._k] * n), indexing="ij", sparse=True))

    # -- operators ----------------------------------------------------------

    def laplacian(self, arr):
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (self.m,) * self.n:
            raise DomainError("grid function has wrong shape")
        if self.stencil == "spectral":
            spec = np.fft.fftn(arr)
            return np.real(np.fft.ifftn(spec * (-self._ksq)))
        out = np.zeros_like(arr)
        h2 = self.spacing ** 2
        for ax in range(self.n):
            out += (np.roll(arr, 1, axis=ax) + np.roll(arr, -1, axis=ax) - 2.0 * arr) / h2
        return out

    def laplacian_at(self, lines, node):
        """laplacian(arr)[node] as a 1-element array, from the n grid lines
        of arr through the node: lines[ax] is arr along axis ax, the other
        indices fixed at the node's.  The axis terms are summed in
        laplacian's order; a spectral term is the line's 1-D spectral second
        derivative, which is the n-D FFT Laplacian in exact arithmetic."""
        out = np.zeros(1)
        h2 = self.spacing ** 2
        for line, j in zip(lines, node):
            if self.stencil == "spectral":
                out += np.real(np.fft.ifft(np.fft.fft(line) * -self._k ** 2))[j]
            else:
                out += (line[j - 1] + line[(j + 1) % self.m] - 2.0 * line[j]) / h2
        return out

    def gradient(self, arr):
        """Tuple of centered (or spectral) first differences along each axis."""
        arr = np.asarray(arr, dtype=float)
        if self.stencil == "spectral":
            spec = np.fft.fftn(arr)
            grads = []
            for ax in range(self.n):
                shape = [1] * self.n
                shape[ax] = self.m
                grads.append(np.real(np.fft.ifftn(spec * (1j * self._k.reshape(shape)))))
            return tuple(grads)
        return tuple(
            (np.roll(arr, -1, axis=ax) - np.roll(arr, 1, axis=ax)) / (2.0 * self.spacing)
            for ax in range(self.n))

    def grad_inner(self, a, b):
        """<grad a, grad b> in the flat base metric."""
        ga = self.gradient(a)
        gb = self.gradient(b)
        return sum(x * y for x, y in zip(ga, gb))


class PolarWarpField(Field):
    """Positive warp f(t, x) given by an expression in t and x1..xn,
    sampled on the t-slices of a BaseGrid."""

    def __init__(self, source, grid: BaseGrid, domain_min=2.0):
        coords = tuple(f"x{i + 1}" for i in range(grid.n))
        super().__init__(source, allowed_vars=("t",) + coords,
                         domain_min=domain_min)
        self.grid = grid

    def _sample(self, tree, t, node=None):
        """tree on the t-slice, where the x1..xn axis arrays broadcast
        against each other to the mesh, or at one node (a tuple of n grid
        indices) from 1-element arrays of its coordinates."""
        grid = self.grid
        axes = (grid._axes if node is None
                else [grid.axis_points[j:j + 1] for j in node])
        val = tree.eval(dict({f"x{i + 1}": x for i, x in enumerate(axes)}, t=t))
        shape = (grid.m,) * grid.n if node is None else (1,)
        return np.broadcast_to(np.asarray(val, dtype=float), shape).copy()

    def sample(self, t):
        return self._checked(t, lambda: self._sample(self.ast, t))

    def sample_dt(self, t, node=None):
        """f_t on the t-slice, or at one grid node as a 1-element array."""
        return self._sample(self._d1, t, node)

    def sample_dtt(self, t, node=None):
        return self._sample(self._d2, t, node)


def conformal_base_curvature(n, mu, lap):
    """Scalar curvature of the flat torus metric conformally scaled by f^2,
    from mu = f^((n-2)/2) and its Laplacian lap, on a slice or at a node
    (R(g) = 0):

        R = -c_n^{-1} mu^{-(n+2)/(n-2)} Lap mu
    """
    if n < 3:
        raise DomainError("formula degenerates for n < 3")
    cn = DimensionConstants(n).c_n
    # 0.0 - Lap, not -Lap: a zero Laplacian (constant mu) must give +0,
    # which a constant warp's curvature table prints as 0, not -0
    return (0.0 - lap) / cn * mu ** (-(n + 2.0) / (n - 2.0))


def polar_scalar_curvature(f: PolarWarpField, t, node=None):
    """Scalar curvature slice of dt^2 + f^2(t,x) g(x), or its value at one
    node given as n grid indices:

        Rbar = R(f^2(t,.) g) - (1/f^2) [2n f f_tt + n(n-1) f_t^2]

    The whole slice is sampled, for its positivity check.  At a node, f_t
    and f_tt are taken there and R(f^2 g) from mu = f^((n-2)/2) on the n
    grid lines through it.  Node values stay 1-element arrays: numpy's
    scalar ** calls libm pow, while an array's takes the slice's loop, so on
    fd2 the value is the slice's to the bit."""
    grid = f.grid
    n = grid.n
    fval = f.sample(t)
    ft = f.sample_dt(t, node)
    ftt = f.sample_dtt(t, node)
    # a mu that underflows to 0 where it is read is named at t; != 0 lets a
    # nan through, to be named as not finite
    underflow = "f^((n-2)/2) underflows to 0"
    if node is None:
        mu = fval ** ((n - 2) / 2.0)
        name_first(t, mu != 0, underflow)
        r_base = conformal_base_curvature(n, mu, grid.laplacian(mu))
    else:
        mu_lines = [fval[node[:ax] + (slice(None),) + node[ax + 1:]]
                    ** ((n - 2) / 2.0) for ax in range(n)]
        name_first(t, np.all([line != 0 for line in mu_lines]), underflow)
        fval = fval[node].reshape(1)
        r_base = conformal_base_curvature(n, mu_lines[0][node[0]:node[0] + 1],
                                          grid.laplacian_at(mu_lines, node))
    R = r_base - (2.0 * n * fval * ftt + n * (n - 1) * ft ** 2) / fval ** 2
    return R if node is None else float(R[0])


def polar_laplacian(f: PolarWarpField, u: PolarWarpField, t):
    """Laplacian slice of u in the polar metric:

        u_tt + (n f_t / f) u_t + ((n-2)/f^3) <grad f, grad u> + (1/f^2) Lap u
    """
    grid = f.grid
    n = grid.n
    fval = f.sample(t)
    uval = u.sample(t)
    ut = u.sample_dt(t)
    utt = u.sample_dtt(t)
    cross = grid.grad_inner(fval, uval)
    return (utt + n * f.sample_dt(t) / fval * ut
            + (n - 2.0) / fval ** 3 * cross
            + grid.laplacian(uval) / fval ** 2)


def conformal_scalar_curvature(u: PolarWarpField, f: PolarWarpField, t):
    """Scalar curvature slice of u^(4/(n-1)) [dt^2 + f^2 g], solved from

        Lap u - c_{n+1} Rbar u + c_{n+1} R_c u^((n+3)/(n-1)) = 0
    """
    grid = f.grid
    n = grid.n
    uval = u.sample(t)
    cnp1 = DimensionConstants(n).c_np1
    rbar = polar_scalar_curvature(f, t)
    lap = polar_laplacian(f, u, t)
    return (cnp1 * rbar * uval - lap) / (cnp1 * uval ** ((n + 3.0) / (n - 1.0)))
