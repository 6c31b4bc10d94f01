"""Base manifolds reduced to what the curvature formulas need."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError, ieee


@dataclass(frozen=True)
class DimensionConstants:
    """Constants that are pure functions of the base dimension n."""

    n: int
    c_n: float = field(init=False)
    c_np1: float = field(init=False)
    nonlin_exp: float = field(init=False)

    def __post_init__(self):
        n = self.n
        if n < 2:
            raise DomainError(f"base dimension must be >= 2, got {n}")
        object.__setattr__(self, "c_n", (n - 2) / (4.0 * (n - 1)))
        object.__setattr__(self, "c_np1", (n - 1) / (4.0 * n))
        object.__setattr__(self, "nonlin_exp", (n - 3) / (n + 1))


@dataclass(frozen=True)
class BaseGeometry:
    """The compact base (N, g): dimension and constant scalar curvature.

    The discretized torus itself is polar.BaseGrid.
    """

    n: int
    scalar_curvature: float

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"base dimension must be >= 2, got {self.n}")

    @staticmethod
    def constant(n, scalar_curvature):
        return BaseGeometry(n=n, scalar_curvature=float(scalar_curvature))

    @staticmethod
    def sphere(n, radius=1.0):
        if radius <= 0:
            raise DomainError("sphere radius must be positive")
        # IEEE: 0 where radius^2 overflows, inf where it underflows to 0
        scalar = float(ieee(lambda r: n * (n - 1) / r ** 2, radius))
        if not scalar < math.inf:
            raise DomainError(f"sphere radius {radius!r} is too small: "
                              "n(n-1)/radius^2 overflows a float")
        return BaseGeometry(n=n, scalar_curvature=scalar)
