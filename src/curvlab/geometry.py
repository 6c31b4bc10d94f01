"""Base manifolds reduced to what the curvature formulas need."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError


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


def sphere_volume(n, radius):
    """Surface volume of the round n-sphere of the given radius."""
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0) * radius ** n


@dataclass(frozen=True)
class BaseGeometry:
    """The compact base (N, g): dimension, constant scalar curvature, volume.

    The discretized torus itself is polar.BaseGrid.
    """

    n: int
    scalar_curvature: float
    volume: float

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"base dimension must be >= 2, got {self.n}")
        if self.volume <= 0:
            raise DomainError("base volume must be positive")

    @staticmethod
    def constant(n, scalar_curvature, volume=1.0):
        return BaseGeometry(n=n, scalar_curvature=float(scalar_curvature),
                            volume=float(volume))

    @staticmethod
    def sphere(n, radius=1.0):
        if radius <= 0:
            raise DomainError("sphere radius must be positive")
        return BaseGeometry(n=n, scalar_curvature=n * (n - 1) / radius ** 2,
                            volume=sphere_volume(n, radius))
