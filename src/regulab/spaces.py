"""Finite-dimensional normed spaces, the weighted product metric and its dual norm.

Products of spaces carry the maximum norm ``max(|u|, gamma*|v|)`` with a
positive weight ``gamma`` on the second factor; the corresponding dual norm is
``|u*| + |v*|/gamma``.  All vectors are plain 1-D numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InputError, ResourceCapError

DEFAULT_POINT_CAP = 4_000_000


def as_point(v) -> np.ndarray:
    """Coerce a scalar or sequence to a 1-D float array."""
    a = np.atleast_1d(np.asarray(v, dtype=float))
    if a.ndim != 1:
        raise DimensionMismatchError(f"expected a vector, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class NormedSpace:
    """A finite-dimensional real coordinate space with a Euclidean norm."""

    name: str
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise InputError(f"space {self.name!r}: dim must be >= 1, got {self.dim}")

    def norm(self, v) -> float:
        v = self.check(v)
        return float(np.linalg.norm(v))

    def check(self, v) -> np.ndarray:
        v = as_point(v)
        if v.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"space {self.name!r} has dim {self.dim}, got vector of dim {v.shape[0]}"
            )
        return v


@dataclass(frozen=True)
class GammaMetric:
    """Weight of the Y-component in the product metric and dual norm."""

    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise InputError(f"gamma must be positive, got {self.gamma}")


def prod_dist(u, v, x, y, g: GammaMetric) -> float:
    """Weighted product distance ``max(|u-x|, gamma*|v-y|)``."""
    u, x = as_point(u), as_point(x)
    v, y = as_point(v), as_point(y)
    if u.shape != x.shape or v.shape != y.shape:
        raise DimensionMismatchError("point pairs must live in matching spaces")
    return max(float(np.linalg.norm(u - x)), g.gamma * float(np.linalg.norm(v - y)))


def dual_norm(xs, ys, g: GammaMetric) -> float:
    """Dual norm ``|xs| + |ys|/gamma`` on the product of dual spaces."""
    xs, ys = as_point(xs), as_point(ys)
    return float(np.linalg.norm(xs)) + float(np.linalg.norm(ys)) / g.gamma


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid: per-dimension bounds and a common resolution."""

    lower: tuple
    upper: tuple
    resolution: int

    def __post_init__(self):
        lo, up = self.lower_arr, self.upper_arr
        if lo.shape != up.shape:
            raise DimensionMismatchError("grid bounds must have equal length")
        if not np.all(lo < up):
            raise InputError("grid requires lower < upper in every dimension")
        if self.resolution < 2:
            raise InputError(f"grid resolution must be >= 2, got {self.resolution}")

    @property
    def lower_arr(self) -> np.ndarray:
        return np.asarray(self.lower, dtype=float)

    @property
    def upper_arr(self) -> np.ndarray:
        return np.asarray(self.upper, dtype=float)

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def spacing(self) -> float:
        """Largest per-dimension spacing between adjacent grid points."""
        widths = (self.upper_arr - self.lower_arr) / (self.resolution - 1)
        return float(np.max(widths))

    def point_count(self) -> int:
        return self.resolution ** self.dim

    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(lo, up, self.resolution)
            for lo, up in zip(self.lower_arr, self.upper_arr)
        ]


def make_grid(spec: GridSpec) -> np.ndarray:
    """All grid points as an ``(n, dim)`` array in lexicographic order;
    ``ResourceCapError`` above ``DEFAULT_POINT_CAP`` points."""
    n = spec.point_count()
    if n > DEFAULT_POINT_CAP:
        raise ResourceCapError(n, DEFAULT_POINT_CAP)
    axes = spec.axes()
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def row_dots(a: np.ndarray) -> np.ndarray:
    """``a_i . a_i`` for every row (the last axis), rounded as the 1-D
    ``a_i @ a_i`` is (``np.sum(a * a, -1)`` and ``np.linalg.norm(a,
    axis=-1)`` round some 2-D rows differently)."""
    return (a[..., None, :] @ a[..., :, None])[..., 0, 0]


def ball_mask(points: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Boolean mask of points in the open ball around ``center``."""
    if math.isinf(radius):
        return np.ones(points.shape[0], dtype=bool)
    d = np.linalg.norm(points - center[None, :], axis=1)
    return d < radius
