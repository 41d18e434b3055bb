"""Plane points and 2x2 matrices.

Everything is IEEE 754 double precision.  Constructors reject non-finite
components so overflow surfaces as an explicit error where the value is
created instead of propagating NaNs through a sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError


@dataclass(frozen=True, slots=True)
class Point2:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ParameterError(f"point components must be finite, got ({self.x!r}, {self.y!r})")

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def dist(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def __iter__(self):
        yield self.x
        yield self.y


@dataclass(frozen=True, slots=True)
class Mat2:
    """Row-major 2x2 matrix [[a11, a12], [a21, a22]]."""

    a11: float
    a12: float
    a21: float
    a22: float

    def __post_init__(self):
        for v in (self.a11, self.a12, self.a21, self.a22):
            if not math.isfinite(v):
                raise ParameterError(f"matrix entries must be finite, got {v!r}")

    @property
    def trace(self) -> float:
        return self.a11 + self.a22

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    def apply(self, p: Point2) -> Point2:
        return Point2(self.a11 * p.x + self.a12 * p.y, self.a21 * p.x + self.a22 * p.y)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a11 - other.a11, self.a12 - other.a12,
                    self.a21 - other.a21, self.a22 - other.a22)
