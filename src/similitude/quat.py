"""Quaternions with exact coordinates over Q, Q(tau), or Q(sqrt2).

Coordinates in the basis 1, i, j, k are QuadInt numerators over a single
positive denominator per quaternion, kept in lowest terms.  The defining
relations are i^2 = j^2 = k^2 = ijk = -1.
"""

from __future__ import annotations

import math

from .quadfield import QuadInt, Ring


def _as_quadint(ring: Ring, v) -> QuadInt:
    if isinstance(v, QuadInt):
        if v.ring is not ring:
            raise ValueError("ring mismatch in coordinates")
        return v
    if isinstance(v, int):
        return QuadInt(ring, v)
    raise TypeError(f"bad coordinate {v!r}")


class Quat:
    """q = (n0 + n1 i + n2 j + n3 k) / den with QuadInt numerators."""

    __slots__ = ("ring", "nums", "den")

    def __init__(self, ring: Ring, nums, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        nums = tuple(_as_quadint(ring, n) for n in nums)
        if len(nums) != 4:
            raise ValueError("a quaternion needs 4 coordinates")
        if den < 0:
            den = -den
            nums = tuple(-n for n in nums)
        g = den
        for n in nums:
            g = math.gcd(g, math.gcd(abs(n.a), abs(n.b)))
        if g > 1:
            nums = tuple(QuadInt(ring, n.a // g, n.b // g) for n in nums)
            den //= g
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("Quat is immutable")

    def __reduce__(self):  # copy and pickle rebuild through __init__, immutable again
        return Quat, (self.ring, self.nums, self.den)

    def _check(self, other: "Quat"):
        if self.ring is not other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quat):
            return NotImplemented
        return self.ring is other.ring and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.ring, self.nums, self.den))

    def __bool__(self) -> bool:
        return any(self.nums)

    def __add__(self, other: "Quat") -> "Quat":
        self._check(other)
        d1, d2 = self.den, other.den
        return Quat(self.ring, tuple(a * d2 + b * d1 for a, b in zip(self.nums, other.nums)), d1 * d2)

    def __neg__(self) -> "Quat":
        return Quat(self.ring, tuple(-n for n in self.nums), self.den)

    def __mul__(self, other) -> "Quat":
        if isinstance(other, (int, QuadInt)):
            return Quat(self.ring, tuple(n * other for n in self.nums), self.den)
        if not isinstance(other, Quat):
            return NotImplemented
        self._check(other)
        x0, x1, x2, x3 = self.nums
        y0, y1, y2, y3 = other.nums
        return Quat(
            self.ring,
            (
                x0 * y0 - x1 * y1 - x2 * y2 - x3 * y3,
                x0 * y1 + x1 * y0 + x2 * y3 - x3 * y2,
                x0 * y2 - x1 * y3 + x2 * y0 + x3 * y1,
                x0 * y3 + x1 * y2 - x2 * y1 + x3 * y0,
            ),
            self.den * other.den,
        )

    def conjugate(self) -> "Quat":
        n0, n1, n2, n3 = self.nums
        return Quat(self.ring, (n0, -n1, -n2, -n3), self.den)

    def __repr__(self) -> str:
        body = ", ".join(str(n) for n in self.nums)
        return f"({body})" if self.den == 1 else f"({body})/{self.den}"

