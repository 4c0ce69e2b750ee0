"""Exact arithmetic in the quadratic rings Z, Z[tau], and Z[sqrt2].

Elements are a + b*omega with integer a, b, where omega is tau = (1+sqrt5)/2
for the golden ring, sqrt2 for the other quadratic ring, and absent over Z.
Everything here is exact integer arithmetic; sign tests against sqrt5/sqrt2
are done by squaring, never by floating point.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .arith import chi5, chi8, factorize


class Ring(enum.Enum):
    """Base ring tag. GOLDEN has omega = tau = (1+sqrt5)/2; SQRT2 has omega = sqrt2."""

    RATIONAL = "Z"
    GOLDEN = "Z[tau]"
    SQRT2 = "Z[sqrt2]"


def _sign_with_root(p: int, q: int, d: int) -> int:
    """Exact sign of p + q*sqrt(d) for integers p, q and squarefree d > 1."""
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0:
        return (q > 0) - (q < 0)
    if p > 0 and q > 0:
        return 1
    if p < 0 and q < 0:
        return -1
    lhs, rhs = p * p, d * q * q
    if p > 0:  # p - |q| sqrt(d)
        return (lhs > rhs) - (lhs < rhs)
    return (rhs > lhs) - (rhs < lhs)


@dataclass(frozen=True)
class QuadInt:
    """a + b*omega in the ring of integers tagged by `ring`."""

    ring: Ring
    a: int
    b: int = 0

    def __post_init__(self):
        if self.ring is Ring.RATIONAL and self.b != 0:
            raise ValueError("integers over Z have no omega component")

    def _coerce(self, other) -> "QuadInt":
        if isinstance(other, int):
            return QuadInt(self.ring, other)
        if isinstance(other, QuadInt):
            if other.ring is not self.ring:
                raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadInt(self.ring, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadInt(self.ring, self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return QuadInt(self.ring, -self.a, -self.b)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.a, self.b, other.a, other.b
        if self.ring is Ring.GOLDEN:
            # tau^2 = tau + 1
            return QuadInt(self.ring, a * c + b * d, a * d + b * c + b * d)
        if self.ring is Ring.SQRT2:
            return QuadInt(self.ring, a * c + 2 * b * d, a * d + b * c)
        return QuadInt(self.ring, a * c)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def conjugate(self) -> "QuadInt":
        if self.ring is Ring.GOLDEN:
            # tau |-> 1 - tau
            return QuadInt(self.ring, self.a + self.b, -self.b)
        if self.ring is Ring.SQRT2:
            return QuadInt(self.ring, self.a, -self.b)
        return self

    def norm(self) -> int:
        """Signed field norm: a^2+ab-b^2 (golden), a^2-2b^2 (sqrt2), a over Z."""
        if self.ring is Ring.GOLDEN:
            return self.a * self.a + self.a * self.b - self.b * self.b
        if self.ring is Ring.SQRT2:
            return self.a * self.a - 2 * self.b * self.b
        return self.a

    def sign(self) -> int:
        """Sign under the identity embedding (tau and sqrt2 taken positive)."""
        if self.ring is Ring.GOLDEN:
            # 2(a + b tau) = (2a + b) + b sqrt5
            return _sign_with_root(2 * self.a + self.b, self.b, 5)
        if self.ring is Ring.SQRT2:
            return _sign_with_root(self.a, self.b, 2)
        return (self.a > 0) - (self.a < 0)

    def __str__(self) -> str:
        if self.ring is Ring.RATIONAL:
            return str(self.a)
        sym = "t" if self.ring is Ring.GOLDEN else "r2"
        return f"{self.a}{self.b:+d}{sym}"


def fundamental_unit(ring: Ring) -> QuadInt:
    """tau for Z[tau], 1 + sqrt2 for Z[sqrt2]."""
    if ring is Ring.GOLDEN:
        return QuadInt(ring, 0, 1)
    if ring is Ring.SQRT2:
        return QuadInt(ring, 1, 1)
    raise ValueError("Z has no fundamental unit")


def splitting_sign(p, ring: Ring):
    """+1 when the prime p splits in the ring, -1 when inert, 0 when ramified
    or over Z: the residue rule p mod 5 or p mod 8, with no primality test,
    so p may be an int or an integer array of primes."""
    if ring is Ring.RATIONAL:
        return 0
    return chi5(p) if ring is Ring.GOLDEN else chi8(p)


def is_representable_index(m: int, ring: Ring) -> bool:
    """True iff m is the norm of an ideal: every inert prime divides m evenly."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return all(e % 2 == 0 or splitting_sign(p, ring) != -1 for p, e in factorize(m))


@dataclass(frozen=True)
class QuadRat:
    """num/den with num a QuadInt and den a positive integer, in lowest terms."""

    num: QuadInt
    den: int = 1

    def __post_init__(self):
        if self.den == 0:
            raise ZeroDivisionError("zero denominator")
        num, den = self.num, self.den
        if den < 0:
            num, den = -num, -den
        g = math.gcd(math.gcd(abs(num.a), abs(num.b)), den)
        if g > 1:
            num = QuadInt(num.ring, num.a // g, num.b // g)
            den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __mul__(self, other: "QuadRat") -> "QuadRat":
        return QuadRat(self.num * other.num, self.den * other.den)

    def to_quadint(self) -> QuadInt:
        if self.den != 1:
            raise ValueError(f"{self} is not integral")
        return self.num
