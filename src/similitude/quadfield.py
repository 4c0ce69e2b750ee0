"""Exact arithmetic in the quadratic rings Z, Z[tau], and Z[sqrt2].

Elements are a + b*omega with integer a, b, where omega is tau = (1+sqrt5)/2
for the golden ring, sqrt2 for the other quadratic ring, and absent over Z.
Each ring is one row of `Ring`, and every rule here reads it.  Everything is
exact integer arithmetic; sign tests against sqrt5/sqrt2 are done by
squaring, never by floating point.
"""

from __future__ import annotations

import enum
from collections import namedtuple

from .arith import chi5, chi8, factorize


class Ring(enum.Enum):
    """Base ring Z[w] as one row: w^2 = c0 + c1 w, so w = (c1 +- sqrt(d))/2
    (+ in the identity embedding) with d = c1^2 + 4 c0 and w' = c1 - w; the
    fundamental unit a + b w, the primes' splitting character and w's print
    symbol.  Over Z (no unit) elements have b = 0, so no rule meets w."""

    #          value       c0 c1 unit    character  symbol
    RATIONAL = ("Z",        0, 0, None,   None,      "")
    GOLDEN = ("Z[tau]",     1, 1, (0, 1), chi5,      "t")
    SQRT2 = ("Z[sqrt2]",    2, 0, (1, 1), chi8,      "r2")

    def __new__(cls, value, c0, c1, unit, character, symbol):
        ring = object.__new__(cls)
        ring._value_ = value
        ring.c0, ring.c1, ring.d = c0, c1, c1 * c1 + 4 * c0
        ring.unit, ring.character, ring.symbol = unit, character, symbol
        return ring


def _sign_with_root(p: int, q: int, d: int) -> int:
    """Exact sign of p + q*sqrt(d) for integers p, q and non-square d > 1 (any
    d when q = 0): the common sign of p and q, else p's when p^2 > d q^2."""
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sp * sq >= 0:
        return sp or sq
    return sp if p * p > d * q * q else sq


class QuadInt(namedtuple("QuadInt", "ring a b")):
    """a + b*omega in the ring of integers tagged by `ring`."""

    __slots__ = ()

    def __new__(cls, ring: Ring, a: int, b: int = 0):
        if ring is Ring.RATIONAL and b != 0:
            raise ValueError("integers over Z have no omega component")
        return tuple.__new__(cls, (ring, a, b))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

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
        ring = self.ring
        return QuadInt(ring, a * c + ring.c0 * b * d, a * d + b * c + ring.c1 * b * d)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def conjugate(self) -> "QuadInt":
        """a + b w' with w' = c1 - w."""
        return QuadInt(self.ring, self.a + self.ring.c1 * self.b, -self.b)

    def norm(self) -> int:
        """Signed field norm (a + b w)(a + b w') = a^2 + c1 ab - c0 b^2; a over Z."""
        if self.ring is Ring.RATIONAL:
            return self.a
        return self.a * self.a + self.ring.c1 * self.a * self.b - self.ring.c0 * self.b * self.b

    def sign(self) -> int:
        """Sign under the identity embedding (tau and sqrt2 taken positive):
        2(a + b w) = (2a + c1 b) + b sqrt(d)."""
        return _sign_with_root(2 * self.a + self.ring.c1 * self.b, self.b, self.ring.d)

    def __str__(self) -> str:
        sym = self.ring.symbol
        return f"{self.a}{self.b:+d}{sym}" if sym else str(self.a)


def splitting_sign(p, ring: Ring):
    """+1 when the prime p splits in the ring, -1 when inert, 0 when ramified
    or over Z: the ring's residue rule mod 5 or 8, with no primality test,
    so p may be an int or an integer array of primes."""
    return 0 if ring.character is None else ring.character(p)


def is_representable_index(m: int, ring: Ring) -> bool:
    """True iff m is the norm of an ideal: every inert prime divides m evenly."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return all(e % 2 == 0 or splitting_sign(p, ring) != -1 for p, e in factorize(m))

