"""Closed-form coefficient rules for the similarity-counting series and the
ideal-counting zeta series, each cross-checked against an independent
construction by Dirichlet-series algebra.

The closed forms are one Euler-factor table, read on arrays by the kernel of
dirichlet.from_multiplicative, one exact integer at a time by coeff, and as
partial sums on the grid {n // i} by summatory.

Index conventions: the quaternionic series list a(m) against lattice index
m^2 ("square" kind); the field zeta series and Riemann's series list a(m)
against index m ("plain" kind).
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .arith import factorize, kronecker
from .dirichlet import (CoeffSeq, convolve, dirichlet_inverse, floor_grid, from_multiplicative,
                        multiplicative_sum, ones, prime_sums, shift)
from .quadfield import Ring, splitting_sign


class CrossCheckFailure(Exception):
    """The closed form and the engine do not give the target the same N-term
    sequence: closed is the closed form's sequence, and engine the engine's,
    which differs first at m = index, or the ValueError that stopped the
    engine (index None).  Carries the target and N."""

    def __init__(self, target: "Target", closed: CoeffSeq, engine: CoeffSeq | ValueError):
        self.target, self.n, self.index = target, len(closed), None
        self.closed, self.engine = closed, engine
        if isinstance(engine, ValueError):
            detail = f"engine failed: {engine}"
        else:
            m = self.index = int(np.flatnonzero(closed.array != engine.array)[0]) + 1
            detail = f"closed form {closed[m]} != engine {engine[m]} at m = {m}"
        super().__init__(f"{target.value}, N = {len(closed)}: {detail}")


class Target(enum.Enum):
    RIEMANN = "riemann"
    DEDEKIND_TAU = "dedekind_tau"
    DEDEKIND_SQRT2 = "dedekind_sqrt2"
    ZETA_J = "zeta_j"
    ZETA_I = "zeta_i"
    ZETA_K = "zeta_k"
    F_J = "f_j"
    F_Z4 = "f_z4"
    F_I = "f_i"
    F_K = "f_k"

    @property
    def index_kind(self) -> str:
        """'plain' for the field zeta series (Euler rule 1), whose a(m) counts
        ideals of index m; else 'square', a(m) counting objects of index m^2."""
        return "plain" if _EULER[self][1] is _one else "square"


def g(n, r: int):
    """(r+1) n^r + 2 sum_{k<r} (k+1) n^k, the finite sum that the paper's
    (r+1) n^r + 2 (1 - (r+1) n^r + r n^(r+1)) / (n-1)^2 abbreviates.  n may
    also be an int64 array whose (3r+1) n^r, above every partial sum, fits
    int64; a Python int takes a plain comparison, far cheaper than np.any."""
    if (np.any(n <= 1) if isinstance(n, np.ndarray) else n <= 1) or r < 0:
        raise ValueError("g(n, r) needs n >= 2 and r >= 0")
    return (r + 1) * n**r + 2 * sum((k + 1) * n**k for k in range(r))


# -- the Euler-factor table -------------------------------------------------
#
# Every target is an Euler product over the prime ideals of its base ring.
# A prime ideal P of norm q contributes the local factor sum_e h(q, e) q^(-es)
# with h one of 1, sigma or g.  So a rational prime p gives: split, two ideals
# of norm p, hence sum_s h(p, s) h(p, e-s); inert, one ideal of norm p^2,
# hence h(p^2, e/2) at even e; ramified (or any p over Z), h(p, e).  The
# Hurwitz algebra ramifies at 2, where three targets take a fixed value.
# No rule is handed down for the cubian order: its rows mirror the icosian
# ones and are read off zeta_K(s) = zeta_sqrt2(2s) zeta_sqrt2(2s-1).

def _one(q: int, e: int) -> int:
    return 1


def _sigma(q: int, e: int) -> int:
    return (q ** (e + 1) - 1) // (q - 1)


# target -> (base ring, local rule h, value at 2^e for e >= 1 or None)
_EULER = {
    Target.RIEMANN: (Ring.RATIONAL, _one, None),
    Target.DEDEKIND_TAU: (Ring.GOLDEN, _one, None),
    Target.DEDEKIND_SQRT2: (Ring.SQRT2, _one, None),
    Target.ZETA_J: (Ring.RATIONAL, _sigma, 1),
    Target.ZETA_I: (Ring.GOLDEN, _sigma, None),
    Target.ZETA_K: (Ring.SQRT2, _sigma, None),
    Target.F_J: (Ring.RATIONAL, g, 1),
    Target.F_Z4: (Ring.RATIONAL, g, 3),
    Target.F_I: (Ring.GOLDEN, g, None),
    Target.F_K: (Ring.SQRT2, g, None),
}


def _ppower(target: Target, p, e: int):
    """The coefficient of the target at the prime power p^e.  At e = 1, p may
    also be an int64 array of odd primes, giving an array or one scalar."""
    if e == 0:
        return 1
    ring, h, at2 = _EULER[target]
    if at2 is not None and not isinstance(p, np.ndarray) and p == 2:
        return at2
    sign = splitting_sign(p, ring)  # +1 split, -1 inert, 0 ramified or over Z
    if e == 1:  # split 2 h, inert 0, ramified h
        return (1 + sign) * h(p, 1)
    if sign == 1:
        return sum(h(p, s) * h(p, e - s) for s in range(e + 1))
    if sign == -1:
        return h(p * p, e // 2) if e % 2 == 0 else 0
    return h(p, e)


def coeff(target: Target, m: int) -> int:
    """The coefficient a(m) of the target, from the factorization of m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return math.prod(_ppower(target, p, e) for p, e in factorize(m))


def ssm_count(target: Target, m: int) -> int:
    """Number of similarity sublattices/submodules of index m^2 (0 when none)."""
    if _EULER[target][1] is not g:
        raise ValueError(f"{target.value} is not a similarity-counting target")
    return coeff(target, m)


# -- whole sequences ---------------------------------------------------------

def closed_sequence(target: Target, n: int) -> CoeffSeq:
    """First n coefficients from the Euler-factor table: _ppower for each small
    prime power, and its e = 1 row on the array of primes above sqrt(n)."""
    return from_multiplicative(lambda p, e: _ppower(target, p, e), n)


def summatory(target: Target, n: int) -> int:
    """The exact partial sum of a(m) over m <= n, the sum of
    closed_sequence(target, n), from the target's values on the grid
    {n // i}: O(n^(3/4)) time and O(sqrt n) memory, no n-array.

    At an odd prime p the row's value is (1 + chi(p)) (c0 + c1 p), with chi
    the ring's splitting character (0 over Z; its period is the field's
    discriminant d) and h(q, 1) = c0 + c1 q, so the prime sums are c0 and c1
    times those of dirichlet.prime_sums for the principal character and for
    chi.  The form differs from _ppower(p, 1) at p = 2 only (the Hurwitz
    targets' fixed value there), so the grid values v >= 2 take the
    difference once; a rule whose h(q, 1) is not linear in q raises
    ValueError.  dirichlet's multiplicative_sum then adds the prime powers."""
    ring, h, _ = _EULER[target]
    c1 = h(3, 1) - h(2, 1)
    c0 = h(2, 1) - 2 * c1
    if h(5, 1) != c0 + 5 * c1:
        raise ValueError(f"{target.value}: summatory needs h(q, 1) linear in q")
    characters = [(1,)]
    if ring.character is not None:
        characters.append(tuple(ring.character(np.arange(ring.d)).tolist()))
    total = sum(np.multiply(rows[0], c0, dtype=object) + np.multiply(rows[1], c1, dtype=object)
                for rows in (prime_sums(n, chi) for chi in characters))
    total[np.searchsorted(floor_grid(n), 2):] += (_ppower(target, 2, 1)
                                                  - (1 + splitting_sign(2, ring)) * (c0 + 2 * c1))
    return multiplicative_sum(lambda p, e: _ppower(target, p, e), n, total)


# -- the engine ------------------------------------------------------------
#
# A finite correction factor is a list of (j, v) pairs, the Dirichlet
# polynomial sum v j^(-s), which convolve applies without building it.

def _index2(c: int) -> list[tuple[int, int]]:
    """1 + c 2^(-s)."""
    return [(1, 1), (2, c)]


def _index2_inverse(n: int, c: int) -> list[tuple[int, int]]:
    """(1 + c 2^(-s))^(-1) to N = n: the value (-c)^k at 2^k <= n."""
    return [(1 << k, (-c) ** k) for k in range(n.bit_length())]


def _dilated_inverse(head: CoeffSeq) -> list[tuple[int, int]]:
    """(sum a(m) m^(-2s))^(-1) to N = r^2 from the head a(1..r).  Inverting
    commutes with s -> 2s, so it is sum b(m) m^(-2s) with b the inverse of
    the head: the pairs (m^2, b(m)) with b(m) != 0."""
    b = dirichlet_inverse(head)
    return [(m * m, v) for m, v in enumerate(b.array.tolist(), 1) if v]


def _character(d: int, n: int) -> CoeffSeq:
    """The Kronecker symbol (d/m) for m = 1..n, of a real quadratic field's
    discriminant d, tiled from one period m = 1..d: the only n-array built.
    A period with (d/1) != 1 raises, as zeta_K would square a sign away."""
    period = [kronecker(d, m) for m in range(1, d + 1)]
    if period[0] != 1:
        raise ValueError(f"(d/1) = {period[0]} for d = {d}, where a character has 1")
    return CoeffSeq(np.tile(np.array(period), -(-n // d))[:n])


# the engine's own inputs: each real quadratic field's discriminant, each
# similarity series' order zeta, and each order zeta's base-field zeta
_DISCRIMINANT = {Target.DEDEKIND_TAU: 5, Target.DEDEKIND_SQRT2: 8}
_ZETA = {Target.F_J: Target.ZETA_J, Target.F_I: Target.ZETA_I, Target.F_K: Target.ZETA_K}
_BASE_FIELD = {Target.ZETA_J: Target.RIEMANN, Target.ZETA_I: Target.DEDEKIND_TAU,
               Target.ZETA_K: Target.DEDEKIND_SQRT2}


def _engine(target: Target, n: int) -> CoeffSeq:
    """A name is dropped once it is read for the last time.  The head of a
    sequence is the sequence of the head, so the dilated inverse of a base
    field's zeta is built from isqrt(n) terms of its own.  zeta_J stays int64
    for n < 2^41: with s = isqrt(n), the head bound of ones(n) by its shift
    1..n is s (1 n + s 1) <= 2 n^(3/2) < 2^63, and the support bound of
    sigma(m) <= m (1 + ln m) by (1 - 2 2^(-s)) is 3 n (1 + ln n) < 2^63."""
    if target is Target.RIEMANN:
        return ones(n)
    if target in _DISCRIMINANT:
        return convolve(ones(n), _character(_DISCRIMINANT[target], n))
    if target in _BASE_FIELD:  # zeta_F(2s) zeta_F(2s-1), by (1 - 2^(1-2s)) for the Hurwitz order
        base = _engine(_BASE_FIELD[target], n)
        zeta = convolve(base, shift(base))
        del base
        return convolve(zeta, _index2(-2)) if target is Target.ZETA_J else zeta
    if target is Target.F_Z4:
        return convolve(_engine(Target.F_J, n), _index2(2))
    if target in _ZETA:  # the order's zeta squared over the dilated base-field zeta
        zeta = _engine(_ZETA[target], n)
        sq = convolve(zeta, zeta)
        del zeta
        if target is Target.F_J:
            sq = convolve(sq, _index2_inverse(n, 1))
        return convolve(sq, _dilated_inverse(_engine(_BASE_FIELD[_ZETA[target]], math.isqrt(n))))
    raise ValueError(f"unknown target {target!r}")


def engine_sequence(target: Target, n: int) -> CoeffSeq:
    """The same coefficients built from the generating-function identities by
    convolution, inverse, dilation, and shift, using no prime-power rules at
    all: the field zeta factors enter as zeta(s) L(s, (d/.)), d the field's
    discriminant.  It reads its own inputs, never the Euler table, a Ring row
    or chi5/chi8: no single fault in the closed form's data moves both routes.

    In the "square" indexing, arguments 2s come for free, s -> 2s-1 is shift,
    4s is dilation by 2, and the correction factors (1 - 2^(1-2s)),
    (1 + 4^(-s)), (1 + 2/4^s) live at m = 2.  Each finite factor, the
    inverses of (1 + 4^(-s)) and of a dilated series included, is a short
    list of (j, v) pairs that convolve applies without building it, and
    no inverse is taken of more than isqrt(n) terms.  So at most three
    n-arrays are alive at once, two operands and a result, beside blocks of
    at most 2^14 entries and arrays of isqrt(n) terms.
    """
    return _engine(target, n)


def series(target: Target, n: int) -> CoeffSeq:
    """Coefficients a(1..n), built both ways and verified equal, for the CLI's
    series and verify alike.  The engine goes first: while it runs (at most
    three n-arrays) nothing else is alive, and the closed form then adds its
    one n-array to the engine's result.  A stopped engine (a ValueError: a
    fault in its data can leave a series with no inverse) fails it too."""
    if n < 1:
        raise ValueError("n must be >= 1")
    try:
        engine = engine_sequence(target, n)
    except ValueError as exc:
        engine = exc
    closed = closed_sequence(target, n)
    if closed != engine:  # a CoeffSeq is never equal to an exception
        raise CrossCheckFailure(target, closed, engine)
    return closed
