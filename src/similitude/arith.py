"""Shared integer utilities: primality, sieves, factorization, characters."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache

import numpy as np

# Miller-Rabin with the first k prime bases is proven correct for n below the
# k-th entry of OEIS A014233, the least strong pseudoprime to all of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUNDS = (  # (bound, k)
    (2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
    (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9),
    (318665857834031151167461, 12), (3317044064679887385961981, 13),
)
PRIMALITY_LIMIT = _MR_BOUNDS[-1][0]
_BLOCK = 1 << 14  # entries of the largest temporary a strided update builds


def is_prime(n: int) -> bool:
    """Deterministic primality test: Miller-Rabin with the fewest prime bases
    proven for n's range.  Raises ValueError when n >= PRIMALITY_LIMIT (about
    3.3 * 10**24) has no prime factor up to 41, as no proven base set exists."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n >= PRIMALITY_LIMIT:
        raise ValueError(f"{n} is beyond the deterministic primality bound {PRIMALITY_LIMIT}")
    k = next(k for bound, k in _MR_BOUNDS if n < bound)
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_prime_factor_sieve(n: int) -> list[int]:
    """spf[m] = smallest prime factor of m, for 0 <= m <= n (spf[0] = 0, spf[1] = 1)."""
    spf = list(range(n + 1))
    for i in range(2, math.isqrt(n) + 1):
        if spf[i] == i:
            for j in range(i * i, n + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


@lru_cache(maxsize=8)
def primes_up_to(n: int) -> np.ndarray:
    """The primes p <= n, ascending, as an int64 array from one Eratosthenes
    sieve.  The array is cached and shared by every caller, so it is read-only."""
    sieve = np.ones(n + 1, bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    primes = np.flatnonzero(sieve).astype(np.int64)
    primes.flags.writeable = False
    return primes


@lru_cache(maxsize=None)
def _trial_primes(b: int) -> tuple[int, ...]:
    """The primes below 2**b, b <= 16, as Python ints: m % p stays exact for m >= 2**63."""
    return tuple(primes_up_to((1 << b) - 1).tolist())


def _prime_factors(n: int) -> list[int]:
    """Prime factors of n > 1 with multiplicity: is_prime at the leaves, else a
    split by Pollard rho with Brent's cycle finding (R. P. Brent, BIT 20, 1980)."""
    if is_prime(n):
        return [n]
    for c in itertools.count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = math.gcd(x - y, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return _prime_factors(g) + _prime_factors(n // g)


def factorize(m: int) -> list[tuple[int, int]]:
    """Sorted prime factorization [(p, e), ...] of m >= 1: trial division by the primes
    below 2**min(16, isqrt(m).bit_length()) (every p <= sqrt(m) while m < 2**32), then
    Pollard rho on the cofactor; a composite one beyond PRIMALITY_LIMIT raises ValueError."""
    if m < 1:
        raise ValueError("factorize requires m >= 1")
    out = []
    for p in _trial_primes(min(16, math.isqrt(m).bit_length())):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    if m > 1:
        out += sorted(Counter(_prime_factors(m)).items())
    return out


def odd_divisor_sums(n: int) -> np.ndarray:
    """sums[m] = sum of the odd divisors of m, for 0 <= m <= n (sums[0] = 0),
    as an int64 array.

    Hyperbola split, s = isqrt(n): each divisor of m <= n is a d <= s, or an
    e > s whose cofactor m / e <= n / (s + 1) < s + 1 is.  Each odd d <= s
    adds d to its multiples in one strided update; each d <= s adds every
    odd e > s to m = d e, one strided update per block of at most _BLOCK
    values of e."""
    s = math.isqrt(n)
    sums = np.zeros(n + 1, np.int64)
    for d in range(1, s + 1):
        if d % 2:
            sums[d::d] += d
        for lo in range((s + 1) | 1, n // d + 1, 2 * _BLOCK):
            e = np.arange(lo, min(lo + 2 * _BLOCK, n // d + 1), 2)
            sums[d * lo : d * e[-1] + 1 : 2 * d] += e
    return sums


def magnitude(x: np.ndarray) -> int:
    """max |x| over an integer array of any shape and dtype, as a Python int
    (0 when empty).  It reads the extremes, as np.abs(x) would copy x."""
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))


def _residue_rule(table: tuple[int, ...], m):
    """table[m % period]: a Python int for an int m, elementwise for an integer array."""
    r = m % len(table)
    return np.array(table)[r] if isinstance(r, np.ndarray) else table[r]


def chi5(m):
    """Quadratic character mod 5: +1 at +-1, -1 at +-2, else 0; of an int or an int array."""
    return _residue_rule((0, 1, -1, -1, 1), m)


def chi8(m):
    """Quadratic character mod 8: +1 at +-1, -1 at +-3, else 0; of an int or an int array."""
    return _residue_rule((0, 1, 0, -1, 0, -1, 0, 1), m)


_TWO = (0, 1, 0, -1, 0, -1, 0, 1)  # (a/2) by a % 8, and (2/a) at odd a (Cohen's tab2)


def kronecker(d: int, n: int) -> int:
    """The Kronecker symbol (d/n) for n >= 1 by the binary Jacobi algorithm
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 1.4.10)."""
    if n < 1:
        raise ValueError("kronecker requires n >= 1")
    a, b, k = d, n, 1
    while b % 2 == 0:  # (d/n) = (d/2) (d/(n/2)), and (d/2) = 0 at even d
        b, k = b // 2, k * _TWO[a % 8]
    while a:  # (a/b) for odd b > 0
        while a % 2 == 0:
            a, k = a // 2, k * _TWO[b % 8]
        k = -k if a & b & 2 else k  # reciprocity: a, b = 3 mod 4 (& is two's complement)
        a, b = b % abs(a), abs(a)
    return k if b == 1 else 0
