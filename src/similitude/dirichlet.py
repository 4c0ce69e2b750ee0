"""Coefficient algebra for Dirichlet series truncated at N terms.

A CoeffSeq holds a(1..N) as one read-only 1-D NumPy array.  Convolution
(by another sequence, or by a finite Dirichlet polynomial given as (j, v)
pairs), inverse, dilation (s -> k*s), and shift (s -> s-1) act on
coefficients; multiplicative sequences are assembled from prime-power data
by one array kernel over a prime sieve, which also decides multiplicativity.
A multiplicative sequence's partial sum up to n needs no N-array at all: it
is read off its values on the grid {n // i} (floor_grid), from the prime sums
of prime_sums and one pass over the prime powers (multiplicative_sum).

Each operation takes and returns CoeffSeqs.  An array is int64 only while an
a-priori bound shows that no value or partial sum can leave int64; otherwise
it holds exact Python ints (dtype=object), so nothing ever wraps.  Each
operation picks its result's dtype once and reads operands in it by blocks:
convolution, inverse and shift allocate no N-sized array but their result,
and every strided update goes through blocks of at most _BLOCK entries.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .arith import _BLOCK, magnitude, primes_up_to

_INT64_LIMIT = 1 << 63


class CoeffSeq:
    """array[i] is the coefficient a(m) at m = i + 1.

    The array is 1-D, int64 or dtype=object (exact Python ints).  It is taken
    over, not copied: the constructor makes it read-only in place.  Equality
    is by value, so int64 and object arrays of the same integers are equal.
    A CoeffSeq is immutable and not hashable."""

    __slots__ = ("_array",)
    __hash__ = None

    def __init__(self, array: np.ndarray):
        if not isinstance(array, np.ndarray) or array.ndim != 1 or array.dtype not in (np.int64, object):
            raise TypeError("CoeffSeq needs a 1-D int64 or object array")
        array.flags.writeable = False
        self._array = array

    array = property(lambda self: self._array)

    def __reduce__(self):  # copy and pickle rebuild through __init__, read-only again
        return CoeffSeq, (self._array,)

    def __eq__(self, other):
        if not isinstance(other, CoeffSeq):
            return NotImplemented
        return len(self) == len(other) and np.array_equal(self.array, other.array)

    def __getitem__(self, m: int) -> int:
        if not 1 <= m <= len(self.array):
            raise IndexError(f"m = {m} outside 1..{len(self.array)}")
        return int(self.array[m - 1])

    def __len__(self) -> int:
        return len(self.array)


def coeff_seq(values) -> CoeffSeq:
    """A CoeffSeq of the integers in an iterable, copied into a new array."""
    return CoeffSeq(as_array(list(values)))


def ones(n: int) -> CoeffSeq:
    return CoeffSeq(np.ones(n, np.int64))


def as_array(values) -> np.ndarray:
    """The integers as a 1-D int64 array when all fit, else as an object array of exact ints."""
    lo, hi = min(values, default=0), max(values, default=0)
    dtype = np.int64 if -_INT64_LIMIT <= lo and hi < _INT64_LIMIT else object
    return np.asarray(values, dtype=dtype)  # an ndarray of that dtype already is not copied


def _add_scaled(out: np.ndarray, x: np.ndarray, j: int, v, e0: int = 1) -> None:
    """out(j e) += v x(e) for e0 <= e <= len(out) / j (out(m) at out[m - 1]),
    one strided update per block of at most _BLOCK values of e, x read in out's dtype."""
    top = len(out) // j
    for lo in range(e0 - 1, top, _BLOCK):
        hi = min(lo + _BLOCK, top)
        out[j * (lo + 1) - 1 : j * hi : j] += v * x[lo:hi].astype(out.dtype, copy=False)


def _head_bound_fits(mx: int, my: int, hx: int, hy: int, s: int) -> bool:
    """Whether _convolve may run in int64: mx, my are max|x|, max|y| and hx,
    hy the same maxima over the first s = isqrt(n) entries only.

    Every term _convolve adds to c(m) is x(d) y(m/d) with d <= s (the x
    side) or y(d) x(m/d) with d <= s < m/d (the y side).  An x-side term is
    at most hx my and a y-side term at most hy mx, and each side adds at
    most one term per d <= s, so at most s.  So every partial sum of c(m),
    and every single product, is at most s (hx my + hy mx), which must stay
    below 2^63; mx and my must fit int64 to be read in int64.  As hx <= mx
    and hy <= my, this admits all that 2 (s + 1) mx my < 2^63 admits, and
    far more when the large values of an operand lie past its head."""
    return mx < _INT64_LIMIT and my < _INT64_LIMIT and s * (hx * my + hy * mx) < _INT64_LIMIT


def _convolve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dirichlet convolution of two equal-length 1-D arrays by the hyperbola
    split (Tenenbaum, Introduction to Analytic and Probabilistic Number
    Theory, I.3): with s = isqrt(n), every factorisation m = d e <= n has
    d <= s, or else e <= s < d, never both d, e > s.  So the loop runs over
    d <= s only, with one blocked strided update for each side.  out starts
    as x(1) y, the x side of d = 1, formed in the result's dtype (int64
    under _head_bound_fits, else exact Python ints), and _add_scaled reads
    x and y in it block by block: the only n-array allocated is the result.
    """
    s = math.isqrt(len(x))
    fits = _head_bound_fits(magnitude(x), magnitude(y), magnitude(x[:s]), magnitude(y[:s]), s)
    out = np.multiply(x[:1], y, dtype=np.int64 if fits else object, casting="unsafe")  # empty at n = 0
    for d in range(1, s + 1):
        if d > 1 and x[d - 1]:  # m = d e for every e <= n / d
            _add_scaled(out, y, d, x[d - 1])
        if y[d - 1]:  # m = e d for s < e <= n / d
            _add_scaled(out, x, d, y[d - 1], s + 1)
    return out


def _support_bound_fits(mx: int, total: int) -> bool:
    """Whether _convolve_finite may run in int64: mx is max|x| and total the
    sum of |v| over the pairs (j, v) with j <= n.  Each pair adds at most one
    term v x(m/j) to c(m), so every partial sum of c(m), and every product,
    is at most mx * total, which must stay below 2^63; mx and each v must
    fit int64 themselves."""
    return mx < _INT64_LIMIT and total < _INT64_LIMIT and mx * total < _INT64_LIMIT


def _convolve_finite(x: np.ndarray, poly) -> np.ndarray:
    """c(m) = sum of v x(m/j) over the pairs (j, v) of poly with j | m: x
    times the finite Dirichlet polynomial sum v j^(-s).  Pairs with j > n
    reach no m and are dropped.  Each pair costs one blocked strided update
    over n / j entries; int64 under _support_bound_fits, else exact ints."""
    n = len(x)
    poly = [(j, v) for j, v in poly if j <= n]
    if any(j < 1 for j, _ in poly):
        raise ValueError("a Dirichlet polynomial's indices j must be >= 1")
    fits = _support_bound_fits(magnitude(x), sum(abs(v) for _, v in poly))
    out = np.zeros(n, np.int64 if fits else object)
    for j, v in poly:
        if v:
            _add_scaled(out, x, j, v)
    return out


def convolve(a: CoeffSeq, b) -> CoeffSeq:
    """c(m) = sum over d | m of a(d) * b(m/d).  b is a CoeffSeq of the same
    length, or a finite Dirichlet polynomial sum v j^(-s) given as its
    (j, v) pairs, which is never built as an array (_convolve_finite)."""
    if not isinstance(b, CoeffSeq):
        return CoeffSeq(_convolve_finite(a.array, b))
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return CoeffSeq(_convolve(a.array, b.array))


def dirichlet_inverse(a: CoeffSeq) -> CoeffSeq:
    """b with convolve(a, b) the convolution identity (1, 0, 0, ...); needs a(1) in {1, -1}.

    b(m) = -a(1) sum of a(d) b(m/d) over d | m, d > 1, in exact Python ints.
    acc[m - 1] gathers -sum, and becomes b(m) once every e < m is done: each
    final b(e) is subtracted times a(d) from m = d e, d >= 2, by _add_scaled.
    For n = 0 every slice is empty: the empty sequence is its own inverse."""
    x, n = a.array, len(a)
    lead = int(x[0]) if n else 1
    if lead not in (1, -1):
        raise ValueError("not invertible: leading coefficient must be +-1")
    acc = np.zeros(n, object)
    acc[:1] = 1
    for e in range(1, n // 2 + 1):
        b = acc[e - 1] = lead * acc[e - 1]
        if b:
            _add_scaled(acc, x, e, -b, 2)
    acc[n // 2 :] *= lead  # these m have no multiple 2m <= n left to update
    return CoeffSeq(as_array(acc))


def dilate(a: CoeffSeq, k: int) -> CoeffSeq:
    """b(m^k) = a(m), zero off k-th powers: realizes s -> k*s."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x, n = a.array, len(a)
    r = int(n ** (1 / k)) + 1  # then down to the largest r with r^k <= n
    while r**k > n:
        r -= 1
    out = np.zeros_like(x)
    out[np.arange(1, r + 1) ** k - 1] = x[:r]
    return CoeffSeq(out)


def _terms_fit(mx: int, n: int) -> bool:
    """Whether shift and partial_sum may run in int64 on the n terms a(m), m <= n,
    with mx = max|a(m)|: each product m a(m) of shift, and each partial sum of
    the a(m), is at most n mx, which must stay below 2^63."""
    return mx * n < _INT64_LIMIT


def shift(a: CoeffSeq) -> CoeffSeq:
    """b(m) = m * a(m): realizes s -> s - 1; int64 under _terms_fit, else exact ints."""
    x, n = a.array, len(a)
    out = np.arange(1, n + 1, dtype=np.int64 if _terms_fit(magnitude(x), n) else object)
    return CoeffSeq(np.multiply(out, x, out=out, casting="unsafe"))  # x cast per ufunc buffer


def _apply_prime_powers(out: np.ndarray, factors, op) -> None:
    """out[m] = op(out[m], v(p^e)) at every m <= n with p^e || m, for each
    (p, [v(p), v(p^2), ...]) in factors: one strided op over out[p::p] per
    block of at most _BLOCK multiples of p, its factors written to one
    buffer that every block reuses."""
    n = len(out) - 1
    buf = np.empty(min(n // 2, _BLOCK), out.dtype)
    for p, pv in factors:
        top = n // p  # fac[j - lo] belongs to m = p (j + 1), lo <= j < hi
        for lo in range(0, top, _BLOCK):
            hi = min(lo + _BLOCK, top)
            fac = buf[: hi - lo]
            fac[:] = pv[0]
            q = p
            for v in pv[1:]:  # p^e | m exactly when p^(e-1) | j + 1, i.e. j = -(lo + 1) mod p^(e-1)
                fac[-(lo + 1) % q :: q] = v
                q *= p
            view = out[p * (lo + 1) : p * hi + 1 : p]
            op(view, fac, out=view)


def _bits_fit(top: int) -> bool:
    """Whether from_multiplicative may run in int64: top is the largest b(m),
    and |a(m)| and its partial products are below 2^b(m) <= 2^63."""
    return top <= 63


def from_multiplicative(ppower: Callable[[int, int], int], n: int) -> CoeffSeq:
    """Assemble a(prod p_i^r_i) = prod ppower(p_i, r_i) for all m <= n.

    Each prime p <= sqrt(n), and 2 always, gives ppower(p, e) as Python ints
    for every p^e <= n, applied by one strided multiply over its multiples.
    A prime P > sqrt(n) divides m <= n at most once: ppower(P, 1) is asked
    once with P the int64 array of them all (an array or a scalar must come
    back), and each cofactor k <= n / min(P) sets a(k P) = a(k) a(P).

    Exact: |a(m)| and its partial products are below 2^b(m), b(m) the sum of
    the bit lengths of |a(p^e)| over p^e || m.  The same kernel sums those
    first, and the values are int64 only when every b(m) <= 63 (_bits_fit),
    else exact Python ints.  The int16 bit lengths are released before the
    values are allocated, so the values are the one n-array left alive
    beside blocks of at most _BLOCK entries and arrays of the large primes."""
    for p in (2, 3):
        if ppower(p, 0) != 1:
            raise ValueError(f"ppower({p}, 0) must be 1")
    primes = primes_up_to(n)
    cut = np.searchsorted(primes, max(math.isqrt(n), 2), side="right")
    factors = []
    for p in primes[:cut].tolist():
        pv, q = [], p
        while q <= n:
            pv.append(int(ppower(p, len(pv) + 1)))
            q *= p
        factors.append((p, pv))
    bits = np.zeros(n + 1, np.int16)  # at most 15 distinct primes of 64 bits each
    _apply_prime_powers(bits, [(p, [min(abs(v).bit_length(), 64) for v in pv])
                               for p, pv in factors], np.add)
    large = primes[cut:]
    big = np.broadcast_to(ppower(large, 1), large.shape)
    kmax = n // int(large[0]) if len(large) else 0
    top = max(int(bits.max()), int(bits[: kmax + 1].max()) + min(magnitude(big).bit_length(), 64))
    del bits
    vals = np.ones(n + 1, np.int64 if _bits_fit(top) else object)
    _apply_prime_powers(vals, factors, np.multiply)
    big = big.astype(vals.dtype)
    counts = np.searchsorted(large, n // np.arange(1, kmax + 1), side="right")
    for k, c in enumerate(counts.tolist(), 1):
        if vals[k]:  # else a(k P) = 0 already, from the small primes of k
            vals[k * large[:c]] = vals[k] * big[:c]
    return CoeffSeq(vals[1:])


def is_multiplicative(a: CoeffSeq) -> bool:
    """a(1) = 1 and a = the kernel's rebuild of a from its prime powers.  That
    is a(mk) = a(m) a(k) for all coprime m, k with mk <= N: the product rule
    gives every such pair, and the pairs give it one prime power at a time."""
    n, x = len(a), a.array
    return n == 0 or (a[1] == 1 and from_multiplicative(lambda p, e: x[p**e - 1], n) == a)


def partial_sum(a: CoeffSeq, x: int) -> int:
    """Exact sum of a(m) for m <= x (x may not exceed the truncation): an
    int64 array in int64 under _terms_fit, else in Python ints."""
    if x > len(a):
        raise ValueError(f"partial sum to {x} exceeds truncation {len(a)}")
    head = a.array[: max(x, 0)]
    if head.dtype == object or not _terms_fit(magnitude(head), len(head)):
        return sum(head.tolist())
    return int(head.sum())


# -- partial sums on the grid {n // i} ----------------------------------------
#
# With r = isqrt(n), the values n // i (1 <= i <= n) are the v <= r and the
# n // i for i <= r: about 2 sqrt(n) of them, ascending in floor_grid(n).
# v // k = n // (i k) is on the grid for every v = n // i on it and every
# k <= v, so floor_grid(n).searchsorted(w) is the position of any such w
# (n // r = r may appear twice; both positions hold the same value).
#
# Both passes over the grid below take one step per prime p <= r.  A step
# writes only the suffix v >= p^2, reading the values from before the step,
# so each array a step builds holds at most 2 sqrt(n) entries.

@lru_cache(maxsize=8)
def floor_grid(n: int) -> np.ndarray:
    """The grid values of n, ascending, as one cached read-only int64 array."""
    r = math.isqrt(n)
    v = np.concatenate([np.arange(1, r + 1), n // np.arange(r, 0, -1)])
    v.flags.writeable = False
    return v


def _prime_sums_fit(n: int) -> bool:
    """Whether prime_sums may run in int64.  Every value it holds, start,
    partial sum and product, is at most 2 n^2 in absolute value: a sum of
    chi(m) m^k over distinct m <= v is at most v (v + 1) / 2, and so is each
    term f(p) (G(v / p) - G(p - 1)) that Lucy's recurrence subtracts (it
    sums the f(m) with least prime factor p), and the closed form of the
    starting sums adds at most d^2 q^2 / 2 + 2 d^2 q + d^2 with q = v // d
    and d <= n the period."""
    return 2 * n * n < _INT64_LIMIT


@lru_cache(maxsize=8)
def prime_sums(n: int, chi: tuple[int, ...] = (1,)) -> np.ndarray:
    """Row k (k = 0, 1) at each position of floor_grid(n): the sum of
    chi(p) p^k over the primes p <= v, for the periodic, completely
    multiplicative chi(m) = chi[m % d] given by one period (the default is
    the principal character, chi(m) = 1).

    Lucy's recurrence (Legendre's sieve on the grid, as in Lagarias, Miller
    and Odlyzko, Math. Comp. 44, 1985): G(v) starts as the sum of f(m) =
    chi(m) m^k over 2 <= m <= v, in closed form over whole periods; each
    prime p <= isqrt(n), in ascending order, removes the m whose least prime
    factor is p, G(v) -= f(p) (G(v / p) - G(p - 1)) for v >= p^2, one slice
    step read before it is written.  O(n^(3/4)) operations on arrays of
    O(sqrt n) entries, int64 under _prime_sums_fit, else exact Python ints.
    The table is cached and shared, so it is read-only."""
    v, d = floor_grid(n), len(chi)
    period = np.roll(np.array(chi, np.int64), -1)  # chi(t) for t = 1..d
    count = np.cumsum(np.r_[0, period])  # sum of chi(t) over 1 <= t <= 0..d
    moment = np.cumsum(np.r_[0, period * np.arange(1, d + 1)])  # ... of chi(t) t
    q, rem = np.divmod(v, d)
    q = q.astype(np.int64 if _prime_sums_fit(n) else object)
    # m = j d + t for j < q and t <= d, then m = q d + t for t <= rem
    g0 = q * count[d] + count[rem]
    g1 = d * count[d] * (q * (q - 1) // 2) + q * (moment[d] + d * count[rem]) + moment[rem]
    table = np.stack([g0, g1]) - chi[1 % d]  # without m = 1
    for p in primes_up_to(math.isqrt(n)).tolist():
        if fp := chi[p % d]:  # G(p - 1) sits at position p - 2
            lo = v.searchsorted(p * p)
            below = table[:, v.searchsorted(v[lo:] // p)] - table[:, p - 2, None]
            table[:, lo:] -= [[fp], [fp * p]] * below
    table.flags.writeable = False
    return table


def _pass_step_fits(top: int, reach: list[int], a: list[int], b: list[int]) -> bool:
    """Whether a step of multiplicative_sum may run in int64: top is max|T|,
    and row k adds a[k] (T(v / q) - T(p)) + b[k] to some T(v), with reach[k]
    the largest |T(w)| over w <= n / q plus |T(p)|, a bound on the row's
    differences.  A position takes at most one term from each row, so every
    partial sum, product and scalar is at most top + the sum over k of
    |a[k]| max(reach[k], 1) + |b[k]|, which must stay below 2^63.  (A
    difference that wraps, where the bound leaves it out, meets a[k] = 0.)"""
    return top + sum(abs(x) * max(y, 1) + abs(z) for x, y, z in zip(a, reach, b)) < _INT64_LIMIT


def multiplicative_sum(ppower: Callable[[int, int], int], n: int, prime_sum: np.ndarray) -> int:
    """Exact sum of a(m) over m <= n for the multiplicative a(prod p^e) =
    prod ppower(p, e), given prime_sum, the sum of a(p) over the primes
    p <= v at each position of floor_grid(n).

    T starts as prime_sum.  For each prime p <= isqrt(n), from the largest
    down, T(v) += a(p^e) (T(v / p^e) - T(p)) + a(p^(e+1)) for every v >=
    p^(e+1), all e read from T before the step: then T(v) sums a(m) over
    the 2 <= m <= v that are prime or have no prime factor below p (as
    Deleglise and Rivat sum the Moebius function, Experiment. Math. 5, 1996),
    and at the end a(1) = 1 joins T(n).  Each ppower(p, e), p^e <= n, is
    read once, as a Python int.

    T is int64 while each step passes _pass_step_fits, else exact Python
    ints.  The check reads peak, the prefix maxima of |T| over the grid,
    which each int64 step renews on the suffix it wrote.  O(sqrt n) entries and
    O(n^(3/4)) operations in all."""
    if n < 1:
        return 0
    v = floor_grid(n)
    t = prime_sum.astype(np.int64 if magnitude(prime_sum) < _INT64_LIMIT else object)
    peak = np.maximum.accumulate(np.abs(t))
    for p in reversed(primes_up_to(math.isqrt(n)).tolist()):
        pv = []
        while p ** (len(pv) + 1) <= n:
            pv.append(int(ppower(p, len(pv) + 1)))
        q = [p**e for e in range(1, len(pv))]  # row e reads T(v / p^e) and writes the v >= p^(e+1)
        here = int(t[p - 1])  # T(p)
        if t.dtype != object:  # reach: peak at the position of n // p^e, plus |T(p)|
            reach = [x + abs(here) for x in peak[v.searchsorted([n // k for k in q])].tolist()]
            if not _pass_step_fits(int(peak[-1]), reach, pv[:-1], pv[1:]):
                t = t.astype(object)
        ws = v.searchsorted([p * k for k in q]).tolist()
        lo = ws[0]  # the least v any row writes, p^2
        step = np.zeros(len(v) - lo, t.dtype)
        for k, w, x, y in zip(q, ws, pv, pv[1:]):
            if x or y:  # a(p^e) = 0, as at an inert prime at odd e, adds a(p^(e+1)) alone
                step[w - lo :] += x * (t[v.searchsorted(v[w:] // k)] - here) + y if x else y
        t[lo:] += step
        if t.dtype != object:
            peak[lo:] = np.maximum.accumulate(np.maximum(np.abs(t[lo:]), peak[lo - 1]))
    return int(t[-1]) + 1
