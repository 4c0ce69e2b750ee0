import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from similitude import arith
from similitude.arith import (PRIMALITY_LIMIT, chi5, chi8, factorize, is_prime, kronecker,
                              odd_divisor_sums, primes_up_to)
from similitude.counting import Target, coeff, ssm_count

# the least strong pseudoprime to the first 12 prime bases (OEIS A014233)
PSI_12 = 318665857834031151167461


def test_is_prime_agrees_with_sieve():
    n = 10**6
    primes = set(primes_up_to(n))
    assert all(is_prime(m) == (m in primes) for m in range(n + 1))


def test_is_prime_rejects_strong_pseudoprimes():
    # each is the least strong pseudoprime to the first 1, 2, 3, 4, 9, 12 prime bases
    for n in (2047, 1373653, 25326001, 3215031751, 3825123056546413051, PSI_12):
        assert not is_prime(n), n
    assert PSI_12 == 399165290221 * 798330580441
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1)
    assert is_prime(10**24 + 7)  # a prime between the last two bounds, decided with base 41


def test_is_prime_raises_beyond_proven_bound():
    with pytest.raises(ValueError, match="primality bound"):
        is_prime(PRIMALITY_LIMIT)
    with pytest.raises(ValueError, match="primality bound"):
        is_prime(2**127 - 1)
    assert not is_prime(2**100)  # a small factor still decides


def test_factorize_splits_large_cofactors():
    assert factorize(PSI_12) == [(399165290221, 1), (798330580441, 1)]
    assert ssm_count(Target.F_J, PSI_12) == (ssm_count(Target.F_J, 399165290221)
                                             * ssm_count(Target.F_J, 798330580441))
    assert factorize(65537 * 65539) == [(65537, 1), (65539, 1)]
    assert factorize(65537 * 65539 * 65543) == [(65537, 1), (65539, 1), (65543, 1)]
    assert factorize(12 * 65537**2 * 65539**3) == [(2, 2), (3, 1), (65537, 2), (65539, 3)]
    assert coeff(Target.RIEMANN, 65537 * 65539) == 1
    # a composite cofactor beyond the proven primality bound is still refused
    with pytest.raises(ValueError, match="primality bound"):
        factorize((2**61 - 1) ** 2)
    with pytest.raises(ValueError, match="m >= 1"):
        factorize(0)


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.integers(0, 30), st.integers(0, 10**4)))
def test_primes_up_to_matches_is_prime(n):
    assert primes_up_to(n).tolist() == [p for p in range(n + 1) if is_prime(p)]


def test_primes_up_to_is_read_only():
    primes = primes_up_to(100)
    with pytest.raises(ValueError, match="read-only"):
        primes[0] = 3
    assert primes_up_to(100)[0] == 2


def test_factorize_beyond_int64():
    assert factorize(PSI_12) == [(399165290221, 1), (798330580441, 1)]
    m = (2**61 - 1) * 5
    assert m >= 2**63
    assert factorize(m) == [(5, 1), (2**61 - 1, 1)]
    assert ssm_count(Target.F_K, m) == ssm_count(Target.F_K, 5) * ssm_count(Target.F_K, 2**61 - 1)
    # a prime above 2^64, as Pollard rho hands it over: the residue rule and g stay exact
    p = next(q for q in range(2**64 + 1, 2**64 + 1000, 2) if is_prime(q))
    assert factorize(3 * p) == [(3, 1), (p, 1)]
    assert coeff(Target.F_I, p) == (1 + chi5(p)) * (2 * p + 2)
    assert coeff(Target.F_K, 3 * p) == coeff(Target.F_K, 3) * (1 + chi8(p)) * (2 * p + 2)


def _trial_division(m):
    """[(p, e), ...] of m >= 1 by dividing out every d = 2, 3, 4, ... with d^2 <= m."""
    out, d = [], 2
    while d * d <= m:
        e = 0
        while m % d == 0:
            m, e = m // d, e + 1
        if e:
            out.append((d, e))
        d += 1
    return out + [(m, 1)] * (m > 1)


def test_factorize_at_every_trial_table_edge(monkeypatch):
    # factorize(m) tries the primes below 2^b, b = min(16, isqrt(m).bit_length()):
    # the square of the largest prime below 2^b has that prime as its isqrt, so
    # trial division alone must split it (65521^2 at b = 16), and Pollard rho is never asked
    real = arith._prime_factors
    monkeypatch.setattr(arith, "_prime_factors", lambda n: pytest.fail(f"Pollard asked for {n}"))
    for b in range(1, 17):
        below = [p for p in range(2 ** (b - 1), 2**b) if is_prime(p)]
        if below:  # no prime lies below 2^1
            p = below[-1]
            assert factorize(p * p) == _trial_division(p * p) == [(p, 2)], b
    monkeypatch.setattr(arith, "_prime_factors", real)
    for m in (65521 * 65537, 2**32 - 1, 2**32, 2**32 + 15, 1, 2, 3, 4):
        assert factorize(m) == _trial_division(m), m
    assert factorize(2**32 - 1) == [(3, 1), (5, 1), (17, 1), (257, 1), (65537, 1)]


def test_odd_divisor_sums():
    # 24, 25 and 26 sit on the edges of the isqrt(n) split
    for n in (1, 2, 3, 24, 25, 26, 500):
        sums = odd_divisor_sums(n)
        assert sums.dtype == np.int64 and len(sums) == n + 1
        assert sums[0] == 0
        for m in range(1, n + 1):
            assert sums[m] == sum(d for d in range(1, m + 1, 2) if m % d == 0), (n, m)
    # at n = 10^5 the odd e > isqrt(n) of d = 1 fill four blocks of 2^14
    # values, and those of d = 2 two
    for n in (10**5, 10**5 + 1):
        ref = np.zeros(n + 1, np.int64)
        for d in range(1, n + 1, 2):
            ref[d::d] += d
        assert np.array_equal(odd_divisor_sums(n), ref), n


def test_kronecker_equals_the_quadratic_characters():
    # (5/m) and (8/m), the engine's characters, are chi5 and chi8, which
    # the closed form reads
    m = np.arange(1, 10**4 + 1)
    assert [kronecker(5, k) for k in m.tolist()] == chi5(m).tolist()
    assert [kronecker(8, k) for k in m.tolist()] == chi8(m).tolist()


def test_kronecker_against_its_definition():
    # Euler's criterion d^((p-1)/2) = (d/p) mod p at odd primes p, the rule
    # (d/2) = 0, +1 or -1 as d is even, +-1 or +-3 mod 8, and complete
    # multiplicativity in n, for d of either sign
    primes = [p for p in primes_up_to(200).tolist() if p > 2]
    for d in range(-60, 61):
        for p in primes:
            assert kronecker(d, p) % p == pow(d, (p - 1) // 2, p), (d, p)
        assert kronecker(d, 2) == (0 if d % 2 == 0 else 1 if d % 8 in (1, 7) else -1), d
        assert kronecker(d, 1) == 1
        for n in (4, 6, 9, 12, 15, 45, 64, 90, 105):
            assert kronecker(d, n) == math.prod(kronecker(d, p) ** e for p, e in factorize(n)), (d, n)
    with pytest.raises(ValueError, match="n >= 1"):
        kronecker(5, 0)
