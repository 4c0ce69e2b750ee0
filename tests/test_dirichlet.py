import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from similitude import dirichlet
from similitude.arith import factorize, primes_up_to, smallest_prime_factor_sieve
from similitude.counting import Target, _ppower, closed_sequence
from similitude.dirichlet import (CoeffSeq, _convolve, coeff_seq,
                                  convolve, dilate, dirichlet_inverse, floor_grid,
                                  from_multiplicative, is_multiplicative, multiplicative_sum,
                                  ones, partial_sum, prime_sums, shift)


def epsilon(n):
    """The convolution identity: 1 at m = 1, 0 elsewhere."""
    return coeff_seq((1,) + (0,) * (n - 1))


def moebius(m):
    fac = factorize(m)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def reference_convolve(a, b):
    """The plain double loop over d | m, kept as the reference for the kernel."""
    n = len(a)
    out = [0] * (n + 1)
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            out[m] += a[d - 1] * b[m // d - 1]
    return out[1:]


def reference_inverse(a):
    """b(1) = a(1) = +-1 and b(m) = -a(1) sum of a(d) b(m/d) over d | m, d > 1,
    in Python ints, kept as the reference for dirichlet_inverse."""
    n = len(a)
    divisors = [[] for _ in range(n + 1)]
    for d in range(2, n + 1):
        for m in range(d, n + 1, d):
            divisors[m].append(d)
    b = [0, a[0]] + [0] * (n - 1)
    for m in range(2, n + 1):
        b[m] = -a[0] * sum(a[d - 1] * b[m // d] for d in divisors[m])
    return b[1:]


def reference_from_multiplicative(ppower, n):
    """The smallest-prime-factor loop, kept as the reference for the kernel."""
    spf = smallest_prime_factor_sieve(n)
    vals = [0] * (n + 1)
    if n >= 1:
        vals[1] = 1
    for m in range(2, n + 1):
        p = spf[m]
        e = 1
        rest = m // p
        while rest % p == 0:
            rest //= p
            e += 1
        vals[m] = vals[rest] * ppower(p, e)
    return vals[1:]


def reference_is_multiplicative(a):
    """The pairwise test a(mk) = a(m) a(k) over coprime m, k, kept as the reference."""
    if len(a) and a[1] != 1:
        return False
    n = len(a)
    va = a.array.tolist()
    for m in range(2, n + 1):
        am = va[m - 1]
        for k in range(2, n // m + 1):
            if math.gcd(m, k) == 1 and va[m * k - 1] != am * va[k - 1]:
                return False
    return True


def rand_seq(rng, n, span=9):
    vals = [rng.randint(-span, span) for _ in range(n)]
    vals[0] = rng.choice((1, -1))
    return coeff_seq(vals)


def test_convolve_divisor_count_and_identity():
    n = 64
    d = convolve(ones(n), ones(n))
    assert d[6] == 4
    assert d[12] == 6
    assert d[1] == 1
    a = coeff_seq(range(1, n + 1))
    assert convolve(a, epsilon(n)) == a


def test_convolve_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        convolve(ones(4), ones(5))


def test_inverse_is_moebius_for_ones():
    n = 200
    inv = dirichlet_inverse(ones(n))
    for m in range(1, n + 1):
        assert inv[m] == moebius(m)
    assert inv[12] == 0


def test_inverse_identity_and_involution():
    n = 128
    assert dirichlet_inverse(epsilon(n)) == epsilon(n)
    rng = random.Random(20)
    for _ in range(20):
        a = rand_seq(rng, n)
        assert dirichlet_inverse(dirichlet_inverse(a)) == a
        assert convolve(a, dirichlet_inverse(a)) == epsilon(n)


def test_inverse_updates_in_blocks(monkeypatch, traced_peak):
    # each final b(e) reaches its multiples d e through blocks of at most
    # _BLOCK entries, never one (n/e)-entry object temporary: with n / _BLOCK
    # = 8, as at n = 2^17 with the default 2^14, the traced peak stays below
    # 13 * 8n bytes (15 * 8n with whole updates, 11.8 * 8n with a whole
    # exact copy of a; 6.4 * 8n here)
    monkeypatch.setattr(dirichlet, "_BLOCK", 2**10)
    n = 2**13
    values = np.random.default_rng(43).integers(10**3, 10**6, n)
    for lead in (1, -1):
        inv, peak = traced_peak(dirichlet_inverse, CoeffSeq(np.r_[lead, values[1:]]))
        assert peak < 13 * 8 * n, lead
    # where the blocks end changes no value, for either lead
    heads = [coeff_seq([lead] + values[1:300].tolist()) for lead in (1, -1)]
    expected = [dirichlet_inverse(a) for a in heads]
    monkeypatch.setattr(dirichlet, "_BLOCK", 3)
    for a, inv in zip(heads, expected):
        assert dirichlet_inverse(a) == inv
        assert convolve(a, inv) == epsilon(300)


@st.composite
def _int64_operands(draw):
    """Two length-n operands and up to 8 pairs, all below 2^20 in absolute
    value: every convolution and shift of them runs in int64."""
    n = draw(st.integers(1, 400))
    values = st.lists(st.integers(-(2**20), 2**20), min_size=n, max_size=n)
    pairs = st.lists(st.tuples(st.integers(1, n + 5), st.integers(-(2**20), 2**20)), max_size=8)
    return draw(values), draw(values), draw(pairs), draw(st.sampled_from((1, -1)))


@settings(max_examples=40, deadline=None)
@given(_int64_operands(), st.sampled_from((np.int64, object)))
def test_exact_path_equals_the_int64_path(ops, dtype):
    # with every bound refusing int64, each operation forms its products in
    # exact ints block by block, from int64 or object operands alike, and
    # gives the int64 path's values element for element
    a, b, pairs, lead = ops
    x, y = CoeffSeq(np.array(a, dtype)), CoeffSeq(np.array(b, dtype))
    fast = convolve(x, y), convolve(x, pairs), shift(x)
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_head_bound_fits", "_support_bound_fits", "_terms_fit"):
            mp.setattr(dirichlet, name, lambda *bounds: False)
        exact = convolve(x, y), convolve(x, pairs), shift(x)
    for f, e in zip(fast, exact):
        assert (f.array.dtype, e.array.dtype) == (np.int64, object)
        assert {type(v) for v in e.array.tolist()} == {int}  # Python ints, which never wrap
        assert e.array.tolist() == f.array.tolist()
    head = [lead] + a[1:]
    assert dirichlet_inverse(CoeffSeq(np.array(head, dtype))).array.tolist() == reference_inverse(head)


def test_exact_path_holds_its_result_and_one_block(monkeypatch, traced_peak):
    # on the exact path an operation holds its result and, beside it, one
    # strided update: three block-sized object arrays (a block of an operand
    # read in exact ints, its products, their sums) and a ufunc buffer of as
    # many entries.  The operands are built before the trace: an exact copy
    # of one would add at least 5 * 8n bytes, more than the bound leaves in
    # every case here
    block, n = 2**10, 2**13
    monkeypatch.setattr(dirichlet, "_BLOCK", block)
    rng = np.random.default_rng(44)
    x, y = (CoeffSeq(rng.integers(-(2**40), 2**40, n)) for _ in range(2))  # products leave int64
    pairs = list(zip(range(1, 100), rng.integers(-(2**40), 2**40, 99).tolist()))
    wide = CoeffSeq(rng.integers(-(2**51), 2**51, n))  # max|a| n leaves int64
    unit = CoeffSeq(np.r_[1, rng.integers(10**3, 10**6, n - 1)])
    old = np.setbufsize(block)
    try:
        for name, call, args in (("convolve", convolve, (x, y)), ("by pairs", convolve, (x, pairs)),
                                 ("shift", shift, (wide,)), ("inverse", dirichlet_inverse, (unit,))):
            out, peak = traced_peak(call, *args)
            values = out.array.tolist()
            assert out.array.dtype == object, name
            held = out.array.nbytes + sum(map(sys.getsizeof, values))
            entry = 8 + max(map(sys.getsizeof, values))
            assert peak < held + 4 * block * entry, (name, peak / (8 * n), held / (8 * n))
    finally:
        np.setbufsize(old)


def test_inverse_requires_unit_lead():
    with pytest.raises(ValueError, match="leading coefficient"):
        dirichlet_inverse(coeff_seq([2, 0, 0]))


def test_empty_sequence_passes_through_every_operation():
    empty = coeff_seq([])
    for out in (convolve(empty, empty), dirichlet_inverse(empty), dilate(empty, 2), shift(empty)):
        assert out == empty
    assert is_multiplicative(empty)


def test_dilate_and_shift():
    n = 100
    d = dilate(ones(n), 2)
    for m in range(1, n + 1):
        r = math.isqrt(m)
        assert d[m] == (1 if r * r == m else 0)
    s = shift(ones(n))
    assert s[7] == 7
    a = coeff_seq(range(3, n + 3))
    # reading back index m^k recovers the original sequence
    dk = dilate(a, 3)
    for m in range(1, 5):
        assert dk[m**3] == a[m]
    with pytest.raises(ValueError, match="k must be >= 1"):
        dilate(a, 0)


def test_from_multiplicative():
    n = 300
    divsum = from_multiplicative(lambda p, r: (p ** (r + 1) - 1) // (p - 1), n)
    for m in range(1, n + 1):
        assert divsum[m] == sum(d for d in range(1, m + 1) if m % d == 0)
    assert is_multiplicative(divsum)
    with pytest.raises(ValueError, match="must be 1"):
        from_multiplicative(lambda p, r: 0, 10)


def test_is_multiplicative_detects_failure():
    vals = convolve(ones(60), ones(60)).array.tolist()
    vals[5] += 1  # break a(6) = a(2) a(3)
    assert not is_multiplicative(coeff_seq(vals))


def test_partial_sum():
    assert partial_sum(epsilon(128), 100) == 1
    a = coeff_seq([1, 1, 4, 1, 6, 4, 8, 1, 13, 6])
    assert partial_sum(a, 10) == 45
    with pytest.raises(ValueError, match="exceeds"):
        partial_sum(a, 11)


def test_coeff_seq_equality_is_by_value_across_dtypes():
    small = CoeffSeq(np.array([1, -2, 3], np.int64))
    assert small == CoeffSeq(np.array([1, -2, 3], object))
    assert small == coeff_seq([1, -2, 3])
    assert small != CoeffSeq(np.array([1, -2], np.int64))  # length
    assert small != CoeffSeq(np.array([1, -2, 4], object))  # values
    assert small != CoeffSeq(np.array([1, -2, 3, 0], np.int64))  # a zero tail still differs
    assert small != (1, -2, 3)
    big = coeff_seq([1, 2**70])
    assert big.array.dtype == object
    assert big == CoeffSeq(np.array([1, 2**70], object))
    assert big != coeff_seq([1, 2**70 + 1])
    assert big[2] == 2**70 and type(small[1]) is int
    for m in (0, 4):
        with pytest.raises(IndexError, match=f"m = {m} outside 1..3"):
            small[m]
    with pytest.raises(TypeError, match="unhashable"):
        hash(small)


def test_coeff_seq_array_is_read_only():
    x = np.arange(1, 6, dtype=np.int64)
    a = CoeffSeq(x)
    assert a.array is x  # taken over, not copied
    for seq in (a, coeff_seq([1, 2**70]), ones(4), closed_sequence(Target.F_J, 50)):
        with pytest.raises(ValueError, match="read-only"):
            seq.array[0] = 7
    with pytest.raises(ValueError, match="read-only"):
        x[1] = 0
    assert a.array.tolist() == [1, 2, 3, 4, 5]
    with pytest.raises(TypeError):
        CoeffSeq(np.ones(3, np.int32))
    with pytest.raises(TypeError):
        CoeffSeq(np.ones((2, 2), np.int64))


def test_partial_sum_is_exact_at_and_beyond_the_int64_bound(monkeypatch):
    n = 1000
    top = (2**63 - 1) // n  # the largest |a| that n terms sum in int64
    assert dirichlet._terms_fit(top, n) and not dirichlet._terms_fit(top + 1, n)
    real, verdicts = dirichlet._terms_fit, []
    monkeypatch.setattr(dirichlet, "_terms_fit",
                        lambda *args: verdicts.append(real(*args)) or verdicts[-1])
    # top + 1 takes the Python-int path; at 2^62 the sums themselves leave int64
    for v in (top, top + 1, -top, -top - 1, 2**62):
        vals = [v] * (n - 1) + [-v // 3]
        a = coeff_seq(vals)
        assert a.array.dtype == np.int64
        verdicts.clear()
        for x in (0, 1, n // 2, n):
            assert partial_sum(a, x) == sum(vals[:x]), (v, x)
        assert verdicts[-1] == (abs(v) <= top), v  # x = n: the sum of all n terms
    huge = [(-1) ** m * 2**70 + m for m in range(n)]
    assert partial_sum(coeff_seq(huge), n) == sum(huge)
    assert partial_sum(CoeffSeq(np.array([5, 6], object)), 2) == 11


def test_ring_laws_random():
    rng = random.Random(21)
    n = 512
    e = epsilon(n)
    for _ in range(10):
        a, b, c = rand_seq(rng, n), rand_seq(rng, n), rand_seq(rng, n)
        assert convolve(a, b) == convolve(b, a)
        assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))
        assert convolve(a, e) == a
        summed = coeff_seq(x + y for x, y in zip(b.array.tolist(), c.array.tolist()))
        left = convolve(a, summed)
        right = coeff_seq(x + y for x, y in zip(convolve(a, b).array.tolist(),
                                                convolve(a, c).array.tolist()))
        assert left == right


# a magnitude for each path: int64 throughout, int64 near its bound, and
# values whose products or partial sums would leave int64 (exact ints)
_SPANS = (9, 2**28, 2**62, 2**70)


@st.composite
def _operands(draw):
    n = draw(st.integers(1, 400))
    span_a, span_b = draw(st.sampled_from(_SPANS)), draw(st.sampled_from(_SPANS))
    a = draw(st.lists(st.integers(-span_a, span_a), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(-span_b, span_b), min_size=n, max_size=n))
    return a, b


@settings(max_examples=60, deadline=None)
@given(_operands())
def test_convolve_matches_reference_loop(ops):
    a, b = ops
    assert convolve(coeff_seq(a), coeff_seq(b)).array.tolist() == reference_convolve(a, b)


def test_convolve_picks_int64_only_under_the_bound():
    n = 100  # isqrt(n) = 10 terms at most per side, 20 per coefficient
    small = np.full(n, 2**29, np.int64)
    assert _convolve(small, small).dtype == np.int64  # 2^58 * 20 < 2^63
    big = np.full(n, 2**30, np.int64)
    out = _convolve(big, big)  # 2^60 * 20 >= 2^63
    assert out.dtype == object
    # d(64) = 7 products of 2^60: beyond int64, and exact
    assert out[63] == 7 * 2**60
    assert out.tolist() == reference_convolve(big.tolist(), big.tolist())


def test_head_bound_admits_a_large_tail_behind_a_small_head():
    # n = 100, s = 10: with |x|, |y| <= 1 on the head (m <= 10) and <= t on
    # the tail, _head_bound_fits asks 10 (1 t + 1 t) = 20 t < 2^63
    n = 100
    top = (2**63 - 1) // 20
    for t, dtype in ((top, np.int64), (top + 1, object)):
        x = [1, -1, 0, 1, 1, -1, 1, 0, -1, 1] + [(-1) ** m * (t - m) for m in range(n - 10)]
        y = [1, 1, -1, 0, 1, 1, -1, -1, 0, 1] + [(-1) ** (m // 3) * t for m in range(n - 10)]
        out = _convolve(np.array(x, np.int64), np.array(y, np.int64))
        assert out.dtype == dtype, t
        assert out.tolist() == reference_convolve(x, y)
        # the old bound, 2 (s + 1) max|x| max|y| < 2^63, refused even t = top
        assert 22 * t * t >= 2**63


def _expand(pairs, n):
    """The first n coefficients of the Dirichlet polynomial sum v j^(-s)."""
    out = [0] * n
    for j, v in pairs:
        if j <= n:
            out[j - 1] += v
    return out


@st.composite
def _finite_operands(draw):
    """A dense or object operand and a dense or sparse polynomial whose
    indices reach past n, with repeated indices and zero values."""
    n = draw(st.integers(1, 300))
    span_a, span_v = draw(st.sampled_from(_SPANS)), draw(st.sampled_from(_SPANS))
    a = draw(st.lists(st.integers(-span_a, span_a), min_size=n, max_size=n))
    dense = draw(st.booleans())
    js = (st.integers(1, n) if dense else st.sampled_from([1, 2, 4, 9, 16, 97, n, n + 1, 2 * n + 5]))
    pairs = draw(st.lists(st.tuples(js, st.integers(-span_v, span_v)),
                          min_size=0, max_size=(2 * n if dense else 8)))
    return a, pairs


@settings(max_examples=80, deadline=None)
@given(_finite_operands(), st.booleans())
def test_convolve_by_pairs_matches_reference_loop(ops, as_object):
    a, pairs = ops
    seq = CoeffSeq(np.array(a, object)) if as_object else coeff_seq(a)
    out = convolve(seq, pairs)
    assert out.array.tolist() == reference_convolve(a, _expand(pairs, len(a)))


def test_support_bound_picks_int64_at_its_edge():
    # each pair adds one term to each m: max|x| * sum |v| < 2^63
    n, pairs = 64, [(1, 1), (2, -3), (3, 2), (64, -1), (65, 2**70)]  # 65 > n is dropped
    top = (2**63 - 1) // 7
    for t, dtype in ((top, np.int64), (top + 1, object)):
        x = [t if m % 3 else -t for m in range(n)]
        out = convolve(coeff_seq(x), pairs)
        assert out.array.dtype == dtype, t
        assert out.array.tolist() == reference_convolve(x, _expand(pairs, n))
    with pytest.raises(ValueError, match="j must be >= 1"):
        convolve(ones(4), [(0, 1)])
    assert convolve(coeff_seq([]), [(1, 1)]) == coeff_seq([])


def test_convolve_zero_operand_beside_huge_one():
    n = 50
    huge = [(-1) ** m * 2**80 for m in range(n)]
    zero = [0] * n
    assert convolve(coeff_seq(zero), coeff_seq(huge)).array.tolist() == [0] * n
    assert convolve(coeff_seq(huge), coeff_seq(zero)).array.tolist() == [0] * n
    assert convolve(coeff_seq(huge), epsilon(n)).array.tolist() == list(huge)


def test_shift_and_dilate_on_arrays_stay_exact():
    # _terms_fit admits max|a| n < 2^63: the largest such |a| stays int64 and
    # exact, one more goes to exact ints (n = 2^10 puts 2^63 itself at the edge)
    n = 1024
    top = (2**63 - 1) // n
    assert (top + 1) * n == 2**63
    assert dirichlet._terms_fit(top, n) and not dirichlet._terms_fit(top + 1, n)
    for t, dtype in ((top, np.int64), (top + 1, object)):
        vals = [t if m % 2 else -t for m in range(n)]
        out = shift(coeff_seq(vals))
        assert out.array.dtype == dtype, t
        assert out.array.tolist() == [m * v for m, v in enumerate(vals, 1)]
    x = coeff_seq([2**62, -(2**62), 3])
    assert x.array.dtype == np.int64
    assert shift(x).array.dtype == object  # 2^62 * 3 leaves int64
    assert shift(x).array.tolist() == [2**62, -(2**63), 9]
    assert shift(coeff_seq([2**70])).array.tolist() == [2**70]
    assert dilate(coeff_seq(range(1, 11)), 2).array.tolist() == [1, 0, 0, 2, 0, 0, 0, 0, 3, 0]


# N < 25 puts 3 (and below 9, also 5 and 7) above sqrt(N), so the array path
# of _ppower carries primes that the larger N give to the scalar path
@settings(max_examples=25, deadline=None)
@given(st.one_of(st.integers(1, 24), st.integers(25, 3000)))
def test_closed_sequence_matches_reference_loop(n):
    for target in Target:
        expected = reference_from_multiplicative(lambda p, e: _ppower(target, p, e), n)
        assert closed_sequence(target, n).array.tolist() == expected, target


@st.composite
def _large_ppowers(draw):
    """A ppower with values of about 2^k, zeros and signs included, that takes an
    int64 array of primes at e = 1: products of a few such values leave int64
    for k = 31 and 40."""
    k = draw(st.sampled_from((20, 31, 40)))
    c, d = draw(st.integers(1, 97)), draw(st.integers(0, 97))
    return lambda p, e: 1 if e == 0 else ((c * p + d * e) % 7 - 3) << k


@settings(max_examples=40, deadline=None)
@given(_large_ppowers(), st.integers(1, 2000))
def test_from_multiplicative_matches_reference_beyond_int64(ppower, n):
    assert from_multiplicative(ppower, n).array.tolist() == reference_from_multiplicative(ppower, n)


def test_from_multiplicative_leaves_int64_exactly():
    a = from_multiplicative(lambda p, e: 1 << 40 if e else 1, 30)
    assert a[6] == 2**80 and a[30] == 2**120 and a[8] == 2**40


def test_from_multiplicative_runs_int64_up_to_its_bit_edge():
    # a(6) = a(2) a(3) has bit lengths 32 + 31 = 63: int64; 32 + 32 = 64 is
    # refused, though 2^62 would still fit.  a(p) = 0 at p >= 5 and a(p^e) = 1
    # at e >= 2.  At n = 6 the prime 3 lies above sqrt(n) and comes as an
    # array; at n = 40 it is a small prime
    assert dirichlet._bits_fit(63) and not dirichlet._bits_fit(64)
    for a3, dtype in ((2**30, np.int64), (2**31, object)):
        def ppower(p, e, a3=a3):
            if isinstance(p, np.ndarray):
                return np.where(p == 3, a3, 0)
            return {2: 2**31, 3: a3}.get(p, 0) if e == 1 else 1
        for n in (6, 40):
            a = from_multiplicative(ppower, n)
            assert a.array.dtype == dtype and a[6] == 2**31 * a3, (a3, n)
            assert a.array.tolist() == reference_from_multiplicative(ppower, n)


@st.composite
def _multiplicative_seqs(draw):
    n = draw(st.integers(1, 400))
    rng = draw(st.randoms(use_true_random=False))
    table = {}

    def ppower(p, e):
        return table.setdefault((p, e), rng.randint(-6, 6))

    return coeff_seq(reference_from_multiplicative(ppower, n))


@settings(max_examples=60, deadline=None)
@given(_multiplicative_seqs(), st.data())
def test_is_multiplicative_matches_pairwise_reference(a, data):
    assert reference_is_multiplicative(a)
    assert is_multiplicative(a)
    m = data.draw(st.integers(1, len(a)))
    delta = data.draw(st.integers(-3, 3).filter(bool))
    vals = a.array.tolist()
    vals[m - 1] += delta
    b = coeff_seq(vals)
    assert is_multiplicative(b) == reference_is_multiplicative(b)


# -- partial sums on the grid {n // i}

def test_floor_grid_holds_every_quotient_once_in_place():
    for n in list(range(1, 200)) + [10**6, 10**6 + 1, 999_999]:
        v, r = floor_grid(n).tolist(), math.isqrt(n)
        assert sorted(set(v)) == sorted({n // i for i in range(1, min(n, 2 * r + 2) + 1)} | set(range(1, r + 1)))
        assert v == sorted(v) and len(v) == 2 * r  # n // r = r is its only repeat
        assert v[:r] == list(range(1, r + 1)) and v[r:] == [n // i for i in range(r, 0, -1)]
        if n < 200:  # each v // k is a grid value, and searchsorted finds it
            w = [x // k for x in v for k in range(1, x + 1)]
            assert np.array_equal(floor_grid(n)[floor_grid(n).searchsorted(w)], w)
    assert floor_grid(0).tolist() == []


# one period of: the principal character, (5/m), (8/m), (-4/m) and (12/m)
_CHARACTERS = [(1,), (0, 1, -1, -1, 1), (0, 1, 0, -1, 0, -1, 0, 1), (0, 1, 0, -1),
               (0, 1, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1)]


def reference_prime_sums(n, chi):
    """Row k at each grid value v: the sum of chi(p) p^k over the primes p <= v, one prime at a time."""
    primes = primes_up_to(n).tolist()
    return [[sum(chi[p % len(chi)] * p**k for p in primes if p <= v) for v in floor_grid(n).tolist()]
            for k in (0, 1)]


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.integers(0, 130), st.integers(131, 3000)), st.sampled_from(_CHARACTERS))
def test_prime_sums_match_reference_on_both_paths(n, chi):
    table = prime_sums(n, chi)
    assert table.dtype == np.int64 and not table.flags.writeable
    assert table.tolist() == reference_prime_sums(n, chi)
    with pytest.MonkeyPatch.context() as patch:  # the exact path, past the cache
        patch.setattr(dirichlet, "_prime_sums_fit", lambda n: False)
        wide = prime_sums.__wrapped__(n, chi)
    assert wide.dtype == object and wide.tolist() == table.tolist()


def test_prime_sums_int64_edge():
    # every Lucy value is at most 2 n^2 in absolute value
    top = math.isqrt((2**63 - 1) // 2)
    assert dirichlet._prime_sums_fit(top) and 2 * top * top < 2**63
    assert not dirichlet._prime_sums_fit(top + 1)


def reference_prime_sum(ppower, n):
    """The sum of ppower(p, 1) over the primes p <= v at each grid value v of n."""
    primes = primes_up_to(n).tolist()
    return np.array([sum(ppower(p, 1) for p in primes if p <= v) for v in floor_grid(n).tolist()],
                    dtype=object)


@settings(max_examples=40, deadline=None)
@given(_large_ppowers(), st.integers(0, 3000))
def test_multiplicative_sum_matches_reference_beyond_int64(ppower, n):
    expected = partial_sum(coeff_seq(reference_from_multiplicative(ppower, n)), n) if n else 0
    assert multiplicative_sum(ppower, n, reference_prime_sum(ppower, n)) == expected


def _edge_ppower(x):
    """a(2) = 0, a(4) = x, a(2^e) = 0 for e >= 3, and 1 at each odd prime power."""
    def ppower(p, e):
        return 1 if isinstance(p, np.ndarray) or p > 2 or e == 0 else x * (e == 2)
    return ppower


def test_prime_power_pass_runs_int64_up_to_its_edge(monkeypatch):
    # n = 100.  Before the step for 2, T(v) counts the odd 3 <= m <= v, so
    # T(100) = 49, T(50) = 24 and T(25) = 12; the step adds x at every
    # v >= 4 and x T(v / 4) at every v >= 8.  Its bound, 49 + x + 12 x, is
    # the final T(100) itself, so the largest x it admits leaves T(100) in
    # int64, and one more would wrap it
    n, top = 100, (2**63 - 1 - 49) // 13
    assert 49 + 13 * top < 2**63 <= 49 + 13 * (top + 1)
    prime_sum = prime_sums(n)[0] - (floor_grid(n) >= 2)  # a(2) = 0
    real, verdicts = dirichlet._pass_step_fits, []
    monkeypatch.setattr(dirichlet, "_pass_step_fits",
                        lambda *args: verdicts.append(real(*args)) or verdicts[-1])
    for x, int64 in ((top, True), (top + 1, False), (2**60, False)):
        verdicts.clear()
        ppower = _edge_ppower(x)
        expected = partial_sum(from_multiplicative(ppower, n), n)
        assert multiplicative_sum(ppower, n, prime_sum) == expected == 50 + 13 * x
        assert verdicts == [True] * 3 + [int64], x  # the steps for 7, 5, 3, then 2
