import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from similitude import arith, counting
from similitude.counting import (CrossCheckFailure, Target, _dilated_inverse,
                                 _index2, _index2_inverse, closed_sequence,
                                 coeff, engine_sequence, g, series, ssm_count, summatory)
from similitude.dirichlet import (CoeffSeq, coeff_seq, convolve,
                                  dilate, dirichlet_inverse, is_multiplicative,
                                  partial_sum, shift)
from similitude.quadfield import Ring, is_representable_index


def paper_g(n: int, r: int) -> int:
    """The paper's closed formula (r+1) n^r + 2 (1 - (r+1) n^r + r n^(r+1)) / (n-1)^2."""
    num = 2 * (1 - (r + 1) * n**r + r * n ** (r + 1))
    assert num % (n - 1) ** 2 == 0
    return (r + 1) * n**r + num // (n - 1) ** 2


def test_g_examples():
    assert g(3, 2) == 41
    assert g(5, 1) == 12
    for n in (2, 3, 5, 7, 11):
        assert g(n, 0) == 1
    ns = range(2, 51)
    for r in range(9):  # (3r+1) 50^r < 2^63
        expected = [paper_g(n, r) for n in ns]
        assert [g(n, r) for n in ns] == expected, r
        assert g(np.array(ns, np.int64), r).tolist() == expected, r
    with pytest.raises(ValueError):
        g(1, 2)
    with pytest.raises(ValueError):
        g(3, -1)


def test_g_scalar_and_array_branches_agree():
    ns = [2, 3, 5, 7, 11, 13, 97, 1009]
    for r in range(5):  # (3r+1) 1009^r stays within int64
        out = g(np.array(ns, np.int64), r)
        assert out.tolist() == [g(n, r) for n in ns], r
        assert all(type(g(n, r)) is int for n in ns)
    for bad_n, r in ((1, 2), (0, 1), (3, -1)):
        with pytest.raises(ValueError, match="needs n >= 2"):
            g(bad_n, r)
        with pytest.raises(ValueError, match="needs n >= 2"):
            g(np.array([5, bad_n, 7], np.int64), r)


def test_dedekind_coeff_examples():
    assert coeff(Target.DEDEKIND_TAU, 11) == 2
    assert coeff(Target.DEDEKIND_TAU, 3) == 0
    assert coeff(Target.DEDEKIND_SQRT2, 17) == 2
    assert coeff(Target.RIEMANN, 12) == 1
    # first listed terms of the golden series: 1/4^s, 1/5^s, 1/9^s, 2/11^s, ...
    golden = {4: 1, 5: 1, 9: 1, 11: 2, 16: 1, 19: 2, 20: 1, 25: 1, 29: 2, 31: 2, 36: 1, 41: 2}
    for m, v in golden.items():
        assert coeff(Target.DEDEKIND_TAU, m) == v
    sqrt2 = {2: 1, 4: 1, 7: 2, 8: 1, 9: 1, 14: 2, 16: 1, 17: 2, 18: 1, 23: 2, 25: 1, 28: 2}
    for m, v in sqrt2.items():
        assert coeff(Target.DEDEKIND_SQRT2, m) == v


def test_order_zeta_examples():
    assert coeff(Target.ZETA_J, 9) == 13
    assert coeff(Target.ZETA_I, 4) == 5
    assert coeff(Target.ZETA_K, 2) == 3
    assert [coeff(Target.ZETA_J, m) for m in range(1, 13)] == [
        1, 1, 4, 1, 6, 4, 8, 1, 13, 6, 12, 4]


def test_sum_of_odd_divisors_identity():
    for m in range(1, 2001):
        odd_div_sum = sum(d for d in range(1, m + 1, 2) if m % d == 0)
        assert coeff(Target.ZETA_J, m) == odd_div_sum


def test_per_m_coefficients_match_the_sieve():
    n = 2000
    for target in Target:
        per_m = [coeff(target, m) for m in range(1, n + 1)]
        assert per_m == closed_sequence(target, n).array.tolist(), target
    with pytest.raises(ValueError):
        coeff(Target.RIEMANN, 0)


def test_ssm_count_examples():
    assert ssm_count(Target.F_Z4, 2) == 3
    assert ssm_count(Target.F_I, 4) == 10
    assert ssm_count(Target.F_K, 8) == 66
    assert ssm_count(Target.F_J, 3) == 8
    for target in Target:  # exactly the f_ targets count similarity sublattices or submodules
        if target.value.startswith("f_"):
            assert ssm_count(target, 1) == 1
        else:
            with pytest.raises(ValueError, match="similarity-counting"):
                ssm_count(target, 2)


def test_ssm_vanishes_iff_not_representable():
    for m in range(1, 400):
        assert (ssm_count(Target.F_I, m) == 0) == (not is_representable_index(m, Ring.GOLDEN))
        assert (ssm_count(Target.F_K, m) == 0) == (not is_representable_index(m, Ring.SQRT2))
        assert ssm_count(Target.F_J, m) > 0
        assert ssm_count(Target.F_Z4, m) > 0


def test_z4_is_three_times_hurwitz_at_even_index():
    for m in range(1, 500):
        fj = ssm_count(Target.F_J, m)
        fz = ssm_count(Target.F_Z4, m)
        assert fz == (3 * fj if m % 2 == 0 else fj)


def test_hurwitz_power_of_two_unique():
    for r in range(21):
        assert ssm_count(Target.F_J, 2**r) == 1


def test_split_prime_convolution_square():
    for p in range(2, 100):
        if all(p % q for q in range(2, p)) and p % 5 in (1, 4):
            assert ssm_count(Target.F_I, p) == 2 * g(p, 0) * g(p, 1)


def test_series_examples():
    assert series(Target.F_J, 12).array.tolist() == [1, 1, 8, 1, 12, 8, 16, 1, 41, 12, 24, 8]
    zi = series(Target.ZETA_I, 5)
    assert (zi[1], zi[4], zi[5]) == (1, 5, 6)
    assert series(Target.RIEMANN, 3).array.tolist() == [1, 1, 1]
    fi = series(Target.F_I, 5)
    assert (fi[1], fi[4], fi[5]) == (1, 10, 12)
    with pytest.raises(ValueError):
        series(Target.F_J, 0)


def test_index_kinds():
    assert Target.RIEMANN.index_kind == "plain"
    assert Target.DEDEKIND_TAU.index_kind == "plain"
    assert Target.ZETA_J.index_kind == "square"
    assert Target.F_K.index_kind == "square"
    plain = {Target.RIEMANN, Target.DEDEKIND_TAU, Target.DEDEKIND_SQRT2}
    assert {t for t in Target if t.index_kind == "plain"} == plain


def test_engine_matches_closed_forms():
    n = 3000
    for target in Target:
        assert engine_sequence(target, n) == closed_sequence(target, n), target
    with pytest.raises(ValueError, match="unknown target 'f_x'"):
        engine_sequence("f_x", n)


def test_engine_composition_spot_values():
    # golden-field coefficients dilated to 2s, convolved with the 2s-1 shift,
    # give the icosian ideal counts in true-index space: value 5 at 16
    n = 16
    base = closed_sequence(Target.DEDEKIND_TAU, n)
    composed = convolve(dilate(base, 2), dilate(shift(base), 2))
    assert composed[16] == 5
    # the rational analogue at true index 9: (1 - 2^(1-2s)) zeta(2s) zeta(2s-1)
    from similitude.dirichlet import coeff_seq, ones
    n = 9
    corr = coeff_seq([1, 0, 0, -2] + [0] * (n - 4))  # -2 at true index 4 = 2^2
    composed = convolve(corr, convolve(dilate(ones(n), 2), dilate(shift(ones(n)), 2)))
    assert composed[9] == 4


def test_multiplicativity_of_all_closed_forms():
    n = 3000
    for target in Target:
        assert is_multiplicative(closed_sequence(target, n)), target


def test_cross_check_failure_reports_index(monkeypatch):
    real = counting.engine_sequence

    def broken(target, n):  # wrong at m = 9 and, first, at m = 5
        x = real(target, n).array.copy()
        x[8] -= 1
        x[4] += 1
        return CoeffSeq(x)

    monkeypatch.setattr(counting, "engine_sequence", broken)
    with pytest.raises(CrossCheckFailure) as info:
        series(Target.F_J, 12)
    assert info.value.index == 5
    assert info.value.n == 12
    assert info.value.target is Target.F_J
    assert str(info.value) == "f_j, N = 12: closed form 12 != engine 13 at m = 5"


# -- the runtime cross-check's sensitivity: a single fault in either route's
# data must make series raise at the N that verify uses (mutation testing,
# DeMillo, Lipton and Sayward, Computer 11, 1978)

MUTATION_N = 10**4

# single faults that change no coefficient, each with the reason
EQUIVALENT_MUTANTS = {
    (Target.RIEMANN, (Ring.RATIONAL, counting._one, 1)):
        "the rule 1 already gives 1 at 2^e over Z",
    (Target.DEDEKIND_SQRT2, (Ring.SQRT2, counting._one, 1)):
        "2 ramifies in Z[sqrt2], where the rule 1 already gives 1 at 2^e",
}


def cross_check_outcome(target):
    """'caught' when series raises CrossCheckFailure, 'unseen' when it
    returns, else the name of the exception it raises."""
    try:
        series(target, MUTATION_N)
    except CrossCheckFailure:
        return "caught"
    except Exception as exc:  # a fault that crashes a route is not caught by the check
        return type(exc).__name__
    return "unseen"


def test_cross_check_catches_every_single_fault_of_the_euler_table(monkeypatch):
    # each row (base ring, rule h, value at 2^e): another ring, another
    # rule, or another value at 2^e out of None and 0-3
    mutants = []
    for target, (ring, h, at2) in counting._EULER.items():
        mutants += [(target, (r, h, at2)) for r in Ring if r is not ring]
        mutants += [(target, (ring, rule, at2)) for rule in (counting._one, counting._sigma, g)
                    if rule is not h]
        mutants += [(target, (ring, h, v)) for v in (None, 0, 1, 2, 3) if v != at2]
    assert len(mutants) == 80
    outcomes = {}
    for target, row in mutants:
        with monkeypatch.context() as patch:
            patch.setitem(counting._EULER, target, row)
            outcomes[target, row] = cross_check_outcome(target)
    assert {k: v for k, v in outcomes.items() if k in EQUIVALENT_MUTANTS} == dict.fromkeys(
        EQUIVALENT_MUTANTS, "unseen")
    missed = {k: v for k, v in outcomes.items() if k not in EQUIVALENT_MUTANTS and v != "caught"}
    assert missed == {}


RING_TARGETS = {Ring.GOLDEN: (Target.DEDEKIND_TAU, Target.ZETA_I, Target.F_I),
                Ring.SQRT2: (Target.DEDEKIND_SQRT2, Target.ZETA_K, Target.F_K)}


def test_cross_check_catches_swapped_characters(monkeypatch):
    swaps = ((Ring.GOLDEN, Ring.SQRT2.chi), (Ring.SQRT2, Ring.GOLDEN.chi))
    missed = {}
    for ring, wrong in swaps:
        with monkeypatch.context() as patch:
            patch.setattr(ring, "chi", wrong)
            for target in RING_TARGETS[ring]:
                if (outcome := cross_check_outcome(target)) != "caught":
                    missed[ring, target] = outcome
    assert missed == {}


def test_cross_check_catches_character_table_faults(monkeypatch):
    # a fault in a ring row's period chi reaches only the closed form (the
    # engine reads the Kronecker symbol of its own discriminant): each
    # single change of an entry, and Z[sqrt2]'s read as (-4/n), must be
    # caught on the field zeta, the order zeta and the f_* of its ring.  The
    # row's period is the character's one reference, so it alone is patched
    mutants = [(Ring.SQRT2, (0, 1, 0, -1, 0, 1, 0, -1))]
    for ring in RING_TARGETS:
        table = ring.chi
        mutants += [(ring, table[:i] + (v,) + table[i + 1:])
                    for i in range(len(table)) for v in (-1, 0, 1) if v != table[i]]
    assert len(mutants) == 1 + 10 + 16
    outcomes = {}
    for ring, table in mutants:
        with monkeypatch.context() as patch:
            patch.setattr(ring, "chi", table)
            for target in RING_TARGETS[ring]:
                outcomes[table, target] = cross_check_outcome(target)
    # no prime is 0, 4 or 6 mod 8: a change of chi8 there reaches no coefficient
    chi8 = Ring.SQRT2.chi
    equivalent = {(table, target) for table, target in outcomes
                  if len(table) == 8 and all(table[r] == chi8[r] for r in (1, 2, 3, 5, 7))}
    assert len(equivalent) == 6 * 3
    assert {k: v for k, v in outcomes.items() if v != "caught"} == dict.fromkeys(equivalent, "unseen")


def test_cross_check_catches_kronecker_faults(monkeypatch):
    # a fault in kronecker reaches only the engine.  Each single change of
    # one value of a period, (d/m) for d = 5, 8 and m <= d, must be caught
    # on the three targets of its ring; so must kronecker's (d/2) table
    # _TWO negated, on both rings.  For d = 8 that negation strips three 2s
    # from every odd m, which negates the whole character, and zeta_K(s) =
    # zeta_sqrt2(2s) zeta_sqrt2(2s-1) would square it away: zeta_k sees it
    # only because the engine refuses a period with (d/1) != 1.
    kronecker = arith.kronecker
    mutants = {}  # name -> (module, name in it, its faulty stand-in, the targets that read it)
    for ring, d in ((Ring.GOLDEN, 5), (Ring.SQRT2, 8)):
        for m in range(1, d + 1):
            for v in {-1, 0, 1} - {kronecker(d, m)}:
                fault = lambda e, k, d=d, m=m, v=v: v if (e, k) == (d, m) else kronecker(e, k)
                mutants[f"({d}/{m}) = {v}"] = (counting, "kronecker", fault, RING_TARGETS[ring])
    assert len(mutants) == 2 * 5 + 2 * 8
    mutants["(d/2) flipped"] = (arith, "_TWO", tuple(-v for v in arith._TWO),
                                RING_TARGETS[Ring.GOLDEN] + RING_TARGETS[Ring.SQRT2])
    outcomes = {}
    for name, (module, attr, fault, targets) in mutants.items():
        with monkeypatch.context() as patch:
            patch.setattr(module, attr, fault)
            for target in targets:
                outcomes[name, target] = cross_check_outcome(target)
    assert {k: v for k, v in outcomes.items() if v != "caught"} == {}


def test_cross_check_catches_engine_constant_faults(monkeypatch):
    index2, index2_inverse = counting._index2, counting._index2_inverse
    hurwitz = (Target.ZETA_J, Target.F_J, Target.F_Z4)
    similarity = (Target.F_J, Target.F_Z4, Target.F_I, Target.F_K)
    mutants = {  # name -> (function, its faulty stand-in, the targets that read it)
        "_index2 c + 1": ("_index2", lambda c: index2(c + 1), hurwitz),
        "_index2 c - 1": ("_index2", lambda c: index2(c - 1), hurwitz),
        "_index2_inverse c + 1": ("_index2_inverse", lambda n, c: index2_inverse(n, c + 1),
                                  hurwitz[1:]),
        "_index2_inverse c - 1": ("_index2_inverse", lambda n, c: index2_inverse(n, c - 1),
                                  hurwitz[1:]),
        "_index2_inverse dropped": ("_index2_inverse", lambda n, c: [(1, 1)], hurwitz[1:]),
        "_dilated_inverse dropped": ("_dilated_inverse", lambda head: [(1, 1)], similarity),
    }
    missed = {}
    for name, (attr, faulty, targets) in mutants.items():
        with monkeypatch.context() as patch:
            patch.setattr(counting, attr, faulty)
            for target in targets:
                if (outcome := cross_check_outcome(target)) != "caught":
                    missed[name, target] = outcome
    assert missed == {}


def expand(pairs, n):
    """The first n coefficients of the Dirichlet polynomial sum v j^(-s)."""
    out = [0] * n
    for j, v in pairs:
        if j <= n:
            out[j - 1] += v
    return out


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 3000), st.integers(-3, 3))
def test_index2_inverse_is_the_full_inverse(n, c):
    full = dirichlet_inverse(coeff_seq(expand(_index2(c), n)))
    assert expand(_index2_inverse(n, c), n) == full.array.tolist()


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 3000), st.sampled_from((1, -1)),
       st.lists(st.integers(-50, 50), min_size=60, max_size=60))
def test_dilated_inverse_is_the_full_inverse(n, lead, tail):
    x = coeff_seq(([lead] + tail + [0] * n)[:n])
    full = dirichlet_inverse(dilate(x, 2))
    pairs = _dilated_inverse(CoeffSeq(x.array[: math.isqrt(n)]))
    assert all(v for _, v in pairs)  # only the nonzero b(r) are kept
    assert expand(pairs, n) == full.array.tolist()


def test_engine_holds_at_most_three_n_arrays(traced_peak):
    # engine_sequence's docstring: every step holds at most three live
    # n-arrays (two operands and a result) beside one block of at most 2^14
    # int64 entries (128 KiB) and a few arrays of isqrt(n) terms; series runs
    # it before the closed form, which adds one n-array to the engine's
    # result.  So series peaks below 3 * 8n bytes + 1 MiB.  The closed form
    # (from_multiplicative's docstring) holds its int64 values (8n bytes),
    # the int16 bit lengths (2n bytes) only before them, one block, and at
    # most four int64 arrays of the pi(n) ~ 0.08n primes (the primes, their
    # rule values and one product of each): about 10.5n, below 1.5 * 8n bytes.
    n = 10**6
    for target in (Target.F_J, Target.F_Z4, Target.F_I, Target.F_K):
        for build, bound in ((series, 3 * 8 * n + 2**20), (closed_sequence, 1.5 * 8 * n)):
            arith.primes_up_to.cache_clear()  # the sieve is part of the peak
            peak = traced_peak(build, target, n)[1]
            assert peak <= bound, (target, build.__name__, peak, bound)


def test_verify_holds_at_most_three_n_arrays(traced_peak):
    # verify runs series (above) and then, with the returned sequence alive,
    # is_multiplicative's rebuild (one closed-form sieve) and, for zeta_j,
    # the blocked odd-divisor sums: one n-array each
    from similitude.cli import _verify_one

    n = 10**6
    for target in (Target.RIEMANN, Target.ZETA_J, Target.F_J):
        arith.primes_up_to.cache_clear()  # the sieve is part of the peak
        checks, peak = traced_peak(_verify_one, target, n)
        assert all(ok for _, ok in checks), target
        assert peak <= 3 * 8 * n + 2**20, (target, peak / (8 * n))


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 3000))
def test_engine_matches_closed_forms_at_random_n(n):
    for target in Target:
        assert engine_sequence(target, n) == closed_sequence(target, n), (target, n)


# -- the partial sums on the grid {n // i} against the sieve

def test_summatory_equals_the_cumulative_closed_form_at_every_small_n():
    n = 500
    sums = {t: [0] + np.cumsum(closed_sequence(t, n).array).tolist() for t in Target}
    for m in range(n + 1):  # each m's prime sums are cached across the targets
        assert {t: summatory(t, m) for t in Target} == {t: sums[t][m] for t in Target}, m


# n = 1, 2, 3, a prime, and p^2 - 1, p^2, p^2 + 1, where p joins the primes
# p <= isqrt(n) that take a step; also p^3 - 1, p^3, p^3 + 1, where the step
# for p gains its row for p^2
EDGE_N = sorted({1, 2, 3, 100_003} | {p**k + d for p in (2, 3, 5, 7, 31, 317) for d in (-1, 0, 1)
                                      for k in (2, 3) if p**k < 10**6})


@pytest.mark.parametrize("n", EDGE_N)
def test_summatory_at_the_edges_of_its_prime_steps(n):
    for target in Target:
        assert summatory(target, n) == partial_sum(closed_sequence(target, n), n), target


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 2 * 10**5))
def test_summatory_matches_the_sieve_at_random_n(n):
    for target in Target:
        assert summatory(target, n) == partial_sum(closed_sequence(target, n), n), (target, n)


def test_summatory_is_zero_below_one():
    # an empty sum, as partial_sum and multiplicative_sum give, with no grid built
    for n in (-5, -1, 0):
        assert {t: summatory(t, n) for t in Target} == dict.fromkeys(Target, 0), n


def test_summatory_refuses_a_rule_not_linear_at_primes(monkeypatch):
    # summatory's prime sums can express only h(q, 1) = c0 + c1 q; a rule
    # that is not would be summed right only where the grid's small primes
    # reach, so it raises instead
    monkeypatch.setitem(counting._EULER, Target.F_J, (Ring.RATIONAL, lambda q, e: q ** (2 * e), 1))
    with pytest.raises(ValueError, match="f_j"):
        summatory(Target.F_J, 1000)


def test_summatory_at_a_million():
    n = 10**6
    for target in (Target.F_J, Target.F_I, Target.F_K):  # one per base ring
        assert summatory(target, n) == partial_sum(closed_sequence(target, n), n), target
