import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

import similitude.oracle as oracle
from similitude.counting import Target, coeff, ssm_count
from similitude.lattice import LatticeKey, hnf_solve, lattice_key
from similitude.oracle import (CUBIAN, D4STAR, ICOSIAN, Z4, _frames, _lambdas, _norm_vectors,
                               count_ssl_bruteforce, enumerate_ssm_cubian,
                               enumerate_ssm_icosian, is_similar_sublattice)
from similitude.orders import key_basis, times
from similitude.quadfield import QuadInt, Ring, is_representable_index


def enumerate_sublattices(index):
    """One key per sublattice of Z^4 of the given index, by direct HNF
    enumeration: every lower-triangular HNF with diagonal product `index`,
    each entry below the diagonal reduced modulo the diagonal above it.
    This is the all-sublattice route, independent of the frame census."""
    diags = [(a, b, c, index // (a * b * c))
             for a in range(1, index + 1) if index % a == 0
             for b in range(1, index // a + 1) if index // a % b == 0
             for c in range(1, index // (a * b) + 1) if index // (a * b) % c == 0]
    keys = []
    for diag in diags:
        for below in itertools.product(*(range(diag[j]) for i in range(4) for j in range(i))):
            it = iter(below)  # entries (i, j), j < i, in row-major order
            rows = tuple(tuple(next(it) if j < i else diag[i] * (i == j) for j in range(4))
                         for i in range(4))
            keys.append(LatticeKey(rows))
    return keys


def reference_search(lattice, lam):
    """(vectors, frames, SSM keys) of one lambda class, one v_0 at a time with
    a bool shell matrix: the reference for the blocked `oracle._search`."""
    x, coords = _norm_vectors(lattice, lam)
    big_t = (lam + lam.conjugate()).a
    form = oracle._form(lattice, 8 * big_t + 1)
    u = np.array(lattice.units, dtype=np.int64)
    t = (u @ form @ times(lam, u).T).tolist()
    y = x @ form
    frames, keys = 0, set()
    shells = np.zeros((0, len(x)), dtype=bool)
    for a in range(len(x)):
        row = y @ x[a]
        b_set, c_set, d_set = (np.flatnonzero(row == t[0][k]) for k in (1, 2, 3))
        bi, ci = np.nonzero(x[b_set] @ y[c_set].T == t[1][2])
        if not len(bi) or not len(d_set):
            continue
        bd = x[b_set] @ y[d_set].T == t[1][3]
        cd = x[c_set] @ y[d_set].T == t[2][3]
        pi, di = np.nonzero(bd[bi] & cd[ci])
        fb, fc, fd = b_set[bi[pi]], c_set[ci[pi]], d_set[di]
        frames += len(fd)
        own = shells[shells[:, a]]
        todo = ~(own[:, fb] & own[:, fc] & own[:, fd]).any(axis=0)
        while todo.any():
            f = np.flatnonzero(todo)[0]
            quad = [a, fb[f], fc[f], fd[f]]
            rows = key_basis(lattice, coords[quad])
            key = lattice_key(rows.tolist(), coords.shape[1])
            shell = hnf_solve(key.hnf, coords)[1]
            assert shell[quad].all() and key not in keys
            keys.add(key)
            shells = np.vstack([shells, shell])
            todo &= ~(shell[fb] & shell[fc] & shell[fd])
    return len(x), frames, frozenset(keys)


def subgroup_count_formula(index):
    """Independent count of index-n subgroups of Z^4: sum over HNF diagonals
    (d1, d2, d3, d4) with product n of d1^3 d2^2 d3."""
    total = 0
    for d1 in range(1, index + 1):
        if index % d1:
            continue
        for d2 in range(1, index // d1 + 1):
            if (index // d1) % d2:
                continue
            for d3 in range(1, index // (d1 * d2) + 1):
                if (index // (d1 * d2)) % d3:
                    continue
                total += d1**3 * d2**2 * d3
    return total


def test_enumerate_sublattices_counts():
    assert len(enumerate_sublattices(1)) == 1
    assert len(enumerate_sublattices(2)) == 15
    assert len(enumerate_sublattices(9)) == subgroup_count_formula(9) == 1210
    for index in (3, 4, 6, 8, 12):
        assert len(enumerate_sublattices(index)) == subgroup_count_formula(index)
    keys = enumerate_sublattices(4)
    assert len(set(keys)) == len(keys)  # duplicate-free


def test_is_similar_examples():
    double = lattice_key([(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)], 4)
    assert is_similar_sublattice(double, Z4)
    rotated = lattice_key([(1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1)], 4)
    assert is_similar_sublattice(rotated, Z4)
    stretched = lattice_key([(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2)], 4)
    assert not is_similar_sublattice(stretched, Z4)


def test_is_similar_over_the_quadratic_rings():
    # keys of the icosian and cubian orders have rank 8
    for lattice, ms in ((ICOSIAN, (4, 5)), (CUBIAN, (2,))):
        for m in ms:
            keys = _frames(lattice, m)[1]
            assert keys and all(is_similar_sublattice(k, lattice) for k in keys)
    for lattice, d in ((ICOSIAN, 4), (CUBIAN, 2)):
        diag = (d, d) + (1,) * 6
        key = LatticeKey(tuple(tuple(diag[i] * (i == j) for j in range(8)) for i in range(8)))
        assert key.index == d * d
        assert key not in _frames(lattice, d)[1]
        assert not is_similar_sublattice(key, lattice)
    rank4 = lattice_key([(4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 4)
    assert rank4.index == 16
    with pytest.raises(ValueError, match="icosian keys have rank 8"):
        is_similar_sublattice(rank4, ICOSIAN)


def test_non_square_index_never_similar():
    # indices 2, 3, 5, 6, 7, 8 are not perfect squares: no sublattice passes
    for index in (2, 3, 5, 6, 7, 8):
        assert all(not is_similar_sublattice(k, Z4) for k in enumerate_sublattices(index))


def test_counts_match_formulas_small():
    # every m up to Z4.max_m; D4* to its max_m is test_hurwitz_census_is_a_route_to_zeta_j
    for m in range(1, Z4.max_m + 1):
        assert count_ssl_bruteforce(Z4, m) == ssm_count(Target.F_Z4, m), m
    for m in (1, 2, 3, 7):
        assert count_ssl_bruteforce(D4STAR, m) == ssm_count(Target.F_J, m)


def test_frame_count_at_one_is_the_automorphism_group_order():
    # |W(B4)| = 2^4 * 4! and |W(F4)| = 1152 (Conway & Sloane, SPLAG, ch. 4);
    # |W(H4)| = 14400 (ch. 8 sec. 2); 2304 for the cubian order
    for lattice, aut in ((Z4, 384), (D4STAR, 1152), (ICOSIAN, 14400), (CUBIAN, 2304)):
        frames, keys = _frames(lattice, 1)
        assert frames == aut and [k.index for k in keys] == [1]


def test_lambda_classes_count_the_ideals_of_norm_m():
    # one lambda per ideal of norm m: the Dedekind zeta coefficients
    for ring, target in ((Ring.GOLDEN, Target.DEDEKIND_TAU), (Ring.SQRT2, Target.DEDEKIND_SQRT2)):
        for m in range(1, 1001):
            lams = _lambdas(ring, m)
            assert len(lams) == coeff(target, m), (ring, m)
            assert all(lam.norm() == m and lam.sign() > 0 and lam.conjugate().sign() > 0
                       for lam in lams)


def central_ideals(target, m):
    """Two-sided ideals of index m^2 in a maximal order whose algebra ramifies
    at no finite prime: the ideals of the centre of norm sqrt(m), times O."""
    k = math.isqrt(m)
    return coeff(target, k) if k * k == m else 0


def representable(lattice):
    """Every m of the order's census: 1 <= m <= max_m with m^2 an SSM index."""
    return [m for m in range(1, lattice.max_m + 1) if is_representable_index(m, lattice.ring)]


def assert_kind_identities(kinds, m, zeta, dedekind):
    # left + two-sided = right + two-sided = the zeta coefficient; two-sided
    # = the Dedekind coefficient at sqrt(m), else 0
    assert (kinds["left-ideal"] + kinds["two-sided"] == kinds["right-ideal"] + kinds["two-sided"]
            == coeff(zeta, m)), m
    assert kinds["two-sided"] == central_ideals(dedekind, m), m


def test_cubian_census_matches_formulas():
    ms = representable(CUBIAN)
    assert ms == [1, 2, 4, 7, 8, 9, 14, 16, 17, 18, 23, 25]
    for m in ms:
        ssms = enumerate_ssm_cubian(m)
        assert len(ssms) == ssm_count(Target.F_K, m), m
        assert_kind_identities(Counter(s.kind for s in ssms), m, Target.ZETA_K, Target.DEDEKIND_SQRT2)
    with pytest.raises(ValueError, match="not attainable"):
        enumerate_ssm_cubian(3)  # 3 is inert over Z[sqrt2]
    with pytest.raises(ValueError, match="bound"):
        enumerate_ssm_cubian(26)


def test_icosian_left_ideals_match_zeta_i():
    ms = representable(ICOSIAN)
    assert ms == [1, 4, 5, 9, 11, 16, 19, 20, 25]
    for m in ms:
        ssms = enumerate_ssm_icosian(m)
        assert len(ssms) == ssm_count(Target.F_I, m), m
        assert_kind_identities(Counter(s.kind for s in ssms), m, Target.ZETA_I, Target.DEDEKIND_TAU)


def test_hurwitz_census_is_a_route_to_zeta_j():
    # the one-sided ideals among the D4* SSMs are counted by zeta_j; the
    # Hurwitz algebra ramifies at 2, so besides the central ideals k*O the
    # ideals (1+i)*k*O are two-sided too, and m = k^2 or 2k^2 has exactly one
    assert D4STAR.max_m == 30
    for m in range(1, D4STAR.max_m + 1):
        kinds = Counter(s.kind for s in oracle.enumerate_ssm(D4STAR, m))
        assert sum(kinds.values()) == ssm_count(Target.F_J, m), m
        assert (kinds["left-ideal"] + kinds["two-sided"] == kinds["right-ideal"] + kinds["two-sided"]
                == coeff(Target.ZETA_J, m)), m
        two_sided = any(m in (k * k, 2 * k * k) for k in range(1, m + 1))
        assert kinds["two-sided"] == two_sided, m


def test_census_failure_names_the_class(monkeypatch):
    # one frame too many for lambda = 2 + sqrt2 must trip the |Aut| check
    real = oracle._search

    def off_by_one(lattice, lam):
        c = real(lattice, lam)
        return c if lam.b == 0 else oracle.LambdaClass(c.lam, c.vectors, c.frames + 1, c.keys)

    monkeypatch.setattr(oracle, "_search", off_by_one)
    with pytest.raises(AssertionError, match=r"cubian m=2 lambda=2\+1r2: 13825 frames "
                                             r"!= \|Aut\| 2304 \* 6 SSMs"):
        oracle.census.__wrapped__(CUBIAN, 2)
    # both lambda classes of norm 7 searched as the first must trip the overlap check
    first, second = oracle._lambdas(Ring.SQRT2, 7)
    monkeypatch.setattr(oracle, "_search",
                        lambda lattice, lam: real(lattice, first if lam == second else lam))
    with pytest.raises(AssertionError, match="cubian m=7: an SSM appears under two lambda classes"):
        oracle.census.__wrapped__(CUBIAN, 7)


def test_norm_vector_counts_are_the_theta_series_coefficients():
    # a second route to the counts of the join: Jacobi's r_4(m) = 8 sigma(m)
    # - 32 sigma(m/4) for Z^4 and Hurwitz's 24 times the odd divisor sum for
    # D4*; over Z[w] the class number is 1, so the generators of the ideals
    # of norm m, summed over the lambda classes, are |units| = 120 (icosian)
    # or 48 (cubian) per ideal: the order zeta coefficient
    def sigma(m, step=1):
        return sum(d for d in range(1, m + 1, step) if m % d == 0)

    for m in range(1, 61):
        assert len(_norm_vectors(Z4, QuadInt(Ring.RATIONAL, m))[0]) == 8 * sigma(m) - (
            32 * sigma(m // 4) if m % 4 == 0 else 0), m
        assert len(_norm_vectors(D4STAR, QuadInt(Ring.RATIONAL, m))[0]) == 24 * sigma(m, 2), m
    for lattice, units, zeta in ((ICOSIAN, 120, Target.ZETA_I), (CUBIAN, 48, Target.ZETA_K)):
        for m in range(1, 41):
            found = sum(len(_norm_vectors(lattice, lam)[0]) for lam in _lambdas(lattice.ring, m))
            assert found == units * coeff(zeta, m), (lattice.name, m)


def test_census_bounds_at_their_edges():
    # T = 2^20 - 1 is the largest trace the int64 packings admit, and the
    # float64 dots are exact up to T = 2^24 - 1 (32T^2 + 10T < 2^53)
    assert oracle._trace_fits((1 << 20) - 1) and not oracle._trace_fits(1 << 20)
    assert oracle._dots_exact((1 << 24) - 1) and not oracle._dots_exact(1 << 24)
    assert 32 * ((1 << 24) - 1) ** 2 + 10 * ((1 << 24) - 1) < 1 << 53 <= 32 * (1 << 48) + 10 * (1 << 24)


def test_norm_vectors_peak_within_its_output(traced_peak):
    # the join dies before the candidate rows are built, and hnf_solve holds
    # one column beside q and v: the peak is x, its copy v and q (about
    # 2,160 candidate rows of 8 int64), under 3.5 times the 1,200 kept rows
    # and their key coordinates
    lam = QuadInt(Ring.GOLDEN, 3)
    _norm_vectors(ICOSIAN, lam)  # the order's cached data outside the trace
    (x, coords), peak = traced_peak(_norm_vectors, ICOSIAN, lam)
    assert len(x) == 1200 and peak <= 3.5 * (x.nbytes + coords.nbytes), peak


def test_block_frames_peak_within_the_bytes_they_report(monkeypatch, traced_peak):
    # each block reports its real peak, the larger of its Gram and frame
    # phases, so the budget bounds what a block holds
    real, calls = oracle._block_frames, []

    def spy(x, y, t, lo, hi):
        (frames, used), peak = traced_peak(real, x, y, t, lo, hi)
        calls.append((peak, used, hi - lo))
        return frames, used

    oracle._search.__wrapped__(Z4, QuadInt(Ring.RATIONAL, 1))  # NumPy's first calls outside the trace
    monkeypatch.setattr(oracle, "_block_frames", spy)
    for lattice, ms in ((Z4, range(1, 6)), (D4STAR, range(1, 6)), (ICOSIAN, (1, 9))):
        for m in ms:
            for lam in _lambdas(lattice.ring, m):
                calls.clear()
                oracle._search.__wrapped__(lattice, lam)
                assert all(peak <= 1.1 * used for peak, used, _ in calls), (lattice.name, lam, calls)


def test_norm_vectors_refuse_large_lambda_before_allocating():
    # T = lam + lam' = 2^20 is the first trace outside the int64 packings
    for lattice, lam in ((Z4, QuadInt(Ring.RATIONAL, 1 << 19)),
                         (CUBIAN, QuadInt(Ring.SQRT2, 1 << 19)),
                         (ICOSIAN, QuadInt(Ring.GOLDEN, (1 << 19) - 1, 2))):
        assert (lam + lam.conjugate()).a == 1 << 20
        with pytest.raises(OverflowError, match="too large"):
            _norm_vectors(lattice, lam)


def test_count_bound():
    with pytest.raises(ValueError, match="bound"):
        count_ssl_bruteforce(Z4, 31)
    with pytest.raises(ValueError, match="bound"):
        count_ssl_bruteforce(D4STAR, 0)
    with pytest.raises(ValueError, match="not attainable"):
        count_ssl_bruteforce(ICOSIAN, 2)  # 2 is inert over Z[tau]
    key = lattice_key([(31, 0, 0, 0), (0, 31, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 4)
    assert key.index == 31**2
    with pytest.raises(ValueError, match=r"m = 31 is outside the z4 census bound 1 <= m <= 30"):
        is_similar_sublattice(key, Z4)


def test_point_group_invariance():
    # signed coordinate permutations preserve the Z^4 verdict
    rng = random.Random(30)
    perms = list(itertools.permutations(range(4)))
    keys = enumerate_sublattices(4) + enumerate_sublattices(9)
    sample = rng.sample(keys, 100)
    for key in sample:
        verdict = is_similar_sublattice(key, Z4)
        for _ in range(3):
            perm = rng.choice(perms)
            signs = [rng.choice((1, -1)) for _ in range(4)]
            rows = [tuple(signs[j] * row[perm[j]] for j in range(4)) for row in key.hnf]
            image = lattice_key(rows, 4)
            assert is_similar_sublattice(image, Z4) == verdict


def test_icosian_enumeration_m4():
    ssms = enumerate_ssm_icosian(4)
    assert len(ssms) == 10
    kinds = Counter(s.kind for s in ssms)
    assert kinds["right-ideal"] == 5
    assert kinds["left-ideal"] == 5
    assert kinds["two-sided"] == 0
    assert len({s.key for s in ssms}) == 10


def test_icosian_enumeration_trivial_and_m5():
    only = enumerate_ssm_icosian(1)
    assert len(only) == 1
    assert only[0].key.index == 1
    assert only[0].kind == "two-sided"
    ssms = enumerate_ssm_icosian(5)
    assert len(ssms) == ssm_count(Target.F_I, 5) == 12


def test_icosian_enumeration_m16_structure():
    # 66 = 21 + 21 one-sided ideals (one of them, the scalar module 2*O,
    # counted once as two-sided) + 5*5 genuine right*left products
    ssms = enumerate_ssm_icosian(16)
    kinds = Counter(s.kind for s in ssms)
    assert len(ssms) == ssm_count(Target.F_I, 16) == 66
    assert kinds["left-ideal"] == 20
    assert kinds["right-ideal"] == 20
    assert kinds["two-sided"] == 1
    assert kinds["product"] == 25
    two_sided = next(s for s in ssms if s.kind == "two-sided")
    assert two_sided.key.hnf == tuple(
        tuple(2 if i == j else 0 for j in range(8)) for i in range(8)
    )


def test_icosian_errors():
    with pytest.raises(ValueError, match="bound"):
        enumerate_ssm_icosian(26)
    with pytest.raises(ValueError, match="not attainable"):
        enumerate_ssm_icosian(2)  # 2 is inert over Z[tau]


def test_bad_key_rejected():
    with pytest.raises(ValueError, match="Hermite"):
        is_similar_sublattice(LatticeKey(((1, 1, 0, 0),) * 4), Z4)
    unreduced = ((1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))  # spans Z^4, 1 not reduced mod 1
    with pytest.raises(ValueError, match="Hermite"):
        is_similar_sublattice(LatticeKey(unreduced), Z4)
    # the index is read off the HNF: 16 for 2 Z^4
    doubled = lattice_key([[2 * (i == j) for j in range(4)] for i in range(4)], 4)
    assert doubled.index == 16 and is_similar_sublattice(doubled, Z4)


@pytest.mark.parametrize("lattice,ms", [
    (Z4, range(1, 13)), (D4STAR, range(1, 13)),
    (ICOSIAN, (1, 4, 5, 9, 11, 16)), (CUBIAN, (1, 2, 4, 7, 8, 9, 14))],
    ids=["z4", "d4star", "icosian", "cubian"])
def test_blocked_search_equals_reference(monkeypatch, lattice, ms):
    # the float64 kernels against the int64 reference; and the shell of each
    # SSM, as the images of the units, is exactly the set of norm-lam vectors
    # that the SSM's HNF contains
    real_shell, real_frames, found, dtypes = oracle._shell, oracle._block_frames, [], set()

    def shell_spy(table, units, rows):
        hits = real_shell(table, units, rows)
        key = lattice_key(rows.tolist(), rows.shape[1])
        assert np.sort(hits).tolist() == np.flatnonzero(hnf_solve(key.hnf, coords)[1]).tolist()
        assert len(hits) == len(units)
        found.append(key)
        return hits

    def frames_spy(x, y, t, lo, hi):
        dtypes.add(x.dtype)
        return real_frames(x, y, t, lo, hi)

    monkeypatch.setattr(oracle, "_shell", shell_spy)
    monkeypatch.setattr(oracle, "_block_frames", frames_spy)
    for m in ms:
        for lam in _lambdas(lattice.ring, m):
            coords = _norm_vectors(lattice, lam)[1]
            found.clear()
            c = oracle._search.__wrapped__(lattice, lam)
            assert (c.vectors, c.frames, c.keys) == reference_search(lattice, lam), (m, lam)
            assert sorted(k.hnf for k in found) == sorted(k.hnf for k in c.keys), (m, lam)
    assert dtypes == {np.dtype(np.float64)}


def test_shell_lookup_miss_names_the_class(monkeypatch):
    # a unit whose image is no norm-lam vector (here the zero vector) must
    # stop the search, naming the lattice, lambda and the frame
    units = oracle._units(ICOSIAN).copy()
    units[5] = 0
    monkeypatch.setattr(oracle, "_units", lambda lattice: units)
    with pytest.raises(AssertionError, match=r"icosian lambda=2\+0t: the frame \[\d+, \d+, \d+, \d+\] "
                                             r"maps a unit outside the norm-lambda vectors"):
        oracle._search.__wrapped__(ICOSIAN, QuadInt(Ring.GOLDEN, 2))


@pytest.mark.parametrize("basis_only", [False, True])
def test_frame_outside_its_shell_names_the_class(monkeypatch, basis_only):
    # a shell that misses its own frame (no unit at all), or one that holds
    # only the frame's four vectors (the images of the basis units 1, i, j,
    # k), so that the next frame of the same SSM is keyed again, must stop
    # the search rather than merge shells or loop
    real = oracle._shell

    def shell(table, units, rows):
        return real(table, units[:0] if not basis_only else np.eye(4, len(rows), dtype=np.int64), rows)

    monkeypatch.setattr(oracle, "_shell", shell)
    with pytest.raises(AssertionError, match=r"cubian lambda=1\+0r2: the frame \[\d+, \d+, \d+, \d+\] "
                                             r"escaped its shell"):
        oracle._search.__wrapped__(CUBIAN, QuadInt(Ring.SQRT2, 1))


@pytest.mark.parametrize("lattice,m", [(Z4, 5), (D4STAR, 3), (ICOSIAN, 5), (CUBIAN, 7)])
def test_dot_bound_holds_on_the_vectors(lattice, m):
    # the proven bound dominates the actual sum of |products| of every dot
    for lam in _lambdas(lattice.ring, m):
        x = _norm_vectors(lattice, lam)[0]
        big_t = (lam + lam.conjugate()).a
        s = 8 * big_t + 1
        y = x @ oracle._form(lattice, s)
        bound = 2 * s * big_t if lattice.ring is Ring.RATIONAL else 4 * s * big_t + 6 * big_t
        assert (abs(x) @ abs(y).T).max() <= bound, lam


@pytest.mark.parametrize("budget", [1, 1 << 16])
def test_blocked_search_equals_reference_at_any_block_size(monkeypatch, budget):
    # 1 byte gives one v_0 per block; 2^16 bytes give blocks of several v_0
    # that do not divide the class, so the last block is short
    real, sizes = oracle._block_frames, []

    def spy(x, y, t, lo, hi):
        sizes.append(hi - lo)
        return real(x, y, t, lo, hi)

    monkeypatch.setattr(oracle, "_BLOCK_BYTES", budget)
    monkeypatch.setattr(oracle, "_block_frames", spy)
    for lattice, m in ((Z4, 5), (D4STAR, 3), (ICOSIAN, 1), (CUBIAN, 7)):
        for lam in _lambdas(lattice.ring, m):
            sizes.clear()
            c = oracle._search.__wrapped__(lattice, lam)
            assert (c.vectors, c.frames, c.keys) == reference_search(lattice, lam), (m, lam)
            assert sum(sizes) == c.vectors
            if budget == 1:
                assert set(sizes) == {1}
            else:
                assert max(sizes) > 1 and sizes[-1] < max(sizes)
