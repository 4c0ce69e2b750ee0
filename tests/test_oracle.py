import itertools
import random
from collections import Counter

import pytest

from similitude.counting import Target, ssm_count
from similitude.lattice import LatticeKey, lattice_key
from similitude.oracle import (D4STAR, Z4, _frames, ambient, count_ssl_bruteforce,
                               enumerate_ssm_icosian, enumerate_sublattices,
                               icosian_generator_counts, is_similar_sublattice)


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
    assert len(enumerate_sublattices(Z4, 1)) == 1
    assert len(enumerate_sublattices(Z4, 2)) == 15
    assert len(enumerate_sublattices(Z4, 9)) == subgroup_count_formula(9) == 1210
    for index in (3, 4, 6, 8, 12):
        assert len(enumerate_sublattices(Z4, index)) == subgroup_count_formula(index)
    keys = enumerate_sublattices(Z4, 4)
    assert len(set(keys)) == len(keys)  # duplicate-free


def test_enumerate_sublattices_bound():
    with pytest.raises(ValueError, match="bound"):
        enumerate_sublattices(Z4, 50)


def test_is_similar_examples():
    double = lattice_key([(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)], 4)
    assert is_similar_sublattice(double, Z4)
    rotated = lattice_key([(1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1)], 4)
    assert is_similar_sublattice(rotated, Z4)
    stretched = lattice_key([(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2)], 4)
    assert not is_similar_sublattice(stretched, Z4)


def test_non_square_index_never_similar():
    # indices 2, 3, 5, 6, 7, 8 are not perfect squares: no sublattice passes
    for index in (2, 3, 5, 6, 7, 8):
        assert all(not is_similar_sublattice(k, Z4) for k in enumerate_sublattices(Z4, index))


def test_counts_match_formulas_small():
    for m in (1, 2, 3, 7):
        assert count_ssl_bruteforce(Z4, m) == ssm_count(Target.F_Z4, m)
        assert count_ssl_bruteforce(D4STAR, m) == ssm_count(Target.F_J, m)


def test_frame_count_at_one_is_the_automorphism_group_order():
    # |W(B4)| = 2^4 * 4! and |W(F4)| = 1152 (Conway & Sloane, SPLAG, ch. 4)
    for lattice, aut in ((Z4, 384), (D4STAR, 1152)):
        frames, keys = _frames(lattice, 1)
        assert frames == aut and [k.index for k in keys] == [1]


def test_count_bound_and_ambient_lookup():
    with pytest.raises(ValueError, match="bound"):
        count_ssl_bruteforce(Z4, 8)
    assert ambient("z4") is Z4
    assert ambient("d4star") is D4STAR
    with pytest.raises(ValueError, match="unknown lattice"):
        ambient("e8")


def test_point_group_invariance():
    # signed coordinate permutations preserve the Z^4 verdict
    rng = random.Random(30)
    perms = list(itertools.permutations(range(4)))
    keys = enumerate_sublattices(Z4, 4) + enumerate_sublattices(Z4, 9)
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


def test_unit_orbit_divides_generator_counts():
    # each one-sided ideal collects its generators in whole unit orbits
    counts = icosian_generator_counts(4)
    assert counts, "no ideals found"
    for n, per_ideal in counts.items():
        for c in per_ideal:
            assert c % 120 == 0, (n, c)


def test_bad_key_rejected():
    with pytest.raises(ValueError, match="Hermite"):
        is_similar_sublattice(LatticeKey(4, ((1, 1, 0, 0),) * 4, 1), Z4)
    unreduced = ((1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))  # spans Z^4, 1 not reduced mod 1
    with pytest.raises(ValueError, match="Hermite"):
        is_similar_sublattice(LatticeKey(4, unreduced, 1), Z4)
