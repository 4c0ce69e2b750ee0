import random

import pytest

from similitude.quadfield import QuadInt, QuadRat, Ring
from similitude.quat import Quat

RAT = Ring.RATIONAL
GOLD = Ring.GOLDEN

ONE, I, J, K = (Quat(RAT, row) for row in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))


def rand_quat(rng, ring=RAT, span=9):
    if ring is RAT:
        nums = [QuadInt(ring, rng.randint(-span, span)) for _ in range(4)]
    else:
        nums = [QuadInt(ring, rng.randint(-span, span), rng.randint(-span, span)) for _ in range(4)]
    return Quat(ring, nums, rng.randint(1, 4))


def test_defining_relations():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    minus_one = -ONE
    assert I * I == minus_one
    assert J * J == minus_one
    assert I * J * K == minus_one


def test_reduced_norm_examples():
    t = Quat(RAT, (1, 1, 1, 1), 2)
    assert t.reduced_norm() == QuadRat(QuadInt(RAT, 1))
    # ( tau, 1, -1/tau, 0 ) / 2 has norm 1 since tau^2 = tau + 1
    u = Quat(GOLD, (QuadInt(GOLD, 0, 1), QuadInt(GOLD, 1), QuadInt(GOLD, 1, -1), QuadInt(GOLD, 0)), 2)
    assert u.reduced_norm() == QuadRat(QuadInt(GOLD, 1))


def test_mul_associative_and_norm_multiplicative():
    rng = random.Random(10)
    for ring in (RAT, GOLD):
        for _ in range(300):
            x, y, z = (rand_quat(rng, ring) for _ in range(3))
            assert (x * y) * z == x * (y * z)
            assert (x * y).reduced_norm() == x.reduced_norm() * y.reduced_norm()
            assert (x * y).conjugate() == y.conjugate() * x.conjugate()


def test_ring_mismatch():
    with pytest.raises(ValueError, match="ring mismatch"):
        ONE * Quat(GOLD, (1, 0, 0, 0))
