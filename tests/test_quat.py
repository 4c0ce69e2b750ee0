import copy
import pickle
import random

import pytest

from similitude.quadfield import QuadInt, Ring
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


def test_mul_associative_and_norm_multiplicative():
    rng = random.Random(10)
    for ring in (RAT, GOLD):
        for _ in range(300):
            x, y, z = (rand_quat(rng, ring) for _ in range(3))
            assert (x * y) * z == x * (y * z)
            # the norm q q-bar is a scalar, so (x y)(x y)-bar = x (y y-bar) x-bar
            # = (x x-bar)(y y-bar)
            nx, ny, nxy = (q * q.conjugate() for q in (x, y, x * y))
            assert not any(nx.nums[1:]) and nxy == nx * ny
            assert (x * y).conjugate() == y.conjugate() * x.conjugate()


def test_ring_mismatch():
    with pytest.raises(ValueError, match="ring mismatch"):
        ONE * Quat(GOLD, (1, 0, 0, 0))


def test_copy_and_pickle_rebuild_an_immutable_quat():
    q = Quat(GOLD, [QuadInt(GOLD, 1, 2), 3, 0, QuadInt(GOLD, -4, 1)], 6)
    for twin in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
        assert twin == q and hash(twin) == hash(q)
        with pytest.raises(AttributeError, match="immutable"):
            twin.den = 1
