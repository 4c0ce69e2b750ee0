import random

import pytest

from similitude.quadfield import QuadInt, QuadRat, Ring
from similitude.quat import Quat, apply_matrix, similarity_matrix

RAT = Ring.RATIONAL
GOLD = Ring.GOLDEN

ONE, I, J, K = Quat.basis(RAT)


def det4(mat):
    """Exact determinant of a 4x4 QuadRat matrix by cofactor expansion."""

    def det3(rows, cols, m):
        (a, b, c), (d, e, f), (g, h, i) = [[m[r][c] for c in cols] for r in rows]
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    total = None
    sign = 1
    for c in range(4):
        cols = [x for x in range(4) if x != c]
        term = mat[0][c] * det3((1, 2, 3), cols, mat)
        term = term if sign > 0 else -term
        total = term if total is None else total + term
        sign = -sign
    return total


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
        ONE * Quat.scalar(GOLD, 1)


def test_similarity_matrix_identity():
    m = similarity_matrix(ONE, ONE)
    one = QuadRat(QuadInt(RAT, 1))
    zero = QuadRat(QuadInt(RAT, 0))
    assert all(m[i][j] == (one if i == j else zero) for i in range(4) for j in range(4))


def test_similarity_matrix_det_example():
    m = similarity_matrix(Quat(RAT, (1, 1, 0, 0)), ONE)
    assert det4(m) == QuadRat(QuadInt(RAT, 4))


def test_similarity_matrix_action_oracle():
    # column action M x = q1 * x * conj(q2), against direct quaternion products
    rng = random.Random(11)
    basis = Quat.basis(RAT)
    for _ in range(200):
        q1, q2 = rand_quat(rng), rand_quat(rng)
        m = similarity_matrix(q1, q2)
        for x in basis + (rand_quat(rng),):
            assert apply_matrix(m, x) == q1 * x * q2.conjugate()
    # the example: conjugation by i sends 1 -> i * 1 * 1 = i, i -> -1 with q2 = 1
    m = similarity_matrix(I, ONE)
    assert apply_matrix(m, I) == -ONE


def test_similarity_matrix_orthogonality():
    rng = random.Random(12)
    zero = QuadRat(QuadInt(RAT, 0))
    for _ in range(1000):
        q1, q2 = rand_quat(rng, span=5), rand_quat(rng, span=5)
        m = similarity_matrix(q1, q2)
        scale = q1.reduced_norm() * q2.reduced_norm()
        for i in range(4):
            for j in range(i, 4):
                dot = sum((m[i][k] * m[j][k] for k in range(1, 4)), m[i][0] * m[j][0])
                assert dot == (scale if i == j else zero)
        assert det4(m) == scale * scale
