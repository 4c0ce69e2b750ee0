import math
import random

import numpy as np
import pytest

from similitude import oracle
from similitude.orders import CUBIAN, ICOSIAN, Z4
from similitude.quadfield import QuadInt, Ring, is_representable_index, splitting_sign

GOLD = Ring.GOLDEN
SQ2 = Ring.SQRT2
RAT = Ring.RATIONAL

TAU = QuadInt(GOLD, 0, 1)
SQRT2 = QuadInt(SQ2, 0, 1)


def rand_elem(rng, ring, span=1000):
    if ring is RAT:
        return QuadInt(ring, rng.randint(-span, span))
    return QuadInt(ring, rng.randint(-span, span), rng.randint(-span, span))


def test_norm_examples():
    assert TAU.norm() == -1
    assert QuadInt(SQ2, 1, 1).norm() == -1  # 1 + sqrt2
    assert QuadInt(SQ2, 2, 1).norm() == 2  # 2 + sqrt2
    assert QuadInt(RAT, -7).norm() == -7


def test_elements_stay_in_their_ring():
    with pytest.raises(ValueError, match="no omega component"):
        QuadInt(RAT, 1, 1)
    with pytest.raises(ValueError, match="ring mismatch"):
        TAU + QuadInt(SQ2, 0, 1)


def test_conjugate_examples():
    assert TAU.conjugate() == QuadInt(GOLD, 1, -1)  # 1 - tau
    assert QuadInt(RAT, 3).conjugate() == QuadInt(RAT, 3)
    assert QuadInt(SQ2, 2, -3).conjugate() == QuadInt(SQ2, 2, 3)


def test_conjugate_involution_and_homomorphism():
    rng = random.Random(1)
    for ring in (GOLD, SQ2, RAT):
        for _ in range(300):
            x, y = rand_elem(rng, ring), rand_elem(rng, ring)
            assert x.conjugate().conjugate() == x
            assert (x * y).conjugate() == x.conjugate() * y.conjugate()
            assert (x + y).conjugate() == x.conjugate() + y.conjugate()


# the real embeddings of w, written out apart from the ring table: tau and
# sqrt2 under the identity embedding, then their conjugates
EMBEDDINGS = {GOLD: ((1 + math.sqrt(5)) / 2, (1 - math.sqrt(5)) / 2),
              SQ2: (math.sqrt(2), -math.sqrt(2))}


def near_zero(rng, ring, w):
    """a + b w with |a + b w| < 2, large b: the sign test's hard cases."""
    b = rng.randint(-10**6, 10**6)
    return QuadInt(ring, -round(b * w) + rng.randint(-1, 1), b)


def test_ring_rows_match_their_real_embeddings():
    # norm multiplicativity and the conjugate homomorphism hold for any
    # (c0, c1); evaluating at the true embeddings pins each row itself.  A
    # float error is a few ulps of the size of the terms, far below 1e-9 of
    # it, and a wrong rule misses by about |b_x b_y| or b^2
    def close(value, exact, *elems):
        return abs(value - exact) <= 1e-9 * math.prod(1 + abs(e.a) + abs(e.b) for e in elems)

    rng = random.Random(3)
    for ring, roots in EMBEDDINGS.items():
        assert roots == pytest.approx([(ring.c1 + s * math.sqrt(ring.d)) / 2 for s in (1, -1)])
        for _ in range(2000):
            x, y, z = rand_elem(rng, ring), rand_elem(rng, ring), near_zero(rng, ring, roots[0])
            for u in (x, z):
                at = [u.a + u.b * w for w in roots]
                for w, u_w in zip(roots, at):
                    uy = u * y
                    assert close(uy.a + uy.b * w, u_w * (y.a + y.b * w), u, y), (u, y)
                conj = u.conjugate()
                assert close(conj.a + conj.b * roots[0], at[1], u), u
                assert close(u.norm(), at[0] * at[1], u, u), u
                if abs(at[0]) > 1e-6:
                    assert u.sign() == (1 if at[0] > 0 else -1), u


def test_packed_dot_form_matches_quadint_dots():
    # X @ _form @ Y.T = a s + b for the dot sum X_i Y_i = a + b w, X_i = p_i + q_i w
    rng = random.Random(4)
    for lattice in (Z4, ICOSIAN, CUBIAN):
        ring = lattice.ring
        for _ in range(300):
            x, y = ([rng.randint(-50, 50) for _ in range(lattice.rank)] for _ in range(2))
            dot = sum((QuadInt(ring, *x[i::4]) * QuadInt(ring, *y[i::4]) for i in range(4)),
                      QuadInt(ring, 0))
            s = rng.randint(1, 10**6)
            assert np.array(x) @ oracle._form(lattice, s) @ np.array(y) == dot.a * s + dot.b


def test_norm_multiplicative_random():
    rng = random.Random(2)
    for ring in (GOLD, SQ2, RAT):
        for _ in range(10_000):
            x, y = rand_elem(rng, ring, 10**6), rand_elem(rng, ring, 10**6)
            assert (x * y).norm() == x.norm() * y.norm()


def test_unit_iff_norm_one():
    # units of Z[tau] are exactly +-tau^k
    units = set()
    x = QuadInt(GOLD, 1)
    inv = QuadInt(GOLD, -1, 1)
    for _ in range(14):
        units.add(x)
        units.add(-x)
        x = x * TAU
    x = QuadInt(GOLD, 1)
    for _ in range(14):
        x = x * inv
        units.add(x)
        units.add(-x)
    assert all(abs(u.norm()) == 1 for u in units)
    # every small element with |norm| = 1 is in the +-tau^k list
    for a in range(-150, 151):
        for b in range(-150, 151):
            z = QuadInt(GOLD, a, b)
            if z and abs(z.norm()) == 1:
                assert z in units


def test_prime_class_examples():
    # splitting_sign: +1 split, 0 ramified (and every prime over Z), -1 inert
    assert splitting_sign(11, GOLD) == 1
    assert splitting_sign(5, GOLD) == 0
    assert splitting_sign(2, GOLD) == -1
    assert splitting_sign(7, SQ2) == 1
    assert splitting_sign(2, SQ2) == 0
    assert splitting_sign(3, SQ2) == -1
    assert splitting_sign(7, RAT) == 0


def test_prime_class_density():
    # split and inert primes each have Dirichlet density 1/2
    primes = [p for p in range(2, 1000) if all(p % q for q in range(2, p))]
    for ring, ram in ((GOLD, 5), (SQ2, 2)):
        signs = [splitting_sign(p, ring) for p in primes if p != ram]
        assert 0 not in signs
        frac = signs.count(1) / len(signs)
        assert abs(frac - 0.5) < 0.05


def test_representable_index():
    assert not is_representable_index(3, GOLD)
    assert is_representable_index(9, GOLD)
    assert is_representable_index(7, SQ2)
    assert not is_representable_index(6, SQ2)  # 3 inert, odd power
    assert is_representable_index(12, RAT)
    assert is_representable_index(1, GOLD)
    with pytest.raises(ValueError, match="m must be >= 1"):
        is_representable_index(0, GOLD)
    # matches a direct search over the norm form x^2 + xy - y^2
    rep = set()
    for x in range(-60, 61):
        for y in range(-60, 61):
            v = x * x + x * y - y * y
            if 1 <= v <= 50:
                rep.add(v)
    for m in range(1, 51):
        assert is_representable_index(m, GOLD) == (m in rep)

