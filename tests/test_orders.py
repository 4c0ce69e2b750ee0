import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from similitude.lattice import hnf_rows, hnf_solve, lattice_key
from similitude.oracle import _lambdas, _norm_vectors, enumerate_ssm
from similitude.orders import (CUBIAN, D4STAR, ICOSIAN, ORDERS, Z4, _data, _product,
                               _reduced_norm, _solve_fits, element, is_member, key_basis,
                               module_lattice, solve, structure)
from similitude.quadfield import QuadInt, Ring
from similitude.quat import Quat

RAT = Ring.RATIONAL
GOLD = Ring.GOLDEN

ONE_J = Quat(RAT, (1, 0, 0, 0))
ONE_I = Quat(GOLD, (1, 0, 0, 0))


def as_quat(ring, doubled):
    """The quaternion with doubled coordinates `doubled` (over Z[w]: the
    rational parts, then the w parts), as the census lists them."""
    if ring is RAT:
        return Quat(RAT, doubled, 2)
    return Quat(ring, [QuadInt(ring, a, b) for a, b in zip(doubled[:4], doubled[4:])], 2)


def key_quats(order):
    """The key basis of the order, as quaternions."""
    return [as_quat(order.ring, z) for z in key_basis(order, np.array(order.units)).tolist()]


def norm_vectors(order, n):
    """Doubled coordinates of the elements of norm n, from the census."""
    return _norm_vectors(order, QuadInt(order.ring, n))[0]


def units(order):
    """The unit group of the order: its census vectors of norm 1."""
    return [as_quat(order.ring, v) for v in norm_vectors(order, 1).tolist()]


def icosian_unit_coords():
    """The 120 icosian units in doubled coordinates, built from their seeds:
    even coordinate permutations and all sign changes of (1, 0, 0, 0),
    (1, 1, 1, 1)/2 and (tau, 1, -1/tau, 0)/2, with -1/tau = 1 - tau."""
    seeds = (((2, 0), (0, 0), (0, 0), (0, 0)),
             ((1, 0), (1, 0), (1, 0), (1, 0)),
             ((0, 1), (1, 0), (1, -1), (0, 0)))
    even = [p for p in itertools.permutations(range(4))
            if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0]
    out = set()
    for seed, perm, signs in itertools.product(seeds, even, itertools.product((1, -1), repeat=4)):
        coords = [(s * seed[k][0], s * seed[k][1]) for s, k in zip(signs, perm)]
        out.add(tuple(a for a, _ in coords) + tuple(b for _, b in coords))
    return out


def hurwitz_by_norm(n):
    """Doubled coordinates of all Hurwitz quaternions of reduced norm n."""
    out = []
    r = 0
    while r * r <= 4 * n:
        r += 1
    for u in itertools.product(range(-r, r + 1), repeat=4):
        if (u[0] & 1) == (u[1] & 1) == (u[2] & 1) == (u[3] & 1):
            if sum(x * x for x in u) == 4 * n:
                out.append(u)
    return out


def test_unit_group_sizes_and_closure():
    # the units are the norm-1 vectors: 8 Lipschitz units in Z^4, and
    # 24, 120 and 48 in the Hurwitz, icosian and cubian orders
    for lattice, size in ((Z4, 8), (D4STAR, 24), (ICOSIAN, 120), (CUBIAN, 48)):
        assert len(norm_vectors(lattice, 1)) == size
    for order in ORDERS.values():
        group = units(order)
        quats = set(group)
        assert len(quats) == len(group)
        for v in norm_vectors(order, 1).tolist():
            assert _reduced_norm(order.ring, v) == QuadInt(order.ring, 1)
        for u in group:
            assert u.conjugate() in quats  # inverse of a norm-1 unit
        for x, y in itertools.product(group, repeat=2):
            product = x * y
            assert product in quats and is_member(order, product)


def test_icosian_basis_spans_the_unit_span():
    # the units built from their seeds are exactly the census's norm-1
    # vectors, the frozen basis is four of them, and its Z[tau]-span is
    # exactly their Z-span
    units_120 = icosian_unit_coords()
    assert len(units_120) == 120
    assert units_120 == {tuple(v) for v in norm_vectors(ICOSIAN, 1).tolist()}
    assert set(ICOSIAN.units) <= units_120
    basis = np.array(ICOSIAN.units)
    assert hnf_rows(sorted(units_120), 8) == hnf_rows(key_basis(ICOSIAN, basis).tolist(), 8)


def test_membership_and_coords():
    e = element(D4STAR, Quat(RAT, (1, 1, 1, 1), 2))
    assert [c.a for c in e.basis_coords] == [0, 0, 0, 1]
    assert not is_member(D4STAR, Quat(RAT, (1, 1, 0, 0), 2))
    with pytest.raises(ValueError, match="not in the"):
        element(D4STAR, Quat(RAT, (1, 0, 0, 0), 3))
    # order closure under multiplication, all four orders
    rng = random.Random(5)
    for order in ORDERS.values():
        members = rng.sample(units(order), 8)
        basis = key_quats(order)[:4]
        members += [b1 + b2 for b1 in basis for b2 in basis[:2]]
        for x in members:
            for y in members:
                assert is_member(order, x * y)


def test_module_lattice_examples():
    one = element(D4STAR, ONE_J)
    k = module_lattice(one, one)
    assert k.index == 1
    assert k.hnf == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    x = element(D4STAR, Quat(RAT, (1, 1, 0, 0)))
    assert module_lattice(x, one).index == 4
    one_i = element(ICOSIAN, ONE_I)
    a = element(ICOSIAN, Quat(GOLD, (1, 1, 0, 0)))  # reduced norm 2
    assert module_lattice(a, one_i).index == 16
    # cubian: 1 + (1+i)/sqrt2 has reduced norm 2 + sqrt2 of field norm 2
    b1, b2 = key_quats(CUBIAN)[:2]
    e = element(CUBIAN, b1 + b2)
    nrd = _reduced_norm(Ring.SQRT2, np.add(*CUBIAN.units[:2]).tolist())
    assert (nrd.a, nrd.b) == (2, 1)
    one_k = element(CUBIAN, Quat(Ring.SQRT2, (1, 0, 0, 0)))
    assert module_lattice(e, one_k).index == 4


def test_module_lattice_unit_invariance():
    rng = random.Random(7)
    for order in (D4STAR, ICOSIAN):
        group = units(order)
        basis = key_quats(order)[:4]
        a = element(order, basis[1] + basis[3] + basis[0])
        b = element(order, basis[2] + basis[3])
        key = module_lattice(a, b)
        for _ in range(500):
            u, v = rng.choice(group), rng.choice(group)
            au = element(order, a.q * u)
            vb = element(order, v * b.q)
            assert module_lattice(au, vb) == key


def test_canonical_form_unique_up_to_units_at_small_norm():
    # Hurwitz pairs (a, b) with a odd (hence primitive at these squarefree odd
    # norms) and |a|^2 |b|^2 <= 5: equal module keys <=> equal unit classes
    all_elems = {n: hurwitz_by_norm(n) for n in (1, 2, 3, 4, 5)}
    odd_elems = [q for n in (1, 3, 5) for q in all_elems[n]]
    doubled = [q for elems in all_elems.values() for q in elems]  # units first
    coords, inside = solve(D4STAR, np.array(doubled, dtype=np.int64))
    assert inside.all()
    # the key coordinates of a u and u b for every element and unit u, through
    # the table, and each class as its least product
    t, units_24 = structure(D4STAR), coords[:24]
    rights = np.einsum("ni,uj,ijk->nuk", coords, units_24, t).tolist()
    lefts = np.einsum("ui,nj,ijk->nuk", units_24, coords, t).tolist()
    rcls = {q: min(map(tuple, r)) for q, r in zip(doubled, rights)}
    lcls = {q: min(map(tuple, r)) for q, r in zip(doubled, lefts)}
    elems = {q: element(D4STAR, as_quat(RAT, q)) for q in doubled}
    key_to_cls = {}
    cls_to_key = {}
    for a in odd_elems:
        na = _reduced_norm(RAT, a).a
        for nb in range(1, 5 // na + 1):
            for b in all_elems[nb]:
                key = module_lattice(elems[a], elems[b])
                cls = (rcls[a], lcls[b])
                assert key_to_cls.setdefault(key, cls) == cls
                assert cls_to_key.setdefault(cls, key) == key


def test_f4_root_count():
    # the D4* vectors of norm 1 and 2 are the 48 roots of F4: the Hurwitz
    # elements of those norms, closed under the reflections in each other
    roots = np.vstack([norm_vectors(D4STAR, n) for n in (1, 2)])
    assert len(roots) == 48
    rows = {tuple(r) for r in roots.tolist()}
    assert rows == set(hurwitz_by_norm(1)) | set(hurwitz_by_norm(2))
    gram = roots @ roots.T
    for s, r in itertools.product(range(48), repeat=2):
        cartan, rem = divmod(2 * gram[r, s], gram[s, s])
        assert rem == 0
        assert tuple(roots[r] - cartan * roots[s]) in rows


def test_inclusion_chain_indices():
    # (1+i) O  c  L  c  O with index 2 at each step
    one = element(D4STAR, ONE_J)
    x_key = module_lattice(element(D4STAR, Quat(RAT, (1, 1, 0, 0))), one)
    k_coords = (-1, -1, -1, 2)  # k in the order basis
    l_key = lattice_key([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), k_coords], 4)
    assert l_key.index == 2
    assert x_key.index == 4
    assert hnf_solve(l_key.hnf, x_key.hnf)[1].all()


# ring laws of the multiplication table, on key coordinates

def table_product(t, x, y):
    """x * y on key coordinates through the table, in exact Python ints."""
    return np.einsum("i,j,ijk->k", np.array(x, dtype=object), np.array(y, dtype=object),
                     t.astype(object)).tolist()


def hamilton(ring, x, y):
    """Doubled coordinates of the product of the elements with doubled
    coordinates x and y (over Z[w]: rational parts, then w parts), by the
    Hamilton formulas over QuadInt: (X/2)(Y/2) doubled is XY/2."""
    (a1, b1, c1, d1), (a2, b2, c2, d2) = (
        [QuadInt(ring, a, b) for a, b in zip(v[:4], list(v[4:]) or [0] * 4)] for v in (x, y))
    xy = (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
          a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
          a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
          a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)
    assert not any(e.a % 2 or e.b % 2 for e in xy), "the product left the doubled coordinates"
    return ([e.a // 2 for e in xy] + [e.b // 2 for e in xy])[:len(x)]


def key_coordinates(order, v):
    """The key coordinates of the element with doubled coordinates v, which
    must lie in the order."""
    c, inside = solve(order, np.array([v], dtype=object))
    assert inside[0]
    return c[0].tolist()


key_vectors = st.lists(st.integers(-4, 4), min_size=8, max_size=8)


def test_structure_is_one_read_only_table_per_order():
    for order in ORDERS.values():
        t = structure(order)
        dim = order.rank
        assert len(key_basis(order, np.array(order.units))) == dim
        assert t.shape == (dim, dim, dim) and t.dtype == np.int64
        assert not t.flags.writeable
        assert structure(order) is t


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(ORDERS)), key_vectors, key_vectors, key_vectors)
def test_structure_is_associative(name, x, y, z):
    t = structure(ORDERS[name])
    x, y, z = (v[:len(t)] for v in (x, y, z))
    assert (table_product(t, table_product(t, x, y), z)
            == table_product(t, x, table_product(t, y, z)))


def test_structure_identity_is_the_first_unit():
    for order in ORDERS.values():
        assert order.units[0] == (2,) + (0,) * (len(order.units[0]) - 1)  # units[0] is 1
        t = structure(order)
        eye = np.eye(len(t), dtype=np.int64)
        assert (t[0] == eye).all() and (t[:, 0] == eye).all()


def test_structure_reads_left_factor_first():
    # T[i, j] is z_i z_j, not z_j z_i: non-commutative products written out by
    # hand, so a transposed table (and with it swapped left/right kinds) fails
    t = structure(Z4)  # key basis 1, i, j, k
    assert t[1, 2].tolist() == [0, 0, 0, 1]  # i j = k
    assert t[2, 1].tolist() == [0, 0, 0, -1]  # j i = -k
    assert t[1, 1].tolist() == [-1, 0, 0, 0]  # i i = -1
    # icosian z_1 = -(1+i+j+k)/2, z_2 = (-1-i-j+k)/2: z_1 z_2 = j and z_2 z_1 = i.
    # With z_0 = 1, z_3 = (-1+(tau-1)i+tau j)/2 and z_{4+l} = tau z_l:
    # i + j = -z_0 - z_1 - z_2, so i = -z_0 - 2 z_3 + tau (i + j) and j = (i + j) - i
    t = structure(ICOSIAN)
    assert t[1, 2].tolist() == [0, -1, -1, 2, 1, 1, 1, 0]  # j
    assert t[2, 1].tolist() == [-1, 0, 0, -2, -1, -1, -1, 0]  # i


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(ORDERS)), key_vectors, key_vectors)
def test_structure_agrees_with_quaternion_products(name, x, y):
    order = ORDERS[name]
    t = structure(order)
    x, y = x[:len(t)], y[:len(t)]
    z = key_basis(order, np.array(order.units))
    p, q = (np.array(v) @ z for v in (x, y))  # doubled coordinates
    assert key_coordinates(order, p) == x
    pq = hamilton(order.ring, p.tolist(), q.tolist())
    assert key_coordinates(order, pq) == table_product(t, x, y)


def test_reduced_norm_examples():
    assert _reduced_norm(RAT, (1, 1, 1, 1)) == QuadInt(RAT, 1)  # (1 + i + j + k)/2
    # (tau, 1, -1/tau, 0)/2 has norm 1 since tau^2 = tau + 1; -1/tau = 1 - tau
    assert _reduced_norm(GOLD, (0, 1, 1, 0, 1, 0, -1, 0)) == QuadInt(GOLD, 1)


def test_integer_product_equals_the_quaternion_product():
    # on random elements of each order and on its vectors of norm lam, where
    # the reduced norm is multiplicative
    rng = np.random.default_rng(3)
    for order in ORDERS.values():
        z = key_basis(order, np.array(order.units))
        lams = [lam for m in (1, 4, 5) for lam in _lambdas(order.ring, m)]
        x = np.vstack([rng.integers(-4, 5, (40, len(z))) @ z] + [_norm_vectors(order, lam)[0] for lam in lams])
        y = x[rng.permutation(len(x))]
        xy = _product(order.ring, x, y)
        assert xy.dtype == np.int64 and xy.shape == x.shape
        for a, b, ab in zip(x.tolist(), y.tolist(), xy.tolist()):
            assert ab == hamilton(order.ring, a, b)
            assert (_reduced_norm(order.ring, ab)
                    == _reduced_norm(order.ring, a) * _reduced_norm(order.ring, b))


def test_int64_solve_holds_its_bound():
    # rows up to the int64 bound of `solve`, max|U| 2^n (max|x| + 1) < 2^63,
    # give the exact object solve's result; a row one past it is refused
    rng = np.random.default_rng(5)
    for order in ORDERS.values():
        u = _data(order)[1]
        top_u = int(np.abs(u).max())
        top = ((1 << 63) - 1) // (top_u << order.rank) - 1
        assert _solve_fits(top_u, order.rank, top) and not _solve_fits(top_u, order.rank, top + 1)
        x = rng.integers(-top, top, (50, order.rank), endpoint=True)
        x[0, 0] = top
        coords, inside = solve(order, x)
        exact, exact_inside = solve(order, x.astype(object))
        assert coords.tolist() == exact.tolist() and inside.tolist() == exact_inside.tolist()
        x[0, 0] = top + 1
        message = rf"{order.name} solve: max\|x\| = {top + 1} is above the int64 bound {top}$"
        with pytest.raises(AssertionError, match=message):
            solve(order, x)


def test_narrow_integer_rows_solve_as_int64():
    # int32 rows once multiplied in int32: 2 * 2^27 wrapped to -2^27
    x = np.array([[2**28, 0, 0, 0]], dtype=np.int32)
    coords, inside = solve(Z4, x)
    exact, exact_inside = solve(Z4, x.astype(object))
    assert coords.tolist() == exact.tolist() == [[2**27, 0, 0, 0]]
    assert inside.tolist() == exact_inside.tolist() == [True]


# the key-basis inverse from the Hermite normal form

def fraction_inverse(columns):
    """(B^{-1}, det B) for the matrix B with the given columns, by
    Gauss-Jordan elimination over the rationals."""
    n = len(columns)
    m = [[Fraction(columns[j][i]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col:
                m[r] = [x - m[r][col] * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m], det


def test_solve_equals_the_fraction_inverse():
    # x = c K for the key basis K: c = x K^-1 by Gauss-Jordan over the
    # rationals, and x lies in the order iff c is integral; on members
    # (integer combinations of K) and on random rows, int64 and object
    rng = np.random.default_rng(11)
    for order in ORDERS.values():
        k = key_basis(order, np.array(order.units, dtype=np.int64))
        inv, _ = fraction_inverse(k.T.tolist())  # B = K: the columns of K are the rows of K^T
        members = rng.integers(-50, 51, (30, order.rank)) @ k
        x = np.vstack([members, rng.integers(-50, 51, (60, order.rank)), members[:10] + k[0] // 2])
        want = [[sum(Fraction(a) * inv[i][j] for i, a in enumerate(row)) for j in range(order.rank)]
                for row in x.tolist()]
        want_inside = [all(c.denominator == 1 for c in row) for row in want]
        assert 30 <= sum(want_inside) < len(x)
        for rows in (x, x.astype(object)):
            coords, inside = solve(order, rows)
            assert inside.tolist() == want_inside, order.name
            assert [c for c, i in zip(coords.tolist(), want_inside) if i] == [
                [int(v) for v in c] for c, i in zip(want, want_inside) if i], order.name


# (det, adj) of each key basis K, adj = det (K^-1)^T, as the Gauss-Jordan
# solve gave them: a reference that no program path reads
ADJ_DET = {
    "z4": (16, ((8, 0, 0, 0), (0, 8, 0, 0), (0, 0, 8, 0), (0, 0, 0, 8))),
    "d4star": (8, ((4, 0, 0, -4), (0, 4, 0, -4), (0, 0, 4, -4), (0, 0, 0, 8))),
    "icosian": (16, ((8, -8, 0, 0, 0, -8, 8, 0), (0, 0, -8, -8, 0, -8, 8, 0),
                     (0, 0, -8, 8, 0, -8, 8, 0), (0, -16, 16, 0, 0, 0, 0, 0),
                     (0, -8, 8, 0, 8, -16, 8, 0), (0, -8, 8, 0, 0, -8, 0, -8),
                     (0, -8, 8, 0, 0, -8, 0, 8), (0, 0, 0, 0, 0, -16, 16, 0))),
    "cubian": (16, ((8, -8, -8, 8, 0, 0, 0, 0), (0, 0, 0, 0, 0, 16, 0, -16),
                    (0, 0, 0, 0, 0, 0, 16, -16), (0, 0, 0, 16, 0, 0, 0, 0),
                    (0, 0, 0, 0, 8, -8, -8, 8), (0, 8, 0, -8, 0, 0, 0, 0),
                    (0, 0, 8, -8, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 16))),
}


def test_solve_agrees_with_the_order_adjugates():
    # x = c K gives c = x adj^T / det: on random member rows solve is exactly
    # that, and on random rows a row is inside iff x adj^T = 0 mod det.  The
    # (H, U) that solve reads is H = U K with U int64 and read-only (shared
    # through the cache)
    rng = np.random.default_rng(13)
    for name, (det, adj) in ADJ_DET.items():
        order, adj = ORDERS[name], np.array(adj, dtype=object)
        k = key_basis(order, np.array(order.units, dtype=np.int64))
        x = rng.integers(-40, 41, (200, order.rank)) @ k
        coords, inside = solve(order, x)
        assert inside.all() and coords.tolist() == (x.astype(object) @ adj.T // det).tolist(), name
        x = rng.integers(-40, 41, (200, order.rank))
        assert solve(order, x)[1].tolist() == ((x.astype(object) @ adj.T) % det == 0).all(axis=1).tolist()
        h, u = _data(order)
        assert u.dtype == np.int64 and not u.flags.writeable
        assert (u @ k).tolist() == [list(r) for r in h] and h == lattice_key(k.tolist(), order.rank).hnf


# a*O*b against the census

@pytest.mark.parametrize("name,m", [("icosian", 4), ("icosian", 5), ("icosian", 9),
                                    ("cubian", 2), ("cubian", 7)])
def test_principal_ideals_are_the_census_ideals(name, m):
    # the left ideals O a and right ideals a O over the elements a of norm
    # lam, lam over the classes of norm m, are the census SSMs of those kinds
    order = ORDERS[name]
    ssms = enumerate_ssm(order, m)
    left = {s.key for s in ssms if s.kind in ("left-ideal", "two-sided")}
    right = {s.key for s in ssms if s.kind in ("right-ideal", "two-sided")}
    one = element(order, as_quat(order.ring, order.units[0]))
    elems = [element(order, as_quat(order.ring, v))
             for lam in _lambdas(order.ring, m) for v in _norm_vectors(order, lam)[0].tolist()]
    assert {module_lattice(one, a) for a in elems} == left
    assert {module_lattice(a, one) for a in elems} == right
