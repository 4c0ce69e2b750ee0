"""The four orders of the census: Z^4 (the Lipschitz order) and D4* (the
Hurwitz order) over Z, the icosian order over Z[tau] and the cubian order
over Z[sqrt2].

Each order is one table row: its name, its base ring, one Z[w]-basis of
units and the largest m its census runs.  This module alone decides the
key basis (`key_basis`: rows, then over Z[w] w times the rows), the rank of
key coordinates (`Order.rank`: 4 over Z, 8 over Z[w]) and membership
(`solve`: `lattice.hnf_solve` on the key basis's HNF, coordinates q U).  Its
arithmetic runs on integer rows of doubled coordinates (`_product`,
`_reduced_norm`; a `Quat` argument is converted once), as does the product
table on the key basis (`structure`) that the kind test and a*O*b keys read.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .arith import magnitude
from .lattice import LatticeKey, hnf_rows, hnf_solve, lattice_key
from .quadfield import QuadInt, Ring
from .quat import Quat


class Order(NamedTuple):
    """An order O over `ring`, given by a Z[w]-basis of units in doubled
    coordinates: 2x the 1,i,j,k coordinates, and over Z[w] the rational
    parts followed by the w parts.  Key coordinates are coordinates in the
    Z-basis made of the units and, over Z[w], w times the units.  The
    census of `oracle` runs for 1 <= m <= max_m (index m^2)."""

    name: str
    ring: Ring
    units: tuple[tuple[int, ...], ...]
    max_m: int

    @property
    def rank(self) -> int:
        """Length of the doubled and key coordinates: 4 over Z, 8 over Z[w]."""
        return len(self.units[0])


# max_m: every census up to it takes under half a second (2-core x86 VM,
# CPU time from cold caches in its quieter runs; the slowest are icosian
# m = 20 and 25 at 0.35-0.43 s, the slowest cubian one 0.12-0.18 s), and all
# of m = 1..30 take 0.3-0.5 s for Z^4 and 0.4-0.5 s for D4*.
Z4 = Order("z4", Ring.RATIONAL, ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)), 30)

# The Hurwitz order, basis {1, i, j, (1+i+j+k)/2}.
D4STAR = Order("d4star", Ring.RATIONAL, ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 1, 1, 1)), 30)

# 1, -(1+i+j+k)/2, (-1-i-j+k)/2, (-1+(tau-1)i+tau j)/2
ICOSIAN = Order("icosian", Ring.GOLDEN, (
    (2, 0, 0, 0, 0, 0, 0, 0), (-1, -1, -1, -1, 0, 0, 0, 0),
    (-1, -1, -1, 1, 0, 0, 0, 0), (-1, -1, 0, 0, 0, 1, 1, 0)), 25)

# 1, (1+i)/sqrt2, (1+j)/sqrt2, (1+i+j+k)/2
CUBIAN = Order("cubian", Ring.SQRT2, (
    (2, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1, 0, 0),
    (0, 0, 0, 0, 1, 0, 1, 0), (1, 1, 1, 1, 0, 0, 0, 0)), 25)

ORDERS = {order.name: order for order in (Z4, D4STAR, ICOSIAN, CUBIAN)}


def times(lam: QuadInt, rows: np.ndarray) -> np.ndarray:
    """lam times each row of Z[w]-coordinates, doubled or key coordinates
    (rational parts, then w parts): w (a + b w) = c0 b + (a + c1 b) w."""
    if not lam.b:
        return lam.a * rows
    a, b = rows[:, :4], rows[:, 4:]
    return lam.a * rows + lam.b * np.hstack([lam.ring.c0 * b, a + lam.ring.c1 * b])


def key_basis(order: Order, rows: np.ndarray) -> np.ndarray:
    """A Z-basis of the Z[w]-span of the rows (doubled or key coordinates):
    the rows, then over Z[w] w times the rows.  Of the units: the key basis."""
    if order.rank == 4:
        return rows
    return np.vstack([rows, times(QuadInt(order.ring, 0, 1), rows)])


def _doubled_coords(order: Order, quat: Quat):
    """Integer vector of 2x the coordinates of q in {1,i,j,k} (x {1, omega}),
    of length `order.rank` (rational parts, then over Z[w] the omega parts);
    None when the denominator does not divide 2."""
    if quat.den not in (1, 2):
        return None
    f = 2 // quat.den
    return (tuple(f * n.a for n in quat.nums) + tuple(f * n.b for n in quat.nums))[:order.rank]


@lru_cache(maxsize=None)
def _data(order: Order) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """(H, U) for the key basis K: [H | U] is the HNF of [K | I], so H = U K; U read-only int64."""
    k, n = key_basis(order, np.array(order.units, dtype=np.int64)).tolist(), order.rank
    hu = hnf_rows([r + [int(i == j) for j in range(n)] for i, r in enumerate(k)], n)
    u = np.array([r[n:] for r in hu], dtype=np.int64)
    u.flags.writeable = False
    return tuple(r[:n] for r in hu), u


def _solve_fits(top_u: int, n: int, big_x: int) -> bool:
    """Whether `solve` is exact in int64 (its docstring): top_u = max|U|, big_x = max|x|."""
    return (top_u << n) * (big_x + 1) < 1 << 63


def solve(order: Order, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Key coordinates c (x = c K) of the rows x of doubled coordinates, and
    which rows lie in the order: `hnf_solve` gives x = q H for the HNF H = U K
    of the key basis K, so c = q U.  In the dtype of x: object for exact ints,
    else int64.  `hnf_solve` bounds |q_j| <= 2^(n-1-j) (M + 1), M = max|x|, so
    |c| < 2^n (M + 1) max|U| < 2^63 (_solve_fits, asserted).  For the four orders max|U| <= 2
    and n <= 8: the int64 callers `structure` (|x| <= 4) and
    `oracle._norm_vectors` (|x| <= 6,144) meet |q| < 2^20 and |c| < 2^22."""
    h, u = _data(order)
    if x.dtype != object:
        big_x, top_u, n = magnitude(x), magnitude(u), order.rank
        assert _solve_fits(top_u, n, big_x), (f"{order.name} solve: max|x| = {big_x} is above the int64 "
                                              f"bound {(2**63 - 1) // (top_u << n) - 1}")
    q, inside = hnf_solve(h, x)
    return q @ u.astype(q.dtype, copy=False), inside


def _sign_table() -> np.ndarray:
    """S with e_a e_b = sum_c S[a, b, c] e_c for e = 1, i, j, k: e_a e_b is
    +-e_(a xor b), as i j = k, j k = i and k i = j."""
    a, b = np.indices((4, 4))
    s = np.zeros((4, 4, 4), dtype=np.int64)
    s[a, b, a ^ b] = [[1, 1, 1, 1], [1, -1, 1, -1], [1, -1, -1, 1], [1, 1, -1, -1]]
    return s


def _product(ring: Ring, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Doubled coordinates of the products x y of rows x and y of doubled
    coordinates in the order: (X/2)(Y/2) doubled is XY/2, halved exactly
    (asserted).  Over Z[w], X = p + q w and Y = p' + q' w with
    w^2 = c0 + c1 w give XY = pp' + c0 qq' + (pq' + qp' + c1 qq') w, each
    product of 4-vectors through the sign table: the product table is the
    Kronecker product of the ring's table on (1, w) and the sign table.  It
    is applied by matmuls, which the census runs anyway: einsum, which no
    other path runs, added ~0.1 MB of peak RSS to an `oracle --module` run."""
    n = x.shape[-1] // 4
    ring_table = np.array([[[1, 0], [0, 1]], [[0, 1], [ring.c0, ring.c1]]])[:n, :n, :n]
    table = np.kron(ring_table, _sign_table())
    xt = (x @ table.reshape(4 * n, -1)).reshape(*x.shape, -1)  # [..., j, k] = sum_i x_i table[i, j, k]
    xy = (y[..., None, :] @ xt)[..., 0, :]
    assert not (xy % 2).any(), "a product left the doubled coordinates"
    return xy // 2


@lru_cache(maxsize=None)
def structure(order: Order) -> np.ndarray:
    """The multiplication table T of the order, int64 of shape (dim, dim, dim):
    T[i, j] holds the key coordinates of z_i z_j for the key basis z.  So
    x -> x z_i is the matrix T[:, i] and x -> z_i x is T[i] on key
    coordinates (row vectors).  Built once per order from one batch of the
    dim^2 integer products (each asserted to lie in the order), and
    read-only: every caller shares it through the cache."""
    z, dim = key_basis(order, np.array(order.units, dtype=np.int64)), order.rank
    t, inside = solve(order, _product(order.ring, *np.broadcast_arrays(z[:, None], z)).reshape(-1, dim))
    assert inside.all(), f"a product of {order.name} key basis elements left the order"
    t = t.reshape(dim, dim, dim)
    t.flags.writeable = False
    return t


def coordinates(order: Order, quat: Quat) -> tuple[int, ...]:
    """Integer key coordinates of quat; ValueError if it is not in the order."""
    if quat.ring is not order.ring:
        raise ValueError(f"{quat!r} is over {quat.ring}, not {order.ring}")
    v = _doubled_coords(order, quat)
    if v is not None:
        c, inside = solve(order, np.array([v], dtype=object))
        if inside[0]:
            return tuple(c[0].tolist())
    raise ValueError(f"{quat!r} is not in the {order.name} order")


def is_member(order: Order, quat: Quat) -> bool:
    try:
        coordinates(order, quat)
    except ValueError:
        return False
    return True


class OrderElement(NamedTuple):
    """A quaternion certified to lie in `order`, with its integral coordinates
    in the order's fixed basis."""

    order: Order
    q: Quat
    basis_coords: tuple[QuadInt, QuadInt, QuadInt, QuadInt]

    def __bool__(self) -> bool:
        return bool(self.q)


def element(order: Order, quat: Quat) -> OrderElement:
    """Certify membership and compute basis coordinates; ValueError if outside."""
    c = coordinates(order, quat)
    return OrderElement(order, quat, tuple(QuadInt(order.ring, *c[i::4]) for i in range(4)))


def _reduced_norm(ring: Ring, v: tuple[int, ...]) -> QuadInt:
    """q q-bar of an element of an order from its doubled coordinates v =
    p + q w: sum (p_i + q_i w)^2 / 4 = (p.p + c0 q.q + (2 p.q + c1 q.q) w) / 4."""
    p, q = v[:4], v[4:]
    pp, pq, qq = (sum(s * t for s, t in zip(x, y)) for x, y in ((p, p), (p, q), (q, q)))
    return QuadInt(ring, (pp + ring.c0 * qq) // 4, (2 * pq + ring.c1 * qq) // 4)


def module_lattice(a: OrderElement, b: OrderElement) -> LatticeKey:
    """HNF key of the Z-module a * O * b in the order's key coordinates.

    The index equals N(|a|^2 |b|^2)^2 with N the field norm (checked)."""
    if a.order is not b.order:
        raise ValueError("order mismatch")
    if not a or not b:
        raise ZeroDivisionError("zero factor spans no finite-index module")
    order = a.order
    t = structure(order).astype(object)  # exact: no int64 bound on the coordinates
    v = [_doubled_coords(order, e.q) for e in (a, b)]
    ca, cb = solve(order, np.array(v, dtype=object))[0]
    # row k: a z_k b = sum_i ca_i z_i z_k b, and z_l b = sum_j cb_j z_l z_j
    rows = np.tensordot(ca, t, axes=(0, 0)) @ np.tensordot(t, cb, axes=(1, 0))
    key = lattice_key(rows.tolist(), len(t))
    nrd = (_reduced_norm(order.ring, v[0]) * _reduced_norm(order.ring, v[1])).norm()
    if key.index != nrd * nrd:
        raise AssertionError(f"index {key.index} != N(|a|^2|b|^2)^2 = {nrd * nrd}")
    return key
