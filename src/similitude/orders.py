"""The maximal quaternion orders: Hurwitz (over Z), icosian (over Z[tau]),
cubian (over Z[sqrt2]).

Provides membership, integral coordinates in a fixed basis, and the
integer-lattice key of a two-sided product a*O*b.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import quadfield as qf
from .lattice import LatticeKey, hnf_contains, hnf_rows, lattice_key
from .quadfield import QuadInt, Ring
from .quat import Quat


class Order(enum.Enum):
    HURWITZ = "hurwitz"
    ICOSIAN = "icosian"
    CUBIAN = "cubian"

    @property
    def ring(self) -> Ring:
        return _ORDER_RING[self]


_ORDER_RING = {
    Order.HURWITZ: Ring.RATIONAL,
    Order.ICOSIAN: Ring.GOLDEN,
    Order.CUBIAN: Ring.SQRT2,
}


def _q(ring: Ring, doubled) -> Quat:
    """Quaternion from doubled coordinates: entries are 2x the 1,i,j,k coords."""
    nums = tuple(QuadInt(ring, *v) if isinstance(v, tuple) else QuadInt(ring, v) for v in doubled)
    return Quat(ring, nums, 2)


# Fixed integral bases (rows of doubled coordinates).  The Hurwitz basis is
# {1, i, j, (1+i+j+k)/2}; the cubian basis is the Z[sqrt2]-span generators
# {1, (1+i)/sqrt2, (1+j)/sqrt2, (1+i+j+k)/2}; the icosian basis is the frozen
# result of reducing the Z[tau]-span of the 120 icosian units to a triangular
# Z[tau]-basis (see tests for the re-derivation from the units).
_BASIS_DOUBLED = {
    Order.HURWITZ: ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 1, 1, 1)),
    Order.ICOSIAN: (
        ((1, 0), (0, 0), (-1, -1), (-2, 1)),
        ((0, 0), (1, 0), (0, -1), (-1, -1)),
        ((0, 0), (0, 0), (2, 0), (0, 0)),
        ((0, 0), (0, 0), (0, 0), (2, 0)),
    ),
    Order.CUBIAN: (
        ((2, 0), (0, 0), (0, 0), (0, 0)),
        ((0, 1), (0, 1), (0, 0), (0, 0)),
        ((0, 1), (0, 0), (0, 1), (0, 0)),
        ((1, 0), (1, 0), (1, 0), (1, 0)),
    ),
}


def _doubled_coords(quat: Quat):
    """Integer vector of 2x the coordinates of q in {1,i,j,k} (x {1, omega}).

    Length 4 over Z, length 8 (rational parts then omega parts) over the
    quadratic rings; None when the denominator does not divide 2.
    """
    if quat.den not in (1, 2):
        return None
    f = 2 // quat.den
    if quat.ring is Ring.RATIONAL:
        return tuple(f * n.a for n in quat.nums)
    return tuple(f * n.a for n in quat.nums) + tuple(f * n.b for n in quat.nums)


def _inverse_scaled(columns: list[tuple[int, ...]]) -> tuple[list[list[int]], int]:
    """(adj, det) for the integer matrix B with the given columns:
    adj @ v == det * B^{-1} @ v for every vector v."""
    n = len(columns)
    m = [[Fraction(columns[j][i]) for j in range(n)] for i in range(n)]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
            det = -det
        det *= m[col][col]
        scale = m[col][col]
        m[col] = [x / scale for x in m[col]]
        inv[col] = [x / scale for x in inv[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    det_int = int(det)
    adj = [[int(det * x) for x in row] for row in inv]
    return adj, det_int


@dataclass(frozen=True)
class _OrderData:
    order: Order
    basis: tuple[Quat, ...]
    dim: int
    hnf: tuple[tuple[int, ...], ...]  # HNF of the doubled-coordinate lattice
    adj: tuple[tuple[int, ...], ...]
    det: int


@lru_cache(maxsize=None)
def _data(order: Order) -> _OrderData:
    ring = order.ring
    basis = tuple(_q(ring, row) for row in _BASIS_DOUBLED[order])
    dim = 4 if ring is Ring.RATIONAL else 8
    if ring is Ring.RATIONAL:
        zbasis = basis
    else:
        w = qf.omega(ring)
        zbasis = basis + tuple(e * w for e in basis)
    cols = [_doubled_coords(e) for e in zbasis]
    hnf = hnf_rows(cols, dim)
    adj, det = _inverse_scaled(cols)
    return _OrderData(order, basis, dim,
                      tuple(tuple(r) for r in hnf),
                      tuple(tuple(r) for r in adj), det)


def is_member(order: Order, quat: Quat) -> bool:
    if quat.ring is not order.ring:
        return False
    v = _doubled_coords(quat)
    return v is not None and hnf_contains(_data(order).hnf, v)


@dataclass(frozen=True)
class OrderElement:
    """A quaternion certified to lie in `order`, with its integral coordinates
    in the order's fixed basis."""

    order: Order
    q: Quat
    basis_coords: tuple[QuadInt, QuadInt, QuadInt, QuadInt]

    def __bool__(self) -> bool:
        return bool(self.q)


def element(order: Order, quat: Quat) -> OrderElement:
    """Certify membership and compute basis coordinates; ValueError if outside."""
    if quat.ring is not order.ring:
        raise ValueError(f"{quat!r} is over {quat.ring}, not {order.ring}")
    data = _data(order)
    v = _doubled_coords(quat)
    if v is None:
        raise ValueError(f"{quat!r} is not in the {order.value} order")
    sol = []
    for row in data.adj:
        s = sum(r * x for r, x in zip(row, v))
        c, rem = divmod(s, data.det)
        if rem:
            raise ValueError(f"{quat!r} is not in the {order.value} order")
        sol.append(c)
    ring = order.ring
    if ring is Ring.RATIONAL:
        coords = tuple(QuadInt(ring, c) for c in sol)
    else:
        coords = tuple(QuadInt(ring, sol[i], sol[4 + i]) for i in range(4))
    return OrderElement(order, quat, coords)


def _omega_coords(coords: tuple[QuadInt, ...]) -> tuple[QuadInt, ...]:
    w = qf.omega(coords[0].ring)
    return tuple(c * w for c in coords)


def module_lattice(a: OrderElement, b: OrderElement) -> LatticeKey:
    """HNF key of the Z-module a * O * b inside the order's fixed Z-basis.

    The index equals N(|a|^2 |b|^2)^2 with N the field norm (checked)."""
    if a.order is not b.order:
        raise ValueError("order mismatch")
    if not a or not b:
        raise ZeroDivisionError("zero factor spans no finite-index module")
    order = a.order
    data = _data(order)
    rows = []
    for e in data.basis:
        img = element(order, a.q * e * b.q)
        rows.append(img.basis_coords)
    dim = data.dim
    if order.ring is Ring.RATIONAL:
        int_rows = [tuple(c.a for c in row) for row in rows]
    else:
        rows = rows + [_omega_coords(row) for row in rows]
        int_rows = [tuple(c.a for c in row) + tuple(c.b for c in row) for row in rows]
    key = lattice_key(int_rows, dim)
    nrd = (a.q.reduced_norm() * b.q.reduced_norm()).to_quadint().norm()
    if key.index != nrd * nrd:
        raise AssertionError(f"index {key.index} != N(|a|^2|b|^2)^2 = {nrd * nrd}")
    return key
