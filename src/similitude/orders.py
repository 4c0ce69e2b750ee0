"""The four orders of the census: Z^4 (the Lipschitz order) and D4* (the
Hurwitz order) over Z, the icosian order over Z[tau] and the cubian order
over Z[sqrt2].

Each order is one table row: its name, its base ring, one Z[w]-basis of
units and the largest m its census runs.  Provides membership, integral
coordinates in that basis, and the integer-lattice key of a two-sided
product a*O*b.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .lattice import LatticeKey, lattice_key
from .quadfield import QuadInt, Ring
from .quat import Quat


@dataclass(frozen=True)
class Order:
    """An order O over `ring`, given by a Z[w]-basis of units in doubled
    coordinates: 2x the 1,i,j,k coordinates, and over Z[w] the rational
    parts followed by the w parts.  Key coordinates are coordinates in the
    Z-basis made of the units and, over Z[w], w times the units.  The
    census of `oracle` runs for 1 <= m <= max_m (index m^2)."""

    name: str
    ring: Ring
    units: tuple[tuple[int, ...], ...]
    max_m: int


# max_m: every census up to it takes under a second (2-core x86 VM; the
# slowest is icosian m = 20 at 0.74 s), and all of m = 1..30 take 0.4 s for
# Z^4 and 0.5-0.8 s for D4*.
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


def _omega_times(x: np.ndarray, ring: Ring) -> np.ndarray:
    """Rows of Z[w]-coordinates (rational parts, then w parts) times w:
    tau (a + b tau) = b + (a + b) tau, sqrt2 (a + b sqrt2) = 2b + a sqrt2."""
    a, b = x[:, :4], x[:, 4:]
    return np.hstack([b, a + b] if ring is Ring.GOLDEN else [2 * b, a])


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
    basis: tuple[Quat, ...]  # the units
    zbasis: tuple[Quat, ...]  # the basis, then w times the basis over Z[w]
    adj: tuple[tuple[int, ...], ...]
    det: int


@lru_cache(maxsize=None)
def _data(order: Order) -> _OrderData:
    ring = order.ring
    units = np.array(order.units, dtype=np.int64)
    zrows = units if ring is Ring.RATIONAL else np.vstack([units, _omega_times(units, ring)])
    zrows = zrows.tolist()
    zbasis = tuple(Quat(ring, [QuadInt(ring, *z[i::4]) for i in range(4)], 2) for z in zrows)
    adj, det = _inverse_scaled(zrows)
    return _OrderData(zbasis[:4], zbasis, tuple(tuple(r) for r in adj), det)


def coordinates(order: Order, quat: Quat) -> tuple[int, ...]:
    """Integer key coordinates of quat; ValueError if it is not in the order."""
    if quat.ring is not order.ring:
        raise ValueError(f"{quat!r} is over {quat.ring}, not {order.ring}")
    data = _data(order)
    v = _doubled_coords(quat)
    if v is not None:
        sol = [divmod(sum(r * x for r, x in zip(row, v)), data.det) for row in data.adj]
        if not any(rem for _, rem in sol):
            return tuple(c for c, _ in sol)
    raise ValueError(f"{quat!r} is not in the {order.name} order")


def is_member(order: Order, quat: Quat) -> bool:
    try:
        coordinates(order, quat)
    except ValueError:
        return False
    return True


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
    c = coordinates(order, quat)
    return OrderElement(order, quat, tuple(QuadInt(order.ring, *c[i::4]) for i in range(4)))


def module_lattice(a: OrderElement, b: OrderElement) -> LatticeKey:
    """HNF key of the Z-module a * O * b in the order's key coordinates.

    The index equals N(|a|^2 |b|^2)^2 with N the field norm (checked)."""
    if a.order is not b.order:
        raise ValueError("order mismatch")
    if not a or not b:
        raise ZeroDivisionError("zero factor spans no finite-index module")
    order = a.order
    zbasis = _data(order).zbasis
    key = lattice_key([coordinates(order, a.q * z * b.q) for z in zbasis], len(zbasis))
    nrd = (a.q.reduced_norm() * b.q.reduced_norm()).to_quadint().norm()
    if key.index != nrd * nrd:
        raise AssertionError(f"index {key.index} != N(|a|^2|b|^2)^2 = {nrd * nrd}")
    return key
