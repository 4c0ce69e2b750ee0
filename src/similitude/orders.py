"""The maximal quaternion orders: Hurwitz (over Z), icosian (over Z[tau]),
cubian (over Z[sqrt2]).

Provides membership and integral coordinates, the finite unit groups, content
and primitivity, parity for the Hurwitz order, reduction of a two-sided
product a*O*b to canonical form, and its identifying integer-lattice key.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import quadfield as qf
from .lattice import LatticeKey, hnf_contains, hnf_rows, lattice_key
from .quadfield import QuadInt, QuadRat, Ring
from .quat import Quat

_UNIT_CLOSURE_CAP = 10_000


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


def _hurwitz_unit_quats(ring: Ring = Ring.RATIONAL) -> list[Quat]:
    """The 24 units: +-1, +-i, +-j, +-k and (+-1 +- i +- j +- k)/2."""
    out = []
    for pos in range(4):
        for s in (1, -1):
            co = [0, 0, 0, 0]
            co[pos] = s
            out.append(Quat(ring, co))
    for signs in itertools.product((1, -1), repeat=4):
        out.append(Quat(ring, signs, 2))
    return out


def _even_permutations() -> list[tuple[int, ...]]:
    perms = []
    for p in itertools.permutations(range(4)):
        inv = sum(1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j])
        if inv % 2 == 0:
            perms.append(p)
    return perms


def _icosian_unit_quats() -> list[Quat]:
    """The 120 units: even coordinate permutations and arbitrary sign flips
    of (1,0,0,0), (1,1,1,1)/2, and (tau, 1, 1-tau, 0)/2, noting 1/tau = tau-1."""
    tau = (0, 1)
    tau_inv_neg = (1, -1)  # -1/tau = 1 - tau
    seeds = [
        ((2, 0), (0, 0), (0, 0), (0, 0)),
        ((1, 0), (1, 0), (1, 0), (1, 0)),
        (tau, (1, 0), tau_inv_neg, (0, 0)),
    ]
    out = set()
    for seed in seeds:
        for perm in _even_permutations():
            permuted = tuple(seed[perm.index(k)] for k in range(4))
            for signs in itertools.product((1, -1), repeat=4):
                coords = tuple((s * a, s * b) for s, (a, b) in zip(signs, permuted))
                out.add(_q(Ring.GOLDEN, coords))
    return sorted(out, key=lambda u: tuple((n.a, n.b) for n in u.nums))


def _cubian_seed_quats() -> list[Quat]:
    seeds = _hurwitz_unit_quats(Ring.SQRT2)
    seeds.append(_q(Ring.SQRT2, ((0, 1), (0, 1), (0, 0), (0, 0))))  # (1+i)/sqrt2
    return seeds


def _closure(seeds: list[Quat]) -> list[Quat]:
    """Closure of a finite set of norm-1 quaternions under multiplication."""
    elems = set(seeds)
    changed = True
    while changed:
        changed = False
        cur = list(elems)
        for x in cur:
            for y in cur:
                z = x * y
                if z not in elems:
                    elems.add(z)
                    changed = True
                    if len(elems) > _UNIT_CLOSURE_CAP:
                        raise RuntimeError("unit-group closure exceeded the safety cap")
    return sorted(elems, key=lambda u: tuple((n.a, n.b) for n in u.nums))


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

    def _key(self):
        return tuple((c.a, c.b) for c in self.basis_coords)


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


@lru_cache(maxsize=None)
def unit_group(order: Order) -> tuple[OrderElement, ...]:
    """The full finite unit group: 24 (Hurwitz), 120 (icosian), 48 (cubian)."""
    if order is Order.HURWITZ:
        quats = _closure(_hurwitz_unit_quats())
    elif order is Order.ICOSIAN:
        quats = _closure(_icosian_unit_quats())
    else:
        quats = _closure(_cubian_seed_quats())
    elems = [element(order, u) for u in quats]
    return tuple(sorted(elems, key=lambda e: e._key()))


def content(a: OrderElement) -> QuadInt:
    """Canonical generator of the largest scalar ideal dividing a inside the order."""
    if not a:
        raise ZeroDivisionError("content of zero")
    g = a.basis_coords[0]
    for c in a.basis_coords[1:]:
        g = qf.gcd(g, c)
    return g  # qf.gcd already canonicalizes


def is_primitive(a: OrderElement) -> bool:
    """True iff no non-unit scalar of the base ring divides a."""
    return content(a).is_unit()


def is_odd(a: OrderElement) -> bool:
    """Hurwitz only: true iff the reduced norm is odd."""
    if a.order is not Order.HURWITZ:
        raise ValueError("parity is defined only for the Hurwitz order")
    if not a:
        raise ZeroDivisionError("parity of zero")
    return a.q.reduced_norm().to_quadint().a % 2 == 1


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


def _unit_minimized(quat: Quat, order: Order, side: str) -> Quat:
    """Deterministic representative of quat's unit orbit (right or left)."""
    best = None
    best_key = None
    for u in unit_group(order):
        cand = quat * u.q if side == "right" else u.q * quat
        k = element(order, cand)._key()
        if best_key is None or k < best_key:
            best, best_key = cand, k
    return best


def canonicalize_pair(a: Quat, b: Quat, order: Order) -> tuple[OrderElement, OrderElement]:
    """Rewrite the module a*O*b as a'*O*b' with a' in O primitive (odd for the
    Hurwitz order) and b' in O, without changing the module.

    Raises ValueError("...not contained...") when a*O*b is not inside O.
    """
    if a.ring is not order.ring or b.ring is not order.ring:
        raise ValueError("coordinate field does not match the order")
    if not a or not b:
        raise ZeroDivisionError("zero factor")
    # scalars commute through O: a*O*b = (a*s) O (b/s) for field scalars s
    a1 = a * a.den
    b1 = b * QuadRat(qf.one(order.ring), a.den)
    c = content(element(order, a1))
    a1 = a1 * QuadRat(c.conjugate(), qf.conj_product(c))  # divide by the content
    b1 = b1 * c
    if order is Order.HURWITZ and element(order, a1).q.reduced_norm().to_quadint().a % 2 == 0:
        # a primitive and even: shift one factor (1+i) across to b
        x = Quat(order.ring, (1, 1, 0, 0))
        a1 = a1 * x.conjugate() * QuadRat(qf.one(order.ring), 2)
        b1 = x * b1
    ea = element(order, a1)
    if not is_primitive(ea):
        raise AssertionError("content removal failed to make the left factor primitive")
    if order is Order.HURWITZ and not is_odd(ea):
        raise AssertionError("parity shift failed to make the left factor odd")
    try:
        eb = element(order, b1)
    except ValueError:
        raise ValueError("a*O*b is not contained in the order") from None
    # deterministic unit normalization on both sides
    a2 = _unit_minimized(ea.q, order, "right")
    b2 = _unit_minimized(eb.q, order, "left")
    return element(order, a2), element(order, b2)
