"""Brute-force verification of the similarity counts, sharing no logic with
the closed-form rules.

A similar sublattice of index m^2 is spanned by a frame: four lattice vectors
whose Gram matrix is m times the ambient one.  The oracle enumerates every
frame among the vectors of norm m, dedups the spanned sublattices by lattice
key, and checks its own completeness: each similar sublattice has exactly
|Aut| frames (384 for Z^4, 1152 for D4*), and |Aut| is the frame count at
m = 1.  Icosian similarity submodules are enumerated as products of a right
and a left ideal, found by a bounded coordinate search.  No floating point is
used anywhere; dedup is by lattice-key equality.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import LatticeKey, lattice_key
from .orders import Order, element, is_member, module_lattice
from .quadfield import QuadInt, Ring, is_representable_index
from .quat import Quat

DEFAULT_INDEX_BOUND = 49
DEFAULT_ICOSIAN_BOUND = 25


@dataclass(frozen=True)
class AmbientLattice:
    """A rank-4 ambient lattice described by an integer Gram matrix in its
    own coordinates (doubled once for the D4* weight lattice so that every
    entry stays integral)."""

    name: str
    gram: tuple[tuple[int, ...], ...]


Z4 = AmbientLattice(
    "z4",
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
)

# Coordinates over the basis {1, i, j, (1+i+j+k)/2}; Gram doubled to stay integral.
D4STAR = AmbientLattice(
    "d4star",
    ((2, 0, 0, 1), (0, 2, 0, 1), (0, 0, 2, 1), (1, 1, 1, 2)),
)

_LATTICES = {"z4": Z4, "d4star": D4STAR}


def ambient(name: str) -> AmbientLattice:
    try:
        return _LATTICES[name]
    except KeyError:
        raise ValueError(f"unknown lattice {name!r}") from None


@lru_cache(maxsize=64)
def _short_vectors(lattice_name: str, m: int) -> tuple[tuple[int, ...], ...]:
    """All coordinate vectors whose (scaled) squared length is m * gram[0][0]."""
    out = []
    if lattice_name == "z4":
        r = math.isqrt(m)
        for v in itertools.product(range(-r, r + 1), repeat=4):
            if v[0] * v[0] + v[1] * v[1] + v[2] * v[2] + v[3] * v[3] == m:
                out.append(v)
    else:
        # D4*: quaternions of reduced norm m.  Enumerate doubled 1,i,j,k
        # coordinates (all even or all odd) with square sum 4m, then convert
        # to basis coordinates.
        target = 4 * m
        r = math.isqrt(target)
        for u in itertools.product(range(-r, r + 1), repeat=4):
            if (u[0] & 1) == (u[1] & 1) == (u[2] & 1) == (u[3] & 1):
                if u[0] * u[0] + u[1] * u[1] + u[2] * u[2] + u[3] * u[3] == target:
                    x0, x1, x2, x3 = u
                    out.append(((x0 - x3) // 2, (x1 - x3) // 2, (x2 - x3) // 2, x3))
    return tuple(sorted(out))


def _diag_tuples(index: int):
    """Ordered 4-tuples of positive integers with product = index."""
    out = []

    def rec(prefix, rem, k):
        if k == 1:
            out.append((*prefix, rem))
            return
        for d in range(1, rem + 1):
            if rem % d == 0:
                rec((*prefix, d), rem // d, k - 1)

    rec((), index, 4)
    return out


def _hnf_matrices_for_diag(diag: tuple[int, ...]):
    """All HNF row bases with the given diagonal (below-diagonal reduced)."""
    ranges = []
    positions = []
    for i in range(4):
        for j in range(i):
            positions.append((i, j))
            ranges.append(range(diag[j]))
    base = [[0] * 4 for _ in range(4)]
    for i in range(4):
        base[i][i] = diag[i]
    for combo in itertools.product(*ranges):
        rows = [list(r) for r in base]
        for (i, j), v in zip(positions, combo):
            rows[i][j] = v
        yield tuple(tuple(r) for r in rows)


def enumerate_sublattices(lattice: AmbientLattice, index: int,
                          bound: int = DEFAULT_INDEX_BOUND) -> list[LatticeKey]:
    """One key per sublattice of the given index, by direct HNF enumeration."""
    if index < 1:
        raise ValueError("index must be >= 1")
    if index > bound:
        raise ValueError(f"index {index} exceeds the enumeration bound {bound}")
    keys = []
    for diag in _diag_tuples(index):
        for rows in _hnf_matrices_for_diag(diag):
            keys.append(LatticeKey(4, rows, index))
    return keys


@lru_cache(maxsize=64)
def _frames(lattice: AmbientLattice, m: int) -> tuple[int, frozenset[LatticeKey]]:
    """Count the frames of index m^2 and collect the sublattices they span.

    A frame is an ordered quadruple of lattice vectors v_0..v_3 with
    <v_i, v_j> = m * gram[i][j]; its span is a similar sublattice of index
    m^2, and every similar sublattice of that index is spanned by exactly
    |Aut| frames.  Both ambient Gram matrices have a constant diagonal, so
    every frame vector is a short vector of norm m * gram[0][0].  The dot
    products are exact in int64: coordinates are at most 2 sqrt(m), and by
    Cauchy-Schwarz every entry of `dots` is at most m * gram[0][0].
    """
    vecs = np.array(_short_vectors(lattice.name, m), dtype=np.int64)
    gram = np.array(lattice.gram, dtype=np.int64)
    dots = vecs @ gram @ vecs.T
    target = m * gram
    frames = 0
    keys = set()
    for a in range(len(vecs)):
        for b in np.flatnonzero(dots[a] == target[0, 1]):
            mask_c = (dots[a] == target[0, 2]) & (dots[b] == target[1, 2])
            for c in np.flatnonzero(mask_c):
                mask_d = ((dots[a] == target[0, 3]) & (dots[b] == target[1, 3])
                          & (dots[c] == target[2, 3]))
                for d in np.flatnonzero(mask_d):
                    frames += 1
                    keys.add(lattice_key(vecs[[a, b, c, d]].tolist(), 4))
    return frames, frozenset(keys)


def _ssl_keys(lattice: AmbientLattice, m: int) -> frozenset[LatticeKey]:
    """The similar sublattices of index m^2, checked complete by frame count:
    |Aut| is the frame count at m = 1, and each sublattice has |Aut| frames."""
    frames, keys = _frames(lattice, m)
    aut = _frames(lattice, 1)[0]
    if frames != aut * len(keys):
        raise AssertionError(
            f"{lattice.name} m={m}: {frames} frames != |Aut| {aut} * {len(keys)} sublattices"
        )
    return keys


def is_similar_sublattice(key: LatticeKey, lattice: AmbientLattice) -> bool:
    """True iff the sublattice is an inflated isometric image of the ambient one,
    i.e. one spanned by a frame; a non-square index has no frames."""
    if key.rank != 4:
        raise ValueError("ambient lattices here have rank 4")
    h = key.hnf
    if (any(h[i][i] <= 0 for i in range(4))
            or any(h[i][j] != 0 for i in range(4) for j in range(i + 1, 4))
            or any(not 0 <= h[i][j] < h[j][j] for i in range(4) for j in range(i))):
        raise ValueError("not a sublattice key: bad Hermite normal form")
    m = math.isqrt(key.index)
    return m * m == key.index and key in _ssl_keys(lattice, m)


def count_ssl_bruteforce(lattice: AmbientLattice, m: int,
                         bound: int = DEFAULT_INDEX_BOUND) -> int:
    """Number of index-m^2 sublattices that are similar images of the ambient
    lattice, by exhaustive frame enumeration."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m * m > bound:
        raise ValueError(f"index {m * m} exceeds the enumeration bound {bound}")
    return len(_ssl_keys(lattice, m))


# -- icosian similarity submodules -------------------------------------------

def _sign_le(z: QuadInt, bound: int, conj: bool) -> bool:
    """Exact test sigma(z) <= bound (or the conjugate embedding)."""
    if conj:
        z = z.conjugate()
    return (z - QuadInt(Ring.GOLDEN, bound)).sign() <= 0


def _coordinate_candidates(c_bound: int) -> list[tuple[int, int, QuadInt]]:
    """Coordinates x = (p + q tau)/2 with both embeddings of x^2 at most
    c_bound; returns (p, q, (p + q tau)^2), i.e. the square of 2x."""
    out = []
    qmax = math.isqrt((16 * c_bound) // 5) + 2
    pspan = math.isqrt(16 * c_bound) + 2
    for q in range(-qmax, qmax + 1):
        for twop_plus_q in range(-pspan, pspan + 1):
            if (twop_plus_q - q) % 2:
                continue
            p = (twop_plus_q - q) // 2
            z = QuadInt(Ring.GOLDEN, p, q)
            z2 = z * z
            # (2x)^2 <= 4 c_bound under both embeddings
            if _sign_le(z2, 4 * c_bound, False) and _sign_le(z2, 4 * c_bound, True):
                out.append((p, q, z2))
    return out


def _icosian_elements_by_norm(m: int) -> dict[int, list[Quat]]:
    """Nonzero icosians a, bucketed by n = N(|a|^2) for n dividing m.

    Every one-sided ideal of norm index n^2 <= m^2 has a generator in the
    searched box: a scalar power of the fundamental unit balances the two
    embeddings of |a|^2 so that both are at most tau * sqrt(m), and the box
    bound C = ceil(tau * sqrt(m)) covers that.
    """
    # smallest integer C with C >= tau * sqrt(m):  4C^2 >= (6 + 2 sqrt5) m,
    # decided exactly by squaring out the sqrt5
    c_bound = 1
    while not (4 * c_bound * c_bound >= 6 * m and (4 * c_bound * c_bound - 6 * m) ** 2 >= 20 * m * m):
        c_bound += 1
    cands = _coordinate_candidates(c_bound)
    four_c = 4 * c_bound
    buckets: dict[int, list[Quat]] = {}
    divs = {d for d in range(1, m + 1) if m % d == 0}

    def feasible(s: QuadInt) -> bool:
        return _sign_le(s, four_c, False) and _sign_le(s, four_c, True)

    for p0, q0, z0 in cands:
        if not feasible(z0):
            continue
        for p1, q1, z1 in cands:
            s1 = z0 + z1
            if not feasible(s1):
                continue
            for p2, q2, z2 in cands:
                s2 = s1 + z2
                if not feasible(s2):
                    continue
                for p3, q3, z3 in cands:
                    s3 = s2 + z3
                    # s3 = 4 |a|^2 must be integral in the ring and positive
                    if s3.a % 4 or s3.b % 4:
                        continue
                    if not (s3.a or s3.b):
                        continue
                    if not feasible(s3):
                        continue
                    nrd = QuadInt(Ring.GOLDEN, s3.a // 4, s3.b // 4)
                    n = nrd.norm()
                    if n not in divs:
                        continue
                    quat = Quat(
                        Ring.GOLDEN,
                        (QuadInt(Ring.GOLDEN, p0, q0), QuadInt(Ring.GOLDEN, p1, q1),
                         QuadInt(Ring.GOLDEN, p2, q2), QuadInt(Ring.GOLDEN, p3, q3)),
                        2,
                    )
                    if is_member(Order.ICOSIAN, quat):
                        buckets.setdefault(n, []).append(quat)
    return buckets


@dataclass(frozen=True)
class IcosianSSM:
    key: LatticeKey
    kind: str  # "left-ideal" | "right-ideal" | "two-sided" | "product"


def enumerate_ssm_icosian(m: int, bound: int = DEFAULT_ICOSIAN_BOUND) -> list[IcosianSSM]:
    """All similarity submodules of the icosian order of index m^2, each as a
    deduplicated lattice key with an ideal-type classification."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > bound:
        raise ValueError(f"m = {m} exceeds the enumeration bound {bound}")
    if not is_representable_index(m, Ring.GOLDEN):
        raise ValueError(f"index {m}^2 is not attainable for the icosian order")
    one = element(Order.ICOSIAN, Quat.scalar(Ring.GOLDEN, 1))
    buckets = _icosian_elements_by_norm(m)

    def dedup(quats: list[Quat], side: str) -> dict[LatticeKey, object]:
        out = {}
        for q in quats:
            e = element(Order.ICOSIAN, q)
            key = module_lattice(e, one) if side == "right" else module_lattice(one, e)
            out.setdefault(key, e)
        return out

    right_by_n = {n: dedup(quats, "right") for n, quats in buckets.items()}
    left_by_n = {n: dedup(quats, "left") for n, quats in buckets.items()}

    modules: dict[LatticeKey, None] = {}
    for na, rights in sorted(right_by_n.items()):
        nb = m // na
        if na * nb != m:
            continue
        lefts = left_by_n.get(nb)
        if not lefts:
            continue
        for ra in rights.values():
            for lb in lefts.values():
                modules[module_lattice(ra, lb)] = None

    left_keys = set(left_by_n.get(m, {}))
    right_keys = set(right_by_n.get(m, {}))
    out = []
    for key in modules:
        if key in left_keys and key in right_keys:
            kind = "two-sided"
        elif key in left_keys:
            kind = "left-ideal"
        elif key in right_keys:
            kind = "right-ideal"
        else:
            kind = "product"
        out.append(IcosianSSM(key, kind))
    out.sort(key=lambda s: s.key.hnf)
    return out


def icosian_generator_counts(m: int) -> dict[int, list[int]]:
    """Raw generator multiplicities per distinct one-sided ideal, for the
    unit-orbit divisibility property (each count is a multiple of 120)."""
    one = element(Order.ICOSIAN, Quat.scalar(Ring.GOLDEN, 1))
    buckets = _icosian_elements_by_norm(m)
    counts: dict[int, list[int]] = {}
    for n, quats in buckets.items():
        per_key: dict[LatticeKey, int] = {}
        for q in quats:
            key = module_lattice(element(Order.ICOSIAN, q), one)
            per_key[key] = per_key.get(key, 0) + 1
        counts[n] = sorted(per_key.values())
    return counts
