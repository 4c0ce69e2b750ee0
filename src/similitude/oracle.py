"""Brute-force verification of the similarity counts, sharing no logic with
the closed-form rules.

Every oracle reads one frame census.  A similarity submodule (SSM) of an order
O over Z[w] (w = tau or sqrt2; Z for the lattices Z^4 and D4*) is R(O) inside O
for a similarity R.  R is real-linear, so R(O) is the Z[w]-span of a *frame*:
the images of the Z[w]-basis u of units that `orders` holds for O (Z4,
D4STAR, ICOSIAN, CUBIAN, and `ORDERS` by name), with Gram matrix lam*Gram(u)
for a totally positive lam of norm m (index m^2).  lam runs over one generator
per ideal of norm m, modulo the totally positive units eps^2.  The census
finds every frame among the elements of norm lam, keys each spanned module
once, and checks its completeness: each SSM has |Aut| frames (384 for Z^4,
1152 for D4*, 14400 for the icosians, 2304 for the cubian order), and |Aut| is
the frame count at m = 1.  No theorem about the shape of an SSM (such as
a*O*b) is assumed.  The dot kernels run in float64 only under the bound that
`_search` proves, where every value is an integer below 2^53 and so exact;
every comparison is exact integer equality.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .lattice import LatticeKey, hnf_solve, lattice_key
from .orders import CUBIAN, ICOSIAN, Order, key_basis, solve, structure, times
from .orders import D4STAR, Z4  # noqa: F401  (re-exported: the oracle's public names)
from .quadfield import QuadInt, Ring, is_representable_index


def _lambdas(ring: Ring, m: int) -> list[QuadInt]:
    """One totally positive generator of each ideal of norm m, modulo eps^2.

    lam = a + b w is taken with 1 <= lam/lam' < eps^4: b >= 0 puts lam at or
    above its conjugate, and multiplying by eps^2 multiplies lam/lam' by
    eps^4.  Then lam < eps^2 sqrt(m), which bounds b below 3 (isqrt(m) + 1).
    The trace s = lam + lam' = 2a + c1 b solves s^2 = d b^2 + 4m (d = 5 golden,
    8 sqrt2), and a = (s - c1 b)/2.
    """
    if ring is Ring.RATIONAL:
        return [QuadInt(ring, m)]
    eps2 = QuadInt(ring, *ring.unit) * QuadInt(ring, *ring.unit)
    out = []
    for b in range(3 * math.isqrt(m) + 3):
        a2 = math.isqrt(ring.d * b * b + 4 * m) - ring.c1 * b
        lam = QuadInt(ring, a2 // 2, b)
        if a2 % 2 == 0 and lam.norm() == m and (eps2 * eps2 * lam.conjugate() - lam).sign() > 0:
            out.append(lam)
    return out


def _form(lattice: Order, s: int) -> np.ndarray:
    """L with X @ L @ Y.T = a * s + b for the dot product 4 Re(x y-bar) =
    a + b w of doubled coordinates X = p + q w, Y = p' + q' w: with
    w^2 = c0 + c1 w, a = p.p' + c0 q.q' and b = p.q' + q.p' + c1 q.q'."""
    i, ring = np.eye(4, dtype=np.int64), lattice.ring
    return np.block([[s * i, i], [i, (ring.c0 * s + ring.c1) * i]])[:lattice.rank, :lattice.rank]


def _norm_vectors(lattice: Order, lam: QuadInt) -> tuple[np.ndarray, np.ndarray]:
    """Doubled coordinates X of the elements of norm lam, and their key
    coordinates: sum X_i^2 = 4 lam with X/2 in the order, by a
    meet-in-the-middle join of pairs of coordinate squares a + b w, packed
    as a * 2^24 + b.

    A coordinate c = p + q w has c^2 <= 4 lam under both embeddings, that
    is 4 lam - c^2 = A + B w is totally nonnegative: P >= 0 and P^2 >= d B^2
    for P +- B sqrt(d) = 2(A + B w), 2(A + B w'), where P = 2A + c1 B and
    d = c1^2 + 4 c0 (5 over Z[tau], 8 over Z[sqrt2]).  So |c| <= 2 sqrt(T)
    in each, T = lam + lam', which bounds |q| by 2r (w - w' > 2) and |p| by
    6r, r = isqrt(T) + 1.  Under T < 2^20 (below) r <= 2^10, the parts of c^2
    are below 44 * 2^20 in absolute value and those of 4 lam in [0, 4T] (lam
    is totally positive with b >= 0), so |A|, |B| < 2^26, |P| < 3 * 2^26 and,
    as d <= 8, P^2 and d B^2 are below 2^57: these tests are exact in int64.

    T < 2^20 is required here, before any array is built, and it bounds
    both this packing and the dot packing of `_search`.  An element
    x = a + b w has b = (x - x')/(w - w') and |a| <= max(|x|, |x'|).  Each
    square c^2 lies in [0, 4T] under both embeddings, so its w part is
    below 4T/2 = 2T and its rational part at most 4T.  A pair sum then has
    |b| < 4T, and 4 lam - pair has |b| < 2T + 4T = 6T < 2^23 (the w part of
    lam is below T/2).  Every w part is thus below half the pack, so each
    packed value determines its (a, b), and a pair matches 4 lam exactly
    when both parts agree; the rational parts stay below 12T, the packed
    values below 2^48.  Over Z, b = 0 and T = 2 lam.  The int64 `solve`
    then meets |X| <= 6r <= 6,144, max|U| <= 2 and rank n <= 8, so its
    |q| <= 2^7 * 6,145 < 2^20 and |q U| < 2 * 2^8 * 6,145 < 2^22 (asserted).
    """
    big_t = (lam + lam.conjugate()).a
    if big_t >= 1 << 20:
        raise OverflowError(f"lambda={lam} is too large for the int64 packings (T >= 2^20)")
    ring, pack = lattice.ring, 1 << 24
    r = math.isqrt(big_t) + 1
    qs = np.arange(-2 * r, 2 * r + 1) if lattice.rank == 8 else np.zeros(1, dtype=np.int64)
    p, q = (g.ravel() for g in np.meshgrid(np.arange(-6 * r, 6 * r + 1), qs, indexing="ij"))
    sq_a, sq_b = p * p + ring.c0 * q * q, 2 * p * q + ring.c1 * q * q  # c^2 = sq_a + sq_b w
    room_a, room_b = 4 * lam.a - sq_a, 4 * lam.b - sq_b
    big_p = 2 * room_a + ring.c1 * room_b
    keep = (big_p >= 0) & (big_p * big_p >= ring.d * room_b * room_b)
    cands, squares = np.stack([p[keep], q[keep]], axis=1), sq_a[keep] * pack + sq_b[keep]
    k = len(cands)
    i, j = np.divmod(np.arange(k * k), k)
    pair = squares[i] + squares[j]
    order = np.argsort(pair, kind="stable")
    need = 4 * lam.a * pack + 4 * lam.b - pair
    lo = np.searchsorted(pair[order], need, "left")
    count = np.searchsorted(pair[order], need, "right") - lo
    left = np.repeat(np.arange(k * k), count)
    start = np.repeat(lo - np.cumsum(count) + count, count)
    right = order[start + np.arange(len(left))]
    idx = np.stack([i[left], j[left], i[right], j[right]], axis=1)
    x = np.hstack([cands[idx, 0], cands[idx, 1]])[:, :lattice.rank]
    coords, inside = solve(lattice, x)
    return x[inside], coords[inside]


@lru_cache(maxsize=None)
def _units(lattice: Order) -> np.ndarray:
    """Key coordinates of the units of the order: its vectors of norm 1."""
    return _norm_vectors(lattice, QuadInt(lattice.ring, 1))[1]


class LambdaClass(NamedTuple):
    lam: QuadInt
    vectors: int
    frames: int
    keys: frozenset[LatticeKey]


# Bytes per block of v_0: its dot rows, Gram blocks and frame indices, as
# `_block_frames` counts them.  The first block is one v_0, and each block
# sizes the next from the bytes per v_0 it used.  2^18 bytes (about nine v_0
# at icosian m = 9, n = 1,200) spread the fixed cost of a block's NumPy
# calls; a block peaks at about twice its count, and 2^19 bytes would raise
# the peak RSS of `oracle --module icosian --m 9` by 0.3-0.5 MB more.
_BLOCK_BYTES = 1 << 18


def _padded(mask: np.ndarray) -> np.ndarray:
    """Column indices of the True entries of each row of `mask`, padded with
    -1 to a common width."""
    rows, cols = np.divmod(np.flatnonzero(mask), mask.shape[1])
    pos = np.arange(len(rows)) - np.searchsorted(rows, rows)
    out = np.full((len(mask), pos.max(initial=-1) + 1), -1, dtype=np.intp)
    out[rows, pos] = cols
    return out


def _words(mask: np.ndarray) -> np.ndarray:
    """The last axis of a bool array as rows of uint64 words, one row per
    entry of the other axes (C order), bit j of word w holding entry 64 w + j."""
    rows, width = math.prod(mask.shape[:-1]), mask.shape[-1]
    out = np.zeros((rows, -(-width // 64) * 64), dtype=bool)
    out[:, :width] = mask.reshape(rows, width)
    return np.packbits(out, bitorder="little").view(np.uint64).reshape(rows, out.shape[1] // 64)


def _block_frames(x: np.ndarray, y: np.ndarray, t: list[list[int]],
                  lo: int, hi: int) -> tuple[tuple[np.ndarray, ...], int]:
    """The frames (v_0, v_1, v_2, v_3) with lo <= v_0 < hi, as four index
    arrays in no particular order, and the bytes of the block's dot rows,
    Gram blocks and frame indices.  x and y end in a NaN row, the pad of
    the candidate rows: every vector is nonzero, so a dot with the pad has a
    NaN term, is NaN and equals no target, and the pads need no mask.  t
    holds the packed target dots.

    The dot rows of v_0 give its candidates B, C, D for v_1, v_2, v_3 as
    index rows padded with -1; candidate sets, Gram blocks and word masks
    that share their dots are computed once.  The (v_1, v_2) pairs are the
    matches in B.C, and v_3 the set bits of the AND of their B.D and C.D
    rows, packed in uint64 words: a pair has almost always one v_3."""
    dots = x[lo:hi] @ y[:-1].T
    cands = {v: _padded(dots == v) for v in set(t[0][1:])}
    pairs = {(t[0][i], t[0][j]) for i, j in ((1, 2), (1, 3), (2, 3))}
    grams = {(p, q): np.take(x, cands[p], axis=0) @ np.take(y, cands[q], axis=0).transpose(0, 2, 1)
             for p, q in pairs}
    b, c, d = (cands[v] for v in t[0][1:])
    bc = grams[t[0][1], t[0][2]] == t[1][2]
    ends = [(t[0][i], t[0][3], t[i][3]) for i in (1, 2)]  # B.D and C.D, once if equal
    words = {e: _words(grams[e[:2]] == e[2]) for e in set(ends)}
    bd, cd = (words[e] for e in ends)
    nbytes = dots.nbytes + sum(g.nbytes for g in grams.values())
    del dots, grams  # the frames need only the masks
    # flat indices: ab = pa kb + pb into b and the rows of bd, ac = pa kc + pc
    ab, pc = np.divmod(np.flatnonzero(bc), c.shape[1])
    pa = ab // b.shape[1]
    ac = pa * c.shape[1] + pc
    pair_words = np.take(bd, ab, axis=0) & np.take(cd, ac, axis=0)
    flat = np.flatnonzero(pair_words)
    pair, word = np.divmod(flat, pair_words.shape[1])
    bits = pair_words.ravel()[flat]
    hit, pos = [], []
    while True:
        below = bits - np.uint64(1)
        hit.append(pair)
        pos.append(64 * word + np.bitwise_count(bits ^ below) - 1)  # the lowest set bit
        bits &= below
        more = bits != 0
        if not more.any():
            break
        pair, word, bits = pair[more], word[more], bits[more]
    hit, pos = np.concatenate(hit), np.concatenate(pos)
    pa = pa[hit]
    return ((lo + pa, b.ravel()[ab[hit]], c.ravel()[ac[hit]], d.ravel()[pa * d.shape[1] + pos]),
            nbytes + 4 * pos.nbytes)


def _shell(table: tuple[np.ndarray, np.ndarray], units: np.ndarray,
           rows: np.ndarray) -> np.ndarray | None:
    """Indices of the norm-lam vectors in the SSM with Z-basis `rows` (a
    frame F, and over Z[w] w F below it, in key coordinates): R scales the
    Z[w]-valued norm by lam, so they are the images units @ rows of the
    units, each looked up in `table` (the vectors' key coordinates as sorted
    byte strings, and their indices).  None if an image is not a vector."""
    keys, index = table
    images = (units @ rows).view(keys.dtype).ravel()
    pos = np.minimum(np.searchsorted(keys, images), len(keys) - 1)
    return index[pos] if (keys[pos] == images).all() else None


@lru_cache(maxsize=128)
def _search(lattice: Order, lam: QuadInt) -> LambdaClass:
    """Count the frames with Gram lam * Gram(u) and key the SSMs they span.

    The v_0 are taken in blocks (`_block_frames`), so no n x n matrix is
    held.
    A dot a + b w is packed as a * S + b.  Each embedding of a dot of
    norm-lam vectors is at most 4T in absolute value (Cauchy-Schwarz,
    T = lam + lam'), so |b| < 4T, |a| < 11T and S = 8T + 1 packs
    injectively.

    The kernels compute each packed dot as x . y with y = x L (L = `_form`),
    over the rational parts p and w parts q of the doubled coordinates
    X = p + q w (over Z, x = p and y = S p).  As 4-vectors |X|^2 = 4 lam and
    |X'|^2 = 4 lam', so q = (X - X')/(w - w') and p = (w X' - w' X)/(w - w')
    give |q|^2 <= 8T/(w - w')^2 and |p|^2 <= 4(w^2 + w'^2) T/(w - w')^2:
    |p|^2 <= 12T/5 and |q|^2 <= 8T/5 over Z[tau], |p|^2 <= 2T and
    |q|^2 <= T over Z[sqrt2].  By Cauchy-Schwarz the sum of |products| of a
    dot, at most S|p_a||p_b| + |p_a||q_b| + |q_a||p_b| + c|q_a||q_b| with
    c = c0 S + c1 (S + 1 or 2S), is then below 4ST + 6T = 32T^2 + 10T
    (2ST over Z).  Every product and every partial sum, in whatever order
    BLAS adds them, is an integer no larger, so float64 is exact while
    32T^2 + 10T < 2^53, that is T < 2^24.  `_norm_vectors` admits only
    T < 2^20, so the kernels always run in float64, and the comparisons with
    the packed targets are exact equality of integers.

    Each SSM found gets a shell bit, set in the words of the norm-lam
    vectors inside it (`_shell`).  A frame whose four vectors share a shell
    bit spans that SSM (same index), so only frames no shell covers get a
    `lattice_key`, of v_i (and w v_i) in key coordinates.
    """
    x, coords = _norm_vectors(lattice, lam)
    n = len(x)
    rows_as_bytes = coords.view(np.dtype((np.void, coords.strides[0]))).ravel()
    index = np.argsort(rows_as_bytes)
    table = rows_as_bytes[index], index
    units = _units(lattice)
    big_t = (lam + lam.conjugate()).a
    form = _form(lattice, 8 * big_t + 1)
    u = np.array(lattice.units, dtype=np.int64)
    t = (u @ form @ times(lam, u).T).tolist()
    assert 32 * big_t * big_t + 10 * big_t < 1 << 53  # T < 2^20 (`_norm_vectors`)
    pad = np.full((1, x.shape[1]), np.nan)
    x, y = np.vstack([x, pad]), np.vstack([x @ form, pad])
    frames, keys = 0, set()
    # row v, bit i of word i // 64: v is inside SSM i (a row per vector, gathered whole)
    shells = np.zeros((n, 1), dtype=np.uint64)
    lo, step = 0, 1
    while lo < n:
        hi = min(lo + step, n)
        (fa, fb, fc, fd), used = _block_frames(x, y, t, lo, hi)
        step = max(1, _BLOCK_BYTES * (hi - lo) // used)
        lo = hi
        frames += len(fd)
        cover = np.take(shells, fa, axis=0)
        for v in (fb, fc, fd):
            cover &= np.take(shells, v, axis=0)
        todo = ~cover.any(axis=1)
        while todo.any():
            f = np.flatnonzero(todo)[0]
            quad = [int(v[f]) for v in (fa, fb, fc, fd)]
            rows = key_basis(lattice, coords[quad])
            hits = _shell(table, units, rows)
            if hits is None:
                raise AssertionError(f"{lattice.name} lambda={lam}: the frame {quad} maps a unit "
                                     f"outside the norm-lambda vectors")
            shell = np.zeros(n, dtype=bool)
            shell[hits] = True
            key = lattice_key(rows.tolist(), coords.shape[1])
            if not shell[quad].all() or key in keys:
                raise AssertionError(f"{lattice.name} lambda={lam}: the frame {quad} escaped "
                                     f"its shell")
            if len(keys) == 64 * shells.shape[1]:
                shells = np.hstack([shells, np.zeros_like(shells)])
            shells[shell, len(keys) // 64] |= np.uint64(1 << len(keys) % 64)
            keys.add(key)
            todo &= ~(shell[fa] & shell[fb] & shell[fc] & shell[fd])
    return LambdaClass(lam, n, frames, frozenset(keys))


@lru_cache(maxsize=64)
def census(lattice: Order, m: int) -> tuple[LambdaClass, ...]:
    """The SSMs of index m^2, one LambdaClass per lam, checked complete:
    each lam has |Aut| frames per SSM (|Aut| is the frame count at m = 1),
    and no SSM appears under two lam.  ValueError unless 1 <= m <= max_m
    of the order and m^2 is the index of an SSM at all."""
    if not 1 <= m <= lattice.max_m:
        raise ValueError(f"m = {m} is outside the {lattice.name} census bound "
                         f"1 <= m <= {lattice.max_m}")
    if not is_representable_index(m, lattice.ring):
        raise ValueError(f"index {m}^2 is not attainable for the {lattice.name} order")
    aut = _search(lattice, QuadInt(lattice.ring, 1)).frames
    classes, seen = [], set()
    for lam in _lambdas(lattice.ring, m):
        c = _search(lattice, lam)
        if c.frames != aut * len(c.keys):
            raise AssertionError(f"{lattice.name} m={m} lambda={lam}: {c.frames} frames "
                                 f"!= |Aut| {aut} * {len(c.keys)} SSMs")
        if seen & c.keys:
            raise AssertionError(f"{lattice.name} m={m}: an SSM appears under two lambda classes")
        seen |= c.keys
        classes.append(c)
    return tuple(classes)


def _frames(lattice: Order, m: int) -> tuple[int, frozenset[LatticeKey]]:
    """(frames, SSM keys) of index m^2, summed over the lam classes."""
    classes = census(lattice, m)
    return sum(c.frames for c in classes), frozenset().union(*(c.keys for c in classes))


def is_similar_sublattice(key: LatticeKey, lattice: Order) -> bool:
    """True iff the key (in key coordinates: rank 4 over Z, 8 over Z[w]) is
    an inflated isometric image of the order, spanned by a frame: its index
    is a square m^2 and the census, which refuses m > max_m, finds it."""
    if len(key.hnf) != lattice.rank:
        raise ValueError(f"{lattice.name} keys have rank {lattice.rank}, not {len(key.hnf)}")
    m = math.isqrt(key.index)
    return m * m == key.index and key in _frames(lattice, m)[1]


def count_ssl_bruteforce(lattice: Order, m: int) -> int:
    """Number of index-m^2 sublattices that are similar images of the ambient
    lattice, by exhaustive frame enumeration."""
    return len(_frames(lattice, m)[1])


class SSM(NamedTuple):
    key: LatticeKey
    kind: str  # "left-ideal" | "right-ideal" | "two-sided" | "product"


def enumerate_ssm(lattice: Order, m: int) -> list[SSM]:
    """All SSMs of index m^2 of any of the four orders, each with its kind:
    a right ideal is stable under right multiplication by the order, a left
    ideal under left multiplication, a two-sided ideal under both."""
    t = structure(lattice)
    # x -> x u_i, then x -> u_i x, for the four units u_i (the first key basis elements)
    mult = np.concatenate([t[:, :4].transpose(1, 0, 2), t[:4]])
    out = []
    for key in _frames(lattice, m)[1]:
        products = (np.array(key.hnf) @ mult).reshape(-1, len(key.hnf))
        r, l = hnf_solve(key.hnf, products)[1].reshape(2, -1).all(axis=1)
        out.append(SSM(key, ("product", "left-ideal", "right-ideal", "two-sided")[2 * r + l]))
    out.sort(key=lambda s: s.key.hnf)
    return out


def enumerate_ssm_icosian(m: int) -> list[SSM]:
    """All similarity submodules of the icosian order of index m^2."""
    return enumerate_ssm(ICOSIAN, m)


def enumerate_ssm_cubian(m: int) -> list[SSM]:
    """All similarity submodules of the cubian order of index m^2."""
    return enumerate_ssm(CUBIAN, m)
