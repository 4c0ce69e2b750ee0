"""Integer lattices identified by Hermite-normal-form generator matrices.

Basis vectors are rows.  The normal form is lower triangular with positive
diagonal and below-diagonal entries reduced modulo the diagonal above them,
so two finite-index submodules are equal iff their keys are equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LatticeKey:
    rank: int
    hnf: tuple[tuple[int, ...], ...]
    index: int

    def __post_init__(self):
        if len(self.hnf) != self.rank or any(len(r) != self.rank for r in self.hnf):
            raise ValueError("hnf must be a rank x rank matrix")


def hnf_rows(rows, dim: int) -> tuple[tuple[int, ...], ...]:
    """Row HNF of the lattice spanned by `rows` in Z^dim; must have full rank.

    Only the first dim columns are reduced.  Columns after them ride along
    with the row operations, so the rows [B | I] of a square B come back as
    [H | U] with H = U B and U unimodular."""
    work = [list(r) for r in rows if any(r)]
    basis: list[list[int] | None] = [None] * dim
    for col in range(dim - 1, -1, -1):
        nz = [r for r in work if r[col] != 0]
        work = [r for r in work if r[col] == 0]
        if not nz:
            raise ValueError("generators do not span a full-rank lattice")
        p = nz.pop()
        while nz:
            q = nz.pop()
            while q[col] != 0:
                f = p[col] // q[col]
                if f:
                    p = [pi - f * qi for pi, qi in zip(p, q)]
                p, q = q, p
            work.append(q)
        if p[col] < 0:
            p = [-x for x in p]
        basis[col] = p
    # reduce below-diagonal entries: row i, columns j < i, modulo basis[j][j]
    for i in range(dim):
        for j in range(i - 1, -1, -1):
            f = basis[i][j] // basis[j][j]
            if f:
                basis[i] = [x - f * y for x, y in zip(basis[i], basis[j])]
    return tuple(tuple(r) for r in basis)


def lattice_key(rows, dim: int) -> LatticeKey:
    h = hnf_rows(rows, dim)
    index = math.prod(h[i][i] for i in range(dim))
    return LatticeKey(dim, h, index)


def hnf_contains(hnf: tuple[tuple[int, ...], ...], vecs) -> np.ndarray:
    """Row mask of the integer rows of `vecs` (int64) that lie in the lattice
    with row basis `hnf`."""
    v = np.array(vecs, dtype=np.int64)
    ok = np.ones(len(v), dtype=bool)
    for i in range(len(hnf) - 1, -1, -1):
        q, rem = np.divmod(v[:, i], hnf[i][i])
        ok &= rem == 0
        v -= np.outer(q, hnf[i])
    return ok
