"""Integer lattices identified by Hermite-normal-form generator matrices.

Basis vectors are rows.  The normal form is lower triangular with positive
diagonal and below-diagonal entries reduced modulo the diagonal above them,
so two finite-index submodules are equal iff their forms are: a key is its
form alone, checked when built (ValueError), and its index is prod h_ii.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .arith import magnitude


class LatticeKey(namedtuple("LatticeKey", "hnf")):
    __slots__ = ()

    def __new__(cls, hnf: tuple[tuple[int, ...], ...]):
        if not all(len(r) == len(hnf) and r[i] > 0 and not any(r[i + 1:])
                   and all(0 <= r[j] < hnf[j][j] for j in range(i)) for i, r in enumerate(hnf)):
            raise ValueError(f"not a Hermite normal form: {hnf}")
        return tuple.__new__(cls, (hnf,))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too
    index = property(lambda self: math.prod(r[i] for i, r in enumerate(self.hnf)))


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
    return LatticeKey(hnf_rows(rows, dim))


def hnf_solve(hnf: tuple[tuple[int, ...], ...], x) -> tuple[np.ndarray, np.ndarray]:
    """(q, inside): x = q H on the rows of x in the lattice with row basis
    H = `hnf`, which `inside` marks; exact for object x, else int64.
    Back-substitution from the last column: step i takes q_i = v_i // h_ii
    and subtracts q_i H_i from v (x at the start), leaving v_i mod h_ii in
    column i, where no later H_j is nonzero: a row is inside iff no
    remainder is left.  With M = max|x|, v_j = x_j - sum_{i>j} q_i h_ij and
    0 <= h_ij < h_jj give |q_j| <= M + 1 + sum_{i>j} |q_i|, so by induction
    |q_j| <= 2^(n-1-j) (M + 1), and each partial v_j and product q_i h_ij is
    at most h_jj 2^(n-1-j) (M + 1): int64 is exact while max h_ii 2^(n-1)
    (M + 1) < 2^63 (asserted).  In the kind test of `oracle.enumerate_ssm`,
    h_ii <= m^2 <= 900, max|T| <= 3 and n <= 8 give M <= 21,600: under 2^32."""
    v, n = np.array(x), len(hnf)
    if v.dtype != object:
        v = v.astype(np.int64, copy=False)
        big_x = magnitude(v)
        top = ((1 << 63) - 1) // (max(r[i] for i, r in enumerate(hnf)) << (n - 1)) - 1
        assert big_x <= top, f"hnf_solve: max|x| = {big_x} is above the int64 bound {top}"
    h, q = np.array(hnf, dtype=v.dtype), np.zeros_like(v)
    for i in range(n - 1, -1, -1):
        q[:, i] = v[:, i] // h[i, i]
        v -= np.outer(q[:, i], h[i])
    return q, (v == 0).all(axis=1)
