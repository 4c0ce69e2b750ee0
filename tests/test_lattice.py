import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from similitude.lattice import LatticeKey, _hnf_solve_fits, hnf_rows, hnf_solve, lattice_key


def random_unimodular_ops(rng, rows, steps=12):
    rows = [list(r) for r in rows]
    n = len(rows)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        f = rng.randint(-3, 3)
        rows[i] = [a + f * b for a, b in zip(rows[i], rows[j])]
        if rng.random() < 0.3:
            rows[i] = [-a for a in rows[i]]
    return rows


def test_hnf_is_canonical_under_row_operations():
    rng = random.Random(40)
    for _ in range(200):
        diag = [rng.randint(1, 5) for _ in range(4)]
        rows = [[0] * 4 for _ in range(4)]
        for i in range(4):
            rows[i][i] = diag[i]
            for j in range(i):
                rows[i][j] = rng.randint(0, diag[j] - 1)
        key = lattice_key(rows, 4)
        assert key.hnf == tuple(tuple(r) for r in rows)  # already normal
        scrambled = random_unimodular_ops(rng, rows)
        assert lattice_key(scrambled, 4) == key


row_ops = st.lists(
    st.tuples(st.sampled_from(("add", "swap", "negate")), st.integers(0, 3),
              st.integers(0, 3), st.integers(-4, 4)),
    max_size=20,
)
int_rows = st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4), min_size=4, max_size=4)


@settings(max_examples=300, deadline=None)
@given(int_rows, row_ops, st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_hnf_key_is_invariant_under_unimodular_change_of_basis(basis, ops, coeffs):
    det = round(np.linalg.det(np.array(basis, dtype=float)))
    assume(det != 0)
    u = [[int(i == j) for j in range(4)] for i in range(4)]
    for op, i, j, f in ops:
        if op == "add" and i != j:
            u[i] = [a + f * b for a, b in zip(u[i], u[j])]
        elif op == "swap":
            u[i], u[j] = u[j], u[i]
        elif op == "negate":
            u[i] = [-a for a in u[i]]
    image = [[sum(u[i][k] * basis[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
    key = lattice_key(basis, 4)
    assert key.index == abs(det)
    assert lattice_key(image, 4) == key
    extra = [sum(c * row[j] for c, row in zip(coeffs, basis)) for j in range(4)]
    assert lattice_key(basis + [extra], 4) == key


@pytest.mark.parametrize("n", [4, 8])
def test_trailing_columns_ride_along(n):
    # the rows [B | I] reduce to [H | U]: H is the HNF of B and H = U B, so
    # U is unimodular (det H = |det B|)
    rng = random.Random(n)
    for _ in range(40):
        b = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        det = round(np.linalg.det(np.array(b, dtype=float)))
        if det == 0:
            continue
        hu = hnf_rows([row + [int(i == j) for j in range(n)] for i, row in enumerate(b)], n)
        h, u = [list(r[:n]) for r in hu], [list(r[n:]) for r in hu]
        assert h == [list(r) for r in hnf_rows(b, n)]
        assert (np.array(u, dtype=object) @ np.array(b, dtype=object)).tolist() == h
        assert np.prod(np.diag(np.array(h, dtype=object))) == abs(det)


def test_hnf_index_is_diagonal_product():
    key = lattice_key([(2, 0, 0, 0), (1, 3, 0, 0), (0, 1, 1, 0), (1, 1, 0, 5)], 4)
    assert key.index == 30


def test_rank_deficient_rejected():
    with pytest.raises(ValueError, match="full-rank"):
        hnf_rows([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (2, 2, 0, 0)], 4)


def test_membership():
    h = hnf_rows([(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 1, 1, 1)], 4)
    assert hnf_solve(h, [(1, 1, 1, 1), (2, 0, 0, 0), (1, 0, 0, 0)])[1].tolist() == [True, True, False]
    sub = hnf_rows([(4, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 1, 1, 1)], 4)
    assert hnf_solve(h, sub)[1].all()
    assert not hnf_solve(sub, h)[1].all()


def random_hnf(rng, n, top):
    """A random full-rank HNF of size n with diagonal entries up to `top`."""
    diag = [rng.randint(1, top) for _ in range(n)]
    return tuple(tuple(rng.randrange(diag[j]) if j < i else diag[i] * (i == j) for j in range(n))
                 for i in range(n))


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_hnf_solve_returns_the_coordinates(dtype):
    # member rows q H come back as q; adding r with 0 < r_j < h_jj in one
    # column leaves a remainder, so the row is outside
    rng = random.Random(17)
    for n in (1, 4, 8):
        for _ in range(30):
            h = random_hnf(rng, n, 12)
            q = np.array([[rng.randint(-50, 50) for _ in range(n)] for _ in range(20)], dtype=dtype)
            x = q @ np.array(h, dtype=dtype)
            coords, inside = hnf_solve(h, x)
            assert coords.dtype == x.dtype and coords.tolist() == q.tolist() and inside.all()
            j = next((j for j in range(n) if h[j][j] > 1), None)
            if j is not None:
                x[:, j] += rng.randint(1, h[j][j] - 1)
                assert not hnf_solve(h, x)[1].any()


def test_int64_hnf_solve_holds_its_bound():
    # rows up to the bound max h_ii 2^(n-1) (max|x| + 1) < 2^63 give the
    # exact object solve's result; a row one past it is refused
    rng = random.Random(23)
    np_rng = np.random.default_rng(23)
    for n in (4, 8):
        for _ in range(20):
            h = random_hnf(rng, n, 1000)
            top_h = max(h[i][i] for i in range(n))
            top = ((1 << 63) - 1) // (top_h << (n - 1)) - 1
            assert _hnf_solve_fits(top_h, n, top) and not _hnf_solve_fits(top_h, n, top + 1)
            x = np_rng.integers(-top, top, (50, n), endpoint=True)
            x[0], x[1] = top, -top
            coords, inside = hnf_solve(h, x)
            exact, exact_inside = hnf_solve(h, x.astype(object))
            assert coords.tolist() == exact.tolist() and inside.tolist() == exact_inside.tolist()
            x[0, 0] = -top - 1
            message = rf"hnf_solve: max\|x\| = {top + 1} is above the int64 bound {top}$"
            with pytest.raises(AssertionError, match=message):
                hnf_solve(h, x)
    # narrower integer rows are solved in int64: -2^31 // 3 * 3 leaves int32
    x = np.array([[-1 << 31, 0]], dtype=np.int32)
    coords, inside = hnf_solve(((3, 0), (2, 5)), x)
    assert coords.dtype == np.int64 and coords.tolist() == [[-715827883, 0]] and not inside[0]


def test_key_shape_validation():
    assert LatticeKey._fields == ("hnf",)
    key = LatticeKey(((2, 0, 0), (1, 3, 0), (0, 2, 5)))
    assert key.index == 30 and len(key.hnf) == 3
    for bad in (((1, 0), (0, 1, 0)),  # not square
                ((1, 0), (0, 1), (0, 0)),  # not square
                ((1, 1), (0, 1)),  # nonzero above the diagonal
                ((1, 0), (0, 0)),  # zero on the diagonal
                ((-1, 0), (0, 1)),  # negative diagonal
                ((2, 0), (2, 1)),  # 2 not reduced modulo 2
                ((2, 0), (-1, 1))):  # -1 not reduced modulo 2
        with pytest.raises(ValueError, match="Hermite normal form"):
            LatticeKey(bad)
