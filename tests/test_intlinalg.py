import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_forge.errors import InputError
from lambda_forge.intlinalg import (
    Factorization,
    IntMatrix,
    divisors,
    factor,
    hnf,
    hnf_coords,
    hnf_rows,
    in_row_span,
    is_prime,
    lattice_index,
    left_kernel,
    smith_invariants,
    xgcd,
)


def test_factor_examples():
    assert factor(1).factors == ()
    assert factor(12).factors == ((2, 2), (3, 1))
    # trial-division oracle for the Mersenne prime
    m = 2**31 - 1
    assert all(m % d for d in range(2, 46341))
    assert factor(m).factors == ((m, 1),)


def test_factor_rejects_zero():
    with pytest.raises(InputError):
        factor(0)


def test_factor_reconstructs_random():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randrange(1, 10**9)
        f = factor(n)
        prod = 1
        for p, e in f.factors:
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_bad_factorization_rejected():
    with pytest.raises(InputError):
        Factorization(12, ((4, 1), (3, 1)))
    with pytest.raises(InputError):
        Factorization(12, ((2, 1), (3, 1)))


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_hnf_examples():
    ident = IntMatrix.identity(3)
    assert hnf(ident) == ident
    m = IntMatrix.from_rows([[2, 0], [1, 1]])
    assert hnf(m).row_list() == [[1, 1], [0, 2]]
    zero = IntMatrix(2, 2, (0, 0, 0, 0))
    assert hnf(zero) == zero


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=3, max_size=3),
        min_size=1,
        max_size=5,
    )
)
def test_hnf_idempotent_and_spanning(rows):
    h1 = hnf_rows([r[:] for r in rows], 3)
    h2 = hnf_rows([r[:] for r in h1], 3)
    assert h1 == h2
    for r in rows:
        assert not any(r) or in_row_span(r, h1, 3)


def test_lattice_index_examples():
    assert lattice_index(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[1]])) == 2
    assert lattice_index(IntMatrix.identity(2), IntMatrix.identity(2)) == 1
    assert lattice_index(IntMatrix.from_rows([[1, 1], [-1, 1]]), IntMatrix.identity(2)) == 2


def test_lattice_index_rank_and_membership():
    sub = IntMatrix.from_rows([[2, 0]])
    sup = IntMatrix.identity(2)
    assert lattice_index(sub, sup) == "infinite"
    with pytest.raises(InputError):
        lattice_index(IntMatrix.from_rows([[1, 1], [0, 1]]), IntMatrix.from_rows([[2, 0], [0, 2]]))


def test_lattice_index_det_consistency():
    rng = random.Random(3)
    for _ in range(60):
        # full-rank square lattices sub = k * sup-ish
        rows_sup = [[rng.randrange(-5, 6) for _ in range(2)] for _ in range(2)]
        det = rows_sup[0][0] * rows_sup[1][1] - rows_sup[0][1] * rows_sup[1][0]
        if not det:
            continue
        mult = rng.randrange(1, 4)
        rows_sub = [[mult * x for x in r] for r in rows_sup]
        idx = lattice_index(IntMatrix.from_rows(rows_sub), IntMatrix.from_rows(rows_sup))
        assert idx == mult**2


def test_left_kernel():
    k = left_kernel([[1, 1], [2, 2], [0, 3]], 2)
    assert k == [[2, -1, 0]]
    for row in k:
        assert [sum(row[i] * m for i, m in enumerate(col)) for col in zip(*[[1, 1], [2, 2], [0, 3]])] == [0, 0]


MATRICES = st.integers(1, 6).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=m, max_size=m)
    )
)


@settings(max_examples=200, deadline=None)
@given(MATRICES, st.lists(st.integers(-3, 3), min_size=6, max_size=6))
def test_left_kernel_and_coords_random(rows, mults):
    m, n = len(rows), len(rows[0])
    kernel = left_kernel([r[:] for r in rows], n)
    for x in kernel:
        assert all(sum(x[i] * rows[i][j] for i in range(m)) == 0 for j in range(n))
    basis = hnf_rows([r[:] for r in rows], n)
    assert len(kernel) == m - len(basis)
    assert set(smith_invariants(kernel, m)) <= {0, 1}  # saturated
    # coordinates rebuild every vector of the span
    for vec in rows + [[sum(c * r[j] for c, r in zip(mults, rows)) for j in range(n)]]:
        coords = hnf_coords(vec, basis, n)
        assert [sum(c * b[j] for c, b in zip(coords, basis)) for j in range(n)] == vec
    # and refuse a unit vector at a column without a pivot of 1, if any
    pivots = {next(k for k in range(n) if b[k]): b for b in basis}
    outside = [j for j in range(n) if j not in pivots or pivots[j][j] > 1]
    if outside:
        assert hnf_coords([1 if k == outside[0] else 0 for k in range(n)], basis, n) is None


def test_smith_invariants():
    assert smith_invariants([[2, 0], [0, 3]], 2) == [1, 6]
    assert smith_invariants([[1, 0], [0, 1]], 2) == [1, 1]
    assert smith_invariants([[4]], 1) == [4]
    assert smith_invariants([], 2) == [0, 0]


def test_xgcd():
    for a, b in [(12, 18), (-5, 7), (0, 4), (9, 0)]:
        x, y, g = xgcd(a, b)
        assert x * a + y * b == g >= 0
