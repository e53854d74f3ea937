import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_forge.errors import InputError
from lambda_forge.intlinalg import (
    Factorization,
    divisors,
    divisors_of_factors,
    factor,
    factor_all,
    hnf_coords,
    hnf_rows,
    in_row_span,
    is_prime,
    lattice_index,
    left_kernel,
    primes_upto,
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


def test_is_prime_matches_a_sieve():
    """Trial division by the primes up to 47 answers alone below 53^2;
    the numbers around that bound (43*47, 47^2, 47*53, 53^2, 2813 = 29*97)
    and every other n < 10^4 agree with a sieve of Eratosthenes."""
    limit = 10**4
    sieve = [False, False] + [True] * (limit - 2)
    for p in range(2, 100):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(range(p * p, limit, p))
    assert [is_prime(n) for n in range(-3, limit)] == [False] * 3 + sieve
    assert not any(map(is_prime, (2021, 2209, 2491, 2809, 2813))) and all(map(is_prime, (2801, 2803, 2819)))
    # a composite with no prime factor up to 47 is still refused as a prime
    with pytest.raises(InputError):
        Factorization(2491, ((2491, 1),))


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert all(divisors(n) == [d for d in range(1, n + 1) if n % d == 0] for n in range(1, 200))
    assert divisors_of_factors(((2, 2), (3, 1))) == [1, 2, 3, 4, 6, 12] and divisors_of_factors(()) == [1]


def test_factor_table_matches_factor():
    """One smallest-prime-factor table for values dense in their range,
    factor() one by one for sparse ones: the same pairs either way."""
    rng = random.Random(7)
    for values in [range(1, 500), rng.sample(range(1, 3000), 400), divisors(720720), [1], [], [10**12 + 39, 2**40]]:
        assert factor_all(values) == {n: factor(n).factors for n in values}
    assert primes_upto(100) == [p for p in range(101) if is_prime(p)]
    assert primes_upto(1) == []


IDENTITY_2 = [[1, 0], [0, 1]]


def test_hnf_examples():
    ident = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert hnf_rows(ident, 3) == ident
    assert hnf_rows([[2, 0], [1, 1]], 2) == [[1, 1], [0, 2]]
    assert hnf_rows([[0, 0], [0, 0]], 2) == []


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=3, max_size=3),
        min_size=1,
        max_size=5,
    )
)
def test_hnf_idempotent_and_spanning(rows):
    h1 = hnf_rows(rows, 3)
    h2 = hnf_rows(h1, 3)
    assert h1 == h2
    for r in rows:
        assert not any(r) or in_row_span(r, h1, 3)


def test_lattice_index_examples():
    assert lattice_index([[2]], [[1]], 1) == 2
    assert lattice_index(IDENTITY_2, IDENTITY_2, 2) == 1
    assert lattice_index([[1, 1], [-1, 1]], IDENTITY_2, 2) == 2


def test_lattice_index_rank_and_membership():
    assert lattice_index([[2, 0]], IDENTITY_2, 2) == "infinite"
    with pytest.raises(InputError):
        lattice_index([[1, 1], [0, 1]], [[2, 0], [0, 2]], 2)


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
        idx = lattice_index(rows_sub, rows_sup, 2)
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
def test_left_kernel_and_coords_random(smith_reference, rows, mults):
    m, n = len(rows), len(rows[0])
    kernel = left_kernel(rows, n)
    for x in kernel:
        assert all(sum(x[i] * rows[i][j] for i in range(m)) == 0 for j in range(n))
    basis = hnf_rows(rows, n)
    assert len(kernel) == m - len(basis)
    assert set(smith_reference(kernel, m)) <= {0, 1}  # saturated
    # coordinates rebuild every vector of the span
    for vec in rows + [[sum(c * r[j] for c, r in zip(mults, rows)) for j in range(n)]]:
        coords = hnf_coords(vec, basis, n)
        assert [sum(c * b[j] for c, b in zip(coords, basis)) for j in range(n)] == vec
    # and refuse a unit vector at a column without a pivot of 1, if any
    pivots = {next(k for k in range(n) if b[k]): b for b in basis}
    outside = [j for j in range(n) if j not in pivots or pivots[j][j] > 1]
    if outside:
        assert hnf_coords([1 if k == outside[0] else 0 for k in range(n)], basis, n) is None


@st.composite
def smith_matrices(draw):
    """0..8 rows of 1..8 entries in [-50, 50], some columns zeroed, and some
    rows replaced by zero or by a combination of two other rows."""
    m, n = draw(st.integers(0, 8)), draw(st.integers(1, 8))
    zero_cols = draw(st.sets(st.integers(0, n - 1)))
    rows = [
        [0 if j in zero_cols else x for j, x in enumerate(r)]
        for r in draw(st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n), min_size=m, max_size=m))
    ]
    for i in draw(st.sets(st.integers(0, m - 1), max_size=m)) if m else ():
        c, d = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        i1, i2 = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        rows[i] = [c * x + d * y for x, y in zip(rows[i1], rows[i2])]
    return rows, n


@pytest.fixture(scope="module")
def sympy():
    """sympy is an oracle only, never a runtime dependency."""
    return pytest.importorskip("sympy")


def _sympy_matrix(sympy, rows, n):
    return sympy.Matrix(len(rows), n, [x for r in rows for x in r])


def test_smith_reference_examples(smith_reference):
    assert smith_reference([[2, 0], [0, 3]], 2) == [1, 6]
    assert smith_reference([[1, 0], [0, 1]], 2) == [1, 1]
    assert smith_reference([[4]], 1) == [4]
    assert smith_reference([], 2) == [0, 0]


@settings(max_examples=150, deadline=None)
@given(smith_matrices())
def test_smith_reference_matches_sympy(sympy, smith_reference, matrix):
    """The direct Smith elimination is the oracle for kernel saturation and
    for the cotangent quotient, so it is checked against sympy in turn."""
    from sympy.matrices.normalforms import invariant_factors

    rows, n = matrix
    theirs = [int(d) for d in invariant_factors(_sympy_matrix(sympy, rows, n), domain=sympy.ZZ)]
    assert smith_reference(rows, n) == theirs + [0] * (n - len(theirs))


@settings(max_examples=150, deadline=None)
@given(smith_matrices())
def test_hnf_rows_match_sympy(sympy, matrix):
    """sympy's Hermite form is column-style: the columns of the form of the
    transpose span the row lattice."""
    from sympy.matrices.normalforms import hermite_normal_form

    rows, n = matrix
    h = hermite_normal_form(_sympy_matrix(sympy, rows, n).T)
    theirs = [[int(x) for x in h.col(j)] for j in range(h.cols)]
    ours = hnf_rows(rows, n)
    assert all(in_row_span(r, ours, n) for r in theirs)
    assert all(in_row_span(r, hnf_rows(theirs, n), n) for r in ours)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**10) | st.sampled_from([(2**31 - 1) * (2**61 - 1), 1_000_003**2 * 999_983]))
def test_factor_matches_sympy(sympy, n):
    assert factor(n).factors == tuple(sorted(sympy.factorint(n).items()))


def test_kernel_input_contract():
    """Tuple rows are accepted and give the list-row answers; no kernel
    function mutates its argument; lattice_index refuses rows of the wrong
    length."""
    rows = [[4, 6, 0], [2, -2, 8], [6, 4, 8], [0, 0, 0]]
    sup = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    basis = hnf_rows(rows, 3)
    before = copy.deepcopy((rows, sup, basis))
    calls = [
        lambda r: hnf_rows(r, 3),
        lambda r: hnf_coords(r[1], basis, 3),
        lambda r: in_row_span(r[2], basis, 3),
        lambda r: lattice_index(r, sup, 3),
        lambda r: left_kernel(r, 3),
    ]
    for call in calls:
        assert call(tuple(map(tuple, rows))) == call(rows)
        assert (rows, sup, basis) == before
    for sub, sup2 in [([[1, 0]], [[1, 0, 0]]), ([[1, 0, 0], [1, 0]], sup), (rows, [[1, 0, 0], [0, 1]])]:
        with pytest.raises(InputError, match="ambient dimensions differ"):
            lattice_index(sub, sup2, 3)


def test_xgcd():
    for a, b in [(12, 18), (-5, 7), (0, 4), (9, 0)]:
        x, y, g = xgcd(a, b)
        assert x * a + y * b == g >= 0


def test_factor_square_of_a_prime_past_trial_division():
    """A square past trial division is split by its integer square root."""
    p = 2**31 - 1
    assert factor(p * p).factors == ((p, 2),)
    assert factor(3 * p * p).factors == ((3, 1), (p, 2))
