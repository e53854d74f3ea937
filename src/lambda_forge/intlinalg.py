"""Exact integer arithmetic: factorization, primality, Hermite normal
forms, lattice indices and integer kernels.

Everything operates on Python ints (arbitrary precision).  A matrix is a
plain sequence of rows (lists or tuples, never mutated) with its column
count passed alongside; the row span of a matrix is "the lattice" it
presents.  One fixed Hermite convention is used everywhere: row-style,
positive pivots, entries above a pivot reduced into [0, pivot).  One
elimination, the Hermite fold ``_add_to_echelon``, serves every routine:
Hermite forms and lattice indices directly, and kernels on [M | I].
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, isqrt, prod

from .errors import InputError

# Witnesses making Miller-Rabin deterministic below 3.3e24 (> 2^64).
_MR_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (x, y, g) with x*a + y*b == g = gcd(a, b) >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def _miller_rabin(n: int, base: int) -> bool:
    # every caller's base lies in [2, n - 2]
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality: trial division by the primes to 47 (enough below 53**2),
    then Miller-Rabin: twelve fixed bases, a proof below 2**64; above it 40
    rounds with bases seeded from n, a probable-prime answer."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 2**64:  # an n < 53**2 that no prime <= 47 divides has no prime factor <= its root
        return n < 53 * 53 or all(_miller_rabin(n, b) for b in _MR_BASES_64)
    rng = random.Random(n)
    return all(_miller_rabin(n, rng.randrange(2, n - 1)) for _ in range(40))


def _pollard_rho(n: int) -> int:
    # n odd composite, not a prime power of a small prime.
    rng = random.Random(n)
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(0, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d


@dataclass(frozen=True)
class Factorization:
    """A checked factorization: value == prod(p**e) and the primes strictly
    increase, and every p passes ``is_prime``.  That proves p prime below
    2**64; above it, 40 Miller-Rabin rounds with bases seeded from p give a
    fixed answer with error bound 4**-40, not a proof."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev or e <= 0 or not is_prime(p):
                raise InputError(f"bad factorization of {self.value}")
            prev = p
            prod *= p**e
        if prod != self.value:
            raise InputError(f"factor product mismatch for {self.value}")

    def primes(self) -> list[int]:
        return [p for p, _ in self.factors]


def factor(n: int) -> Factorization:
    """Factor a positive integer by trial division with a Pollard rho
    fallback.  Rejects n = 0."""
    if n <= 0:
        raise InputError("factor() needs a positive integer")
    value = n
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 49
    while d * d <= n and d < 2**20:
        d += 2
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = isqrt(m)
        if r * r == m:
            stack += [r, r]
            continue
        d = _pollard_rho(m)
        stack += [d, m // d]
    return Factorization(value, tuple(sorted(out.items())))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted."""
    return divisors_of_factors(factor(n).factors)


def divisors_of_factors(factors) -> list[int]:
    """All positive divisors of the product of p**e over the (p, e) pairs,
    sorted."""
    ds = [1]
    for p, e in factors:
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def smallest_prime_factors(n: int) -> list[int]:
    """Entry m is the least prime dividing m, for 2 <= m <= n."""
    spf = list(range(n + 1))
    for p in range(2, isqrt(n) + 1):
        if spf[p] == p:
            for q in range(p * p, n + 1, p):
                if spf[q] == q:
                    spf[q] = p
    return spf


def primes_upto(n: int) -> list[int]:
    """The primes p <= n, read off one smallest-prime-factor table."""
    return [p for p, q in enumerate(smallest_prime_factors(n)) if p == q > 1]


def factor_all(values) -> dict[int, tuple[tuple[int, int], ...]]:
    """The (prime, exponent) pairs of each positive value, read off one
    smallest-prime-factor table up to the largest value; values filling
    less than an eighth of that range (the divisors of a large N) are
    factored one by one instead."""
    top = max(values, default=1)
    if top > 8 * len(values):
        return {n: factor(n).factors for n in values}
    spf = smallest_prime_factors(top)
    out = {}
    for n in values:
        pairs, m = [], n
        while m > 1:
            p, e = spf[m], 0
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
        out[n] = tuple(pairs)
    return out


# ---------------------------------------------------------------------------
# Integer lattices


def _add_to_echelon(basis: list[list[int]], pivots: list[int], vec: list[int], ncols: int, width: int | None = None) -> bool:
    """Fold one vector into a row-echelon basis, reducing columns in
    ascending order so leading-column structure is preserved.

    Pivots are sought in the first ``ncols`` columns; row operations span
    ``width`` columns (default ``ncols``).  Returns False when ``vec``
    reduces to zero on its first ``ncols`` columns (``vec`` then holds the
    reduced row), True when it joins the basis.
    """
    width = ncols if width is None else width
    j = next((k for k in range(ncols) if vec[k]), None)
    while j is not None:
        if j in pivots:
            bi = pivots.index(j)
            b = basis[bi]
            a, c = b[j], vec[j]
            if c % a == 0:
                q = c // a
                for k in range(j, width):
                    vec[k] -= q * b[k]
            else:
                x, y, g = xgcd(a, c)
                ag, cg = a // g, c // g
                bnew = [x * b[k] + y * vec[k] for k in range(width)]
                vnew = [-cg * b[k] + ag * vec[k] for k in range(width)]
                basis[bi] = bnew
                vec[:] = vnew
            j = next((k for k in range(j, ncols) if vec[k]), None)
        else:
            if vec[j] < 0:
                vec = [-x for x in vec]
            where = 0
            while where < len(pivots) and pivots[where] < j:
                where += 1
            basis.insert(where, vec)
            pivots.insert(where, j)
            return True
    return False


def hnf_rows(rows, ncols: int) -> list[list[int]]:
    """Row-style HNF of the lattice spanned by ``rows`` (lists or tuples,
    left untouched); zero rows dropped.  Pivots positive, entries above
    each pivot reduced into [0, pivot)."""
    basis: list[list[int]] = []  # kept in echelon order
    pivots: list[int] = []
    for r in rows:
        if any(r):
            _add_to_echelon(basis, pivots, list(r), ncols)
    # reduce entries above pivots; ascending pivot order per row, so a
    # subtraction never disturbs an already-reduced earlier column
    for ai in range(len(basis)):
        for bi in range(ai + 1, len(basis)):
            j = pivots[bi]
            q = basis[ai][j] // basis[bi][j]  # floor -> remainder in [0, pivot)
            if q:
                for k in range(j, ncols):
                    basis[ai][k] -= q * basis[bi][k]
    return basis


def _pivots(hnf_basis, ncols: int):
    """The pivot column of each row of an echelon basis.  Pivots strictly
    increase down the rows, so each scan starts past the previous pivot."""
    j = -1
    for row in hnf_basis:
        j = next(k for k in range(j + 1, ncols) if row[k])
        yield j


def hnf_coords(vec: list[int], hnf_basis: list[list[int]], ncols: int) -> list[int] | None:
    """Integer coordinates of ``vec`` in the given HNF basis, or None when
    ``vec`` lies outside the lattice."""
    v = list(vec)
    out = []
    for row, j in zip(hnf_basis, _pivots(hnf_basis, ncols)):
        q, rem = divmod(v[j], row[j])
        if rem:
            return None
        out.append(q)
        if q:
            for k in range(j, ncols):
                v[k] -= q * row[k]
    return None if any(v) else out


def in_row_span(vec: list[int], hnf_basis: list[list[int]], ncols: int) -> bool:
    """Integer membership of ``vec`` in the lattice with the given HNF basis."""
    return hnf_coords(vec, hnf_basis, ncols) is not None


def lattice_index(sub, sup, ncols: int) -> int | str:
    """Index [sup : sub] of one row lattice in another, both given by rows
    of length ``ncols``.

    Returns "infinite" when the ranks differ; rejects sub not contained in
    sup (checked by membership solves).
    """
    if any(len(r) != ncols for r in (*sub, *sup)):
        raise InputError("ambient dimensions differ")
    hs = hnf_rows(sub, ncols)
    hp = hnf_rows(sup, ncols)
    for row in hs:
        if not in_row_span(row, hp, ncols):
            raise InputError("sub lattice is not contained in sup lattice")
    if len(hs) != len(hp):
        return "infinite"
    num = prod(row[j] for row, j in zip(hs, _pivots(hs, ncols)))
    den = prod(row[j] for row, j in zip(hp, _pivots(hp, ncols)))
    if num % den:
        raise AssertionError("sublattice pivot product does not divide the lattice's")
    return num // den


def left_kernel(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of {x : x * M == 0} for the matrix with the given rows.

    Computed by running the HNF elimination on [M | I] and collecting the
    transform rows that end on zero rows of the HNF part.
    """
    m = len(rows)
    basis: list[list[int]] = []
    pivots: list[int] = []
    kernel: list[list[int]] = []
    for i, row in enumerate(rows):
        vec = list(row) + [1 if j == i else 0 for j in range(m)]
        if not _add_to_echelon(basis, pivots, vec, ncols, ncols + m):
            kernel.append(vec[ncols:])
    return hnf_rows(kernel, m)

