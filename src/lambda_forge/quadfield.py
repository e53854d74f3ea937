"""Exact arithmetic in imaginary quadratic orders: elements, ideals in a
fixed two-generator normal form (products by Dirichlet composition), norms,
principality by lattice reduction of an ideal's primitive part under the
norm form, class groups from reduced binary quadratic forms, and residue
unit groups.

Only imaginary quadratic fields are supported (the unit group is finite and
the norm form is positive definite, so every search here terminates with a
certificate).  Real quadratic fields are rejected at construction.

An ideal is stored as a triple (a, b, c) meaning the Z-module
    Z * (a*c)  +  Z * ((b + w)*c)
where w is the standard generator of the maximal order.  This normal form
is unique with a > 0, c > 0, 0 <= b < a, and a | N(b + w), so equality of
ideals is structural equality of triples.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import count, takewhile
from math import gcd, isqrt

from .config import monoid_bound, residue_bound
from .errors import BoundExceededError, InputError
from .intlinalg import factor, is_prime

@dataclass(frozen=True)
class QuadField:
    """The imaginary quadratic field of radicand d < 0, d squarefree.

    The generator w of the ring of integers is sqrt(d) when d = 2,3 mod 4
    and (1+sqrt(d))/2 when d = 1 mod 4; it satisfies w^2 = t*w - n with
    t = trace(w), n = norm(w).
    """

    d: int

    def __post_init__(self):
        if self.d >= 0:
            raise InputError("only imaginary quadratic fields (d < 0) are supported")
        if any(e > 1 for _, e in factor(-self.d).factors):
            raise InputError("d must be squarefree")

    # cached: every element product reads both
    @cached_property
    def trace_w(self) -> int:
        return 1 if self.d % 4 == 1 else 0

    @cached_property
    def norm_w(self) -> int:
        return (1 - self.d) // 4 if self.d % 4 == 1 else -self.d

    @property
    def disc(self) -> int:
        return self.d if self.d % 4 == 1 else 4 * self.d

    def one(self) -> "QuadInt":
        return QuadInt(self, 1, 0)

    def omega(self) -> "QuadInt":
        return QuadInt(self, 0, 1)


@dataclass(frozen=True, eq=True)
class QuadInt:
    """The algebraic integer a + b*w."""

    field: QuadField
    a: int
    b: int

    def __hash__(self):  # hot path: avoid re-hashing the field dataclass
        return hash((self.field.d, self.a, self.b))

    def __add__(self, other: "QuadInt") -> "QuadInt":
        return QuadInt(self.field, self.a + other.a, self.b + other.b)

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        return QuadInt(self.field, self.a - other.a, self.b - other.b)

    def __neg__(self) -> "QuadInt":
        return QuadInt(self.field, -self.a, -self.b)

    def __mul__(self, other: "QuadInt") -> "QuadInt":
        t, n = self.field.trace_w, self.field.norm_w
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return QuadInt(
            self.field,
            a1 * a2 - b1 * b2 * n,
            a1 * b2 + a2 * b1 + b1 * b2 * t,
        )

    def scale(self, k: int) -> "QuadInt":
        return QuadInt(self.field, k * self.a, k * self.b)

    def conj(self) -> "QuadInt":
        t = self.field.trace_w
        return QuadInt(self.field, self.a + self.b * t, -self.b)

    def norm(self) -> int:
        t, n = self.field.trace_w, self.field.norm_w
        return self.a * self.a + self.a * self.b * t + self.b * self.b * n

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0


def unit_group(field: QuadField) -> list[QuadInt]:
    """All roots of unity in the field: order 4 for d=-1, 6 for d=-3,
    2 otherwise."""
    if field.d == -1:
        i = field.omega()
        return [field.one(), i, -field.one(), -i]
    if field.d == -3:
        w = field.omega()  # primitive sixth root of unity
        return [field.one(), w, w * w, -field.one(), -w, -(w * w)]
    return [field.one(), -field.one()]


@dataclass(frozen=True, eq=True)
class QuadIdeal:
    """Nonzero integral ideal in normal form (see module docstring)."""

    field: QuadField
    a: int
    b: int
    c: int

    def __post_init__(self):
        f, a, b = self.field, self.a, self.b
        if a <= 0 or self.c <= 0 or not (0 <= b < a):
            raise InputError("ideal triple out of normal form")
        if (b * (b + f.trace_w) + f.norm_w) % a:  # N(b + w) in integers
            raise InputError("triple does not span an ideal (a | N(b+w) fails)")
        # every class lookup and memo hashes its ideal; skip the field dataclass
        object.__setattr__(self, "_hash", hash((f.d, a, b, self.c)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # rebuilt through the constructor, as rayclass.Cycle is
        return QuadIdeal, (self.field, self.a, self.b, self.c)

    def norm(self) -> int:
        return self.a * self.c * self.c

    def basis(self) -> tuple[QuadInt, QuadInt]:
        f = self.field
        return QuadInt(f, self.a * self.c, 0), QuadInt(f, self.b * self.c, self.c)

    def contains(self, x: QuadInt) -> bool:
        if x.b % self.c != 0:
            return False
        q = x.b // self.c
        u = x.a - q * self.b * self.c
        return u % (self.a * self.c) == 0

    def conj(self) -> "QuadIdeal":
        # conj(b + w) = (b + tr w) - w, so the conjugate is [a, -b - tr w, c]
        return QuadIdeal(self.field, self.a, (-self.b - self.field.trace_w) % self.a, self.c)

    def residues(self) -> list[QuadInt]:
        """Coset representatives of O/I: {u + v*w : 0<=u<a*c, 0<=v<c}."""
        f = self.field
        return [QuadInt(f, u, v) for v in range(self.c) for u in range(self.a * self.c)]

    def reduce(self, x: QuadInt) -> QuadInt:
        """Canonical representative of x modulo the ideal."""
        q = x.b // self.c
        b2 = x.b - q * self.c
        a2 = (x.a - q * self.b * self.c) % (self.a * self.c)
        return QuadInt(self.field, a2, b2)

    def __str__(self):
        return f"[{self.a}, {self.b}+w, {self.c}]"

    @staticmethod
    def parse(field: QuadField, text: str) -> "QuadIdeal":
        m = re.fullmatch(r"\s*\[\s*(-?\d+)\s*,\s*(-?\d+)\s*\+\s*w\s*,\s*(-?\d+)\s*\]\s*", text)
        if not m:
            raise InputError(f"cannot parse ideal {text!r}; expected \"[a, b+w, c]\"")
        return QuadIdeal(field, int(m.group(1)), int(m.group(2)), int(m.group(3)))


def principal_ideal(x: QuadInt) -> QuadIdeal:
    """The ideal (x) = g*[N, u/v mod N] for x = g*(u + v*w), g the gcd of
    its coordinates and N = N(u + v*w): the primitive ideal (u + v*w) holds
    u + v*w = v*(b + w) mod N.  v is a unit mod N, since a prime dividing v
    and N = u^2 + t*u*v + n*v^2 would divide u; v = 0 gives N = 1, and
    pow(0, -1, 1) = 0."""
    if x.is_zero():
        raise InputError("zero element generates no ideal")
    f = x.field
    g = gcd(x.a, x.b)
    u, v = x.a // g, x.b // g
    norm = u * u + f.trace_w * u * v + f.norm_w * v * v
    return QuadIdeal(f, norm, u * pow(v, -1, norm) % norm, g)


def ideal_from_int(field: QuadField, n: int) -> QuadIdeal:
    return principal_ideal(QuadInt(field, n, 0))


def _compose(field: QuadField, a1: int, b1: int, a2: int, b2: int) -> tuple[int, int, int]:
    """The product of the primitive parts [a1, b1 + w] and [a2, b2 + w] by
    Dirichlet composition (Cohen, GTM 138, Alg. 5.4.7), as (a, b, e) for the
    product e*[a, b + w] in normal form; unchecked.

    The product is the module spanned by a1*a2, a1*(b2 + w), a2*(b1 + w) and
    (b1 + w)(b2 + w) = b1*b2 - n + s*w with s = b1 + b2 + t, whose
    w-coordinates have gcd e = x1*a1 + x2*a2 + x3*s.  It has norm a1*a2 and
    content e, so it is e*[a1*a2/e^2, B + w], where e*B is the constant term
    of the element x1*a1*(b2 + w) + x2*a2*(b1 + w) + x3*(b1 + w)(b2 + w)
    with w-coordinate e.
    """
    s = b1 + b2 + field.trace_w
    # two extended gcds of nonnegative integers, y1*a1 + y2*a2 = g and
    # z*g + x3*s = e, inline: every class lookup multiplies ideals
    y1, y2, g, r1, r2, r = 1, 0, a1, 0, 1, a2
    while r:
        q = g // r
        y1, y2, g, r1, r2, r = r1, r2, r, y1 - q * r1, y2 - q * r2, g - q * r
    z, x3, e, r1, r3, r = 1, 0, g, 0, 1, s
    while r:
        q = e // r
        z, x3, e, r1, r3, r = r1, r3, r, z - q * r1, x3 - q * r3, e - q * r
    a = a1 * a2 // (e * e)
    return a, (z * (y1 * a1 * b2 + y2 * a2 * b1) + x3 * (b1 * b2 - field.norm_w)) // e % a, e


def ideal_mul(x: QuadIdeal, y: QuadIdeal) -> QuadIdeal:
    """The product c1*[a1, b1 + w] * c2*[a2, b2 + w], by ``_compose`` on the
    primitive parts."""
    if x.field != y.field:
        raise InputError("ideals from different fields")
    a, b, e = _compose(x.field, x.a, x.b, y.a, y.b)
    return QuadIdeal(x.field, a, b, x.c * y.c * e)


def _times_conj(x: QuadIdeal, y: QuadIdeal) -> tuple[int, int, int]:
    """The normal-form triple of x * conj(y), unchecked.

    conj(b + w) = (b + t) - w, so conj(y) is [a2, (-b2 - t) mod a2, c2].  It
    is composed without being built: its constructor's check, a2 | N(b + w),
    is y's own, since N(conj(b2 + w)) = N(b2 + w).
    """
    if x.field != y.field:
        raise InputError("ideals from different fields")
    f = x.field
    a, b, e = _compose(f, x.a, x.b, y.a, (-y.b - f.trace_w) % y.a)
    return a, b, x.c * y.c * e


def ideal_mul_conj(x: QuadIdeal, y: QuadIdeal) -> QuadIdeal:
    """The product x * conj(y), without building conj(y)."""
    return QuadIdeal(x.field, *_times_conj(x, y))


def ideal_gcd(x: QuadIdeal, y: QuadIdeal) -> QuadIdeal:
    """The ideal sum x + y, i.e. the gcd in the divisibility order, in
    closed form (Cohen, GTM 138, 5.2): with g = gcd(c1, c2), e_i = c_i / g
    and s = 1 / e1 mod e2, it is g times the sum of the e_i*[a_i, b_i + w],
    whose element of w-coordinate 1 is s*e1*(b1 + w) + (1 - s*e1)*(b2 + w)
    and whose integers are spanned by e1*a1, e2*a2 and e1*e2*(b1 - b2)."""
    if x.field != y.field:
        raise InputError("ideals from different fields")
    g = gcd(x.c, y.c)
    e1, e2, db = x.c // g, y.c // g, x.b - y.b
    a = gcd(e1 * x.a, e2 * y.a, e1 * e2 * db)
    return QuadIdeal(x.field, a, (pow(e1, -1, e2) * e1 * db + y.b) % a, g)


def ideal_div(x: QuadIdeal, y: QuadIdeal) -> QuadIdeal:
    """Exact ideal quotient x / y; errors if y does not divide x.

    x * conj(y) = c*[a, b + w] is divisible by N(y) = n exactly when n | c,
    and then the quotient is the normal-form triple [a, b, c / n], the only
    ideal built: the constructor's check on (a, b) is the product's."""
    a, b, c = _times_conj(x, y)
    n = y.norm()
    if c % n:
        raise InputError("ideal division is not exact")
    return QuadIdeal(x.field, a, b, c // n)


def ideal_divides(d: QuadIdeal, x: QuadIdeal) -> bool:
    g1, g2 = x.basis()
    return d.contains(g1) and d.contains(g2)


def generator_pairs(ideal: QuadIdeal) -> tuple[tuple[int, int], ...]:
    """The (u, v) coefficients of all generators u + v*w of the ideal,
    sorted by (v, -(2u + t*v)) on its primitive part's generators; empty if
    it is not principal.

    The ideal c*J with primitive part J = [a, b + w] is principal iff J is,
    and then c times J's generators generate it.  Every nonzero element of J
    has norm a multiple of a, and exactly J's generators have norm a, so J
    is principal iff its shortest vector under the norm form has norm a.
    Gauss-Lagrange reduction of the basis a, b + w (Cohen, GTM 138, 5.3)
    finds that vector in O(log a) steps; the generators are it times each
    root of unity.
    """
    f = ideal.field
    t, n, a = f.trace_w, f.norm_w, ideal.a
    # the basis x1, x2 as (u, v) coordinates of u + v*w, with their norms
    u1, v1, n1 = a, 0, a * a
    u2, v2 = ideal.b, 1
    n2 = u2 * u2 + t * u2 + n
    while True:
        if n2 < n1:
            u1, v1, n1, u2, v2, n2 = u2, v2, n2, u1, v1, n1
        # x2 -= q*x1, q = round(Tr(x1 * conj(x2)) / (2*N(x1))); then x1 is
        # the shortest vector once q = 0 and N(x2) >= N(x1)
        q = (2 * u1 * u2 + t * (u1 * v2 + u2 * v1) + 2 * n * v1 * v2 + n1) // (2 * n1)
        if not q:
            break
        u2 -= q * u1
        v2 -= q * v1
        n2 = u2 * u2 + t * u2 * v2 + n * v2 * v2
    if n1 != a:
        return ()
    c = ideal.c
    if f.d == -1 or f.d == -3:  # w is a root of unity of order 4 or 6
        gens = []
        for _ in range(4 if f.d == -1 else 6):
            gens.append((c * u1, c * v1))
            u1, v1 = -n * v1, u1 + t * v1  # times w
    else:
        gens = [(c * u1, c * v1), (-c * u1, -c * v1)]
    gens.sort(key=lambda g: (g[1], -2 * g[0] - t * g[1]))  # scaling by c > 0 keeps the order
    return tuple(gens)


def is_principal(ideal: QuadIdeal) -> QuadInt | None:
    """The first of ``generator_pairs``, as an element, if the ideal is
    principal, else None."""
    pairs = generator_pairs(ideal)
    return QuadInt(ideal.field, *pairs[0]) if pairs else None


def primes_above(p: int, field: QuadField) -> list[tuple[QuadIdeal, int, int]]:
    """Primes of the field above a rational prime p, as (ideal, e, f) with
    sum of e*f equal to 2."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    t, n = field.trace_w, field.norm_w
    # b with p | N(b + w), i.e. roots of x^2 + t*x + n mod p
    roots = [b for b in range(p) if (b * b + t * b + n) % p == 0]
    if not roots:
        return [(ideal_from_int(field, p), 1, 2)]
    # (p, b + w) with p | N(b + w) is [p, b + w] itself.  The polynomial has
    # discriminant disc, so one root means p | disc (for p = 2 with t = 0,
    # disc = 4d): ramified; two roots: split
    e = 2 if len(roots) == 1 else 1
    return [(QuadIdeal(field, p, b, 1), e, 1) for b in roots]


def ideal_valuation(x: QuadIdeal, q: QuadIdeal) -> int:
    """Largest k with q^k dividing x."""
    v = 0
    cur = x
    while ideal_divides(q, cur):
        cur = ideal_div(cur, q)
        v += 1
    return v


def ideal_factor(x: QuadIdeal) -> list[tuple[QuadIdeal, int]]:
    """Prime factorization, primes sorted by (norm, triple)."""
    out = []
    for p, _ in factor(x.norm()).factors:
        for q, _, _ in primes_above(p, x.field):
            v = ideal_valuation(x, q)
            if v:
                out.append((q, v))
    out.sort(key=lambda t: (t[0].norm(), t[0].a, t[0].b, t[0].c))
    rebuilt = ideal_from_int(x.field, 1)
    for q, v in out:
        for _ in range(v):
            rebuilt = ideal_mul(rebuilt, q)
    if rebuilt != x:
        raise AssertionError("ideal factorization failed to rebuild")
    return out


def ideal_divisors(x: QuadIdeal) -> list[QuadIdeal]:
    """All ideal divisors, sorted by (norm, triple)."""
    divs = [ideal_from_int(x.field, 1)]
    for q, v in ideal_factor(x):
        power = divs  # the divisors without q, times q^k
        for _ in range(v):
            power = [ideal_mul(d, q) for d in power]
            divs = divs + power
    return sorted(divs, key=lambda i: (i.norm(), i.a, i.b, i.c))


def ideals_by_norm(field: QuadField) -> Iterator[QuadIdeal]:
    """Every nonzero integral ideal, lazily, in (norm, a, b, c) order."""
    t, n = field.trace_w, field.norm_w
    roots: dict[int, list[int]] = {}  # the b with a | N(b + w), per a
    for norm in count(1):
        # a = norm / c^2 grows as c falls, and each a first shows up with c = 1
        for c in range(isqrt(norm), 0, -1):
            a, r = divmod(norm, c * c)
            if r:
                continue
            if c == 1:  # roots pair up as b and -b - t, so scan half of them
                half = range((a - t) // 2 + 1)
                roots[a] = sorted({x for b in half if (b * (b + t) + n) % a == 0 for x in (b, (-b - t) % a)})
            for b in roots[a]:
                yield QuadIdeal(field, a, b, c)


def ideals_of_norm_up_to(field: QuadField, bound: int) -> list[QuadIdeal]:
    """All nonzero integral ideals of norm <= bound, sorted by (norm, triple)."""
    return list(takewhile(lambda i: i.norm() <= bound, ideals_by_norm(field)))


# ---------------------------------------------------------------------------
# Class groups from reduced forms


def reduced_forms(disc: int) -> list[tuple[int, int, int]]:
    """Reduced primitive binary quadratic forms (A,B,C) of the given
    negative fundamental discriminant."""
    forms = []
    amax = isqrt(-disc // 3)
    for A in range(1, amax + 1):
        for B in range(-A + 1, A + 1):
            num = B * B - disc
            if num % (4 * A):
                continue
            C = num // (4 * A)
            if C < A:
                continue
            if B < 0 and (abs(B) == A or A == C):
                continue
            if gcd(gcd(A, B), C) != 1:
                continue
            forms.append((A, B, C))
    return sorted(forms)


def form_to_ideal(field: QuadField, form: tuple[int, int, int]) -> QuadIdeal:
    """The ideal Z*A + Z*((-B + sqrt(disc))/2) attached to a reduced form."""
    A, B, _ = form
    if field.d % 4 == 1:
        # sqrt(d) = 2w - 1, and B is odd
        b = (-(B + 1) // 2) % A
    else:
        # sqrt(d) = w, and B is even
        b = (-B // 2) % A
    ideal = QuadIdeal(field, A, b, 1)
    if ideal.norm() != A:
        raise AssertionError("ideal from a form has the wrong norm")
    return ideal


@dataclass(frozen=True)
class ClassGroup:
    field: QuadField
    reps: tuple[QuadIdeal, ...]
    table: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.reps)


@lru_cache(maxsize=None)
def class_group(field: QuadField) -> ClassGroup:
    """The ideal class group, realized on the ideals of the reduced forms of
    the field discriminant, with composition computed by ideal
    multiplication plus principality reduction.

    Refused (BoundExceededError) when |disc| is over the residue bound,
    before the O(|disc|) scan for reduced forms, and when h^2 is over the
    monoid bound, before the h x h table of up to h principality tests per
    cell."""
    if -field.disc > residue_bound():
        raise BoundExceededError(f"discriminant {field.disc} over residue bound")
    forms = reduced_forms(field.disc)
    if len(forms) ** 2 > monoid_bound():
        raise BoundExceededError(f"class group table of {len(forms)}^2 cells over monoid bound")
    reps = [form_to_ideal(field, f) for f in forms]
    idx0 = next(k for k, r in enumerate(reps) if is_principal(r) is not None)
    # put the principal class first for a deterministic identity slot
    reps[0], reps[idx0] = reps[idx0], reps[0]
    table = []
    for i, ri in enumerate(reps):
        row = []
        for j, rj in enumerate(reps):
            prod = ideal_mul(ri, rj)
            k = next(
                k for k, rk in enumerate(reps) if is_principal(ideal_mul_conj(prod, rk)) is not None
            )
            row.append(k)
        table.append(tuple(row))
    cg = ClassGroup(field, tuple(reps), tuple(table))
    check_group_table(cg.table)
    return cg


def check_group_table(table):
    """An abelian group table with its identity in slot 0: every row is a
    permutation of the indices, the table is symmetric, and row 0 is the
    identity row."""
    n = len(table)
    everything = set(range(n))
    for row in table:
        if len(row) != n or set(row) != everything:
            raise InputError("group table row is not a permutation")
    if list(zip(*table)) != [tuple(row) for row in table]:
        raise InputError("group table is not abelian")
    if n and tuple(table[0]) != tuple(range(n)):
        raise InputError("group table has no identity in slot 0")


# ---------------------------------------------------------------------------
# Residue unit groups


@dataclass(frozen=True)
class ResidueUnitGroup:
    """(O/f)* with explicit element list and multiplication mod f."""

    modulus: QuadIdeal
    elements: tuple[QuadInt, ...]

    @cached_property
    def _index(self) -> dict[tuple[int, int], int]:
        return {(e.a, e.b): k for k, e in enumerate(self.elements)}

    def index_of_coords(self, u: int, v: int) -> int:
        """The index of the residue of u + v*w, reduced as by
        ``QuadIdeal.reduce`` on the coordinates: no element is built."""
        m = self.modulus
        q = v // m.c
        k = self._index.get(((u - q * m.b * m.c) % (m.a * m.c), v - q * m.c))
        if k is None:
            raise InputError("element is not a unit residue")
        return k

    def index_of(self, x: QuadInt) -> int:
        return self.index_of_coords(x.a, x.b)

    def mul(self, i: int, j: int) -> int:
        return self.index_of(self.elements[i] * self.elements[j])

    @property
    def order(self) -> int:
        return len(self.elements)


def residue_units(modulus: QuadIdeal) -> ResidueUnitGroup:
    """All residues mod f coprime to f, by exhaustive enumeration."""
    bound = residue_bound()
    if modulus.norm() > bound:
        raise BoundExceededError(f"norm {modulus.norm()} exceeds residue bound {bound}")
    field = modulus.field
    one = ideal_from_int(field, 1)
    elems = []
    for r in modulus.residues():
        if r.is_zero():
            continue
        if ideal_gcd(principal_ideal(r), modulus) == one:
            elems.append(r)
    if not elems:
        # f = (1): the group is trivial with representative 0 == 1
        elems = [modulus.reduce(field.one())]
    return ResidueUnitGroup(modulus, tuple(elems))
