"""Big Witt vectors over torsion-free coefficient rings with commuting
Frobenius lifts: ghost/coordinate transforms, the Dwork integrality test,
Teichmueller lifts, periodicity, and periodic Witt lattices compared
against the cyclic group ring.

The coefficient ring is the cyclic group ring Z[C_k] = Z[x]/(x^k - 1),
fixed by the one integer k, with the power lifts x -> x^p; k = 1 is the
integers with the identity lifts.  Elements are coefficient tuples of
length k, multiplied by the cyclic kernels of ``lambdapoly``; everything
is exact.  The inverse ghost transform runs in integers over one common
denominator per coordinate, so rationals appear only in its output.
The irreducibility test behind the field product runs on the same
``IntPoly`` arithmetic as ``lambdapoly``, reduced mod (f, q).

The membership test realizes the maximal-subring definition through the
classical congruences g_{pn} = frob_p(g_n) mod p^(v_p(n)+1); for the
lattice of periodic vectors, congruence families whose moduli grow without
bound along multiplicative orbits are converted into exact (possibly
Frobenius-twisted) equality constraints before the bounded sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import InputError, ModelRefusedError
from .intlinalg import divisors, factor, hnf_rows, in_row_span, is_prime, lattice_index, left_kernel
from .lambdapoly import IntPoly, _cyclic_mul, _cyclic_power_map, cyclotomic_polynomial, poly_divmod
from .rayclass import ALL_PRIMES, Cycle, PrimeSupport, dr_monoid, f_label


def _primes_upto(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if is_prime(p)]


def _valuation(m: int, p: int) -> int:
    v = 0
    while m % p == 0:
        v += 1
        m //= p
    return v


# ---------------------------------------------------------------------------
# Coefficient rings


@dataclass(frozen=True)
class CoeffRing:
    """The cyclic group ring Z[C_k] = Z[x]/(x^k - 1), k = ``rank``, with the
    power lifts x -> x^p (ring endomorphisms because x^k - 1 divides
    x^(pk) - 1); k = 1 is the integers with the identity lifts.  Elements
    are coefficient tuples of length k.
    """

    rank: int

    def __post_init__(self):
        if type(self.rank) is not int or self.rank < 1:
            raise InputError(f"the cyclic ring Z[x]/(x^k - 1) needs an integer k >= 1, got {self.rank!r}")

    def zero(self) -> tuple:
        return (0,) * self.rank

    def one(self) -> tuple:
        return self.from_int(1)

    def from_int(self, c) -> tuple:
        return (c,) + (0,) * (self.rank - 1)

    def gen(self) -> tuple:
        if self.rank == 1:
            raise InputError("the integer ring has no generator")
        return (0, 1) + (0,) * (self.rank - 2)

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a: tuple, b: tuple) -> tuple:
        return tuple(x - y for x, y in zip(a, b))

    def scale(self, k, a: tuple) -> tuple:
        return tuple(k * x for x in a)

    def mul(self, a: tuple, b: tuple) -> tuple:
        if self.rank == 1:
            return (a[0] * b[0],)
        return _cyclic_mul(a, b)

    def pow(self, a: tuple, k: int) -> tuple:
        if k < 0:
            raise InputError("negative powers are not defined in the coefficient ring")
        if self.rank == 1 and k:
            return (a[0] ** k,)
        out = self.one()
        base = a
        while k:
            if k & 1:
                out = self.mul(out, base)
            k >>= 1
            if k:
                base = self.mul(base, base)
        return out

    def apply_frob(self, p: int, a: tuple) -> tuple:
        if self.rank == 1:
            return a
        return _cyclic_power_map(a, p)

    def divisible(self, a: tuple, k: int) -> bool:
        return all(c % k == 0 for c in a)

    def exact_div(self, a: tuple, k: int) -> tuple:
        if not self.divisible(a, k):
            raise InputError("inexact division in the coefficient ring")
        return tuple(c // k for c in a)


INTEGERS = CoeffRing(1)


def binomial_quotient_ring(k: int) -> CoeffRing:
    """Z[x]/(x^k - 1) with the power lifts, for k >= 2 (k = 1 is Z)."""
    if k < 2:
        raise InputError(f"the cyclic ring Z[x]/(x^k - 1) needs k >= 2, got k = {k} (k = 1 is the ring Z)")
    return CoeffRing(k)


# ---------------------------------------------------------------------------
# Truncation sets, ghost vectors, Witt coordinates


@dataclass(frozen=True)
class TruncationSet:
    """A finite divisor-closed set of positive indices.

    The sorted order, the index map and the divisor and congruence steps
    of the transforms are computed once per set, on first use.
    """

    members: frozenset[int]

    def __post_init__(self):
        for n in self.members:
            if n < 1:
                raise InputError("truncation entries must be positive")
            for d in divisors(n):
                if d not in self.members:
                    raise InputError("truncation set must be divisor closed")

    @staticmethod
    def divisors_of(n: int) -> "TruncationSet":
        return TruncationSet(frozenset(divisors(n)))

    @staticmethod
    def upto(b: int) -> "TruncationSet":
        return TruncationSet(frozenset(range(1, b + 1)))

    @cached_property
    def order(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    @cached_property
    def index(self) -> dict[int, int]:
        """Member -> its position in ``order``."""
        return {a: i for i, a in enumerate(self.order)}

    @cached_property
    def proper_divisors(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per member n, in ``order``: (index of d, n // d) for each divisor
        d < n, ascending in d."""
        index = self.index
        return tuple(tuple((index[d], n // d) for d in divisors(n)[:-1]) for n in self.order)

    @cached_property
    def dwork_steps(self) -> tuple[tuple[int, int, int, int], ...]:
        """(p, index of n, index of p*n, p^(v_p(n)+1)) for each prime p and
        member n with p*n a member, by p and then n.  Such a p is itself a
        member, since the set is divisor closed."""
        index = self.index
        steps = []
        for p in self.order:
            if not is_prime(p):
                continue
            for i, n in enumerate(self.order):
                if p * n in index:
                    steps.append((p, i, index[p * n], p ** (_valuation(n, p) + 1)))
        return tuple(steps)

    def sorted(self) -> list[int]:
        return list(self.order)


def _aligned(trunc: TruncationSet, values: dict[int, tuple]) -> tuple[tuple, ...]:
    """The values of a member-keyed dict in the order of the members."""
    missing = trunc.members - values.keys()
    if missing or len(values) != len(trunc.members):
        which = f"no component for member {min(missing)}" if missing else "components for non-members"
        raise InputError(f"{which} of the truncation set")
    return tuple(values[a] for a in trunc.order)


def _check_components(ring: CoeffRing, trunc: TruncationSet, components: tuple) -> None:
    if len(components) != len(trunc.members):
        raise InputError(f"expected {len(trunc.members)} components, one per truncation member, got {len(components)}")
    for comp in components:
        if not isinstance(comp, tuple) or len(comp) != ring.rank or any(type(x) not in (int, Fraction) for x in comp):
            raise InputError(f"each component must be a tuple of {ring.rank} integers or fractions, got {comp!r}")


@dataclass(frozen=True)
class GhostVector:
    ring: CoeffRing
    trunc: TruncationSet
    components: tuple[tuple, ...]  # aligned with trunc.order

    def __post_init__(self):
        _check_components(self.ring, self.trunc, self.components)

    def component(self, a: int) -> tuple:
        return self.components[self.trunc.index[a]]

    @staticmethod
    def make(ring: CoeffRing, trunc: TruncationSet, comp: dict[int, tuple]) -> "GhostVector":
        return GhostVector(ring, trunc, _aligned(trunc, comp))


@dataclass(frozen=True)
class WittCoords:
    ring: CoeffRing
    trunc: TruncationSet
    coords: tuple[tuple, ...]  # aligned with trunc.order

    def __post_init__(self):
        _check_components(self.ring, self.trunc, self.coords)

    def coord(self, d: int) -> tuple:
        return self.coords[self.trunc.index[d]]

    @staticmethod
    def make(ring: CoeffRing, trunc: TruncationSet, coords: dict[int, tuple]) -> "WittCoords":
        return WittCoords(ring, trunc, _aligned(trunc, coords))


def ghost_from_witt(w: WittCoords) -> GhostVector:
    """g_n = sum over d | n of d * w_d^(n/d)."""
    ring = w.ring
    order = w.trunc.order
    out = {}
    for i, (n, steps) in enumerate(zip(order, w.trunc.proper_divisors)):
        acc = ring.zero()
        for j, k in steps:
            acc = ring.add(acc, ring.scale(order[j], ring.pow(w.coords[j], k)))
        out[n] = ring.add(acc, ring.scale(n, w.coords[i]))
    return GhostVector.make(ring, w.trunc, out)


def witt_from_ghost(g: GhostVector) -> tuple[WittCoords, dict[int, bool]]:
    """Invert the ghost map; flags say which coordinates came out integral.
    Non-integrality is data, not an error.

    The recurrence n * w_n = g_n - sum over d | n, d < n of d * w_d^(n/d)
    runs in integers: each w_n is an integer tuple over one common
    denominator, reduced by the gcd of both.  Rationals are formed only
    for the output entries that are not integers.
    """
    ring = g.ring
    order = g.trunc.order
    nums: list[tuple] = []
    dens: list[int] = []
    coords = {}
    flags = {}
    for n, comp, steps in zip(order, g.components, g.trunc.proper_divisors):
        den = lcm(*(x.denominator for x in comp))
        acc = [x.numerator * (den // x.denominator) for x in comp]
        for j, k in steps:
            dk = dens[j] ** k
            top = lcm(den, dk)
            a, b = top // den, order[j] * (top // dk)
            acc = [a * x - b * y for x, y in zip(acc, ring.pow(nums[j], k))]
            den = top
        den *= n
        c = gcd(den, *acc)
        if c > 1:
            den //= c
            acc = [x // c for x in acc]
        num = tuple(acc)
        nums.append(num)
        dens.append(den)
        flags[n] = den == 1
        coords[n] = num if den == 1 else tuple(x // den if x % den == 0 else Fraction(x, den) for x in num)
    return WittCoords.make(ring, g.trunc, coords), flags


def teichmuller(ring: CoeffRing, r: tuple, trunc: TruncationSet) -> WittCoords:
    """The multiplicative lift: first coordinate r, the rest zero."""
    coords = {d: (r if d == 1 else ring.zero()) for d in trunc.sorted()}
    return WittCoords.make(ring, trunc, coords)


def dwork_check(g: GhostVector) -> bool:
    """Membership in the Witt subring: for every prime p and index n with
    p*n in the window, g_{pn} = frob_p(g_n) mod p^(v_p(n)+1)."""
    ring = g.ring
    comps = g.components
    for p, i, ipn, modulus in g.trunc.dwork_steps:
        diff = ring.sub(comps[ipn], ring.apply_frob(p, comps[i]))
        if not ring.divisible(diff, modulus):
            return False
    return True


def is_f_periodic(g: GhostVector, f: Cycle, support: PrimeSupport = ALL_PRIMES) -> bool:
    """Componentwise equality across the equivalence classes met by the
    window: each component equals that of its class's first member."""
    first: dict[tuple, int] = {}
    for a in g.trunc.sorted():
        b = first.setdefault(f_label(a, f, support), a)
        if g.component(a) != g.component(b):
            return False
    return True


def frobenius_congruence_check(g: GhostVector, p: int) -> bool:
    """The lift property inside the Witt ring: the shift at p minus the
    p-th power is p times another Witt vector (on the shrunken window)."""
    if not dwork_check(g):
        raise ModelRefusedError("input fails the membership congruences")
    ring = g.ring
    inner = sorted(a for a in g.trunc.members if a * p in g.trunc.members)
    if not inner:
        return True
    comp = {}
    for a in inner:
        diff = ring.sub(g.component(a * p), ring.pow(g.component(a), p))
        if not ring.divisible(diff, p):
            return False
        comp[a] = ring.exact_div(diff, p)
    shrunk = GhostVector.make(ring, TruncationSet(frozenset(inner)), comp)
    return dwork_check(shrunk)


# ---------------------------------------------------------------------------
# Periodic Witt lattices


@dataclass(frozen=True)
class PeriodicWittLattice:
    n: int
    ring: CoeffRing
    bound: int
    class_reps: tuple[int, ...]  # canonical ideal representative per class
    basis: tuple[tuple[int, ...], ...]  # HNF rows in the flattened variables
    stable: bool

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, vec: list[int]) -> bool:
        n_vars = len(self.class_reps) * self.ring.rank
        return in_row_span(vec, self.basis, n_vars)


def periodic_witt_lattice(n: int, ring: CoeffRing, bound: int) -> PeriodicWittLattice:
    """All ghost tuples indexed by the classes of the conductor-(n)inf
    monoid that satisfy the membership congruences with indices up to the
    bound, plus the exact equalities forced by unbounded congruence
    families along multiplicative orbits.

    Instability between bound/2 and bound is reported, not raised.
    """
    if n < 1 or bound < 4:
        raise InputError("need n >= 1 and bound >= 4")
    basis_half = _periodic_lattice_rows(n, ring, bound // 2)
    basis_full = _periodic_lattice_rows(n, ring, bound)
    dr = dr_monoid(Cycle(None, n, True))
    return PeriodicWittLattice(
        n,
        ring,
        bound,
        tuple(dr.reps),
        tuple(tuple(r) for r in basis_full),
        basis_half == basis_full,
    )


def _periodic_lattice_rows(n: int, ring: CoeffRing, bound: int) -> list[list[int]]:
    dr = dr_monoid(Cycle(None, n, True))
    ncls = dr.size
    r = ring.rank
    nvars = ncls * r

    def cls_of(a: int) -> int:
        return dr.class_of_ideal(a)

    def relation_rows(c_to: int, c_from: int, frob: tuple[tuple[int, ...], ...]) -> list[list[int]]:
        # y[c_to][j] - sum_i frob[i][j] * y[c_from][i], one row per coordinate j
        rows = []
        for j in range(r):
            row = [0] * nvars
            row[c_to * r + j] += 1
            for i in range(r):
                row[c_from * r + i] -= frob[i][j]
            rows.append(row)
        return rows

    # equality constraints from unbounded congruence families
    eq_rows: list[list[int]] = []

    def add_equality(c_to: int, c_from: int, frob: tuple[tuple[int, ...], ...]):
        eq_rows.extend(row for row in relation_rows(c_to, c_from, frob) if any(row))

    units = [u for u in range(1, n + 1) if gcd(u, n) == 1]
    for u in units:
        for e in _twist_exponents(u, n, ring):
            frob = _power_matrix(ring, e)
            for c in range(ncls):
                a = dr.reps[c]
                add_equality(cls_of(u * a), c, frob)
    for p in factor(n).primes():
        ep = _valuation(n, p)
        frob = _power_matrix(ring, p)
        for c in range(ncls):
            a = dr.reps[c]
            if (a % n) % (p**ep) == 0:
                add_equality(cls_of(p * a), c, frob)

    # bounded congruences: y[pm] = frob_p(y[m]) mod p^(v_p(m)+1)
    cong_rows: list[list[int]] = []
    moduli: list[int] = []
    for p in _primes_upto(bound):
        cong: dict[tuple[int, int, int], None] = {}
        for m in range(1, bound // p + 1):
            cong[(cls_of(p * m), cls_of(m), _valuation(m, p) + 1)] = None
        frob = _power_matrix(ring, p)
        for c_to, c_from, e in cong:
            for row in relation_rows(c_to, c_from, frob):
                cong_rows.append(row)
                moduli.append(p**e)

    return _solve_equalities_and_congruences(eq_rows, cong_rows, moduli, nvars)


def _twist_exponents(u: int, n: int, ring: CoeffRing) -> list[int]:
    """Power-map exponents realized by infinitely many primes congruent to
    u mod n (one class per achievable exponent on the coefficient ring)."""
    k = ring.rank  # Z is the case k = 1
    g = gcd(n, k)
    return [j for j in range(1, k + 1) if gcd(j, k) == 1 and j % g == u % g]


def _power_matrix(ring: CoeffRing, e: int) -> tuple[tuple[int, ...], ...]:
    """Matrix of the monomial map x -> x^e on the cyclic ring: row i is the
    unit vector at i*e mod k (over Z, the 1x1 identity)."""
    k = ring.rank
    return tuple(tuple(int(j == i * e % k) for j in range(k)) for i in range(k))


# ---------------------------------------------------------------------------
# Comparison with the cyclic group ring


def group_ring_ghost_rows(n: int) -> tuple[CoeffRing, list[list[int]]]:
    """The ghost image of Z[x]/(x^n - 1): row j is the class-indexed tuple
    of the images of x^j under the operations (component at a class with
    representative a is x^(j*a))."""
    ring = CoeffRing(n)
    dr = dr_monoid(Cycle(None, n, True))
    r = ring.rank
    rows = []
    for j in range(n):
        row = [0] * (dr.size * r)
        for c in range(dr.size):
            a = dr.reps[c]
            row[c * r + (j * a) % n] += 1
        rows.append(row)
    return ring, rows


@dataclass(frozen=True)
class RayClassWittComparison:
    n: int
    bound: int
    injective: bool
    contained: bool
    equal: bool
    stable: bool
    lattice_rank: int
    image_rank: int
    index: int | None
    lattice: PeriodicWittLattice = dc_field(compare=False, repr=False)

    @property
    def verdict(self) -> str:
        if not self.stable:
            return "inconclusive"
        return "true" if (self.injective and self.contained and self.equal) else "false"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "bound": self.bound,
            "injective": self.injective,
            "contained": self.contained,
            "equal": self.equal,
            "stable": self.stable,
            "lattice_rank": self.lattice_rank,
            "image_rank": self.image_rank,
            "index": self.index,
            "verdict": self.verdict,
        }


def ray_class_algebra_witt_iso_check(n: int, bound: int = 64) -> RayClassWittComparison:
    """Compare the ghost image of the cyclic group ring with the periodic
    Witt lattice over that same ring: injectivity, containment, equality,
    and scan stability.  Instability makes the verdict inconclusive rather
    than false."""
    if n < 1 or bound < 4:
        raise InputError("need n >= 1 and bound >= 4")
    ring, rows = group_ring_ghost_rows(n)
    lattice = periodic_witt_lattice(n, ring, bound)
    nvars = len(rows[0])
    image_h = hnf_rows(rows, nvars)
    injective = len(image_h) == n
    contained = all(lattice.contains(row) for row in rows)
    equal = tuple(map(tuple, image_h)) == lattice.basis
    index = None
    if contained and len(image_h) == lattice.rank:
        index = lattice_index(image_h, lattice.basis, nvars)
    return RayClassWittComparison(
        n, bound, injective, contained, equal, lattice.stable, lattice.rank, len(image_h), index, lattice
    )


def is_irreducible_smalldeg(p: IntPoly) -> bool:
    """Exact irreducibility over Q for small monic integer polynomials.

    First tries the mod-q Rabin test for a few primes (irreducible mod q
    implies irreducible over Q); polynomials reducible modulo every tried
    prime fall back to a bounded search over monic integer divisors, which
    is only feasible in small degree.
    """
    if p.lead() != 1:
        raise InputError("monic input required")
    if p.degree <= 1:
        return p.degree == 1
    for q in (2, 3, 5, 7, 11, 13):
        if p.lead() % q == 0:
            continue
        if _rabin_irreducible_mod(p, q):
            return True
    if p.degree > 8:
        raise InputError("irreducibility fallback limited to degree 8")
    norm1 = sum(abs(c) for c in p.coeffs)
    for m in range(1, p.degree // 2 + 1):
        bound = (2**m) * norm1  # generous coefficient bound for monic divisors
        for cand in _monic_candidates(m, bound, p[0]):
            out = poly_divmod(p, cand)
            if out is not None and out[1].is_zero():
                return False
    return True


def _rabin_irreducible_mod(p: IntPoly, q: int) -> bool:
    """Rabin's criterion for the monic p mod q: x^(q^k) = x mod p, and
    x^(q^(k/r)) - x is coprime to p for each prime r dividing k = deg p.
    Residues mod (p, q) are the remainders of ``poly_divmod`` by the monic
    reduction f of p, with coefficients taken mod q."""
    f, k, x = p.mod_coeffs(q), p.degree, IntPoly.x()

    def reduce(g: IntPoly) -> IntPoly:
        return poly_divmod(g, f)[1].mod_coeffs(q)

    def frobenius_gap(j: int) -> IntPoly:
        """x^(q^j) - x mod (f, q), by square and multiply."""
        e, out, base = q**j, IntPoly.of(1), reduce(x)
        while e:
            if e & 1:
                out = reduce(out * base)
            base = reduce(base * base)
            e >>= 1
        return (out - x).mod_coeffs(q)

    def gcd_mod(a: IntPoly, b: IntPoly) -> IntPoly:
        while not b.is_zero():
            b = b.scale(pow(b.lead(), -1, q)).mod_coeffs(q)  # monic divisor
            a, b = b, poly_divmod(a, b)[1].mod_coeffs(q)
        return a

    return frobenius_gap(k).is_zero() and all(gcd_mod(f, frobenius_gap(k // r)).degree == 0 for r in factor(k).primes())


def _monic_candidates(m: int, bound: int, const_term: int):
    """Monic degree-m integer polynomials whose constant term divides the
    target's constant term and whose coefficients are bounded."""
    consts = [d for d in range(-abs(const_term), abs(const_term) + 1) if d and const_term % d == 0]
    if const_term == 0:
        consts = list(range(-bound, bound + 1))

    def rec(i: int, acc: list[int]):
        if i == m:
            yield IntPoly.of(*acc, 1)
            return
        for c in range(-bound, bound + 1):
            yield from rec(i + 1, acc + [c])

    for c0 in consts:
        yield from rec(1, [c0])


@dataclass(frozen=True)
class FieldProductReport:
    n: int
    dimension: int
    idempotents: int
    factor_degrees: tuple[int, ...]

    def passes(self) -> bool:
        expected = sorted(cyclotomic_polynomial(d).degree for d in divisors(self.n))
        return (
            self.dimension == self.n
            and self.idempotents == len(divisors(self.n))
            and sorted(self.factor_degrees) == expected
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "dimension": self.dimension,
            "idempotents": self.idempotents,
            "factor_degrees": list(self.factor_degrees),
            "passes": self.passes(),
        }


def periodic_witt_field_product_check(n: int) -> FieldProductReport:
    """Decompose the rational algebra spanned by the group ring's ghost
    image: its dimension, and the number and degrees of the simple factors,
    read off the minimal polynomial of the generating tuple."""
    ring, rows = group_ring_ghost_rows(n)
    nvars = len(rows[0])
    if len(hnf_rows(rows, nvars)) != n:
        raise AssertionError("ghost image has unexpected rank")
    # the generator: image of x; its n-th power returns to the identity row
    dr = dr_monoid(Cycle(None, n, True))
    r = ring.rank
    xi = [tuple(rows[1][c * r : (c + 1) * r]) for c in range(dr.size)] if n > 1 else [(1,)]
    power = xi
    for _ in range(n - 1):
        power = [ring.mul(a, b) for a, b in zip(power, xi)]
    identity_row = [tuple(rows[0][c * r : (c + 1) * r]) for c in range(dr.size)]
    if power != identity_row:
        raise AssertionError("generator does not have exact order n")
    # independence of 1, xi, ..., xi^(n-1) holds by the rank check, so the
    # minimal polynomial is T^n - 1; factor it into cyclotomic pieces
    tn1 = IntPoly.of(*([-1] + [0] * (n - 1) + [1]))
    prod = IntPoly.of(1)
    degrees = []
    count = 0
    for d in divisors(n):
        phi = cyclotomic_polynomial(d)
        if not is_irreducible_smalldeg(phi):
            raise AssertionError("cyclotomic factor unexpectedly reducible")
        prod = prod * phi
        degrees.append(phi.degree)
        count += 1
    if prod != tn1:
        raise AssertionError("cyclotomic factorization failed to rebuild")
    return FieldProductReport(n, n, count, tuple(degrees))


def _solve_equalities_and_congruences(eq_rows, cong_rows, moduli, nvars) -> list[list[int]]:
    """HNF basis of {y : eq.y = 0, cong_i.y = 0 mod m_i}."""
    # right kernel of the equality matrix = left kernel of its transpose
    if eq_rows:
        transposed = [[row[i] for row in eq_rows] for i in range(nvars)]
        kernel = left_kernel(transposed, len(eq_rows))
    else:
        kernel = [[1 if j == i else 0 for j in range(nvars)] for i in range(nvars)]
    if not kernel:
        return []
    kdim = len(kernel)
    # congruences in kernel coordinates: c.t = 0 mod m, each row projected
    # through its nonzero entries; rows with the same projection up to sign
    # merge into one modulo the lcm, and zero projections hold for every t
    columns = list(zip(*kernel))
    merged: dict[tuple[int, ...], int] = {}
    for row, m in zip(cong_rows, moduli):
        proj = [0] * kdim
        for v, c in enumerate(row):
            if c:
                proj = [x + c * y for x, y in zip(proj, columns[v])]
        lead = next((x for x in proj if x), 0)
        if lead:
            key = tuple(proj) if lead > 0 else tuple(-x for x in proj)
            merged[key] = lcm(merged.get(key, 1), m)
    if not merged:
        return hnf_rows(kernel, nvars)
    # integer solutions of C' t + diag(m) s = 0; project to t
    cprime = list(merged)
    ncong = len(cprime)
    transposed = [list(col) for col in zip(*cprime)]
    transposed += [[m if j == i else 0 for j in range(ncong)] for i, m in enumerate(merged.values())]
    sol = left_kernel(transposed, ncong)
    t_basis = [row[:kdim] for row in sol]
    rows = []
    for t in t_basis:
        rows.append([sum(t[i] * kernel[i][v] for i in range(kdim)) for v in range(nvars)])
    return hnf_rows(rows, nvars)
