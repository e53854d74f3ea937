"""Big Witt vectors over torsion-free coefficient rings with declared
commuting Frobenius lifts: ghost/coordinate transforms, the Dwork
integrality test, Teichmueller lifts, periodicity, and periodic Witt
lattices compared against the cyclic group ring.

The coefficient rings are the integers and monic binomial quotients
Z[x]/(x^k - 1) (or any monic quotient carrying validated lifts).  Elements
are coefficient tuples; everything is exact, with rationals appearing only
in the inverse ghost transform.

The membership test realizes the maximal-subring definition through the
classical congruences g_{pn} = frob_p(g_n) mod p^(v_p(n)+1); for the
lattice of periodic vectors, congruence families whose moduli grow without
bound along multiplicative orbits are converted into exact (possibly
Frobenius-twisted) equality constraints before the bounded sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd

from .errors import InputError, ModelRefusedError
from .intlinalg import (
    IntMatrix,
    divisors,
    factor,
    hnf_rows,
    in_row_span,
    is_prime,
    lattice_index,
    left_kernel,
    )
from .lambdapoly import IntPoly, cyclotomic_polynomial, poly_divmod
from .rayclass import ALL_PRIMES, Cycle, PrimeSupport, dr_monoid, f_equiv


def _primes_upto(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if is_prime(p)]


# ---------------------------------------------------------------------------
# Coefficient rings


@dataclass(frozen=True)
class CoeffRing:
    """The integers, or a monic quotient Z[x]/(h) with Frobenius lifts.

    ``frob`` is "identity" (integers only) or "power" (x -> x^p; valid
    whenever h divides h(x^p), e.g. h = x^k - 1).  Elements are coefficient
    tuples of length ``rank``.
    """

    kind: str  # "integers" | "quotient-poly"
    modulus: IntPoly | None = None
    frob: str = "identity"

    def __post_init__(self):
        if self.kind == "integers":
            if self.modulus is not None or self.frob != "identity":
                raise InputError("the integer ring has the identity lifts and no modulus")
            return
        if self.kind != "quotient-poly":
            raise InputError(f"unknown ring kind {self.kind!r}")
        h = self.modulus
        if h is None or h.degree < 1 or h.lead() != 1:
            raise InputError("quotient ring needs a monic modulus of positive degree")
        if self.frob == "power":
            # x -> x^p must be a ring endomorphism: h | h(x^p); check the
            # defining congruence and commutation symbolically on the
            # generator for the primes up to a conservative window
            for p in _primes_upto(max(7, h.degree + 3)):
                img = self._power_image(p)
                comp = h.compose(_tuple_to_poly(img))
                out = poly_divmod(comp, h)
                if out is None or not out[1].is_zero():
                    raise InputError("x -> x^p does not descend to this quotient")
            for p in (2, 3):
                for q in (5, 7):
                    a = self.apply_frob(p, self.apply_frob(q, self.gen()))
                    b = self.apply_frob(q, self.apply_frob(p, self.gen()))
                    if a != b:
                        raise InputError("frobenius lifts do not commute")
            for p in _primes_upto(7):
                diff = self.sub(self.apply_frob(p, self.gen()), self.pow(self.gen(), p))
                if any(c % p for c in diff):
                    raise InputError("frobenius lift fails the defining congruence")
        elif self.frob != "identity":
            raise InputError(f"unknown frobenius rule {self.frob!r}")
        else:
            # identity lifts on a quotient: need x = x^p mod p for all p,
            # which fails for any modulus of degree > 1
            raise InputError("identity lifts are only valid over the integers")

    @property
    def rank(self) -> int:
        return 1 if self.kind == "integers" else self.modulus.degree

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

    def neg(self, a: tuple) -> tuple:
        return tuple(-x for x in a)

    def scale(self, k, a: tuple) -> tuple:
        return tuple(k * x for x in a)

    def mul(self, a: tuple, b: tuple) -> tuple:
        if self.rank == 1:
            return (a[0] * b[0],)
        out = [0] * (2 * self.rank - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return self._reduce(out)

    def _reduce(self, coeffs: list) -> tuple:
        h = self.modulus
        d = h.degree
        for i in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[i]
            if c:
                coeffs[i] = 0
                for j in range(d):
                    coeffs[i - d + j] -= c * h[j]
        return tuple(coeffs[:d])

    def pow(self, a: tuple, k: int) -> tuple:
        out = self.one()
        base = a
        while k:
            if k & 1:
                out = self.mul(out, base)
            k >>= 1
            if k:
                base = self.mul(base, base)
        return out

    def _power_image(self, p: int) -> tuple:
        """The image of the generator under x -> x^p, reduced."""
        coeffs = [0] * (p + 1)
        coeffs[p] = 1
        return self._reduce(coeffs)

    def frob_matrix(self, p: int) -> list[list[int]]:
        """The lift at p as an integer matrix acting on coefficient columns
        (row i = image of the basis monomial x^i)."""
        r = self.rank
        if self.kind == "integers" or self.frob == "identity":
            return [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        self._check_power_descends(p)
        rows = []
        img = self._power_image(p)
        cur = self.one()
        for i in range(r):
            rows.append(list(cur))
            cur = self.mul(cur, img)
        # rows hold images of x^0..x^(r-1), built multiplicatively, which
        # is coherent because the descent check certifies a ring map
        return rows

    def _check_power_descends(self, p: int):
        checked = _POWER_DESCENT_CHECKED.setdefault(self, set())
        if p in checked:
            return
        comp = self.modulus.compose(_tuple_to_poly(self._power_image(p)))
        out = poly_divmod(comp, self.modulus)
        if out is None or not out[1].is_zero():
            raise InputError(f"x -> x^{p} does not descend to this quotient")
        checked.add(p)

    def apply_frob(self, p: int, a: tuple) -> tuple:
        if self.kind == "integers" or self.frob == "identity":
            return a
        rows = self.frob_matrix(p)
        out = [0] * self.rank
        for i, c in enumerate(a):
            if c:
                for j in range(self.rank):
                    out[j] += c * rows[i][j]
        return tuple(out)

    def divisible(self, a: tuple, k: int) -> bool:
        return all(c % k == 0 for c in a)

    def exact_div(self, a: tuple, k: int) -> tuple:
        if not self.divisible(a, k):
            raise InputError("inexact division in the coefficient ring")
        return tuple(c // k for c in a)

    def label(self) -> str:
        if self.kind == "integers":
            return "Z"
        return f"Z[x]/({self.modulus})".replace("y", "x")


_POWER_DESCENT_CHECKED: dict["CoeffRing", set[int]] = {}

INTEGERS = CoeffRing("integers")


def binomial_quotient_ring(k: int) -> CoeffRing:
    """Z[x]/(x^k - 1) with the power lifts."""
    return CoeffRing("quotient-poly", IntPoly.of(*([-1] + [0] * (k - 1) + [1])), "power")


def _tuple_to_poly(t: tuple) -> IntPoly:
    return IntPoly.of(*t)


# ---------------------------------------------------------------------------
# Truncation sets, ghost vectors, Witt coordinates


@dataclass(frozen=True)
class TruncationSet:
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

    def sorted(self) -> list[int]:
        return sorted(self.members)


@dataclass(frozen=True)
class GhostVector:
    ring: CoeffRing
    trunc: TruncationSet
    components: tuple[tuple, ...]  # aligned with trunc.sorted()

    def component(self, a: int) -> tuple:
        return self.components[self.trunc.sorted().index(a)]

    @staticmethod
    def make(ring: CoeffRing, trunc: TruncationSet, comp: dict[int, tuple]) -> "GhostVector":
        return GhostVector(ring, trunc, tuple(comp[a] for a in trunc.sorted()))


@dataclass(frozen=True)
class WittCoords:
    ring: CoeffRing
    trunc: TruncationSet
    coords: tuple[tuple, ...]

    def coord(self, d: int) -> tuple:
        return self.coords[self.trunc.sorted().index(d)]

    @staticmethod
    def make(ring: CoeffRing, trunc: TruncationSet, coords: dict[int, tuple]) -> "WittCoords":
        return WittCoords(ring, trunc, tuple(coords[d] for d in trunc.sorted()))


def ghost_from_witt(w: WittCoords) -> GhostVector:
    """g_n = sum over d | n of d * w_d^(n/d)."""
    ring = w.ring
    out = {}
    for n in w.trunc.sorted():
        acc = ring.zero()
        for d in divisors(n):
            acc = ring.add(acc, ring.scale(d, ring.pow(w.coord(d), n // d)))
        out[n] = acc
    return GhostVector.make(ring, w.trunc, out)


def witt_from_ghost(g: GhostVector) -> tuple[WittCoords, dict[int, bool]]:
    """Invert the ghost map over the rationals; flags say which coordinates
    came out integral.  Non-integrality is data, not an error."""
    ring = g.ring
    coords: dict[int, tuple] = {}
    flags: dict[int, bool] = {}
    for n in g.trunc.sorted():
        acc = tuple(Fraction(c) for c in g.component(n))
        for d in divisors(n):
            if d == n:
                continue
            term = ring.scale(d, ring.pow(coords[d], n // d))
            acc = tuple(a - b for a, b in zip(acc, term))
        val = tuple(a / n for a in acc)
        flags[n] = all(x.denominator == 1 for x in val)
        coords[n] = val
    int_coords = {
        n: tuple(int(x) if x.denominator == 1 else x for x in v) for n, v in coords.items()
    }
    return WittCoords.make(ring, g.trunc, int_coords), flags


def teichmuller(ring: CoeffRing, r: tuple, trunc: TruncationSet) -> WittCoords:
    """The multiplicative lift: first coordinate r, the rest zero."""
    coords = {d: (r if d == 1 else ring.zero()) for d in trunc.sorted()}
    return WittCoords.make(ring, trunc, coords)


def dwork_check(g: GhostVector) -> bool:
    """Membership in the Witt subring: for every prime p and index n with
    p*n in the window, g_{pn} = frob_p(g_n) mod p^(v_p(n)+1)."""
    ring = g.ring
    top = max(g.trunc.members)
    for p in _primes_upto(top):
        for n in g.trunc.sorted():
            if p * n not in g.trunc.members:
                continue
            v = 0
            m = n
            while m % p == 0:
                v += 1
                m //= p
            diff = ring.sub(g.component(p * n), ring.apply_frob(p, g.component(n)))
            if not ring.divisible(diff, p ** (v + 1)):
                return False
    return True


def is_f_periodic(g: GhostVector, f: Cycle, support: PrimeSupport = ALL_PRIMES) -> bool:
    """Componentwise equality across the equivalence classes met by the
    window."""
    idx = g.trunc.sorted()
    for i, a in enumerate(idx):
        for b in idx[i + 1 :]:
            if f_equiv(a, b, f, support) and g.component(a) != g.component(b):
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
        return in_row_span(vec, [list(r) for r in self.basis], n_vars)


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

    def vp(m: int, p: int) -> int:
        v = 0
        while m % p == 0:
            v += 1
            m //= p
        return v

    # equality constraints from unbounded congruence families
    eq_rows: list[list[int]] = []

    def add_equality(c_to: int, c_from: int, frob: list[list[int]]):
        # y[c_to][j] - sum_i frob[i][j] * y[c_from][i] = 0 per coordinate j
        for j in range(r):
            row = [0] * nvars
            row[c_to * r + j] += 1
            for i in range(r):
                row[c_from * r + i] -= frob[i][j]
            if any(row):
                eq_rows.append(row)

    units = [u for u in range(1, n + 1) if gcd(u, n) == 1]
    for u in units:
        for e in _twist_exponents(u, n, ring):
            frob = _power_matrix(ring, e)
            for c in range(ncls):
                a = dr.reps[c]
                add_equality(cls_of(u * a), c, frob)
    for p in factor(n).primes():
        ep = vp(n, p)
        frob = ring.frob_matrix(p)
        for c in range(ncls):
            a = dr.reps[c]
            if (a % n) % (p**ep) == 0:
                add_equality(cls_of(p * a), c, frob)

    # bounded congruences: y[pm] = frob_p(y[m]) mod p^(v_p(m)+1)
    cong: dict[tuple[int, int, int, int], None] = {}
    for p in _primes_upto(bound):
        for m in range(1, bound // p + 1):
            cong[(cls_of(p * m), cls_of(m), p, vp(m, p) + 1)] = None
    cong_rows: list[list[int]] = []
    moduli: list[int] = []
    for c_to, c_from, p, e in cong:
        frob = ring.frob_matrix(p)
        for j in range(r):
            row = [0] * nvars
            row[c_to * r + j] += 1
            for i in range(r):
                row[c_from * r + i] -= frob[i][j]
            cong_rows.append(row)
            moduli.append(p**e)

    return _solve_equalities_and_congruences(eq_rows, cong_rows, moduli, nvars)


def _twist_exponents(u: int, n: int, ring: CoeffRing) -> list[int]:
    """Power-map exponents realized by infinitely many primes congruent to
    u mod n (one class per achievable exponent on the coefficient ring)."""
    if ring.kind == "integers":
        return [1]
    k = ring.modulus.degree  # modulus is x^k - 1 for the power rule
    g = gcd(n, k)
    return [j for j in range(1, k + 1) if gcd(j, k) == 1 and j % g == u % g]


def _power_matrix(ring: CoeffRing, e: int) -> list[list[int]]:
    """Matrix of the monomial map x -> x^e on the binomial quotient."""
    r = ring.rank
    if ring.kind == "integers":
        return [[1]]
    rows = []
    img = ring._power_image(e) if e > 1 else ring.gen()
    cur = ring.one()
    for i in range(r):
        rows.append(list(cur))
        cur = ring.mul(cur, img)
    return rows


# ---------------------------------------------------------------------------
# Comparison with the cyclic group ring


def group_ring_ghost_rows(n: int) -> tuple[CoeffRing, list[list[int]]]:
    """The ghost image of Z[x]/(x^n - 1): row j is the class-indexed tuple
    of the images of x^j under the operations (component at a class with
    representative a is x^(j*a))."""
    ring = binomial_quotient_ring(n) if n > 1 else CoeffRing("integers")
    dr = dr_monoid(Cycle(None, n, True))
    r = ring.rank
    rows = []
    for j in range(n):
        row = [0] * (dr.size * r)
        for c in range(dr.size):
            a = dr.reps[c]
            row[c * r + (j * a) % n if n > 1 else c] += 1
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
    ring, rows = group_ring_ghost_rows(n)
    lattice = periodic_witt_lattice(n, ring, bound)
    nvars = len(rows[0])
    image_h = hnf_rows([r[:] for r in rows], nvars)
    injective = len(image_h) == n
    contained = all(lattice.contains(row) for row in rows)
    lat_rows = [list(r) for r in lattice.basis]
    equal = image_h == lat_rows
    index = None
    if contained and len(image_h) == lattice.rank:
        index = lattice_index(
            IntMatrix.from_rows([r[:] for r in image_h], nvars),
            IntMatrix.from_rows(lat_rows, nvars),
        )
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


def _modp_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _modp_mul(a: list[int], b: list[int], f: list[int], q: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % q
    # reduce mod monic f
    d = len(f) - 1
    for i in range(len(out) - 1, d - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(d):
                out[i - d + j] = (out[i - d + j] - c * f[j]) % q
    return _modp_trim(out[:d])


def _modp_powx(e: int, f: list[int], q: int) -> list[int]:
    out = [1]
    base = _modp_mul([0, 1], [1], f, q)  # x reduced mod f
    while e:
        if e & 1:
            out = _modp_mul(out, base, f, q)
        base = _modp_mul(base, base, f, q)
        e >>= 1
    return out


def _modp_gcd(a: list[int], b: list[int], q: int) -> list[int]:
    a, b = _modp_trim(a[:]), _modp_trim(b[:])
    while b:
        # a mod b with b made monic
        inv = pow(b[-1], -1, q)
        bm = [(c * inv) % q for c in b]
        r = a[:]
        for i in range(len(r) - 1, len(bm) - 2, -1):
            c = r[i]
            if c:
                r[i] = 0
                for j in range(len(bm) - 1):
                    r[i - len(bm) + 1 + j] = (r[i - len(bm) + 1 + j] - c * bm[j]) % q
        a, b = b, _modp_trim(r)
    return a


def _rabin_irreducible_mod(p: IntPoly, q: int) -> bool:
    """Rabin's criterion for irreducibility of p mod q (monic, squarefree
    reduction assumed checked by the gcd steps themselves)."""
    f = [c % q for c in p.coeffs]
    k = p.degree
    if _modp_trim(f[:]) != f or len(f) - 1 != k:
        return False
    x = [0, 1]
    top = _modp_powx(q**k, f, q)
    if _modp_trim([(a - b) % q for a, b in _zip_pad(top, x)]):
        return False
    for r in {kk for kk in factor(k).primes()}:
        mid = _modp_powx(q ** (k // r), f, q)
        diff = _modp_trim([(a - b) % q for a, b in _zip_pad(mid, x)])
        g = _modp_gcd(f[:], diff, q)
        if len(g) - 1 != 0:
            return False
    return True


def _zip_pad(a: list[int], b: list[int]):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


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
        from .intlinalg import divisors as _divs

        expected = sorted(cyclotomic_polynomial(d).degree for d in _divs(self.n))
        return (
            self.dimension == self.n
            and self.idempotents == len(_divs(self.n))
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
    if len(hnf_rows([r[:] for r in rows], nvars)) != n:
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
    if not cong_rows:
        return hnf_rows([list(r) for r in kernel], nvars)
    # congruences in kernel coordinates: C' t = 0 mod m
    cprime = [[sum(row[v] * kernel[t][v] for v in range(nvars)) for t in range(kdim)] for row in cong_rows]
    # integer solutions of C' t + diag(m) s = 0; project to t
    stacked = []
    for i, row in enumerate(cprime):
        stacked.append(row + [moduli[i] if j == i else 0 for j in range(len(cprime))])
    width = kdim + len(cprime)
    transposed = [[stacked[i][j] for i in range(len(stacked))] for j in range(width)]
    sol = left_kernel(transposed, len(stacked))
    t_basis = [row[:kdim] for row in sol]
    rows = []
    for t in t_basis:
        rows.append([sum(t[i] * kernel[i][v] for i in range(kdim)) for v in range(nvars)])
    return hnf_rows(rows, nvars)
