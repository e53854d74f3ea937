"""Cycles, f-equivalence, ray class groups, and the ray class monoid with
its change-of-conductor maps.

Two routes to f-equivalence are implemented and kept independent:

- ``f_equiv``: the definition -- equal gcd with the finite part, and equal
  cofactor classes in the ray class group of the cofactor conductor;
- ``f_equiv_generator``: existence of a generator x with a = x*b,
  x - 1 in f_fin * b^(-1), positive at the real places dividing f.

Over the rationals an ideal is a positive integer and a cycle is "n" or
"n*inf"; over an imaginary quadratic field ideals are QuadIdeal values and
cycles have no real places.

Ray class groups are built by enumeration and quotient; the closed formulas
((Z/n)* and friends) live only in the tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from math import gcd

from . import quadfield as qf
from .config import monoid_bound, residue_bound
from .errors import BoundExceededError, DensityRequiredError, InputError
from .intlinalg import divisors, factor, is_prime
from .quadfield import QuadField, QuadIdeal, QuadInt


# ---------------------------------------------------------------------------
# Cycles and prime supports


@dataclass(frozen=True)
class Cycle:
    """A modulus: finite ideal part plus (over Q) the real place.

    Over Q ``finite`` is a positive integer and ``infinity`` a flag; over an
    imaginary quadratic field ``finite`` is a QuadIdeal and the real part is
    empty by definition.
    """

    field: QuadField | None
    finite: int | QuadIdeal
    infinity: bool = False

    def __post_init__(self):
        if self.field is None:
            if not isinstance(self.finite, int) or self.finite < 1:
                raise InputError("rational cycle needs a positive integer finite part")
        else:
            if not isinstance(self.finite, QuadIdeal) or self.finite.field != self.field:
                raise InputError("quadratic cycle needs an ideal of its own field")
            if self.infinity:
                raise InputError("imaginary quadratic cycles have no real places")

    def is_rational(self) -> bool:
        return self.field is None

    def norm(self) -> int:
        return self.finite if self.field is None else self.finite.norm()

    def divides(self, other: "Cycle") -> bool:
        if self.field != other.field:
            raise InputError("cycles over different fields")
        if self.infinity and not other.infinity:
            return False
        if self.field is None:
            return other.finite % self.finite == 0
        return qf.ideal_divides(self.finite, other.finite)

    def cofactor(self, d) -> "Cycle":
        """The cycle f * d^(-1) for an ideal divisor d of the finite part."""
        if self.field is None:
            if self.finite % d != 0:
                raise InputError("not a divisor")
            return Cycle(None, self.finite // d, self.infinity)
        return Cycle(self.field, qf.ideal_div(self.finite, d), False)

    def __str__(self):
        if self.field is None:
            return f"{self.finite}*inf" if self.infinity else str(self.finite)
        return str(self.finite)

    @staticmethod
    def parse(text: str, field: QuadField | None = None) -> "Cycle":
        text = text.strip()
        if field is not None:
            return Cycle(field, QuadIdeal.parse(field, text))
        m = re.fullmatch(r"(\d+)(\*inf)?", text)
        if not m:
            raise InputError(f"cannot parse cycle {text!r}; expected \"12\" or \"12*inf\"")
        return Cycle(None, int(m.group(1)), m.group(2) is not None)


def cycle_gcd(x: Cycle, y: Cycle) -> Cycle:
    if x.field is not None or y.field is not None:
        raise InputError("cycle gcd implemented over Q only")
    return Cycle(None, gcd(x.finite, y.finite), x.infinity and y.infinity)


def cycle_lcm(x: Cycle, y: Cycle) -> Cycle:
    if x.field is not None or y.field is not None:
        raise InputError("cycle lcm implemented over Q only")
    return Cycle(None, x.finite * y.finite // gcd(x.finite, y.finite), x.infinity or y.infinity)


def divisor_cycles(f: Cycle) -> list[Cycle]:
    """All cycles dividing f, smallest first."""
    if f.field is not None:
        return [Cycle(f.field, d) for d in qf.ideal_divisors(f.finite)]
    out = [Cycle(None, d, False) for d in divisors(f.finite)]
    if f.infinity:
        out += [Cycle(None, d, True) for d in divisors(f.finite)]
    return sorted(out, key=lambda c: (c.finite, c.infinity))


@dataclass(frozen=True)
class PrimeSupport:
    """Which primes index the ideal monoid.

    mode "all" and "all-except" are Chebotarev dense; "explicit" is not,
    unless the caller overrides with a justification flag.  Over quadratic
    fields only "all" is supported.
    """

    mode: str = "all"
    primes: frozenset[int] = dc_field(default_factory=frozenset)
    density_override: bool = False

    def __post_init__(self):
        if self.mode not in ("all", "all-except", "explicit"):
            raise InputError(f"unknown support mode {self.mode!r}")
        if self.mode == "all" and self.primes:
            raise InputError("mode \"all\" takes no prime list")

    @property
    def chebotarev_dense(self) -> bool:
        if self.mode == "explicit":
            return self.density_override
        return True

    def allows_prime(self, p: int) -> bool:
        if self.mode == "all":
            return True
        if self.mode == "all-except":
            return p not in self.primes
        return p in self.primes

    @cached_property
    def _listed_primes(self) -> tuple[int, ...]:
        """The listed entries that are prime; the others can never match a
        prime factor, so they have no effect."""
        return tuple(p for p in sorted(self.primes) if is_prime(p))

    def supports_int(self, n: int) -> bool:
        """Is the rational ideal (n) supported at P?

        Decided by division by the listed primes; n is never factored.
        """
        if self.mode == "all":
            return True
        if n <= 0:
            raise InputError(_NOT_AN_IDEAL)
        if self.mode == "all-except":
            return all(n % p for p in self._listed_primes)
        for p in self._listed_primes:
            while n % p == 0:
                n //= p
        return n == 1

    def __str__(self):
        if self.mode == "all":
            return "all"
        ps = ",".join(str(p) for p in sorted(self.primes))
        return f"{self.mode}:{ps}"

    @staticmethod
    def parse(text: str) -> "PrimeSupport":
        text = text.strip()
        if text == "all":
            return PrimeSupport()
        m = re.fullmatch(r"(all-except|explicit):([\d,]+)(!)?", text)
        if not m:
            raise InputError(f"cannot parse support {text!r}")
        primes = frozenset(int(x) for x in m.group(2).split(",") if x)
        return PrimeSupport(m.group(1), primes, density_override=m.group(3) == "!")


ALL_PRIMES = PrimeSupport()

_NOT_AN_IDEAL = "a rational ideal must be a positive integer"


def _check_rational_ideal(a) -> None:
    if not isinstance(a, int) or a < 1:
        raise InputError(_NOT_AN_IDEAL)


def _require_rational(f: Cycle):
    if f.field is not None:
        raise InputError("this operation is rational-only")


def _require_all_support(f: Cycle, support: PrimeSupport):
    if f.field is not None and support.mode != "all":
        raise InputError("quadratic fields support only mode \"all\"")


# ---------------------------------------------------------------------------
# f-equivalence, both routes


def f_equiv(a, b, f: Cycle, support: PrimeSupport = ALL_PRIMES) -> bool:
    """Definition route: equal gcd with f_fin and equal cofactor ray class.

    The per-ideal label (gcd part, cofactor class) is memoized; equivalence
    is equality of labels.
    """
    _require_all_support(f, support)
    if f.field is None:
        _check_rational_ideal(a)
        _check_rational_ideal(b)
        if not (support.supports_int(a) and support.supports_int(b)):
            raise InputError("ideal not supported at P")
        return _q_label(a, f, support) == _q_label(b, f, support)
    return _quad_label_of(a, f) == _quad_label_of(b, f)


@lru_cache(maxsize=1 << 20)
def _q_label(a: int, f: Cycle, support: PrimeSupport) -> tuple[int, int]:
    d = gcd(a, f.finite)
    cl = _cofactor_group(f, d, support)
    return d, cl.class_of_int(a // d)


@lru_cache(maxsize=65536)
def _quad_label_of(a: QuadIdeal, f: Cycle) -> tuple:
    d = qf.ideal_gcd(a, f.finite)
    cl = _cofactor_group(f, d, ALL_PRIMES)
    return d, cl.class_of_ideal(qf.ideal_div(a, d))


@lru_cache(maxsize=65536)
def _cofactor_group(f: Cycle, d, support: PrimeSupport) -> "RayClassGroup":
    return ray_class_group(f.cofactor(d), support)


def f_equiv_generator(a, b, f: Cycle, support: PrimeSupport = ALL_PRIMES) -> bool:
    """Witness route: a = x*b for x with x - 1 in f_fin*b^(-1), x positive
    at the real places dividing f."""
    _require_all_support(f, support)
    if f.field is None:
        _check_rational_ideal(a)
        _check_rational_ideal(b)
        if not (support.supports_int(a) and support.supports_int(b)):
            raise InputError("ideal not supported at P")
        n = f.finite
        signs = (1,) if f.infinity else (1, -1)
        # x = s*a/b; x - 1 in (n/b)Z  <=>  s*a = b (mod n)
        return any((s * a - b) % n == 0 for s in signs)
    gens = _pair_generators(a, b)
    if not gens:
        return False
    ac, bc, c = _conductor_times_conj(f.finite, b)
    nb = b.norm()
    # inline membership of g - N(b) in the target ideal (u, v) coordinates
    for u, v in gens:
        if v % c == 0:
            q = v // c
            if (u - nb - q * bc) % ac == 0:
                return True
    return False


@lru_cache(maxsize=1 << 18)
def _pair_generators(a: QuadIdeal, b: QuadIdeal) -> tuple[tuple[int, int], ...]:
    """Coefficients of the generators of a * conj(b) (empty if none)."""
    return tuple((g.a, g.b) for g in generators_of(qf.ideal_mul(a, b.conj())))


@lru_cache(maxsize=65536)
def _conductor_times_conj(f_fin: QuadIdeal, b: QuadIdeal) -> tuple[int, int, int]:
    t = qf.ideal_mul(f_fin, b.conj())
    return t.a * t.c, t.b * t.c, t.c


@lru_cache(maxsize=65536)
def generators_of(ideal: QuadIdeal) -> tuple[QuadInt, ...]:
    """All generators of a principal ideal (empty if not principal)."""
    return tuple(x for x in qf.norm_solutions(ideal.field, ideal.norm()) if ideal.contains(x))


# ---------------------------------------------------------------------------
# Ray class groups


class RayClassGroup:
    """Cl_P(f): ideal classes coprime to f under f-equivalence, built by
    enumeration and quotient.

    Over Q a class is an orbit of unit residues mod n (folded by the sign
    when the cycle has no real place); over a quadratic field a class is a
    complete invariant pair (ideal class at trivial conductor, unit-orbit
    of a normalized generator residue), and every comparison reduces to
    principality searches.
    """

    def __init__(self, cycle: Cycle, support: PrimeSupport = ALL_PRIMES):
        _require_all_support(cycle, support)
        self.cycle = cycle
        self.support = support
        self._table = None
        if cycle.field is None:
            self._init_rational()
            if self.order <= 128:  # larger tables materialize lazily
                _check_group_table(self.table)
        else:
            self._init_quadratic()
            _check_group_table(self.table)

    # -- rational construction

    def _init_rational(self):
        n = self.cycle.finite
        # orbits of the unit residues, smallest first; without the real
        # place the sign folds r with n - r
        if n == 1:
            orbits = [(0,)]
        elif self.cycle.infinity:
            orbits = [(r,) for r in range(1, n) if gcd(r, n) == 1]
        else:
            orbits = [(r, n - r) if 2 * r < n else (r,) for r in range(1, n // 2 + 1) if gcd(r, n) == 1]
        orbit_of: list[int | None] = [None] * n
        for k, orbit in enumerate(orbits):
            for x in orbit:
                orbit_of[x] = k
        if self.support.mode == "explicit":
            gens = [orbit_of[p % n] for p in self.support._listed_primes if gcd(p, n) == 1]
            achievable = _subgroup_closure(gens, lambda i, j: orbit_of[orbits[i][0] * orbits[j][0] % n], orbit_of[1 % n])
            index = {o: k for k, o in enumerate(achievable)}
            class_of = [None if o is None else index.get(o) for o in orbit_of]
        else:
            achievable = list(range(len(orbits)))
            class_of = orbit_of
        # class index per residue mod n; None for the non-units and for the
        # classes that P does not reach
        self._class_of = class_of
        self._heads = [orbits[o][0] for o in achievable]
        self.reps = [self._smallest_supported_rep(orbits[o], n) for o in achievable]
        self.is_full = len(achievable) == len(orbits)

    def _smallest_supported_rep(self, orbit: tuple[int, ...], n: int) -> int:
        """The smallest supported positive integer with residue in the orbit.

        The residues are searched together, in increasing order: under an
        explicit support some residues of a reachable orbit have no
        supported integer at all (-1 mod 7 is no power of 2).
        """
        if n == 1:
            return 1
        candidates = sorted(orbit)  # units mod n > 1, so in 1..n-1
        while True:
            for m in candidates:
                if self.support.supports_int(m):
                    return m
            candidates = [m + n for m in candidates]

    # -- quadratic construction

    def _init_quadratic(self):
        cyc = self.cycle
        field = cyc.field
        fid = cyc.finite
        self._label_cache: dict[QuadIdeal, tuple[int, int]] = {}
        if fid.norm() > residue_bound():
            raise BoundExceededError(f"conductor norm {fid.norm()} over residue bound")
        cl1 = qf.class_group(field)
        self._cl1 = cl1
        nf = fid.norm()
        self._base = [_coprime_class_rep(cl1, k, nf) for k in range(cl1.order)]
        ru = qf.residue_units(fid)
        self._ru = ru
        unit_idx = sorted({ru.index_of(u) for u in qf.unit_group(field)})
        # orbits of the global-unit image acting on (O/f)* by multiplication
        orbit_of: dict[int, int] = {}
        orbits: list[tuple[int, ...]] = []
        for i in range(ru.order):
            if i in orbit_of:
                continue
            orb = sorted({ru.mul(i, u) for u in unit_idx})
            for x in orb:
                orbit_of[x] = len(orbits)
            orbits.append(tuple(orb))
        self._res_orbit_of = orbit_of
        self._res_orbits = orbits
        labels = [(c, o) for c in range(cl1.order) for o in range(len(orbits))]
        self._label_index = {lab: k for k, lab in enumerate(labels)}
        self._labels = labels
        if len(labels) > monoid_bound():
            raise BoundExceededError("ray class group larger than monoid bound")
        self.reps = self._find_reps()
        self._table = tuple(
            tuple(self.class_of_ideal(qf.ideal_mul(self.reps[i], self.reps[j])) for j in range(len(labels)))
            for i in range(len(labels))
        )
        self.is_full = True

    def _find_reps(self) -> list[QuadIdeal]:
        fid = self.cycle.finite
        field = self.cycle.field
        one = qf.ideal_from_int(field, 1)
        reps: dict[int, QuadIdeal] = {}
        bound = 2
        while len(reps) < len(self._labels):
            bound *= 2
            if bound > 16 * (fid.norm() + 2) * (len(self._labels) + 2):
                raise BoundExceededError("could not find ray class representatives")
            for ideal in qf.ideals_of_norm_up_to(field, bound):
                if len(reps) == len(self._labels):
                    break
                if qf.ideal_gcd(ideal, fid) != one:
                    continue
                k = self.class_of_ideal(ideal)
                if k not in reps:
                    reps[k] = ideal
        return [reps[k] for k in range(len(self._labels))]

    def _quad_label(self, ideal: QuadIdeal) -> tuple[int, int]:
        if ideal in self._label_cache:
            return self._label_cache[ideal]
        label = self._quad_label_uncached(ideal)
        self._label_cache[ideal] = label
        return label

    def _quad_label_uncached(self, ideal: QuadIdeal) -> tuple[int, int]:
        field = self.cycle.field
        fid = self.cycle.finite
        one = qf.ideal_from_int(field, 1)
        if qf.ideal_gcd(ideal, fid) != one:
            raise InputError("ideal not coprime to the conductor")
        for c, base in enumerate(self._base):
            g = qf.is_principal(qf.ideal_mul(ideal, base.conj()))
            if g is None:
                continue
            nb = base.norm()
            # residue of g / N(base) in (O/f)*
            ginv = _residue_inverse(self._ru, QuadInt(field, nb, 0))
            r = self._ru.index_of(g)
            r = self._ru.mul(r, ginv)
            return (c, self._res_orbit_of[r])
        raise InputError("ideal matched no class (corrupt class group)")

    # -- shared API

    @property
    def order(self) -> int:
        return len(self.reps)

    def class_of_int(self, a: int) -> int:
        if self.cycle.field is not None:
            return self.class_of_ideal(qf.ideal_from_int(self.cycle.field, a))
        n = self.cycle.finite
        if gcd(a, n) != 1:
            raise InputError(f"{a} is not coprime to the conductor {n}")
        k = self._class_of[a % n]
        if k is None:
            raise InputError(f"class of {a} is not supported at P")
        return k

    def class_of_ideal(self, ideal) -> int:
        if self.cycle.field is None:
            return self.class_of_int(ideal)
        return self._label_index[self._quad_label(ideal)]

    @property
    def table(self):
        if self._table is None:
            n = self.cycle.finite
            heads, class_of = self._heads, self._class_of
            self._table = tuple(tuple(class_of[h1 * h2 % n] for h2 in heads) for h1 in heads)
            _check_group_table(self._table)
        return self._table

    def mul(self, i: int, j: int) -> int:
        if self.cycle.field is None:
            n = self.cycle.finite
            return self._class_of[self._heads[i] * self._heads[j] % n]
        return self._table[i][j]

    @property
    def identity(self) -> int:
        return self.class_of_int(1) if self.cycle.field is None else self.class_of_ideal(qf.ideal_from_int(self.cycle.field, 1))


def _residue_inverse(ru: qf.ResidueUnitGroup, x: QuadInt) -> int:
    i = ru.index_of(x)
    one = ru.index_of(QuadInt(x.field, 1, 0))
    for j in range(ru.order):
        if ru.mul(i, j) == one:
            return j
    raise InputError("residue has no inverse")


def _coprime_class_rep(cl: qf.ClassGroup, k: int, nf: int) -> QuadIdeal:
    """An ideal in class k whose norm is coprime to nf (so its conjugate is
    coprime to the conductor too)."""
    if gcd(cl.reps[k].norm(), nf) == 1:
        return cl.reps[k]
    field = cl.field
    for ideal in qf.ideals_of_norm_up_to(field, 16 * (nf + 2)):
        if gcd(ideal.norm(), nf) != 1:
            continue
        if qf.is_principal(qf.ideal_mul(ideal, cl.reps[k].conj())) is not None:
            return ideal
    raise BoundExceededError("no coprime class representative found")


def _subgroup_closure(gens: list[int], mul, identity: int) -> list[int]:
    out = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = mul(x, g)
            if y not in out:
                out.add(y)
                frontier.append(y)
    return sorted(out)


def _check_group_table(table):
    n = len(table)
    everything = set(range(n))
    for row in table:
        if len(row) != n or set(row) != everything:
            raise InputError("ray class table row is not a permutation")
    if list(zip(*table)) != [tuple(row) for row in table]:
        raise InputError("ray class table is not abelian")


_RCG_CACHE: dict[tuple, RayClassGroup] = {}


def ray_class_group(cycle: Cycle, support: PrimeSupport = ALL_PRIMES) -> RayClassGroup:
    key = (cycle, support)
    if key not in _RCG_CACHE:
        _RCG_CACHE[key] = RayClassGroup(cycle, support)
    return _RCG_CACHE[key]


# ---------------------------------------------------------------------------
# The ray class monoid


@dataclass(frozen=True)
class DRClass:
    """A monoid element: the gcd-with-f part d and the cofactor's ray class."""

    divisor: object  # int over Q, QuadIdeal otherwise
    unit_index: int


class DRMonoid:
    """The quotient of the P-supported ideals by f-equivalence.

    Elements are (divisor, cofactor class) pairs; multiplication classifies
    the product of canonical representative ideals, so it is definitionally
    the induced multiplication.  Tables are materialized on demand (the
    element count can reach the configured monoid bound).
    """

    def __init__(self, cycle: Cycle, support: PrimeSupport = ALL_PRIMES):
        _require_all_support(cycle, support)
        self.cycle = cycle
        self.support = support
        if cycle.field is None:
            divs = [d for d in divisors(cycle.finite) if support.supports_int(d)]
        else:
            divs = qf.ideal_divisors(cycle.finite)
        self.divisors = divs
        self.class_groups = {d: ray_class_group(cycle.cofactor(d), support) for d in divs}
        self.elements: list[DRClass] = []
        offsets = {}  # index of the first element with each divisor
        for d in divs:
            offsets[d] = len(self.elements)
            for u in range(self.class_groups[d].order):
                self.elements.append(DRClass(d, u))
        if len(self.elements) > monoid_bound():
            raise BoundExceededError("ray class monoid larger than monoid bound")
        self._index = {e: k for k, e in enumerate(self.elements)}
        self.reps = [self._rep_of(e) for e in self.elements]
        self._mul_cache: dict[tuple[int, int], int] = {}
        if cycle.field is None:
            self._res_index = self._build_residue_index(offsets)

    def _build_residue_index(self, offsets: dict[int, int]) -> list[int | None]:
        """Class index per residue (rational cycles): the class of a
        supported ideal depends only on its residue mod the finite part.

        The residues with gcd d against n are d*c for the units c mod n/d,
        whose classes the cofactor group lists; the other residues (gcd
        part or class not supported at P) stay None.
        """
        n = self.cycle.finite
        out: list[int | None] = [None] * n
        for d, base in offsets.items():
            for c, u in enumerate(self.class_groups[d]._class_of):
                if u is not None:
                    out[d * c] = base + u
        return out

    def _rep_of(self, e: DRClass):
        if self.cycle.field is None:
            return e.divisor * self.class_groups[e.divisor].reps[e.unit_index]
        return qf.ideal_mul(e.divisor, self.class_groups[e.divisor].reps[e.unit_index])

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> int:
        one = 1 if self.cycle.field is None else qf.ideal_from_int(self.cycle.field, 1)
        return self._index[DRClass(one, self.class_groups[one].identity)]

    def class_of_ideal(self, ideal) -> int:
        """The monoid class of a P-supported ideal."""
        if self.cycle.field is None:
            _check_rational_ideal(ideal)
            if self.support.mode != "all" and not self.support.supports_int(ideal):
                raise InputError(f"ideal ({ideal}) is not supported at P")
            k = self._res_index[ideal % self.cycle.finite]
            if k is None:
                raise InputError(f"ideal ({ideal}) is not supported at P")
            return k
        d = qf.ideal_gcd(ideal, self.cycle.finite)
        cof = qf.ideal_div(ideal, d)
        return self._index[DRClass(d, self.class_groups[d].class_of_ideal(cof))]

    def mul(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        key = (i, j)
        if key not in self._mul_cache:
            if self.cycle.field is None:
                self._mul_cache[key] = self.class_of_ideal(self.reps[i] * self.reps[j])
            else:
                self._mul_cache[key] = self.class_of_ideal(qf.ideal_mul(self.reps[i], self.reps[j]))
        return self._mul_cache[key]

    def table(self) -> list[list[int]]:
        return [[self.mul(i, j) for j in range(self.size)] for i in range(self.size)]

    def units(self) -> list[int]:
        """Indices of invertible elements, found from the multiplication."""
        e = self.identity
        out = []
        for i in range(self.size):
            if any(self.mul(i, j) == e for j in range(self.size)):
                out.append(i)
        return out

    def to_json(self) -> dict:
        return {
            "cycle": str(self.cycle),
            "support": str(self.support),
            "elements": [
                {"d": str(e.divisor), "unit_rep": str(self.class_groups[e.divisor].reps[e.unit_index])}
                for e in self.elements
            ],
            "table": self.table(),
        }


_DR_CACHE: dict[tuple, DRMonoid] = {}


def dr_monoid(cycle: Cycle, support: PrimeSupport = ALL_PRIMES) -> DRMonoid:
    key = (cycle, support)
    if key not in _DR_CACHE:
        _DR_CACHE[key] = DRMonoid(cycle, support)
    return _DR_CACHE[key]


# ---------------------------------------------------------------------------
# Structural isomorphisms and change-of-conductor maps


def dr_iso_residue(cycle: Cycle, support: PrimeSupport = ALL_PRIMES, check_pairs=None, rng=None):
    """Explicit isomorphism DR_P((n)inf) = (Z/n_P)deg x (Z/n^P)* over Q.

    Returns (monoid, mapping) where mapping[i] is the (residue mod n_P,
    residue mod n^P) pair of element i.  Verifies bijectivity always and
    multiplicativity on all pairs (check_pairs=None) or on check_pairs
    random pairs.
    """
    _require_rational(cycle)
    if not cycle.infinity:
        raise InputError("the residue description needs the real place in the cycle")
    if not support.chebotarev_dense:
        raise DensityRequiredError("residue description requires a Chebotarev dense support")
    n = cycle.finite
    n_p = 1
    for p, e in factor(n).factors:
        if support.allows_prime(p):
            n_p *= p**e
    n_cop = n // n_p
    dr = dr_monoid(cycle, support)
    mapping = []
    for i, e in enumerate(dr.elements):
        rep = dr.reps[i]
        mapping.append((rep % n_p, rep % n_cop))
    # bijectivity onto (Z/n_P)deg x (Z/n^P)*
    target = {(a, b) for a in range(n_p) for b in range(n_cop) if gcd(b, n_cop) == 1}
    if n_cop == 1:
        target = {(a, 0) for a in range(n_p)}
    if n_p == 1:
        target = {(0, b) for b in range(max(n_cop, 1)) if gcd(b, n_cop) == 1} or {(0, 0)}
    got = set(mapping)
    if len(mapping) != len(got) or got != target:
        raise InputError("residue description failed: not a bijection")
    pairs = _all_or_random_pairs(dr.size, check_pairs, rng)
    reps = dr.reps
    for i, j in pairs:
        # classify the product directly (no table cache: pairs rarely repeat)
        k = dr.class_of_ideal(reps[i] * reps[j])
        ai, bi = mapping[i]
        aj, bj = mapping[j]
        if mapping[k] != ((ai * aj) % n_p, (bi * bj) % n_cop):
            raise InputError("residue description failed: not multiplicative")
    return dr, mapping


def _all_or_random_pairs(n: int, count, rng):
    if count is None:
        return [(i, j) for i in range(n) for j in range(n)]
    import random

    rng = rng or random.Random(0)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


def dr_pushout_check(cycle: Cycle, support: PrimeSupport = ALL_PRIMES) -> bool:
    """Build the pushout of the residue monoid at the P-part against the ray
    class group over their shared unit group, and verify the canonical map
    to the ray class monoid is a monoid isomorphism."""
    if not support.chebotarev_dense:
        raise DensityRequiredError("the pushout description needs a dense support")
    _require_all_support(cycle, support)
    dr = dr_monoid(cycle, support)
    if cycle.field is None:
        return _pushout_check_rational(cycle, support, dr)
    return _pushout_check_quadratic(cycle, dr)


def _pushout_check_rational(cycle: Cycle, support: PrimeSupport, dr: DRMonoid) -> bool:
    n = cycle.finite
    n_p = 1
    for p, e in factor(n).factors:
        if support.allows_prime(p):
            n_p *= p**e
    n_cop = n // n_p
    cl = ray_class_group(cycle, support)
    units = [a for a in range(n_p) if gcd(a, n_p) == 1] or [0]
    # G -> Cl(f): g maps to the class of a positive P-supported integer
    # congruent to g at the P-part and to 1 away from it
    def lift(a: int) -> int:
        m = _crt_lift(a, n_p, 1, n_cop)
        while not support.supports_int(m) :
            m += n_p * n_cop if n_p * n_cop > 1 else 1
        return m

    g_to_cl = {g: cl.class_of_int(lift(g)) for g in units}
    # orbits of g.(a, b) = (g a, g^{-1} b)
    cl_inv = {}
    for g, c in g_to_cl.items():
        cl_inv[g] = next(x for x in range(cl.order) if cl.mul(c, x) == cl.identity)
    pairs = [(a, b) for a in range(n_p) for b in range(cl.order)]
    orbit_of: dict[tuple[int, int], int] = {}
    orbits = []
    for pair in pairs:
        if pair in orbit_of:
            continue
        orb = sorted({((g * pair[0]) % n_p, cl.mul(cl_inv[g], pair[1])) for g in units})
        for x in orb:
            orbit_of[x] = len(orbits)
        orbits.append(orb)
    if len(orbits) != dr.size:
        return False
    # the comparison map: orbit of (a, b) -> [lift(a)] * iota(b)
    image = {}
    for k, orb in enumerate(orbits):
        vals = set()
        for a, b in orb:
            m = _supported_lift(a, n_p, n_cop, support)
            m2 = _supported_lift(a, n_p, n_cop, support, skip=m)  # second lift
            ib = dr.class_of_ideal(lift_to_support(cl, b, support))
            vals.add(dr.mul(dr.class_of_ideal(m), ib))
            vals.add(dr.mul(dr.class_of_ideal(m2), ib))
        if len(vals) != 1:
            return False  # map not well defined: the proposition would fail
        image[k] = vals.pop()
    if sorted(image.values()) != list(range(dr.size)):
        return False
    # multiplicativity
    for k1, o1 in enumerate(orbits):
        for k2, o2 in enumerate(orbits):
            a1, b1 = o1[0]
            a2, b2 = o2[0]
            prod = orbit_of[((a1 * a2) % n_p, cl.mul(b1, b2))]
            if dr.mul(image[k1], image[k2]) != image[prod]:
                return False
    return True


def _crt_lift(a: int, m: int, b: int, n: int) -> int:
    """Positive x with x = a (mod m), x = b (mod n); gcd(m, n) = 1."""
    if n == 1:
        x = a % m
        return x if x else m
    if m == 1:
        x = b % n
        return x if x else n
    from .intlinalg import xgcd

    u, v, g = xgcd(m, n)
    assert g == 1
    x = (a * v * n + b * u * m) % (m * n)
    return x if x else m * n


def _supported_lift(a: int, n_p: int, n_cop: int, support: PrimeSupport, skip: int | None = None) -> int:
    m = _crt_lift(a, n_p, 1, n_cop)
    step = max(n_p * n_cop, 1)
    while not support.supports_int(m) or m == skip:
        m += step
    return m


def lift_to_support(cl: RayClassGroup, class_index: int, support: PrimeSupport) -> int:
    """A P-supported integer ideal in the given ray class (the canonical
    representatives are chosen P-supported at construction)."""
    return cl.reps[class_index]


def _pushout_check_quadratic(cycle: Cycle, dr: DRMonoid) -> bool:
    field = cycle.field
    fid = cycle.finite
    ru_all = fid.residues()
    ru_units = qf.residue_units(fid)
    cl = ray_class_group(cycle)
    unit_elems = [ru_units.elements[k] for k in range(ru_units.order)]
    # G -> Cl(f); lifts must be nonzero elements (f = (1) reduces 1 to 0)
    def unit_lift(u: QuadInt) -> QuadInt:
        return u if not u.is_zero() else u + QuadInt(field, fid.a * fid.c, 0)

    g_to_cl = {}
    for k, u in enumerate(ru_units.elements):
        g_to_cl[k] = cl.class_of_ideal(qf.principal_ideal(unit_lift(u)))
    cl_inv = {k: next(x for x in range(cl.order) if cl.mul(c, x) == cl.identity) for k, c in g_to_cl.items()}
    res_index = {fid.reduce(r): i for i, r in enumerate(ru_all)}
    pairs = [(i, b) for i in range(len(ru_all)) for b in range(cl.order)]
    orbit_of = {}
    orbits = []
    for pair in pairs:
        if pair in orbit_of:
            continue
        orb = set()
        for k, u in enumerate(ru_units.elements):
            ra = res_index[fid.reduce(ru_all[pair[0]] * u)]
            orb.add((ra, cl.mul(cl_inv[k], pair[1])))
        orb = sorted(orb)
        for x in orb:
            orbit_of[x] = len(orbits)
        orbits.append(orb)
    if len(orbits) != dr.size:
        return False
    def lift_residue(i: int) -> QuadIdeal:
        # the map is on element residues: the lift must be a PRINCIPAL ideal
        r = ru_all[i]
        if r.is_zero():
            r = QuadInt(field, fid.a * fid.c, 0)  # the rational generator of f
        return qf.principal_ideal(r)
    def lift_residue2(i: int) -> QuadIdeal:
        # an independent second lift, to check the map ignores the choice
        r = ru_all[i] + QuadInt(field, fid.a * fid.c, 0)
        return qf.principal_ideal(r)

    image = {}
    for k, orb in enumerate(orbits):
        vals = set()
        for i, b in orb:
            ib = dr.class_of_ideal(cl.reps[b])
            vals.add(dr.mul(dr.class_of_ideal(lift_residue(i)), ib))
            vals.add(dr.mul(dr.class_of_ideal(lift_residue2(i)), ib))
        if len(vals) != 1:
            return False
        image[k] = vals.pop()
    if sorted(image.values()) != list(range(dr.size)):
        return False
    for k1, o1 in enumerate(orbits):
        for k2, o2 in enumerate(orbits):
            (i1, b1), (i2, b2) = o1[0], o2[0]
            prod = orbit_of[(res_index[fid.reduce(ru_all[i1] * ru_all[i2])], cl.mul(b1, b2))]
            if dr.mul(image[k1], image[k2]) != image[prod]:
                return False
    return True


def dr_canonical_map(f_big: Cycle, f_small: Cycle, support: PrimeSupport = ALL_PRIMES) -> list[int]:
    """The canonical surjective monoid map DR(f_big) -> DR(f_small), as the
    image index per element; verified on the full table."""
    if not f_small.divides(f_big):
        raise InputError("the smaller cycle must divide the bigger one")
    big = dr_monoid(f_big, support)
    small = dr_monoid(f_small, support)
    img = [small.class_of_ideal(big.reps[i]) for i in range(big.size)]
    if sorted(set(img)) != list(range(small.size)):
        raise InputError("canonical map failed surjectivity")
    for i in range(big.size):
        for j in range(big.size):
            if img[big.mul(i, j)] != small.mul(img[i], img[j]):
                raise InputError("canonical map failed multiplicativity")
    return img


def dr_shift_map(f: Cycle, a, support: PrimeSupport = ALL_PRIMES) -> list[int]:
    """The equivariant injection DR(f) -> DR(f*a), [b] -> [a*b].

    Composing with the canonical projection on either side is verified to
    be multiplication by the class of a.
    """
    if f.field is None:
        if not support.supports_int(a):
            raise InputError("shift ideal not supported at P")
        fa = Cycle(None, f.finite * a, f.infinity)
        mul_ideal = lambda x: x * a
    else:
        fa = Cycle(f.field, qf.ideal_mul(f.finite, a))
        mul_ideal = lambda x: qf.ideal_mul(x, a)
    src = dr_monoid(f, support)
    dst = dr_monoid(fa, support)
    img = [dst.class_of_ideal(mul_ideal(src.reps[i])) for i in range(src.size)]
    if len(set(img)) != src.size:
        raise InputError("shift map failed injectivity")
    proj = dr_canonical_map(fa, f, support)
    cls_a_small = src.class_of_ideal(a)
    for i in range(src.size):
        if proj[img[i]] != src.mul(cls_a_small, i):
            raise InputError("projection after shift is not multiplication by the class")
    cls_a_big = dst.class_of_ideal(a)
    for i in range(dst.size):
        if img[proj[i]] != dst.mul(cls_a_big, i):
            raise InputError("shift after projection is not multiplication by the class")
    return img


def free_dr_set(f: Cycle, support: PrimeSupport = ALL_PRIMES):
    """The monoid acting on itself by translation, pointed at the identity:
    (monoid, action table, index of the distinguished point)."""
    dr = dr_monoid(f, support)
    action = dr.table()
    return dr, action, dr.identity
