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

The rational/quadratic choice is made once per cycle: ``Cycle`` picks its
base field's ideal arithmetic at construction (``_RationalIdeals`` or the
``_QuadIdeals`` of its field), and the input checks, divisor lists,
cofactors, labels, monoid classes and shift maps call that object.  Code
keeps two paths only where the mathematics differs: ``ray_class_group``
picks the rational or quadratic group (unit residues mod n against
principality tests), ``DRMonoid`` classifies rational ideals by their
residue mod n, ``f_equiv_generator`` has one witness search per field, and
the pushout check builds its residue data per field.

Ray class groups are built by enumeration and quotient.  A rational group
reads its classes off one sieve of the unit residues mod n and is proved at
build time, clause by clause, to be those residues (or the subgroup an
explicit support reaches) modulo the sign; its table is checked on first use.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from itertools import compress, count, repeat
from math import gcd, lcm, prod
from operator import neg

from . import quadfield as qf
from .config import monoid_bound, residue_bound
from .errors import BoundExceededError, DensityRequiredError, InputError
from .intlinalg import divisors, factor, is_prime, xgcd
from .quadfield import QuadField, QuadIdeal, QuadInt, check_group_table


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
            ideals = _RATIONAL_IDEALS
        elif not isinstance(self.field, QuadField):
            raise InputError("a cycle's field must be a QuadField, or None for the rationals")
        else:
            ideals = _quad_ideals(self.field)
        ideals._check(self.finite)
        if self.infinity and not ideals.real_place:
            raise InputError("imaginary quadratic cycles have no real places")
        # the base field's ideal arithmetic, and the field-tuple hash: every
        # label lookup hashes its cycle and support
        object.__setattr__(self, "_ideals", ideals)
        object.__setattr__(self, "_hash", hash((self.field, self.finite, self.infinity)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt through the constructor: hashes of None and of strings
        # differ between processes
        return type(self), (self.field, self.finite, self.infinity)

    def norm(self) -> int:
        return self.finite if self.field is None else self.finite.norm()

    def divides(self, other: "Cycle") -> bool:
        if self.field != other.field:
            raise InputError("cycles over different fields")
        if self.infinity and not other.infinity:
            return False
        return self._ideals._divides(self.finite, other.finite)

    def cofactor(self, d) -> "Cycle":
        """The cycle f * d^(-1) for an ideal divisor d of the finite part."""
        self._ideals._check(d)
        return Cycle(self.field, self._ideals._div(self.finite, d), self.infinity)

    def __str__(self):
        return f"{self.finite}*inf" if self.infinity else str(self.finite)

    @staticmethod
    def parse(text: str, field: QuadField | None = None) -> "Cycle":
        text = text.strip()
        if field is not None:
            return Cycle(field, QuadIdeal.parse(field, text))
        m = re.fullmatch(r"(\d+)(\*inf)?", text)
        if not m:
            raise InputError(f"cannot parse cycle {text!r}; expected \"12\" or \"12*inf\"")
        return Cycle(None, int(m.group(1)), m.group(2) is not None)


def cycle_lcm(x: Cycle, y: Cycle) -> Cycle:
    _require_rational(x)
    _require_rational(y)
    return Cycle(None, lcm(x.finite, y.finite), x.infinity or y.infinity)


def divisor_cycles(f: Cycle) -> list[Cycle]:
    """All cycles dividing f, smallest first (by norm, then without the
    real place before with it)."""
    places = (False, True) if f.infinity else (False,)
    return [Cycle(f.field, d, inf) for d in f._ideals._divisors(f.finite, ALL_PRIMES) for inf in places]


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
        if self.density_override and self.mode != "explicit":  # the other modes are dense already
            raise InputError("a density override (!) goes only after an explicit prime list")
        object.__setattr__(self, "_hash", hash((self.mode, self.primes, self.density_override)))

    def __hash__(self):  # kept at construction, as on Cycle
        return self._hash

    def __reduce__(self):
        return type(self), (self.mode, self.primes, self.density_override)

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
_QUAD_SUPPORT = 'quadratic fields support only mode "all"'


def _require_rational(f: Cycle):
    if f.field is not None:
        raise InputError("this operation is rational-only")


# ---------------------------------------------------------------------------
# Ideal arithmetic of the base field, picked once per cycle
#
# Method names are private: the benchmark tracer wraps every public method
# of the classes in this module, and a span around each of these per-ideal
# steps would cost more than the step.


class _RationalIdeals:
    """The ideals of Z, as positive integers."""

    real_place = True
    _one = 1
    _check_support = staticmethod(lambda support: None)  # every support is implemented

    @staticmethod
    def _check(a, support: PrimeSupport = ALL_PRIMES) -> None:
        """InputError unless a is an ideal supported at P."""
        if not isinstance(a, int) or a < 1:
            raise InputError(_NOT_AN_IDEAL)
        if not support.supports_int(a):
            raise InputError(f"ideal ({a}) is not supported at P")

    _mul = staticmethod(lambda a, b: a * b)
    _gcd = staticmethod(gcd)
    _divides = staticmethod(lambda d, a: a % d == 0)
    # the P-supported divisors, in increasing order
    _divisors = staticmethod(lambda a, support: [d for d in divisors(a) if support.supports_int(d)])

    @staticmethod
    def _div(a: int, d: int) -> int:  # exact, else InputError
        if a % d:
            raise InputError(f"{d} does not divide {a}")
        return a // d


class _QuadIdeals:
    """The ideals of one imaginary quadratic field, as QuadIdeal values,
    under the support "all" only.  quadfield is reached as ``qf.<name>`` at
    call time: a wrapper put on it after the cycles were built sees it all."""

    real_place = False

    def __init__(self, field: QuadField):
        self.field = field
        self._one = qf.ideal_from_int(field, 1)

    @staticmethod
    def _check_support(support: PrimeSupport) -> None:
        if support.mode != "all":
            raise InputError(_QUAD_SUPPORT)

    def _check(self, a, support: PrimeSupport = ALL_PRIMES) -> None:
        """InputError unless a is an ideal of this field (all supported)."""
        if support.mode != "all":  # inline: label lookups check every ideal
            raise InputError(_QUAD_SUPPORT)
        if not isinstance(a, QuadIdeal) or (a.field is not self.field and a.field != self.field):
            raise InputError(f"{a!s} is not an ideal of the field with d = {self.field.d}")

    _mul = staticmethod(lambda a, b: qf.ideal_mul(a, b))

    def _gcd(self, a: QuadIdeal, b: QuadIdeal) -> QuadIdeal:
        # the held unit ideal when the norms are coprime: no ideal is built
        if gcd(a.a * a.c * a.c, b.a * b.c * b.c) == 1:
            return self._one
        return qf.ideal_gcd(a, b)

    def _div(self, a: QuadIdeal, d: QuadIdeal) -> QuadIdeal:  # exact, else InputError
        return a if d == self._one else qf.ideal_div(a, d)

    _divides = staticmethod(lambda d, a: qf.ideal_divides(d, a))
    # sorted by (norm, triple); every divisor is supported
    _divisors = staticmethod(lambda a, support: qf.ideal_divisors(a))


_RATIONAL_IDEALS = _RationalIdeals()
_quad_ideals = lru_cache(maxsize=None)(_QuadIdeals)  # one per field


# ---------------------------------------------------------------------------
# f-equivalence, both routes


def f_equiv(a, b, f: Cycle, support: PrimeSupport = ALL_PRIMES) -> bool:
    """Definition route: equal gcd with f_fin and equal cofactor ray class,
    i.e. equal ``f_label``."""
    check = f._ideals._check
    check(a, support)
    label_a = _label(a, f, support)
    check(b, support)
    return label_a == _label(b, f, support)


def f_label(a, f: Cycle, support: PrimeSupport = ALL_PRIMES) -> tuple:
    """The f-equivalence label of the ideal a: its gcd with f_fin and the
    ray class of the cofactor in the cofactor conductor's group.  Two
    ideals are f-equivalent iff their labels are equal.  Memoized.
    """
    f._ideals._check(a, support)
    return _label(a, f, support)


@lru_cache(maxsize=1 << 20)
def _label(a, f: Cycle, support: PrimeSupport) -> tuple:
    ideals = f._ideals
    d = ideals._gcd(a, f.finite)
    # gcd(a/d, f/d) = gcd(a, f)/d = 1: the cofactor needs no coprimality test
    return d, _cofactor_group(f, d, support)._class_of_coprime(ideals._div(a, d))


# memo kept: a hit costs 0.6 us against about 5 us for ray_class_group, on every _label miss
@lru_cache(maxsize=65536)
def _cofactor_group(f: Cycle, d, support: PrimeSupport) -> "RayClassGroup":
    return ray_class_group(f.cofactor(d), support)


def f_equiv_generator(a, b, f: Cycle, support: PrimeSupport = ALL_PRIMES) -> bool:
    """Witness route: a = x*b for x with x - 1 in f_fin*b^(-1), x positive
    at the real places dividing f."""
    f._ideals._check(a, support)
    f._ideals._check(b, support)
    if f.field is None:
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


# memos kept: criterion 03 hits 98% of these calls and runs 5x slower without them
@lru_cache(maxsize=1 << 18)
def _pair_generators(a: QuadIdeal, b: QuadIdeal) -> tuple[tuple[int, int], ...]:
    """Coefficients of the generators of a * conj(b) (empty if none)."""
    return qf.generator_pairs(qf.ideal_mul_conj(a, b))


@lru_cache(maxsize=65536)
def _conductor_times_conj(f_fin: QuadIdeal, b: QuadIdeal) -> tuple[int, int, int]:
    t = qf.ideal_mul_conj(f_fin, b)
    return t.a * t.c, t.b * t.c, t.c


# ---------------------------------------------------------------------------
# Ray class groups


class RayClassGroup:
    """Cl_P(f): ideal classes coprime to f under f-equivalence, built by
    enumeration and quotient.  ``ray_class_group`` picks the subclass for
    the cycle's field, which builds itself in ``_build`` under this one
    ``__init__`` and defines ``class_of_ideal``, ``mul`` and ``table``."""

    def __init__(self, cycle: Cycle, support: PrimeSupport = ALL_PRIMES):
        cycle._ideals._check_support(support)
        self.cycle = cycle
        self.support = support
        self._build()

    @property
    def order(self) -> int:
        return len(self.reps)

    @property
    def identity(self) -> int:
        return self.class_of_ideal(self.cycle._ideals._one)


class RationalRayClassGroup(RayClassGroup):
    """Over Q a class is an orbit of unit residues mod n, folded by the sign
    when the cycle has no real place."""

    def _build(self):
        """One sieve over the primes of n marks the units; the heads are the marked
        r <= n/2 without the real place (the sign folds r with n - r), all with it."""
        n = self.cycle.finite
        folded = not self.cycle.infinity
        primes = factor(n).primes()
        phi = _phi(n, primes)
        if phi > residue_bound():
            raise BoundExceededError(f"{phi} unit residues mod {n} over residue bound")
        unit = bytearray(b"\1") * n
        for p in primes:
            unit[::p] = bytes(-(-n // p))
        heads = list(compress(range(n // 2 + 1 if folded else n), unit))
        listed = [p for p in self.support._listed_primes if n % p]  # the others divide no unit
        group = None  # an explicit support reaches the group that P and the sign generate
        if self.support.mode == "explicit":
            group = _residue_closure([p % n for p in listed] + [n - 1] * folded, n)
            heads = list(filter(group.__contains__, heads))
        # class index per residue mod n; None for the non-units and for the
        # classes that P does not reach.  Slot -h is n - h's, or 0's for n = 1.
        self._heads = heads
        class_of = self._class_of = [None] * n
        for k, h in enumerate(heads):
            class_of[h] = class_of[-h if folded else h] = k
        self.is_full = group is None or len(group) == phi
        if group is not None:  # a class's first product is its representative
            first, products = {}, _products(listed)
            while len(first) < len(heads):
                m = next(products)
                first.setdefault(class_of[m % n], m)
            self.reps = [first[k] for k in range(len(heads))]
        else:
            # a class's least positive supported member: its head (1 for n = 1) unless a listed prime divides it
            self.reps, excluded = heads[:] if n > 1 else [1], prod(listed)
            shared = map((1).__ne__, map(gcd, self.reps, repeat(excluded))) if excluded > 1 else ()
            for k in compress(count(), shared):  # the classes whose head a listed prime divides
                orbit, i = (heads[k], n - heads[k]) if folded and 2 * heads[k] < n else (heads[k],), 0
                while gcd(self.reps[k], excluded) != 1:
                    i += 1
                    self.reps[k] = i // len(orbit) * n + orbit[i % len(orbit)]
        self._check_cosets(phi, group)

    def _check_cosets(self, phi: int, group: set[int] | None):
        """InputError unless the classes are the cosets of H in C and 1 is
        in class 0, for H = {1, -1} without the real place and {1} with it,
        and C the subgroup ``group`` of (Z/n)* (None: all phi units of
        it).  Then ``table`` is the table of the abelian group C/H with
        its identity in slot 0.  Proof: each head lies in C, its coset in its
        own class, so the K heads name K distinct cosets; K * |H| = |C|
        makes them all of C; and |C| residues have a class, so no other has.
        Each clause runs over the whole list of heads; a head is a unit by
        its gcd with n, not by the build's sieve, which rests on ``factor``."""
        n, heads, class_of = self.cycle.finite, self._heads, self._class_of
        folded, classes = not self.cycle.infinity, list(range(len(heads)))
        size = phi if group is None else len(group)
        ok = len(class_of) == n and n - class_of.count(None) == size == len(heads) * (2 if folded and n > 2 else 1)
        ok = ok and class_of[1 % n] == 0 and 0 <= min(heads) and max(heads) < n  # so class_of[-h] is -h's class
        ok = ok and (set(map(gcd, heads, repeat(n))) <= {1} if group is None else group.issuperset(heads))
        ok = ok and list(map(class_of.__getitem__, heads)) == classes
        if not (ok and (not folded or list(map(class_of.__getitem__, map(neg, heads))) == classes)):
            raise InputError(f"the ray classes mod {n} are not the cosets of a unit subgroup")

    def class_of_ideal(self, a: int) -> int:
        self.cycle._ideals._check(a)
        n = self.cycle.finite
        if gcd(a, n) != 1:
            raise InputError(f"{a} is not coprime to the conductor {n}")
        return self._class_of_coprime(a)

    def _class_of_coprime(self, a: int) -> int:
        """``class_of_ideal`` of an ideal known to be coprime to n."""
        k = self._class_of[a % self.cycle.finite]
        if k is None:
            raise InputError(f"class of {a} is not supported at P")
        return k

    @cached_property
    def table(self):
        n = self.cycle.finite
        heads, class_of = self._heads, self._class_of
        table = tuple([tuple([class_of[h1 * h2 % n] for h2 in heads]) for h1 in heads])
        check_group_table(table)
        return table

    def mul(self, i: int, j: int) -> int:
        return self._class_of[self._heads[i] * self._heads[j] % self.cycle.finite]


class QuadRayClassGroup(RayClassGroup):
    """Over an imaginary quadratic field class c * (orbit count) + o is the
    complete invariant pair (ideal class c at trivial conductor, unit orbit
    o of a normalized generator residue); every comparison reduces to
    principality tests."""

    def _build(self):
        field = self.cycle.field
        fid = self.cycle.finite
        nf = fid.norm()
        if nf > residue_bound():
            raise BoundExceededError(f"conductor norm {nf} over residue bound")
        cl1 = qf.class_group(field)
        self._base = [_coprime_class_rep(cl1, k, nf) for k in range(cl1.order)]
        # 1 / N(base) mod f as an integer: f meets Z in (a*c), and each
        # base norm is coprime to N(f)
        self._base_norm_inv = [pow(base.norm(), -1, fid.a * fid.c) for base in self._base]
        ru = qf.residue_units(fid)
        self._ru = ru
        unit_idx = sorted({ru.index_of(u) for u in qf.unit_group(field)})
        # orbits of the global-unit image acting on (O/f)* by multiplication,
        # numbered by their first residue
        self._res_orbit_of: dict[int, int] = {}
        self._n_orbits = 0
        for i in range(ru.order):
            if i not in self._res_orbit_of:
                for x in {ru.mul(i, u) for u in unit_idx}:
                    self._res_orbit_of[x] = self._n_orbits
                self._n_orbits += 1
        size = cl1.order * self._n_orbits
        if size > monoid_bound():
            raise BoundExceededError("ray class group larger than monoid bound")
        # memo kept: criterion 04 runs about 1.7x slower in process without it
        self._class_cache: dict[QuadIdeal, int] = {}
        self.reps = self._find_reps(size)
        self.table = tuple(tuple(self.class_of_ideal(qf.ideal_mul(x, y)) for y in self.reps) for x in self.reps)
        check_group_table(self.table)
        self.is_full = True

    def _find_reps(self, size: int) -> list[QuadIdeal]:
        """The first ideal coprime to f of each class, in (norm, triple)
        order, searched up to the largest power of two within
        16 * (N(f) + 2) * (size + 2)."""
        fid = self.cycle.finite
        one = self.cycle._ideals._one
        limit = 1 << ((16 * (fid.norm() + 2) * (size + 2)).bit_length() - 1)
        reps: dict[int, QuadIdeal] = {}
        for ideal in qf.ideals_by_norm(self.cycle.field):
            if len(reps) == size:
                break
            if ideal.norm() > limit:
                raise BoundExceededError("could not find ray class representatives")
            if qf.ideal_gcd(ideal, fid) != one:
                continue
            reps.setdefault(self.class_of_ideal(ideal), ideal)
        return [reps[k] for k in range(size)]

    def class_of_ideal(self, ideal: QuadIdeal) -> int:
        k = self._class_cache.get(ideal)
        if k is None:
            ideals = self.cycle._ideals
            ideals._check(ideal)
            if ideals._gcd(ideal, self.cycle.finite) != ideals._one:
                raise InputError("ideal not coprime to the conductor")
            k = self._class_cache[ideal] = self._classify(ideal)
        return k

    def _class_of_coprime(self, ideal: QuadIdeal) -> int:
        """``class_of_ideal`` of an ideal of the field known to be coprime to f."""
        k = self._class_cache.get(ideal)
        if k is None:
            k = self._class_cache[ideal] = self._classify(ideal)
        return k

    def _classify(self, ideal: QuadIdeal) -> int:
        for c, base in enumerate(self._base):
            # the unit ideal, the only one of norm 1, is its own conjugate
            pairs = qf.generator_pairs(ideal if base.norm() == 1 else qf.ideal_mul_conj(ideal, base))
            if not pairs:
                continue
            # residue of the first generator / N(base) in (O/f)*
            (u, v), inv = pairs[0], self._base_norm_inv[c]
            r = self._ru.index_of_coords(u * inv, v * inv)
            return c * self._n_orbits + self._res_orbit_of[r]
        raise InputError("ideal matched no class (corrupt class group)")

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]


def _coprime_class_rep(cl: qf.ClassGroup, k: int, nf: int) -> QuadIdeal:
    """An ideal in class k whose norm is coprime to nf (so its conjugate is
    coprime to the conductor too)."""
    if gcd(cl.reps[k].norm(), nf) == 1:
        return cl.reps[k]
    for ideal in qf.ideals_by_norm(cl.field):
        if ideal.norm() > 16 * (nf + 2):
            break
        if gcd(ideal.norm(), nf) != 1:
            continue
        if qf.is_principal(qf.ideal_mul_conj(ideal, cl.reps[k])) is not None:
            return ideal
    raise BoundExceededError("no coprime class representative found")


def _phi(n: int, primes) -> int:
    """Euler's phi of n, given a list of primes that holds n's."""
    for p in primes:
        if n % p == 0:
            n = n // p * (p - 1)
    return n


def _residue_closure(gens: list[int], n: int) -> set[int]:
    """The residues mod n of the products of ``gens``, 1 included."""
    out = {1 % n}
    frontier = [1 % n]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g % n
            if y not in out:
                out.add(y)
                frontier.append(y)
    return out


def _smallest_supported(residues, n: int, support: PrimeSupport, skip: int | None = None) -> int:
    """The smallest P-supported positive integer other than ``skip`` whose
    residue mod n lies in ``residues`` (sorted, each in range(n)).

    Dense supports step through the residues' positive representatives
    together.  Under an explicit support the supported integers are the
    products of the listed primes, walked in increasing order; a search
    that no such product can end refuses with DensityRequiredError.
    """
    if support.mode != "explicit":
        base = 0
        while True:
            for r in residues:
                m = base + r
                if m and m != skip and support.supports_int(m):
                    return m
            base += n
    targets = set(residues)
    primes = support._listed_primes
    if targets.isdisjoint(_residue_closure([p % n for p in primes], n)):
        raise DensityRequiredError(f"no supported integer reaches these residues mod {n}: the support is not dense")
    # with skip a supported integer in the class, a second one exists iff
    # some listed q is coprime to c = n / gcd(skip, n): skip * q^ord_c(q)
    # is one; otherwise every listed p has the same valuation in each
    if skip is not None and all(n // gcd(skip, n) % p == 0 for p in primes):
        raise DensityRequiredError(f"{skip} is the only supported integer in its class mod {n}: the support is not dense")
    return next(m for m in _products(primes) if m % n in targets and m != skip)


def _products(primes: tuple[int, ...] | list[int]):
    """The products of the given primes (ascending) in increasing order."""
    heap = [1]
    while True:
        m = heapq.heappop(heap)
        yield m
        for p in primes:  # each product once: m * p for p up to m's least prime
            heapq.heappush(heap, m * p)
            if m % p == 0:
                break


def ray_class_group(cycle: Cycle, support: PrimeSupport = ALL_PRIMES) -> RayClassGroup:
    return _ray_class_group(cycle, support)


@lru_cache(maxsize=4096)  # keyed positionally; a rational-conductors session builds 726
def _ray_class_group(cycle: Cycle, support: PrimeSupport) -> RayClassGroup:
    group = RationalRayClassGroup if cycle.field is None else QuadRayClassGroup
    return group(cycle, support)


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
    the induced multiplication.  ``elements`` and the tables are built on
    demand (the element count can reach the configured monoid bound).
    """

    def __init__(self, cycle: Cycle, support: PrimeSupport = ALL_PRIMES):
        ideals = cycle._ideals
        self.cycle = cycle
        self.support = support
        self.divisors = ideals._divisors(cycle.finite, support)
        n, bound = cycle.finite, monoid_bound()
        if cycle.field is None and support.mode != "explicit" and sum(n // d for d in self.divisors) > bound:
            # a dense support's monoid is counted before the O(n) builds: the
            # group mod k has phi(k) <= k classes, halved by the sign for
            # k > 2 without the real place, so only a sum of cofactors over
            # the bound needs the count.  Over the residue bound the first
            # build refuses first, with its own message.
            primes = factor(n).primes()
            orders = [_phi(k, primes) // (1 if cycle.infinity or k <= 2 else 2) for k in (n // d for d in self.divisors)]
            if _phi(n, primes) <= residue_bound() and sum(orders) > bound:
                raise BoundExceededError("ray class monoid larger than monoid bound")
        self.class_groups = {}
        self._offsets = {}  # index of the first element with each divisor
        self.size = 0
        for d in self.divisors:
            # each cofactor group checks that the field implements the support
            group = self.class_groups[d] = ray_class_group(cycle.cofactor(d), support)
            self._offsets[d] = self.size
            self.size += group.order
            if self.size > bound:  # refused before the remaining groups are built
                raise BoundExceededError("ray class monoid larger than monoid bound")
        # memo kept: criterion 04 runs about 1.7x slower in process without it
        self._mul_cache: dict[tuple[int, int], int] = {}
        rational = cycle.field is None
        self.reps = [d * r if rational else ideals._mul(d, r) for d in self.divisors for r in self.class_groups[d].reps]
        self._res_index = self._build_residue_index() if rational else None

    def _build_residue_index(self) -> list[int | None]:
        """Class index per residue (rational cycles): the class of a
        supported ideal depends only on its residue mod the finite part.

        The residues with gcd d against n are d*c for the units c mod n/d,
        whose classes the cofactor group lists; the other residues (gcd
        part or class not supported at P) stay None.  Each d, in increasing
        order, fills the slice out[::d] from the cofactor's classes; x is
        written last by the largest listed d | g = gcd(x, n): g itself, with
        x/g a unit, or else d < g, with g/d | x/d and n/d, so its slot is None.
        """
        out: list[int | None] = [None] * self.cycle.finite
        for (d, base), group in zip(self._offsets.items(), self.class_groups.values()):
            shift = dict(zip(count(), range(base, base + group.order))).get
            out[::d] = map(shift, group._class_of) if base else group._class_of
        return out

    @cached_property
    def elements(self) -> list[DRClass]:
        return [DRClass(d, u) for d in self.divisors for u in range(self.class_groups[d].order)]

    @property
    def identity(self) -> int:
        one = self.cycle._ideals._one
        return self._offsets[one] + self.class_groups[one].identity

    def class_of_ideal(self, ideal) -> int:
        """The monoid class of a P-supported ideal: element offsets[d] + u
        for d the gcd with the finite part and u the cofactor's class."""
        ideals = self.cycle._ideals
        ideals._check(ideal, self.support)
        if self._res_index is not None:
            k = self._res_index[ideal % self.cycle.finite]
            if k is None:
                raise InputError(f"ideal ({ideal}) is not supported at P")
            return k
        d = ideals._gcd(ideal, self.cycle.finite)
        return self._offsets[d] + self.class_groups[d]._class_of_coprime(ideals._div(ideal, d))

    def mul(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        key = (i, j)
        if key not in self._mul_cache:
            self._mul_cache[key] = self.class_of_ideal(self.cycle._ideals._mul(self.reps[i], self.reps[j]))
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
            "elements": [{"d": str(d), "unit_rep": str(r)} for d in self.divisors for r in self.class_groups[d].reps],
            "table": self.table(),
        }


def dr_monoid(cycle: Cycle, support: PrimeSupport = ALL_PRIMES) -> DRMonoid:
    return _dr_monoid(cycle, support)


@lru_cache(maxsize=1024)  # keyed positionally; a rational-conductors session builds 293
def _dr_monoid(cycle: Cycle, support: PrimeSupport) -> DRMonoid:
    return DRMonoid(cycle, support)


# ---------------------------------------------------------------------------
# Structural isomorphisms and change-of-conductor maps


def dr_iso_residue(cycle: Cycle, support: PrimeSupport = ALL_PRIMES):
    """Explicit isomorphism DR_P((n)inf) = (Z/n_P)deg x (Z/n^P)* over Q.

    Returns (monoid, mapping) where mapping[i] is the (residue mod n_P,
    residue mod n^P) pair of element i.  Verifies that mapping is a
    bijection onto T = (Z/n_P) x (Z/n^P)*, and that exactly size residues x
    mod n have a class, each with image (x mod n_P, x mod n^P).  By the CRT
    the classed residues are then the preimage of T, closed under products,
    and mul(i, j), the class of reps[i] * reps[j] mod n, maps to mapping[i] *
    mapping[j]: a proof for every pair.
    """
    _require_rational(cycle)
    if not cycle.infinity:
        raise InputError("the residue description needs the real place in the cycle")
    if not support.chebotarev_dense:
        raise DensityRequiredError("residue description requires a Chebotarev dense support")
    n = cycle.finite
    n_p = _p_part(n, support)
    n_cop = n // n_p
    dr = dr_monoid(cycle, support)
    mapping = [(rep % n_p, rep % n_cop) for rep in dr.reps]
    # bijectivity onto (Z/n_P)deg x (Z/n^P)*
    target = {(a, b) for a in range(n_p) for b in range(n_cop) if gcd(b, n_cop) == 1}
    got = set(mapping)
    if len(mapping) != len(got) or got != target:
        raise InputError("residue description failed: not a bijection")
    classed = [(x, k) for x, k in enumerate(dr._res_index) if k is not None]
    if len(classed) != dr.size or any(mapping[k] != (x % n_p, x % n_cop) for x, k in classed):
        raise InputError("residue description failed: not multiplicative")
    return dr, mapping


def dr_pushout_check(cycle: Cycle, support: PrimeSupport = ALL_PRIMES) -> bool:
    """Build the pushout of the residue monoid at the P-part against the ray
    class group over their shared unit group, and verify the canonical map
    to the ray class monoid is a monoid isomorphism.

    The pushout is the set of pairs (residue a, ray class b) modulo
    g.(a, b) = (g a, g^(-1) b) for the units g.  The orbit of (a, b) maps
    to [lift(a)] * [rep(b)]; it must not depend on the lift or the orbit
    member, and must be bijective and multiplicative.
    """
    if not support.chebotarev_dense:
        raise DensityRequiredError("the pushout description needs a dense support")
    dr = dr_monoid(cycle, support)
    cl = ray_class_group(cycle, support)
    n_res, units, res_mul, lifts = (_rational_residues if cycle.field is None else _quad_residues)(cycle, support)
    ident = cl.identity
    unit_classes = [cl.class_of_ideal(next(lifts(g))) for g in units]
    cl_inv = [next(x for x in range(cl.order) if cl.mul(c, x) == ident) for c in unit_classes]
    # g*a for every unit g, once per residue a: every orbit through a reads it
    unit_row = [[res_mul(g, a) for g in units] for a in range(n_res)]
    orbit_of: dict[tuple[int, int], int] = {}
    orbits = []
    for pair in ((a, b) for a in range(n_res) for b in range(cl.order)):
        if pair in orbit_of:
            continue
        orb = sorted({(ga, cl.mul(inv, pair[1])) for ga, inv in zip(unit_row[pair[0]], cl_inv)})
        for x in orb:
            orbit_of[x] = len(orbits)
        orbits.append(orb)
    if len(orbits) != dr.size:
        return False
    # each lift and representative classified once; an orbit's values are
    # still taken over every lift of every member (DR is not cancellative)
    lift_classes = [{dr.class_of_ideal(ideal) for ideal in lifts(a)} for a in range(n_res)]
    rep_classes = [dr.class_of_ideal(rep) for rep in cl.reps]
    image = []
    for orb in orbits:
        vals = {dr.mul(la, rep_classes[b]) for a, b in orb for la in lift_classes[a]}
        if len(vals) != 1:
            return False  # map not well defined: the proposition would fail
        image.append(vals.pop())
    if sorted(image) != list(range(dr.size)):
        return False
    # the products of the orbits' first residues, each once; a unit's are in its row
    unit_at = {g: k for k, g in enumerate(units)}
    firsts = sorted({orb[0][0] for orb in orbits})
    times = {(a1, a2): unit_row[a2][unit_at[a1]] if a1 in unit_at else res_mul(a1, a2) for a1 in firsts for a2 in firsts}
    for k1, o1 in enumerate(orbits):
        for k2, o2 in enumerate(orbits):
            (a1, b1), (a2, b2) = o1[0], o2[0]
            if dr.mul(image[k1], image[k2]) != image[orbit_of[(times[a1, a2], cl.mul(b1, b2))]]:
                return False
    return True


def _rational_residues(cycle: Cycle, support: PrimeSupport):
    """The pushout's residues over Q: their count n_P, the units among
    them, their product, and lifts(a), the smallest two P-supported integers
    congruent to a mod n_P and to 1 mod n / n_P (the second on demand)."""
    n = cycle.finite
    n_p = _p_part(n, support)
    u, v, _ = xgcd(n_p, n // n_p)

    def lifts(a: int):
        residue = ((a * v * (n // n_p) + u * n_p) % n,)
        yield (m := _smallest_supported(residue, n, support))
        yield _smallest_supported(residue, n, support, skip=m)

    return n_p, [a for a in range(n_p) if gcd(a, n_p) == 1], lambda a1, a2: a1 * a2 % n_p, lifts


def _p_part(n: int, support: PrimeSupport) -> int:
    """n_P: the part of n at the primes of the support."""
    return prod(p**e for p, e in factor(n).factors if support.allows_prime(p))


def _quad_residues(cycle: Cycle, support: PrimeSupport):
    """As ``_rational_residues``, for the residues mod f as indices into
    ``f.residues()``; lifts are principal ideals of nonzero elements (f = (1)
    reduces 1 to 0: the rational generator of f shifts it to one)."""
    fid = cycle.finite
    residues = fid.residues()  # already reduced
    coords = [(r.a, r.b) for r in residues]
    index = {uv: i for i, uv in enumerate(coords)}
    shift = QuadInt(cycle.field, fid.a * fid.c, 0)
    t, n, a, b, c = cycle.field.trace_w, cycle.field.norm_w, fid.a, fid.b, fid.c

    def lifts(i: int):
        yield qf.principal_ideal(residues[i] + shift if residues[i].is_zero() else residues[i])
        yield qf.principal_ideal(residues[i] + shift)

    def res_mul(i: int, j: int) -> int:
        # (u1 + v1*w)(u2 + v2*w) with w^2 = t*w - n, reduced as by fid.reduce
        (u1, v1), (u2, v2) = coords[i], coords[j]
        u, v = u1 * u2 - n * v1 * v2, u1 * v2 + u2 * v1 + t * v1 * v2
        q = v // c
        return index[(u - q * b * c) % (a * c), v - q * c]

    units = [index[g.a, g.b] for g in qf.residue_units(fid).elements]
    return len(residues), units, res_mul, lifts


def dr_canonical_map(f_big: Cycle, f_small: Cycle, support: PrimeSupport = ALL_PRIMES) -> list[int]:
    """The canonical surjective monoid map DR(f_big) -> DR(f_small), as the
    image index per element; verified on the full table, the big side
    classed afresh (``big.mul`` is ``small.mul`` when f_big = f_small)."""
    if not f_small.divides(f_big):
        raise InputError("the smaller cycle must divide the bigger one")
    big = dr_monoid(f_big, support)
    small = dr_monoid(f_small, support)
    img = [small.class_of_ideal(big.reps[i]) for i in range(big.size)]
    if sorted(set(img)) != list(range(small.size)):
        raise InputError("canonical map failed surjectivity")
    for i in range(big.size):
        for j in range(big.size):
            if img[big.class_of_ideal(f_big._ideals._mul(big.reps[i], big.reps[j]))] != small.mul(img[i], img[j]):
                raise InputError("canonical map failed multiplicativity")
    return img


def dr_shift_map(f: Cycle, a, support: PrimeSupport = ALL_PRIMES) -> list[int]:
    """The equivariant injection DR(f) -> DR(f*a), [b] -> [a*b].

    Composing with the canonical projection on either side is verified to
    be multiplication by the class of a.
    """
    ideals = f._ideals
    ideals._check(a, support)
    fa = Cycle(f.field, ideals._mul(f.finite, a), f.infinity)
    src = dr_monoid(f, support)
    dst = dr_monoid(fa, support)
    img = [dst.class_of_ideal(ideals._mul(rep, a)) for rep in src.reps]
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
