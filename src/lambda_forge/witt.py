"""Big Witt vectors over torsion-free coefficient rings with commuting
Frobenius lifts: ghost/coordinate transforms, the Dwork integrality test,
Teichmueller lifts, periodicity, and periodic Witt lattices compared
against the cyclic group ring.

The coefficient ring is the cyclic group ring Z[C_k] = Z[x]/(x^k - 1),
fixed by the one integer k, with the power lifts x -> x^p; k = 1 is the
integers with the identity lifts.  Elements are coefficient tuples of
length k, multiplied by the cyclic kernels of ``lambdapoly``; everything
is exact.  The ghost transforms raise each w_d^(n/d) as the p-th power of
one raised earlier, p the least prime of n/d (``power_steps``).  The
inverse runs in integers over one common denominator per coordinate,
untouched by integral divisors, so rationals appear only in its output.
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
from itertools import chain, product
from math import comb, gcd, isqrt, lcm

from .config import lattice_bound
from .errors import BoundExceededError, InputError, ModelRefusedError
from .intlinalg import divisors, divisors_of_factors, factor, factor_all, hnf_rows, in_row_span, is_prime, lattice_index, left_kernel
from .intlinalg import primes_upto
from .lambdapoly import IntPoly, _cyclic_mul, _cyclic_power_map, _gcd_mod, cyclotomic_polynomial, poly_divides, poly_divmod
from .rayclass import ALL_PRIMES, Cycle, PrimeSupport, dr_monoid, f_label


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

    def sub(self, a: tuple, b: tuple) -> tuple:
        return tuple(x - y for x, y in zip(a, b))

    def mul(self, a: tuple, b: tuple) -> tuple:
        if self.rank == 1:
            return (a[0] * b[0],)
        return _cyclic_mul(a, b)

    def pow(self, a: tuple, k: int) -> tuple:
        if k < 0:
            raise InputError("negative powers are not defined in the coefficient ring")
        if self.rank == 1 and k:
            return (a[0] ** k,)
        if not k:
            return self.one()
        while not k & 1:  # square up to the lowest set bit; the product starts there
            a = self.mul(a, a)
            k >>= 1
        out = a
        while k := k >> 1:
            a = self.mul(a, a)
            if k & 1:
                out = self.mul(out, a)
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

    The sorted order, the index map, the power chain of the ghost
    transforms (``power_steps``) and the congruence steps are computed
    once per set, on first use.
    """

    members: frozenset[int]

    def __post_init__(self):
        # closed under n -> n // p for the primes p | n is divisor closed,
        # by induction on n
        if any(n < 1 for n in self.members):
            raise InputError("truncation entries must be positive")
        for n, factors in factor_all(self.members).items():
            if any(n // p not in self.members for p, _ in factors):
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
    def power_steps(self) -> tuple[tuple[tuple[int, int, int, int | None], ...], ...]:
        """Per member n, in ``order``: (index of d, d, p, source) for each
        divisor d < n, ascending in d, the steps numbered in this order.
        w_d^(n/d) is the p-th power of the source, p the least prime of n/d:
        w_d (None) if n/d = p, else the step (n/p, d) of an earlier member."""
        index, factors, number = self.index, factor_all(self.members), {}

        def step(n: int, d: int) -> tuple[int, int, int, int | None]:
            p = next(p for p, _ in factors[n] if n // d % p == 0)
            number[n, d] = len(number)
            return index[d], d, p, None if n // d == p else number[n // p, d]

        return tuple(tuple(step(n, d) for d in divisors_of_factors(factors[n])[:-1]) for n in self.order)

    @cached_property
    def power_drops(self) -> tuple[tuple[int, ...], ...]:
        """Per member, in ``order``: the steps of ``power_steps`` (by number)
        that no later member names as source; the transforms drop them there."""
        own = [i for i, steps in enumerate(self.power_steps) for _ in steps]
        last = own[:]  # per step, the last member that reads its power, else its own
        for t, (_, _, _, src) in enumerate(chain.from_iterable(self.power_steps)):
            if src is not None:
                last[src] = own[t]
        drops = [[] for _ in self.order]
        for t, i in enumerate(last):
            drops[i].append(t)
        return tuple(map(tuple, drops))

    @cached_property
    def dwork_steps(self) -> tuple[tuple[int, int, int, int], ...]:
        """(p, index of n, index of p*n, p^(v_p(n)+1)) for each prime p and
        member n with p*n a member, by p and then n.  Such a p is itself a
        member, since the set is divisor closed.  Each prime's scan stops
        once p*n passes the largest member."""
        index, top = self.index, max(self.members, default=0)
        steps = []
        for p in self.order:
            if not is_prime(p):
                continue
            for i, n in enumerate(self.order):
                if p * n > top:
                    break
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
    """g_n = sum over d | n of d * w_d^(n/d), the powers by ``power_steps``, dropped by ``power_drops``."""
    ring, coords = w.ring, w.coords
    powers, out = [], []
    for n, x, steps, drops in zip(w.trunc.order, coords, w.trunc.power_steps, w.trunc.power_drops):
        acc = [n * c for c in x]
        for j, d, p, src in steps:
            powers.append(y := ring.pow(coords[j] if src is None else powers[src], p))
            acc = [a + d * b for a, b in zip(acc, y)]
        for t in drops:
            powers[t] = None
        out.append(tuple(acc))
    return GhostVector(ring, w.trunc, tuple(out))


def witt_from_ghost(g: GhostVector) -> tuple[WittCoords, dict[int, bool]]:
    """Invert the ghost map; flags say which coordinates came out integral.
    Non-integrality is data, not an error.

    The recurrence n * w_n = g_n - sum over d | n, d < n of d * w_d^(n/d)
    runs in integers: each w_n is an integer tuple over one common
    denominator, reduced by the gcd of both; an integral w_d leaves the
    denominator as it is.  Rationals are formed only for the output
    entries that are not integers.
    """
    ring = g.ring
    nums: list[tuple] = []  # coordinate i is nums[i] / dens[i]
    dens: list[int] = []
    powers, coords, flags = [], [], {}
    for n, comp, steps, drops in zip(g.trunc.order, g.components, g.trunc.power_steps, g.trunc.power_drops):
        den = lcm(*(x.denominator for x in comp))
        acc = [x.numerator * (den // x.denominator) for x in comp]
        for j, d, p, src in steps:
            powers.append(y := ring.pow(nums[j] if src is None else powers[src], p))
            a, b = 1, d * den
            if dens[j] > 1:
                dk = dens[j] ** (n // d)
                top = lcm(den, dk)
                a, b, den = top // den, d * (top // dk), top
            acc = [a * x - b * z for x, z in zip(acc, y)]
        for t in drops:  # as in ghost_from_witt
            powers[t] = None
        den *= n
        c = gcd(den, *acc)
        if c > 1:
            den //= c
            acc = [x // c for x in acc]
        num = tuple(acc)
        nums.append(num)
        dens.append(den)
        flags[n] = den == 1
        coords.append(num if den == 1 else tuple(x // den if x % den == 0 else Fraction(x, den) for x in num))
    return WittCoords(ring, g.trunc, tuple(coords)), flags


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

    One solve serves the sweeps to bound and to bound // 2.  The
    equalities do not depend on the bound, so their kernel K is found
    once.  Each congruence y[cls(pm)] = x -> x^p (y[cls(m)]) mod
    p^(v_p(m)+1) is keyed by (cls(pm), cls(m), p mod k); the key holds
    the lcm of its moduli over p*m <= bound and the lcm over
    2*p*m <= bound (the half sweep), and its rows are projected from K's
    columns once.  Each half congruence is a full one whose modulus
    divides the full one's, so the half solutions T_half contain T_full:
    the full congruences are tested on a basis of T_half, and only if one
    fails (t -> t.K being injective, the lattice is then unstable) is the
    full system solved.  Instability is reported, not raised.
    """
    _check_lattice_size(n, ring.rank, bound)
    dr = dr_monoid(Cycle(None, n, True))
    k = ring.rank
    nvars = dr.size * k
    cls = [0] * n  # the class of each residue mod n
    for a in range(1, n + 1):
        cls[a % n] = dr.class_of_ideal(a)
    kernel = _equality_kernel(n, k, dr.reps, cls, nvars)
    tags: dict[tuple[int, int, int], tuple[int, int]] = {}
    for p in primes_upto(bound):
        for m in range(1, bound // p + 1):
            key = (cls[p * m % n], cls[m % n], p % k)
            every, within_half = tags.get(key, (1, 1))
            q = p ** (_valuation(m, p) + 1)
            tags[key] = lcm(every, q), lcm(within_half, q) if 2 * p * m <= bound else within_half
    columns = list(zip(*kernel))
    full: dict[tuple[int, ...], int] = {}
    halved: dict[tuple[int, ...], int] = {}
    for (c_to, c_from, e), (every, within_half) in tags.items() if kernel else ():
        # row j is y[c_to][j] - sum over i*e = j mod k of y[c_from][i]
        projs = [list(columns[c_to * k + j]) for j in range(k)]
        for i in range(k):
            projs[i * e % k] = [x - y for x, y in zip(projs[i * e % k], columns[c_from * k + i])]
        for proj in projs:
            _merge_congruence(full, proj, every)
            _merge_congruence(halved, proj, within_half)
    ts = _kernel_solutions(kernel, halved)
    stable = all(sum(c * t for c, t in zip(key, sol)) % m == 0 for key, m in full.items() for sol in ts)
    ts = ts if stable else _kernel_solutions(kernel, full)
    # each t.K summed over the kernel rows with t_i != 0, column by column
    basis = hnf_rows([list(map(sum, zip(*([t * y for y in krow] for t, krow in zip(sol, kernel) if t)))) for sol in ts], nvars)
    return PeriodicWittLattice(n, ring, bound, tuple(dr.reps), tuple(map(tuple, basis)), stable)


def _check_lattice_size(n: int, k: int, bound: int) -> None:
    """Refuse a lattice over rank-k coefficients before any monoid or row
    is built: its n * k variables (DR((n)inf) has n classes) and its sweep
    bound are each held to ``lattice_bound()``."""
    if n < 1 or bound < 4:
        raise InputError("need n >= 1 and bound >= 4")
    limit = lattice_bound()
    if n * k > limit:
        raise BoundExceededError(f"{n * k} periodic lattice variables over lattice bound")
    if bound > limit:
        raise BoundExceededError(f"congruence sweep to {bound} over lattice bound")


def _equality_kernel(n: int, k: int, reps: list[int], cls: list[int], nvars: int) -> list[list[int]]:
    """HNF basis of the y with y[cls(ua)] = x -> x^e (y[a]) for each unit
    u mod n and twist exponent e of u, and y[cls(pa)] = x -> x^p (y[a])
    for each prime p | n and class a with p^(v_p(n)) | a mod n.

    A power map x -> x^e with e prime to k permutes coordinates, so its
    equalities identify variables: the solutions are constant on the
    classes of the identification, and those classes carry the other
    equalities (p | k) as rows.  The kernel of those rows, spread back over
    the classes, is the kernel of the whole system."""
    root = list(range(nvars))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    # a prime congruent to u mod n realizes the power maps x -> x^e with e
    # prime to k and e = u mod gcd(n, k), infinitely often
    g = gcd(n, k)
    twists = [(u, e) for u in range(1, n + 1) if gcd(u, n) == 1 for e in range(1, k + 1) if gcd(e, k) == 1 and (e - u) % g == 0]
    summed = []  # the relations whose power map is not a permutation
    for c_to, c_from, e in chain(
        ((cls[u * a % n], c, e) for u, e in twists for c, a in enumerate(reps)),
        ((cls[p * a % n], c, p) for p in factor(n).primes() for c, a in enumerate(reps) if a % n % p ** _valuation(n, p) == 0),
    ):
        if gcd(e, k) > 1:
            summed.append((c_to, c_from, e))
        else:
            for i in range(k):
                root[find(c_to * k + i * e % k)] = find(c_from * k + i)
    orbit: dict[int, int] = {}
    slot = [orbit.setdefault(find(v), len(orbit)) for v in range(nvars)]
    rows = set()
    for c_to, c_from, e in summed:
        block = [[0] * len(orbit) for _ in range(k)]
        for j in range(k):
            block[j][slot[c_to * k + j]] += 1
        for i in range(k):
            block[i * e % k][slot[c_from * k + i]] -= 1
        rows.update(tuple(row) for row in block if any(row))
    # the right kernel of the rows is the left kernel of their transpose
    kernel = left_kernel([[row[s] for row in rows] for s in range(len(orbit))], len(rows))
    return hnf_rows([[z[s] for s in slot] for z in kernel], nvars)


def _merge_congruence(merged: dict[tuple[int, ...], int], proj: list[int], m: int) -> None:
    """Fold the congruence proj.t = 0 mod m into ``merged``: congruences
    with the same proj up to sign merge into one modulo the lcm of their
    moduli, and each key leads with a positive entry.  A zero proj, or
    m = 1, holds for every t and drops out."""
    lead = next((x for x in proj if x), 0)
    if lead and m > 1:
        key = tuple(proj) if lead > 0 else tuple(-x for x in proj)
        merged[key] = lcm(merged.get(key, 1), m)


def _kernel_solutions(kernel: list[list[int]], merged: dict[tuple[int, ...], int]) -> list[list[int]]:
    """A basis of {t : c.t = 0 mod m for each merged (c, m)}, t indexing
    the kernel rows: the integer solutions of C t + diag(m) s = 0,
    projected to t (s is fixed by t, so the projection keeps a basis)."""
    ncong = len(merged)
    system = [[c[i] for c in merged] for i in range(len(kernel))]
    system += [[m if j == i else 0 for j in range(ncong)] for i, m in enumerate(merged.values())]
    return [sol[: len(kernel)] for sol in left_kernel(system, ncong)]


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
    _check_lattice_size(n, n, bound)
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

    First tries Ben-Or's mod-q test for a few primes (irreducible mod q
    implies irreducible over Q).  A polynomial reducible modulo every tried
    prime falls back to a search over the monic integer divisors of degree
    m <= deg/2 within Mignotte's bound: such a divisor g has |g_k| <=
    C(m, k) * ||p||_2, and its constant term divides p(0).  The search is
    only feasible in small degree.
    """
    if p.lead() != 1:
        raise InputError("monic input required")
    if p.degree <= 1:
        return p.degree == 1
    for q in (2, 3, 5, 7, 11, 13):
        if _irreducible_mod(p, q):
            return True
    if p.degree > 8:
        raise InputError("irreducibility fallback limited to degree 8")
    if p[0] == 0:
        return False  # x divides p
    norm2 = isqrt(sum(c * c for c in p.coeffs)) + 1
    consts = [s * d for d in divisors(abs(p[0])) for s in (1, -1)]
    for m in range(1, p.degree // 2 + 1):
        middle = [range(-comb(m, k) * norm2, comb(m, k) * norm2 + 1) for k in range(1, m)]
        for coeffs in product(consts, *middle):
            if poly_divides(IntPoly.of(*coeffs, 1), p):
                return False
    return True


def _irreducible_mod(p: IntPoly, q: int) -> bool:
    """Ben-Or's test for the monic p mod q: gcd(p, x^(q^i) - x) is the
    product of the irreducible factors whose degree divides i, and a
    reducible p has one of degree at most deg(p) / 2, so p is irreducible
    iff that gcd is 1 for each i <= deg(p) / 2.  Residues mod (p, q) are
    the remainders of ``poly_divmod`` by the monic reduction f of p, with
    coefficients taken mod q; h = x^(q^i) by square and multiply."""
    f, x = p.mod_coeffs(q), IntPoly.x()
    h = x
    for _ in range(p.degree // 2):
        e, base, h = q, h, IntPoly.of(1)
        while e:
            if e & 1:
                h = poly_divmod(h * base, f)[1].mod_coeffs(q)
            base = poly_divmod(base * base, f)[1].mod_coeffs(q)
            e >>= 1
        if _gcd_mod(f, h - x, q).degree:
            return False
    return True


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

