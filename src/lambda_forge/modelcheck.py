"""Decision procedures for integral models over the rationals.

Input is a finite set S with commuting prime-indexed self-maps and abelian
Galois data presented as an action of (Z/m)*.  For primes outside the
special set B the map is defined to be the Galois action of p mod m; this
convention loses no generality because a model can only exist when the two
agree on the stable core anyway.

The procedures: the ramification ideal r from per-prime image chains,
conductors of sub-actions, existence of an integral model at a given cycle
(the lcm criterion, cross-checked against a direct factorization test
through the ray class monoid), the minimal cycle (the lcm bound f0,
re-derived on every divisor cycle of f0 from one joint image J_f0 built at
f0 and projected to each divisor's monoid), and the induced monoid action;
``model_check`` runs them once each, its cross-check at f0 read off J_f0.
A local variant handles a single prime with explicit inertia.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from math import gcd, lcm

from .errors import InputError, ModelRefusedError
from .intlinalg import divisors, factor, is_prime
from .rayclass import ALL_PRIMES, Cycle, DRMonoid, cycle_lcm, divisor_cycles, dr_monoid


def _compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """(f o g)(x) = f(g(x))."""
    return tuple([f[x] for x in g])


def _identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def _unit_generators(m: int, units) -> list[int]:
    """Units that generate the group of ``units`` mod m: in increasing
    order, each one outside the subgroup the earlier ones generate, so at
    most log2 of the group's order of them."""
    gens, group = [], {1 % m}
    for u in sorted(units):
        if u not in group:
            gens.append(u)
            coset = group
            while (coset := {x * u % m for x in coset}).isdisjoint(group):  # the cosets of group in group<u>
                group |= coset
    return gens


def _json_ints(values) -> list[int]:
    if type(values) is not list or any(type(x) is not int for x in values):  # bool is a subclass of int
        raise TypeError("size, m and each map must hold JSON integers")
    return values


@dataclass(frozen=True)
class FiniteIdSet:
    """A finite set with an action of (Z/m)* and special prime maps.

    ``galois`` maps each unit residue mod m, listed once and in increasing
    order, to a permutation; ``special`` maps each prime in B (which must
    contain every prime dividing m; a key that is not a prime is refused)
    to an arbitrary self-map.  Permutations and maps are tuples of images.
    """

    size: int
    m: int
    galois: tuple[tuple[int, tuple[int, ...]], ...]
    special: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self):
        """Checks the data, the action on generators g of (Z/m)* only:
        gal(1) = id and gal(u g) = gal(u) o gal(g) for every unit u.  Then
        gal(u v) = gal(u) o gal(v) for all units: the v for which it holds
        for every u include 1 and each g, and are closed under products,
        since gal(u v w) = gal(u v) o gal(w) = gal(u) o gal(v) o gal(w) =
        gal(u) o gal(v w); so they are the whole finite group.  Likewise a
        special map that commutes with each gal(g) commutes with every
        gal(u), and the gal(u) commute with each other as (Z/m)* is
        abelian.  Conversely the law over all pairs gives gal(1) o gal(1) =
        gal(1), so gal(1) = id for a permutation.  So this refuses exactly
        what checking every pair of units and of maps refuses, with
        phi(m) * (number of generators) compositions in place of phi(m)^2."""
        if self.size < 0:
            raise InputError("size must be non-negative")
        if self.m < 1 or self.m > 10**4:
            raise InputError("modulus must be positive and within the enumeration bound")
        units = [u % self.m for u in range(1, self.m + 1) if gcd(u, self.m) == 1]
        if [u for u, _ in self.galois] != units:
            raise InputError("galois data must list exactly the units mod m")
        gal = dict(self.galois)
        for u, perm in gal.items():
            if sorted(perm) != list(range(self.size)):
                raise InputError(f"galois image of {u} is not a permutation")
        gens = _unit_generators(self.m, gal)
        if gal[1 % self.m] != _identity(self.size) or any(
            _compose(gal[u], gal[g]) != gal[u * g % self.m] for g in gens for u in gal
        ):
            raise InputError("galois data is not a group action")
        sp = dict(self.special)
        for p in sp:
            if not is_prime(p):
                raise InputError(f"special map key {p} is not a prime")
        for p in factor(self.m).primes():
            if p not in sp:
                raise InputError(f"special maps must cover the primes dividing m (missing {p})")
        maps = list(sp.values())
        for f in maps:
            if len(f) != self.size or any(not 0 <= x < self.size for x in f):
                raise InputError("special map out of range")
        for i, f in enumerate(maps):
            for g in maps[i + 1 :] + [gal[g] for g in gens]:
                if _compose(f, g) != _compose(g, f):
                    raise InputError("the prime maps and Galois action must all commute")

    @staticmethod
    def make(size: int, m: int, galois: dict[int, list[int]], special: dict[int, list[int]]) -> "FiniteIdSet":
        """Galois keys are read mod m; two keys for one unit are refused."""
        gal = sorted((u % m if m > 0 else u, u, tuple(p)) for u, p in galois.items())
        for (r, u, _), (q, v, _) in zip(gal, gal[1:]):
            if r == q:
                raise InputError(f"galois keys {u} and {v} are the same unit mod {m}")
        return FiniteIdSet(size, m, tuple((r, p) for r, _, p in gal), tuple(sorted((p, tuple(f)) for p, f in special.items())))

    @property
    def galois_map(self) -> dict[int, tuple[int, ...]]:
        return dict(self.galois)

    @property
    def special_map(self) -> dict[int, tuple[int, ...]]:
        return dict(self.special)

    def psi_prime(self, p: int) -> tuple[int, ...]:
        for q, f in self.special:
            if q == p:
                return f
        if gcd(p, self.m) != 1:
            raise InputError(f"prime {p} divides m but is not special")
        return self.galois[bisect_left(self.galois, (p % self.m,))][1]

    def psi_ideal(self, a: int) -> tuple[int, ...]:
        """The action of the ideal (a), composed over the factorization."""
        out = _identity(self.size)
        for p, e in factor(a).factors:
            f = self.psi_prime(p)
            for _ in range(e):
                out = _compose(f, out)
        return out

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "m": self.m,
            "galois": {str(u): list(p) for u, p in self.galois},
            "special": {str(p): list(f) for p, f in self.special},
        }

    @staticmethod
    def from_json(data: dict) -> "FiniteIdSet":
        """Keys are canonical decimal strings (no plus sign, space,
        underscore or leading zero); size, m and each map entry must be JSON
        integers, so a float, a boolean or a string is refused, not coerced."""
        try:
            size, m = _json_ints([data["size"], data["m"]])
            galois = {int(u): _json_ints(p) for u, p in data["galois"].items()}
            special = {int(p): _json_ints(f) for p, f in data["special"].items()}
            if bad := [k for k in [*data["galois"], *data["special"]] if str(int(k)) != k]:
                raise ValueError(f"key {bad[0]!r} is not a canonical decimal")
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise InputError(f"malformed set data ({type(exc).__name__}: {exc})") from None
        return FiniteIdSet.make(size, m, galois, special)


def mu_n_data(n: int) -> FiniteIdSet:
    """The exponent set of the n-th roots of unity: Z/n with every prime
    acting by multiplication and (Z/m)* = (Z/n)* acting likewise."""
    size, m = n, n
    galois = {u: [(u * s) % n for s in range(n)] for u in range(1, n + 1) if gcd(u, n) == 1}
    special = {p: [(p * s) % n for s in range(n)] for p in factor(n).primes()}
    return FiniteIdSet.make(size, m, galois, special)


def mu_n_pm_data(n: int) -> FiniteIdSet:
    """The quotient of the above by negation (n odd so the prime maps
    descend along representatives)."""
    orbit = {}
    reps = []
    for s in range(n):
        o = min(s, (-s) % n)
        if o not in orbit:
            orbit[o] = len(reps)
            reps.append(o)
        orbit[s] = orbit[o]
    size = len(reps)

    def induced(mult: int) -> list[int]:
        return [orbit[(mult * reps[i]) % n] for i in range(size)]

    galois = {u: induced(u) for u in range(1, n + 1) if gcd(u, n) == 1}
    special = {p: induced(p) for p in factor(n).primes()}
    return FiniteIdSet.make(size, n, galois, special)


# ---------------------------------------------------------------------------
# Ramification ideal, conductors


def compute_r(s: FiniteIdSet) -> int:
    """The ramification ideal: ord_p = first i with p^(i+1)S = p^i S, zero
    outside the special primes (their maps are bijective by construction)."""
    r = 1
    for p, f in s.special:
        r *= p ** _stable_core(f, s.size)[1]
    return r


def _stable_core(f: tuple[int, ...], size: int) -> tuple[frozenset[int], int]:
    """The stable image of the self-map f of range(size), and the number of
    applications of f it takes to reach it."""
    img = frozenset(range(size))
    steps = 0
    while True:
        nxt = frozenset(f[x] for x in img)
        if nxt == img:
            return img, steps
        img, steps = nxt, steps + 1


def conductor(s: FiniteIdSet, subset: frozenset[int] | None = None) -> Cycle:
    """The minimal cycle through whose ray class group the Galois action on
    the subset factors.

    The finite part is the least n | m whose reduction kernel acts
    trivially; the real place enters exactly when the coset of -1 mod that
    n still acts nontrivially.
    """
    T = frozenset(range(s.size)) if subset is None else subset
    moving = []  # the units that move a point of T
    for u, perm in s.galois:
        if not all(perm[x] in T for x in T):
            raise InputError("subset is not closed under the Galois action")
        if any(perm[x] != x for x in T):
            moving.append(u)
    # n = m has trivial kernel, as gal(1) = id
    n0 = next((n for n in divisors(s.m) if all(u % n != 1 % n for u in moving)), None)
    if n0 is None:
        raise AssertionError("the kernel at level m acts nontrivially")
    return Cycle(None, n0, any(u % n0 == -1 % n0 for u in moving))


def _subset_image(s: FiniteIdSet, d: int) -> frozenset[int]:
    """The image d*S of the whole set under the ideal action of d."""
    f = s.psi_ideal(d)
    return frozenset(f[x] for x in range(s.size))


def has_integral_model(s: FiniteIdSet) -> bool:
    """Local conditions at the special primes: inertia acts trivially on the
    stable core of psi_p, and psi_p acts there as the Frobenius coset."""
    gal = s.galois_map
    for p, f in s.special:
        img, _ = _stable_core(f, s.size)
        mp = s.m
        while mp % p == 0:
            mp //= p
        # inertia: the units = 1 mod mp; Frobenius: = p mod mp, a unit mod mp
        w = next(u for u in gal if u % mp == p % mp)
        if any(gal[u][x] != x for u in gal if u % mp == 1 % mp for x in img) or any(f[x] != gal[w][x] for x in img):
            return False
    return True


def subset_conductors(s: FiniteIdSet) -> dict[int, Cycle]:
    """The conductor c(dS) of the image dS, for each d | r."""
    return {d: conductor(s, _subset_image(s, d)) for d in divisors(compute_r(s))}


def model_cycle_bound(s: FiniteIdSet) -> Cycle:
    """lcm over d | r of d * c(dS): the least candidate conductor cycle."""
    return _lcm_bound(subset_conductors(s))


def _lcm_bound(conductors: dict[int, Cycle]) -> Cycle:
    return reduce(cycle_lcm, (Cycle(None, d * c.finite, c.infinity) for d, c in conductors.items()))


def decide_model(s: FiniteIdSet, f: Cycle) -> bool:
    """Does the action extend to the ray class monoid of conductor f?

    True iff an integral model exists at all (local conditions) and the
    lcm criterion divides f.  A positive verdict is cross-checked against
    the direct factorization test (they must agree).
    """
    if f.field is not None:
        raise InputError("model decisions run over the rationals")
    verdict = has_integral_model(s) and model_cycle_bound(s).divides(f)
    if verdict:
        if not factors_through_dr(s, f):
            raise AssertionError("lcm criterion and direct factorization disagree")
    return verdict


def factors_through_dr(s: FiniteIdSet, f: Cycle) -> bool:
    """Direct test: the joint action of Galois and the ideals factors
    through the ray class monoid of conductor f, i.e. the projection of the
    joint image J_f (see ``_joint_image``) to DR(f) is injective."""
    return _single_valued(_joint_image(s, f)[0])


def _joint_image(s: FiniteIdSet, f: Cycle) -> tuple[set[tuple[tuple[int, ...], int]], DRMonoid]:
    """The image J_f of the joint map into Map(S,S) x DR(f), and DR(f).

    J_f is the monoid generated by finite data: the unit residues w modulo
    lcm(m, n) stand in for the generic primes realizing them and give
    (galois[w mod m], [w]); each special prime p gives (psi_p, [p]); each
    other prime p | n gives (galois[p mod m], [p]), since every prime
    dividing m is special.
    """
    if f.field is not None:
        raise InputError("model decisions run over the rationals")
    n = f.finite
    dr = dr_monoid(f, ALL_PRIMES)
    m = s.m
    gal, sp = s.galois_map, s.special_map
    L_mod = lcm(m, n)
    gens = {(gal[w % m], dr.class_of_ideal(w)) for w in range(1, L_mod + 1) if gcd(w, L_mod) == 1}
    gens.update((fmap, dr.class_of_ideal(p)) for p, fmap in sp.items())
    gens.update((gal[p % m], dr.class_of_ideal(p)) for p in factor(n).primes() if p not in sp)
    # monoid closure
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        fm, c = frontier.pop()
        for gm, d in gens:
            item = (_compose(fm, gm), dr.mul(c, d))
            if item not in seen:
                seen.add(item)
                frontier.append(item)
    return seen, dr


def _projected_image(image: set[tuple[tuple[int, ...], int]], top: DRMonoid, g: Cycle) -> set[tuple[tuple[int, ...], int]]:
    """(id x pi_g)(image) for image inside Map(S,S) x DR(F) and g | F:
    pi_g sends the class c to the DR(g) class of the representative
    top.reps[c]."""
    dr = dr_monoid(g, ALL_PRIMES)
    pi = [dr.class_of_ideal(a) for a in top.reps]
    return {(fm, pi[c]) for fm, c in image}


def _single_valued(image: set[tuple[tuple[int, ...], int]]) -> bool:
    """Each class of the image carries exactly one map."""
    action: dict[int, tuple[int, ...]] = {}
    return all(action.setdefault(c, fm) == fm for fm, c in image)


def minimal_cycle(s: FiniteIdSet) -> Cycle:
    """The least cycle at which a model exists.

    Computed by the lcm formula f0 and re-derived by exhaustive search over
    its divisor cycles with the direct factorization test: the action must
    factor through f0 and through none of its proper divisors.

    The joint image is built once, at F = f0, and the image at each divisor
    g is its projection: (id x pi_g)(J_F) = J_g.  For g | F, F-equivalence
    refines g-equivalence, so pi_g: DR(F) -> DR(g), the g-class of the
    representative, is a monoid map, and it sends the F-class of an ideal
    to its g-class.  So id x pi_g sends F's generator pairs onto g's:
    every unit residue mod lcm(m, n_g) lifts to a unit residue mod
    lcm(m, n_F); the special primes give the same pairs at both levels;
    and a prime p of n_F that is not special is prime to m (every prime of
    m is special), so when p does not divide n_g its pair
    (galois[p mod m], [p]_g) is already one of g's unit generators.
    """
    if not has_integral_model(s):
        raise ModelRefusedError("no integral model exists at any cycle")
    return _searched(s, model_cycle_bound(s))


def _searched(s: FiniteIdSet, f0: Cycle) -> Cycle:
    """f0, once the direct test read off J_f0 holds at g | f0 iff g = f0."""
    image, top = _joint_image(s, f0)
    for g in divisor_cycles(f0):
        if _single_valued(_projected_image(image, top, g)) != f0.divides(g):
            raise AssertionError("lcm formula disagrees with divisor-cycle search")
    return f0


def model_check(s: FiniteIdSet, cycle: str | None = None) -> tuple[bool, Cycle | None, int, dict[int, Cycle]]:
    """model-check's (exists, minimal cycle or None, r, c(dS) per d | r),
    each computed once, with the answers and refusals of the public
    functions; ``decide_model`` at ``cycle``, parsed after the search.
    At f = f0 the search's step g = f0 was already the direct test."""
    conductors = subset_conductors(s)
    r = max(conductors)  # the keys are the divisors of r
    exists = has_integral_model(s)
    f0 = _searched(s, _lcm_bound(conductors)) if exists else None
    if cycle is not None:
        f = Cycle.parse(cycle)
        exists = exists and f0.divides(f)
        if exists and f != f0 and not factors_through_dr(s, f):
            raise AssertionError("lcm criterion and direct factorization disagree")
    return exists, f0, r, conductors


def dr_action(s: FiniteIdSet, f: Cycle) -> list[tuple[int, ...]]:
    """The action table of the ray class monoid on S: entry i is the map of
    monoid element i (acting by its canonical representative ideal)."""
    if not decide_model(s, f):
        raise ModelRefusedError("the action does not factor through this conductor")
    dr = dr_monoid(f, ALL_PRIMES)
    table = [s.psi_ideal(dr.reps[i]) for i in range(dr.size)]
    if table[dr.identity] != _identity(s.size):
        raise AssertionError("identity class must act trivially")
    return table


# ---------------------------------------------------------------------------
# Local theory: one prime, explicit inertia


@dataclass(frozen=True)
class LocalIdSet:
    """A finite set with an action of a finite group (with a designated
    normal inertia subgroup and Frobenius coset) and one commuting
    self-map."""

    size: int
    group: tuple[tuple[int, ...], ...]  # multiplication table g*h
    inertia: frozenset[int]
    frobenius: frozenset[int]  # a coset of inertia
    action: tuple[tuple[int, ...], ...]  # per group element, a permutation of S
    psi: tuple[int, ...]

    def __post_init__(self):
        g = len(self.group)
        ident = _group_identity(self.group, self.inertia, self.frobenius)
        if self.size < 0:
            raise InputError("need size >= 0")
        if len(self.action) != g or not all(_is_self_map(a, self.size) for a in self.action):
            raise InputError("action must map the set to itself, once per group element")
        if not _is_self_map(self.psi, self.size):
            raise InputError("psi must map the set to itself")
        for i in range(g):
            for j in range(g):
                a = self.action[self.group[i][j]]
                if a != _compose(self.action[i], self.action[j]):
                    raise InputError("action is not a group action")
        if self.action[ident] != _identity(self.size):
            raise InputError("identity must act trivially")
        if not _is_subgroup(self.group, self.inertia):
            raise InputError("inertia is not a subgroup")
        if not _is_normal(self.group, self.inertia):
            raise InputError("inertia is not normal")
        if not _is_coset(self.group, self.inertia, self.frobenius):
            raise InputError("frobenius is not an inertia coset")
        for i in range(g):
            if _compose(self.psi, self.action[i]) != _compose(self.action[i], self.psi):
                raise InputError("psi must commute with the group action")


def _is_subgroup(table, subset) -> bool:
    return all(table[i][j] in subset for i in subset for j in subset) and bool(subset)


def _is_normal(table, subset) -> bool:
    g = len(table)
    e = _group_identity(table)
    inv = [next(j for j in range(g) if table[i][j] == e) for i in range(g)]
    return all(table[table[x][i]][inv[x]] in subset for x in range(g) for i in subset)


def _group_identity(table, *subsets) -> int:
    """The identity of a group table whose rows are permutations; each of
    the subsets must hold elements of the group."""
    g = len(table)
    if any(sorted(row) != list(range(g)) for row in table):
        raise InputError("group table rows must be permutations")
    if not all(0 <= x < g for subset in subsets for x in subset):
        raise InputError("inertia and frobenius must be group elements")
    e = next((i for i in range(g) if all(table[i][j] == j for j in range(g))), None)
    if e is None:
        raise InputError("group table has no identity row")
    return e


def _is_self_map(f, size: int) -> bool:
    return len(f) == size and all(0 <= x < size for x in f)


def _is_coset(table, subgroup, coset) -> bool:
    if len(coset) != len(subgroup):
        return False
    rep = next(iter(coset))
    return {table[rep][i] for i in subgroup} == set(coset)


def local_unramified_core(s: LocalIdSet) -> tuple[frozenset[int], list[frozenset[int]]]:
    """The stable core of psi and the level decomposition: level 0 is the
    core, level i the points whose image first reaches level i-1."""
    img, _ = _stable_core(s.psi, s.size)
    levels = [img]
    placed = set(img)
    while len(placed) < s.size:
        prev = levels[-1]
        nxt_level = frozenset(x for x in range(s.size) if x not in placed and s.psi[x] in prev)
        if not nxt_level:
            raise InputError("psi level decomposition does not exhaust the set")
        levels.append(nxt_level)
        placed |= nxt_level
    return img, levels


def local_retraction(s: LocalIdSet) -> tuple[int, ...]:
    """The retraction onto the core: a point at level i maps to the unique
    core point with the same i-th psi-image."""
    core, levels = local_unramified_core(s)
    inv = {s.psi[x]: x for x in core}  # psi permutes its stable image
    # level by level: ret(x) = psi^-i(psi^i(x)) = psi^-1(ret(psi(x)))
    ret = list(range(s.size))
    for level in levels[1:]:
        for x in level:
            ret[x] = inv[ret[s.psi[x]]]
    return tuple(ret)


def local_model_exists(s: LocalIdSet) -> bool:
    """Inertia must act trivially on the core, and psi must act there as
    the Frobenius coset does."""
    core, _ = local_unramified_core(s)
    for i in s.inertia:
        if any(s.action[i][x] != x for x in core):
            return False
    rep = next(iter(s.frobenius))
    return all(s.psi[x] == s.action[rep][x] for x in core)


@dataclass(frozen=True)
class LocalQuotientMonoid:
    """The finite monoid on n copies of the group plus the inertia-coset
    tail; elements are (level, group element) for level < n and
    (n, coset index) beyond."""

    n: int
    group: tuple[tuple[int, ...], ...]
    cosets: tuple[frozenset[int], ...]
    elements: tuple[tuple[int, int], ...]
    table: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.elements)


def local_quotient_monoid(group: tuple[tuple[int, ...], ...], inertia: frozenset[int], frobenius: frozenset[int], n: int) -> LocalQuotientMonoid:
    """Quotient of (group x nonneg levels) identifying everything at level
    >= n along the Frobenius-twisted inertia cosets."""
    g = len(group)
    _group_identity(group, inertia, frobenius)
    if n < 0:
        raise InputError("need n >= 0")
    if not _is_subgroup(group, inertia) or not _is_normal(group, inertia):
        raise InputError("inertia must be a normal subgroup")
    if not _is_coset(group, inertia, frobenius):
        raise InputError("frobenius must be an inertia coset")
    # cosets of inertia
    cosets: list[frozenset[int]] = []
    seen: dict[int, int] = {}
    for x in range(g):
        if x in seen:
            continue
        cs = frozenset(group[x][i] for i in inertia)
        for y in cs:
            seen[y] = len(cosets)
        cosets.append(cs)
    frob_idx = seen[next(iter(frobenius))]

    def coset_mul(a: int, b: int) -> int:
        return seen[group[next(iter(cosets[a]))][next(iter(cosets[b]))]]

    def tail_class(x: int, level: int) -> int:
        # the coset of x * F^level
        c = seen[x]
        for _ in range(level):
            c = coset_mul(c, frob_idx)
        return c

    elements: list[tuple[int, int]] = [(a, x) for a in range(n) for x in range(g)]
    elements += [(n, c) for c in range(len(cosets))]
    index = {e: k for k, e in enumerate(elements)}

    def mul(e1, e2):
        a, x = e1
        b, y = e2
        if a < n and b < n:
            if a + b < n:
                return (a + b, group[x][y])
            return (n, tail_class(group[x][y], a + b))
        if a < n:  # e2 in the tail
            return (n, coset_mul(tail_class(x, a), y))
        if b < n:
            return (n, coset_mul(x, tail_class(y, b)))
        return (n, coset_mul(x, y))

    table = tuple(tuple(index[mul(e1, e2)] for e2 in elements) for e1 in elements)
    mon = LocalQuotientMonoid(n, group, tuple(cosets), tuple(elements), table)
    if mon.size != n * g + len(cosets):
        raise AssertionError("local quotient monoid has the wrong size")
    return mon
