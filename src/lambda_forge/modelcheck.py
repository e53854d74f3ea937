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
re-derived on every divisor cycle of f0 from one joint image built at f0
and projected to each divisor's monoid), and the induced monoid action.
A local variant handles a single prime with explicit inertia.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    ``galois`` maps each unit residue mod m to a permutation; ``special``
    maps each prime in B (which must contain every prime dividing m; a key
    that is not a prime is refused) to an arbitrary self-map.  Permutations
    and maps are tuples of images.
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
        gal = dict(self.galois)
        if sorted(gal) != sorted(set(units)):
            raise InputError("galois data must list exactly the units mod m")
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
        return FiniteIdSet(
            size,
            m,
            tuple(sorted((u % m, tuple(p)) for u, p in galois.items())),
            tuple(sorted((p, tuple(f)) for p, f in special.items())),
        )

    @property
    def galois_map(self) -> dict[int, tuple[int, ...]]:
        return dict(self.galois)

    @property
    def special_map(self) -> dict[int, tuple[int, ...]]:
        return dict(self.special)

    def psi_prime(self, p: int) -> tuple[int, ...]:
        sp = self.special_map
        if p in sp:
            return sp[p]
        if gcd(p, self.m) != 1:
            raise InputError(f"prime {p} divides m but is not special")
        return self.galois_map[p % self.m]

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
        """Keys are decimal strings; size, m and each map entry must be JSON
        integers, so a float, a boolean or a string is refused, not coerced."""
        try:
            size, m = _json_ints([data["size"], data["m"]])
            galois = {int(u): _json_ints(p) for u, p in data["galois"].items()}
            special = {int(p): _json_ints(f) for p, f in data["special"].items()}
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
    gal = s.galois_map
    for u, perm in gal.items():
        if not all(perm[x] in T for x in T):
            raise InputError("subset is not closed under the Galois action")

    def acts_trivially(us) -> bool:
        return all(all(gal[u][x] == x for x in T) for u in us)

    n0 = None
    for n in divisors(s.m):
        kernel = [u for u in gal if u % n == 1 % max(n, 1)]
        if acts_trivially(kernel):
            n0 = n
            break
    if n0 is None:  # n = m has trivial kernel
        raise AssertionError("the kernel at level m acts nontrivially")
    minus_coset = [u for u in gal if u % n0 == (-1) % n0]
    infinity = not acts_trivially(minus_coset)
    return Cycle(None, n0, infinity)


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
        # inertia at p inside (Z/m)*: units congruent to 1 away from p
        mp = s.m
        while mp % p == 0:
            mp //= p
        inertia = [u for u in gal if u % mp == 1 % max(mp, 1)]
        if not all(all(gal[u][x] == x for x in img) for u in inertia):
            return False
        frob_coset = [u for u in gal if u % mp == p % max(mp, 1)]
        if not frob_coset:
            return False
        w = frob_coset[0]
        if not all(f[x] == gal[w][x] for x in img):
            return False
    return True


def subset_conductors(s: FiniteIdSet) -> dict[int, Cycle]:
    """The conductor c(dS) of the image dS, for each d | r."""
    return {d: conductor(s, _subset_image(s, d)) for d in divisors(compute_r(s))}


def model_cycle_bound(s: FiniteIdSet) -> Cycle:
    """lcm over d | r of d * c(dS): the least candidate conductor cycle."""
    out = Cycle(None, 1, False)
    for d, c in subset_conductors(s).items():
        out = cycle_lcm(out, Cycle(None, d * c.finite, c.infinity))
    return out


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
    return {(fm, dr.class_of_ideal(top.reps[c])) for fm, c in image}


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
    f0 = model_cycle_bound(s)
    image, top = _joint_image(s, f0)
    for g in divisor_cycles(f0):
        if _single_valued(_projected_image(image, top, g)) != f0.divides(g):
            raise AssertionError("lcm formula disagrees with divisor-cycle search")
    return f0


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
        ident = self.identity
        for i in range(g):
            if sorted(self.group[i]) != list(range(g)):
                raise InputError("group table rows must be permutations")
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

    @property
    def identity(self) -> int:
        return _find_identity(self.group)


def _is_subgroup(table, subset) -> bool:
    return all(table[i][j] in subset for i in subset for j in subset) and bool(subset)


def _is_normal(table, subset) -> bool:
    g = len(table)
    e = _find_identity(table)
    inv = [next(j for j in range(g) if table[i][j] == e) for i in range(g)]
    return all(table[table[x][i]][inv[x]] in subset for x in range(g) for i in subset)


def _find_identity(table) -> int:
    g = len(table)
    return next(i for i in range(g) if all(table[i][j] == j for j in range(g)))


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
    core_list = sorted(core)
    psi_core = {x: s.psi[x] for x in core}
    if sorted(psi_core.values()) != core_list:
        raise InputError("psi is not a bijection on the core (corrupt input)")
    # invert psi on the core
    inv = {v: k for k, v in psi_core.items()}
    ret = list(range(s.size))
    for i, level in enumerate(levels):
        for x in level:
            y = x
            for _ in range(i):
                y = s.psi[y]
            # y is in the core; pull back i times
            z = y
            for _ in range(i):
                z = inv[z]
            ret[x] = z
    ret = tuple(ret)
    if any(ret[x] != x for x in core):
        raise AssertionError("the retraction moves a point of the core")
    return ret


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
