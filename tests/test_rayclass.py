import collections
import contextlib
import heapq
import json
import pickle
import random
import signal
import subprocess
import sys
import textwrap
from math import gcd, prod
from pathlib import Path

import pytest

from lambda_forge import rayclass
from lambda_forge.errors import BoundExceededError, DensityRequiredError, InputError
from lambda_forge.intlinalg import divisors, factor
from lambda_forge.quadfield import (
    QuadField,
    QuadInt,
    check_group_table,
    ideal_div,
    ideal_divides,
    ideal_divisors,
    ideal_factor,
    ideal_from_int,
    ideal_mul,
    ideals_of_norm_up_to,
    primes_above,
    principal_ideal,
    reduced_forms,
    unit_group,
)
from lambda_forge.rayclass import (
    ALL_PRIMES,
    Cycle,
    DRClass,
    PrimeSupport,
    RationalRayClassGroup,
    cycle_lcm,
    divisor_cycles,
    dr_canonical_map,
    dr_iso_residue,
    dr_monoid,
    dr_pushout_check,
    dr_shift_map,
    f_equiv,
    f_equiv_generator,
    f_label,
    ray_class_group,
)
from lambda_forge.rayclass import _label, _smallest_supported

GAUSS = QuadField(-1)
EISEN = QuadField(-3)
K5 = QuadField(-5)


def test_cycle_parsing():
    c = Cycle.parse("12*inf")
    assert c.finite == 12 and c.infinity
    assert str(c) == "12*inf"
    assert str(Cycle.parse("7")) == "7"
    with pytest.raises(InputError):
        Cycle.parse("x*inf")
    q = Cycle.parse("[5, 2+w, 1]", GAUSS)
    assert q.norm() == 5


def test_cycle_arithmetic():
    a, b = Cycle.parse("4*inf"), Cycle.parse("6")
    assert cycle_lcm(a, b) == Cycle.parse("12*inf")
    assert Cycle.parse("2").divides(a)
    assert not Cycle.parse("2*inf").divides(Cycle.parse("2"))
    assert len(divisor_cycles(Cycle.parse("4*inf"))) == 6


def test_rational_cycle_arithmetic_matches_brute_force():
    # every cycle with n <= 60, with and without the real place
    cycles = [Cycle(None, n, inf) for n in range(1, 61) for inf in (False, True)]
    for f in cycles:
        n = f.finite
        for g in cycles:
            assert g.divides(f) == (n % g.finite == 0 and (f.infinity or not g.infinity)), (str(g), str(f))
        divs = [d for d in range(1, n + 1) if n % d == 0]
        for d in range(1, n + 1):
            if d in divs:
                cof = f.cofactor(d)
                assert cof.finite * d == n and cof.infinity == f.infinity, (str(f), d)
            else:
                with pytest.raises(InputError):
                    f.cofactor(d)
        places = (False, True) if f.infinity else (False,)
        # smallest first: by finite part, then without the real place first
        assert divisor_cycles(f) == [Cycle(None, d, inf) for d in divs for inf in places], str(f)


@pytest.mark.parametrize("field", [GAUSS, K5], ids=["Q(i)", "Q(sqrt-5)"])
def test_quadratic_cycle_arithmetic_matches_brute_force(field):
    # every ideal of norm <= 25 as a conductor; its divisors have smaller
    # norm, so the list holds them all, sorted by (norm, triple)
    ideals = ideals_of_norm_up_to(field, 25)
    cycles = [Cycle(field, ideal) for ideal in ideals]
    for f in cycles:
        for g in cycles:
            assert g.divides(f) == ideal_divides(g.finite, f.finite), (str(g), str(f))
        divs = [d for d in ideals if ideal_divides(d, f.finite)]
        for d in ideals:
            if d in divs:
                cof = f.cofactor(d)
                assert ideal_mul(cof.finite, d) == f.finite and cof.field == field, (str(f), str(d))
            else:
                with pytest.raises(InputError):
                    f.cofactor(d)
        assert divisor_cycles(f) == [Cycle(field, d) for d in divs], str(f)


def test_support_parsing():
    assert PrimeSupport.parse("all").chebotarev_dense
    s = PrimeSupport.parse("all-except:2,3")
    assert s.chebotarev_dense and not s.allows_prime(2) and s.allows_prime(5)
    e = PrimeSupport.parse("explicit:2,3")
    assert not e.chebotarev_dense
    assert PrimeSupport.parse("explicit:2,3!").chebotarev_dense
    assert not s.supports_int(6) and s.supports_int(35)


@pytest.mark.parametrize("text", ["all-except:2!", "all-except:3,5!"])
def test_density_override_only_after_an_explicit_list(text):
    """all-except is dense already: the override would answer as the bare
    support does, under a second cache key."""
    with pytest.raises(InputError, match=r"density override \(!\) goes only after an explicit prime list"):
        PrimeSupport.parse(text)
    with pytest.raises(InputError):
        PrimeSupport("all-except", frozenset({2}), True)


SUPPORTS = ("all", "all-except:2", "all-except:2,3", "explicit:5,7", "explicit:2,3!", "all-except:4", "explicit:1,4,6")


@pytest.mark.parametrize("text", SUPPORTS)
def test_supports_int_matches_factorization(text):
    # membership is decided by division; the factorization is the oracle
    s = PrimeSupport.parse(text)
    for n in range(1, 5001):
        assert s.supports_int(n) == all(s.allows_prime(p) for p in factor(n).primes()), n
    for n in (0, -1, -12):
        if s.mode == "all":
            assert s.supports_int(n)
        else:
            with pytest.raises(InputError):
                s.supports_int(n)


def test_group_table_check_rejects_broken_tables():
    check_group_table(((0, 1, 2), (1, 2, 0), (2, 0, 1)))
    check_group_table(())
    with pytest.raises(InputError, match="permutation"):
        check_group_table(((0, 1, 2), (1, 1, 0), (2, 0, 1)))
    with pytest.raises(InputError, match="permutation"):
        check_group_table(((0, 1, 2), (1, 2), (2, 0, 1)))
    with pytest.raises(InputError, match="permutation"):
        check_group_table(((0, 1, 2), (1, 2, 0, 1), (2, 0, 1)))
    with pytest.raises(InputError, match="abelian"):
        check_group_table(((0, 1, 2), (2, 0, 1), (1, 2, 0)))


@pytest.mark.parametrize("support", ["all", "all-except:3"])
@pytest.mark.parametrize("bad", [0, -2, 2.0, -1])
def test_rational_ideals_must_be_positive_integers(support, bad):
    sup = PrimeSupport.parse(support)
    f = Cycle.parse("4*inf")
    for route in (f_equiv, f_equiv_generator):
        with pytest.raises(InputError, match="positive integer"):
            route(bad, 4, f, sup)
        with pytest.raises(InputError, match="positive integer"):
            route(4, bad, f, sup)
    with pytest.raises(InputError, match="positive integer"):
        dr_monoid(f, sup).class_of_ideal(bad)
    with pytest.raises(InputError, match="positive integer"):
        f_label(bad, f, sup)
    with pytest.raises(InputError, match="positive integer"):
        dr_shift_map(f, bad, sup)
    with pytest.raises(InputError, match="positive integer"):
        ray_class_group(Cycle.parse("5"), sup).class_of_ideal(bad)
    with pytest.raises(InputError, match="positive integer"):
        Cycle.parse("4").cofactor(bad)


@pytest.mark.parametrize("bad", [3, ideal_from_int(K5, 3)], ids=["int", "ideal-of-Q(sqrt-5)"])
def test_quadratic_ideals_must_belong_to_the_field(bad):
    f = Cycle(GAUSS, ideal_from_int(GAUSS, 2))
    good = ideal_from_int(GAUSS, 5)
    calls = {
        "f_label": lambda: f_label(bad, f),
        "f_equiv": lambda: f_equiv(good, bad, f),
        "f_equiv_generator a": lambda: f_equiv_generator(bad, good, f),
        "f_equiv_generator b": lambda: f_equiv_generator(good, bad, f),
        "monoid class_of_ideal": lambda: dr_monoid(f).class_of_ideal(bad),
        "dr_shift_map": lambda: dr_shift_map(f, bad),
        "group class_of_ideal": lambda: ray_class_group(f).class_of_ideal(bad),
        "cofactor": lambda: f.cofactor(bad),
        "cycle": lambda: Cycle(GAUSS, bad),
    }
    for name, call in calls.items():
        try:
            call()
        except InputError:
            continue
        pytest.fail(f"{name} accepted {bad!r}")


def test_f_equiv_examples():
    f4 = Cycle.parse("4*inf")
    assert f_equiv(7, 7, f4)
    assert f_equiv(2, 6, f4)
    assert not f_equiv(2, 3, Cycle.parse("5*inf"))


def test_f_equiv_generator_examples():
    assert f_equiv_generator(2, 6, Cycle.parse("4*inf"))
    assert not f_equiv_generator(1, 2, Cycle.parse("2*inf"))
    assert f_equiv_generator(9, 9, Cycle.parse("5*inf"))


def test_routes_agree_small():
    cycles = [Cycle.parse(s) for s in ("1", "2", "3", "4", "6", "12", "1*inf", "4*inf", "9*inf")]
    for f in cycles:
        for a in range(1, 40):
            for b in range(1, 40):
                assert f_equiv(a, b, f) == f_equiv_generator(a, b, f), (a, b, str(f))


def test_f_equiv_is_multiplicative_equivalence():
    rng = random.Random(2)
    f = Cycle.parse("12*inf")
    nums = [rng.randrange(1, 60) for _ in range(12)]
    for a in nums:
        assert f_equiv(a, a, f)
        for b in nums:
            assert f_equiv(a, b, f) == f_equiv(b, a, f)
            for c in nums:
                if f_equiv(a, b, f) and f_equiv(b, c, f):
                    assert f_equiv(a, c, f)
                if f_equiv(a, b, f):
                    assert f_equiv(a * c, b * c, f)


def test_refinement():
    small, big = Cycle.parse("3*inf"), Cycle.parse("12*inf")
    for a in range(1, 30):
        for b in range(1, 30):
            if f_equiv(a, b, big):
                assert f_equiv(a, b, small)


def test_ray_class_groups_rational():
    assert ray_class_group(Cycle.parse("1")).order == 1
    assert ray_class_group(Cycle.parse("12*inf")).order == 4
    # oracle: (Z/n)* and (Z/n)*/{+-1}
    from math import gcd

    for n in range(1, 30):
        full = sum(1 for u in range(1, n + 1) if gcd(u, n) == 1)
        assert ray_class_group(Cycle(None, n, True)).order == full
        folded = len({frozenset({u % n, (-u) % n}) for u in range(1, n + 1) if gcd(u, n) == 1})
        assert ray_class_group(Cycle(None, n, False)).order == folded


def test_ray_class_group_quadratic():
    f2i = Cycle(GAUSS, principal_ideal(QuadInt(GAUSS, 2, 1)))
    assert ray_class_group(f2i).order == 1
    # class group at trivial conductor
    assert ray_class_group(Cycle(K5, ideal_from_int(K5, 1))).order == 2


def test_explicit_support_subgroup():
    sup = PrimeSupport.parse("explicit:7")
    cl = ray_class_group(Cycle.parse("12*inf"), sup)
    assert not cl.is_full and cl.order < 4
    with pytest.raises(InputError):
        cl.class_of_ideal(5)  # 5 is not supported


def test_explicit_support_reps_exist():
    # -1 mod 7 is no power of 2: the orbit {1, 6} is represented by 1 alone
    cl = ray_class_group(Cycle.parse("7"), PrimeSupport.parse("explicit:2"))
    assert cl.is_full and cl.reps == [1, 2, 4]
    # a listed entry that is not prime generates nothing
    cl = ray_class_group(Cycle.parse("5*inf"), PrimeSupport.parse("explicit:4"))
    assert cl.order == 1 and cl.reps == [1]
    assert dr_monoid(Cycle.parse("5*inf"), PrimeSupport.parse("explicit:4")).size == 1


@contextlib.contextmanager
def time_limit(seconds: int):
    """Fail instead of hanging when the body runs past the limit."""

    def fail(*_):
        raise TimeoutError(f"no answer within {seconds} s")

    old = signal.signal(signal.SIGALRM, fail)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _products_below(primes, bound):
    """The products of the primes below the bound, in increasing order."""
    heap, seen, out = [1], {1}, []
    while heap and heap[0] < bound:
        m = heapq.heappop(heap)
        out.append(m)
        for p in primes:
            if m * p not in seen:
                seen.add(m * p)
                heapq.heappush(heap, m * p)
    return out


@pytest.mark.parametrize("primes", [(2,), (3,), (5,), (2, 3), (3, 5), (5, 7), ()])
def test_smallest_supported_explicit_oracle(primes):
    # differential against brute force over the products below a bound:
    # an answer is a product in the class with no smaller one (other than
    # the skipped one), and a refusal means none exists below the bound
    support = PrimeSupport("explicit", frozenset(primes))
    products = _products_below(primes, 10**7)
    with time_limit(20):
        for n in range(1, 31):
            for r in range(n):
                in_class = [m for m in products if m % n == r]
                try:
                    first = _smallest_supported((r,), n, support)
                except DensityRequiredError:
                    assert not in_class, (n, r)
                    continue
                assert support.supports_int(first) and first % n == r
                assert not [m for m in in_class if m < first], (n, r)
                try:
                    second = _smallest_supported((r,), n, support, skip=first)
                except DensityRequiredError:
                    assert in_class in ([], [first]), (n, r)
                    continue
                assert support.supports_int(second) and second % n == r and second != first
                assert not [m for m in in_class if m < second and m != first], (n, r)


def test_explicit_support_searches_finish():
    # the residue search walks the powers of 5, never the multiples of 29
    sup = PrimeSupport.parse("explicit:5")
    with time_limit(20):
        cl = ray_class_group(Cycle.parse("29*inf"), sup)
    powers = [pow(5, k) for k in range(28)]
    reached = sorted({p % 29 for p in powers})
    assert cl.reps == [next(p for p in powers if p % 29 == r) for r in reached]
    assert cl.order == len(reached) and not cl.is_full
    # a dense assertion that fails: no power of 3 is 2 mod 3, and 1 is the
    # only product of 2 and 3 that is 1 mod 12
    for cycle, text in (("15*inf", "explicit:3!"), ("12*inf", "explicit:2,3!")):
        with time_limit(20), pytest.raises(DensityRequiredError):
            dr_pushout_check(Cycle.parse(cycle), PrimeSupport.parse(text))


def test_dr_monoid_examples():
    dr6 = dr_monoid(Cycle.parse("6*inf"))
    assert dr6.size == 6
    # phi(6)+phi(3)+phi(2)+phi(1)
    assert dr6.size == 2 + 2 + 1 + 1
    dr4 = dr_monoid(Cycle.parse("4*inf"))
    assert dr4.mul(dr4.class_of_ideal(2), dr4.class_of_ideal(2)) == dr4.class_of_ideal(4)
    assert dr_monoid(Cycle.parse("1")).size == 1


def test_dr_monoid_units_are_ray_classes():
    for text in ("6*inf", "12*inf", "12", "9"):
        dr = dr_monoid(Cycle.parse(text))
        units = dr.units()
        cl = ray_class_group(Cycle.parse(text))
        assert len(units) == cl.order
        one = 1
        assert dr.identity in units
        # the unit set is exactly the divisor-(1) layer
        layer = [i for i, e in enumerate(dr.elements) if e.divisor == one]
        assert sorted(units) == sorted(layer)


def test_dr_monoid_agrees_with_f_equiv():
    dr = dr_monoid(Cycle.parse("12"))
    for a in range(1, 40):
        for b in range(1, 40):
            same = dr.class_of_ideal(a) == dr.class_of_ideal(b)
            assert same == f_equiv(a, b, Cycle.parse("12"))
    # representative products land in the product class
    for i in range(dr.size):
        for j in range(dr.size):
            assert f_equiv(dr.reps[i] * dr.reps[j], dr.reps[dr.mul(i, j)], Cycle.parse("12"))


def test_dr_monoid_axioms():
    cycles = [Cycle.parse("6*inf"), Cycle.parse("12"), Cycle(GAUSS, ideal_from_int(GAUSS, 3)), Cycle(K5, ideal_from_int(K5, 2))]
    for cyc in cycles:
        dr = dr_monoid(cyc)
        t = dr.table()
        e = dr.identity
        n = dr.size
        for i in range(n):
            assert t[e][i] == i and t[i][e] == i
            for j in range(n):
                assert t[i][j] == t[j][i]
                for k in range(n):
                    assert t[t[i][j]][k] == t[i][t[j][k]]


def test_dr_monoid_quadratic():
    f2i = Cycle(GAUSS, principal_ideal(QuadInt(GAUSS, 2, 1)))
    dr = dr_monoid(f2i)
    assert dr.size == 2
    table = dr.table()
    e = dr.identity
    z = 1 - e
    assert table[e][e] == e and table[e][z] == z and table[z][z] == z


def test_class_number_one_description():
    # DR(f) matches the residue monoid modulo the unit action for class
    # number one fields with full support
    for field in (GAUSS, EISEN):
        for fid in ideals_of_norm_up_to(field, 50):
            if fid.norm() < 2:
                continue
            dr = dr_monoid(Cycle(field, fid))
            residues = fid.residues()
            units = unit_group(field)
            orbit_of = {}
            orbits = []
            index = {fid.reduce(r): i for i, r in enumerate(residues)}
            for i, r in enumerate(residues):
                if i in orbit_of:
                    continue
                orb = sorted({index[fid.reduce(r * u)] for u in units})
                for x in orb:
                    orbit_of[x] = len(orbits)
                orbits.append(orb)
            assert len(orbits) == dr.size, str(fid)
            # explicit iso: orbit of a residue -> class of a lifted ideal
            gen = QuadInt(field, fid.a * fid.c, 0)
            to_dr = {}
            for k, orb in enumerate(orbits):
                vals = set()
                for i in orb:
                    r = residues[i]
                    lift = r if not r.is_zero() else gen
                    vals.add(dr.class_of_ideal(principal_ideal(lift)))
                assert len(vals) == 1, str(fid)
                to_dr[k] = vals.pop()
            assert sorted(to_dr.values()) == list(range(dr.size))
            for k1, o1 in enumerate(orbits):
                for k2, o2 in enumerate(orbits):
                    r1, r2 = residues[o1[0]], residues[o2[0]]
                    prod_orbit = orbit_of[index[fid.reduce(r1 * r2)]]
                    assert dr.mul(to_dr[k1], to_dr[k2]) == to_dr[prod_orbit]


def test_dr_iso_residue_examples():
    dr, mp = dr_iso_residue(Cycle.parse("6*inf"))
    assert dr.size == 6
    dr, mp = dr_iso_residue(Cycle.parse("12*inf"), PrimeSupport.parse("all-except:2"))
    assert dr.size == 6  # 3 * phi(4)
    dr, mp = dr_iso_residue(Cycle.parse("1*inf"))
    assert dr.size == 1


def test_dr_iso_residue_refusals():
    with pytest.raises(InputError):
        dr_iso_residue(Cycle.parse("6"))
    with pytest.raises(DensityRequiredError):
        dr_iso_residue(Cycle.parse("6*inf"), PrimeSupport.parse("explicit:2,3"))


RESIDUE_SUPPORTS = (
    "all",
    "all-except:2",
    "all-except:3,5",
    "all-except:7",
    "explicit:2,3!",
    "explicit:5!",
    "explicit:2!",
    "explicit:2,3,5,7,11,13!",
)


def _all_pairs_residue_oracle(cycle, support):
    """Oracle: the residue description checked pair by pair, as it was
    before the residue proof -- the same refusals, bijectivity onto
    (Z/n_P) x (Z/n^P)*, then every product read from a freshly built
    monoid's ``mul`` (symmetric by construction, so pairs i <= j)."""
    if not cycle.infinity:
        raise InputError("no real place")
    if not support.chebotarev_dense:
        raise DensityRequiredError("not dense")
    n = cycle.finite
    n_p = prod(p**e for p, e in factor(n).factors if support.allows_prime(p))
    n_cop = n // n_p
    dr = rayclass.DRMonoid(cycle, support)
    mapping = [(rep % n_p, rep % n_cop) for rep in dr.reps]
    if sorted(mapping) != [(a, b) for a in range(n_p) for b in range(n_cop) if gcd(b, n_cop) == 1]:
        raise InputError("not a bijection")
    for i in range(dr.size):
        for j in range(i, dr.size):
            (ai, bi), (aj, bj) = mapping[i], mapping[j]
            if mapping[dr.mul(i, j)] != (ai * aj % n_p, bi * bj % n_cop):
                raise InputError("not multiplicative")
    return mapping


def _outcome(call):
    """The value of call(), or the class of the refusal it raises."""
    try:
        return call()
    except (InputError, DensityRequiredError) as exc:
        return type(exc)


@pytest.mark.parametrize("text", RESIDUE_SUPPORTS)
def test_residue_proof_matches_the_all_pairs_oracle(text):
    support = PrimeSupport.parse(text)
    for n in range(1, 90):
        for infinity in (False, True):
            cycle = Cycle(None, n, infinity)
            expected = _outcome(lambda: _all_pairs_residue_oracle(cycle, support))
            assert _outcome(lambda: dr_iso_residue(cycle, support)[1]) == expected, (n, infinity)


@pytest.fixture
def fresh_monoids():
    """Monoids built afresh and dropped afterwards, so that a test may
    corrupt the cached ones."""
    rayclass._dr_monoid.cache_clear()
    yield
    rayclass._dr_monoid.cache_clear()


@pytest.mark.parametrize("text", ["all", "all-except:3,5"])
@pytest.mark.parametrize("corruption", ["reclass", "unclass", "move_rep"])
def test_residue_proof_refuses_each_corruption(text, corruption, fresh_monoids):
    support = PrimeSupport.parse(text)
    for n in range(2, 150):
        cycle = Cycle(None, n, True)
        rayclass._dr_monoid.cache_clear()
        dr = dr_monoid(cycle, support)
        classed = [x for x in range(n) if dr._res_index[x] is not None]
        x = classed[n % len(classed)]
        if corruption == "reclass":  # into another class
            dr._res_index[x] = (dr._res_index[x] + 1) % dr.size
        elif corruption == "unclass":
            dr._res_index[x] = None
        else:
            dr.reps[n % dr.size] += 1
        with pytest.raises(InputError, match="^residue description failed"):
            dr_iso_residue(cycle, support)


def _seed_product(dr, i, j, k):
    """Pre-seed the memo so that dr.mul(i, j) answers k."""
    dr._mul_cache[min(i, j), max(i, j)] = k


def _break_canonical_surjectivity():
    small = dr_monoid(Cycle.parse("2*inf"))
    small._res_index[1] = small._res_index[0]
    dr_canonical_map(Cycle.parse("4*inf"), Cycle.parse("2*inf"))


def _break_canonical_multiplicativity():
    # the canonical map classes the big side's products afresh and reads
    # the small side's from its memo, so a wrong product there is seen
    small = dr_monoid(Cycle.parse("2*inf"))
    k = small.mul(0, 0)
    _seed_product(small, 0, 0, next(x for x in range(small.size) if x != k))
    dr_canonical_map(Cycle.parse("4*inf"), Cycle.parse("2*inf"))


def _break_shift_injectivity():
    src, dst = dr_monoid(Cycle.parse("2*inf")), dr_monoid(Cycle.parse("4*inf"))
    r0, r1 = (2 * rep % 4 for rep in src.reps)
    dst._res_index[r1] = dst._res_index[r0]
    dr_shift_map(Cycle.parse("2*inf"), 2)


def _break_canonical_multiplicativity_onto_itself():
    # big and small are the same cached monoid, so the wrong product is
    # seen only because the big side is classed afresh
    dr = dr_monoid(Cycle.parse("6*inf"))
    _seed_product(dr, dr.identity, 1, 2)
    dr_canonical_map(Cycle.parse("6*inf"), Cycle.parse("6*inf"))


def _break_projection_after_shift():
    # swap the representatives of two unit classes of DR(3*inf) once its
    # products are all memoised: the classes and products stay right, so
    # the canonical map DR(6*inf) -> DR(3*inf) passes, but the shift by 2
    # now sends each of the two classes where the other belongs
    src = dr_monoid(Cycle.parse("3*inf"))
    src.table()
    i, j = [k for k, rep in enumerate(src.reps) if rep % 3][:2]
    src.reps[i], src.reps[j] = src.reps[j], src.reps[i]
    dr_shift_map(Cycle.parse("3*inf"), 2)


def _break_shift_after_projection():
    # a wrong product of 3 in DR(6*inf) with the right image in DR(2*inf):
    # only the square through DR(6*inf) sees it
    f, fa = Cycle.parse("2*inf"), Cycle.parse("6*inf")
    proj = dr_canonical_map(fa, f)
    dst = dr_monoid(fa)
    c = dst.class_of_ideal(3)
    k = dst.mul(c, 0)
    _seed_product(dst, c, 0, next(x for x in range(dst.size) if x != k and proj[x] == proj[k]))
    dr_shift_map(f, 3)


@pytest.mark.parametrize(
    "message, corrupt_and_check",
    [
        ("canonical map failed surjectivity", _break_canonical_surjectivity),
        ("canonical map failed multiplicativity", _break_canonical_multiplicativity),
        ("canonical map failed multiplicativity", _break_canonical_multiplicativity_onto_itself),
        ("shift map failed injectivity", _break_shift_injectivity),
        ("projection after shift is not multiplication by the class", _break_projection_after_shift),
        ("shift after projection is not multiplication by the class", _break_shift_after_projection),
    ],
    ids=["surjectivity", "multiplicativity", "multiplicativity-onto-itself", "injectivity", "projection-after-shift", "shift-after-projection"],
)
def test_change_of_conductor_checks_refuse_a_corrupt_monoid(message, corrupt_and_check, fresh_monoids):
    with pytest.raises(InputError, match=f"^{message}$"):
        corrupt_and_check()


def test_pushout_examples():
    assert dr_pushout_check(Cycle.parse("6*inf"))
    assert dr_pushout_check(Cycle.parse("1"))
    f2i = Cycle(GAUSS, principal_ideal(QuadInt(GAUSS, 2, 1)))
    assert dr_pushout_check(f2i)
    assert dr_monoid(f2i).size == 2


# nontrivial ray class groups, with and without the real place, over Q,
# Q(i) and Q(sqrt-5)
PUSHOUT_CYCLES = [
    Cycle.parse("12*inf"),
    Cycle.parse("20"),
    Cycle(GAUSS, ideal_from_int(GAUSS, 3)),
    Cycle(K5, ideal_from_int(K5, 3)),
]


def _pushout_residues(cycle):
    residues = rayclass._rational_residues if cycle.field is None else rayclass._quad_residues
    return residues(cycle, ALL_PRIMES)


@pytest.mark.parametrize("cycle", PUSHOUT_CYCLES, ids=lambda c: f"{c.field.d if c.field else 'Q'}:{c}")
def test_pushout_refuses_a_lift_in_the_wrong_class(cycle, fresh_monoids):
    """The second lift of a unit residue classed off the units: the values
    of the orbits through that residue are no longer well defined."""
    _, units, _, lifts = _pushout_residues(cycle)
    dr = dr_monoid(cycle)
    dr.table()  # every product memoized, so only the lookups below are wrong
    true_class = dr.class_of_ideal
    one = cycle._ideals._one
    off_units = [k for k, element in enumerate(dr.elements) if element.divisor != one]
    for a in units:
        second = list(lifts(a))[1]
        for wrong in off_units:
            dr.class_of_ideal = lambda ideal: wrong if ideal == second else true_class(ideal)  # noqa: B023
            assert dr_pushout_check(cycle) is False, (a, wrong)
    del dr.class_of_ideal
    assert dr_pushout_check(cycle) is True


@pytest.mark.parametrize("cycle", PUSHOUT_CYCLES, ids=lambda c: f"{c.field.d if c.field else 'Q'}:{c}")
def test_pushout_refuses_a_map_that_is_not_bijective(cycle, fresh_monoids):
    """Every product read as the identity: each orbit's value is well
    defined and the map is multiplicative, but it is not onto."""
    dr = dr_monoid(cycle)
    e = dr.identity
    dr._mul_cache.update({(i, j): e for i in range(dr.size) for j in range(i, dr.size)})
    assert dr.size > 1 and dr_pushout_check(cycle) is False


@pytest.mark.parametrize("cycle", PUSHOUT_CYCLES, ids=lambda c: f"{c.field.d if c.field else 'Q'}:{c}")
def test_pushout_refuses_a_wrong_product(cycle, fresh_monoids):
    """A wrong square of a class off the units: no orbit's value reads it
    (it multiplies by the class of a ray class representative, a unit), so
    only multiplicativity fails."""
    dr = dr_monoid(cycle)
    one = cycle._ideals._one
    i = next(k for k, element in enumerate(dr.elements) if element.divisor != one)
    dr._mul_cache[(i, i)] = (dr.mul(i, i) + 1) % dr.size
    assert dr_pushout_check(cycle) is False


@pytest.mark.parametrize("cycle", PUSHOUT_CYCLES, ids=lambda c: f"{c.field.d if c.field else 'Q'}:{c}")
def test_pushout_generates_each_residues_lifts_at_most_twice(cycle, monkeypatch):
    """Once for the unit classes and once for the image, not once per
    orbit member."""
    calls = collections.Counter()
    name = "_rational_residues" if cycle.field is None else "_quad_residues"
    residues = getattr(rayclass, name)

    def counted(*args):
        n_res, units, res_mul, lifts = residues(*args)

        def counted_lifts(a):
            calls[a] += 1
            return lifts(a)

        return n_res, units, res_mul, counted_lifts

    monkeypatch.setattr(rayclass, name, counted)
    assert dr_pushout_check(cycle)
    assert len(calls) == _pushout_residues(cycle)[0] and max(calls.values()) == 2


@pytest.mark.parametrize("cycle", PUSHOUT_CYCLES, ids=lambda c: f"{c.field.d if c.field else 'Q'}:{c}")
def test_pushout_multiplies_each_residue_pair_at_most_once(cycle, monkeypatch):
    """Each unit g times each residue a once, for every orbit through a,
    and no pair of residues again in the multiplicativity check."""
    calls = collections.Counter()
    name = "_rational_residues" if cycle.field is None else "_quad_residues"
    residues = getattr(rayclass, name)

    def counted(*args):
        n_res, units, res_mul, lifts = residues(*args)

        def counted_mul(x, y):
            calls[x, y] += 1
            return res_mul(x, y)

        return n_res, units, counted_mul, lifts

    monkeypatch.setattr(rayclass, name, counted)
    assert dr_pushout_check(cycle)
    n_res, units, _, _ = _pushout_residues(cycle)
    assert max(calls.values()) == 1
    assert {(g, a) for g in units for a in range(n_res)} <= calls.keys()


def _dense_order(m, infinity):
    """The order of the ray class group mod m (or m*inf) under a dense
    support: phi(m), halved by the sign for m > 2 without the real place."""
    phi = prod(p ** (e - 1) * (p - 1) for p, e in factor(m).factors)
    return phi if infinity or m <= 2 else phi // 2


@pytest.mark.parametrize("text", ["all", "all-except:2", "all-except:3,5"])
def test_dense_monoid_refused_by_its_count_before_any_build(text, monkeypatch, fresh_monoids):
    """A count one over the bound is refused with no group built; at the
    bound the monoid is built, with exactly that many elements.  The sums
    agree for every m <= 300, so (by Moebius inversion over the divisors)
    each group order is the formula's."""
    support = PrimeSupport.parse(text)
    groups = rayclass._ray_class_group
    for m in range(1, 301):
        for infinity in (False, True):
            cycle = Cycle(None, m, infinity)
            size = sum(_dense_order(m // d, infinity) for d in divisors(m) if support.supports_int(d))
            groups.cache_clear()
            monkeypatch.setattr(rayclass, "monoid_bound", lambda: size - 1)  # noqa: B023
            with pytest.raises(BoundExceededError, match="^ray class monoid larger than monoid bound$"):
                rayclass.DRMonoid(cycle, support)
            assert groups.cache_info().currsize == 0
            monkeypatch.setattr(rayclass, "monoid_bound", lambda: size)  # noqa: B023
            assert rayclass.DRMonoid(cycle, support).size == size
    groups.cache_clear()


@pytest.mark.parametrize("d", (-1, -2, -3, -5, -23))
def test_quadratic_ray_class_orders_match_the_exact_sequence(d):
    """|Cl(f)| = h * Phi(f) * |O* cap (1 + f)| / |O*|, from the exact
    sequence O* -> (O/f)* -> Cl(f) -> Cl -> 1 (Neukirch, Algebraic Number
    Theory, VI.1.9), for every f of norm <= 50."""
    field = QuadField(d)
    h = len(reduced_forms(field.disc))
    units = unit_group(field)
    for fid in ideals_of_norm_up_to(field, 50):
        phi = fid.norm()
        for q, _ in ideal_factor(fid):
            phi = phi // q.norm() * (q.norm() - 1)
        fixed = sum(fid.contains(u - field.one()) for u in units)
        assert ray_class_group(Cycle(field, fid)).order * len(units) == h * phi * fixed, str(fid)


def test_canonical_map_examples():
    m = dr_canonical_map(Cycle.parse("4*inf"), Cycle.parse("2*inf"))
    assert sorted(set(m)) == [0, 1]
    dr = dr_monoid(Cycle.parse("4*inf"))
    ident = dr_canonical_map(Cycle.parse("4*inf"), Cycle.parse("4*inf"))
    assert ident == list(range(dr.size))
    dr_canonical_map(Cycle.parse("6*inf"), Cycle.parse("3*inf"))
    with pytest.raises(InputError):
        dr_canonical_map(Cycle.parse("3*inf"), Cycle.parse("2*inf"))


def test_shift_map_examples():
    src = dr_monoid(Cycle.parse("2*inf"))
    assert dr_shift_map(Cycle.parse("3*inf"), 1) == list(range(dr_monoid(Cycle.parse("3*inf")).size))
    img = dr_shift_map(Cycle.parse("2*inf"), 2)
    assert len(set(img)) == src.size
    dst = dr_monoid(Cycle.parse("4*inf"))
    evens = {i for i, e in enumerate(dst.elements) if dst.reps[i] % 2 == 0}
    assert set(img) <= evens


def test_quadratic_routes_agree_sample():
    ideals = ideals_of_norm_up_to(GAUSS, 20)
    cycles = [Cycle(GAUSS, I) for I in ideals_of_norm_up_to(GAUSS, 8)]
    for f in cycles:
        for a in ideals:
            for b in ideals:
                assert f_equiv(a, b, f) == f_equiv_generator(a, b, f), (str(a), str(b), str(f))


def test_dr_json():
    dr = dr_monoid(Cycle.parse("4*inf"))
    data = dr.to_json()
    assert data["cycle"] == "4*inf" and len(data["elements"]) == dr.size
    assert len(data["table"]) == dr.size


def _eager_monoid(cycle, support):
    """Oracle: the monoid assembled eagerly, as it was before its elements
    were built on demand -- every cofactor group first, then one DRClass per
    element, the representatives read off the elements."""
    ideals = cycle._ideals
    divs = ideals._divisors(cycle.finite, support)
    groups = {d: ray_class_group(cycle.cofactor(d), support) for d in divs}
    elements, offsets = [], {}
    for d in divs:
        offsets[d] = len(elements)
        elements += [DRClass(d, u) for u in range(groups[d].order)]
    reps = [ideals._mul(e.divisor, groups[e.divisor].reps[e.unit_index]) for e in elements]
    res_index = [None] * cycle.finite
    for d, base in offsets.items():
        for c, u in enumerate(groups[d]._class_of):
            if u is not None:
                res_index[d * c] = base + u
    identity = offsets[1] + groups[1].identity
    return {
        "elements": elements,
        "size": len(elements),
        "reps": reps,
        "_offsets": offsets,
        "_res_index": res_index,
        "identity": identity,
    }


@pytest.mark.parametrize("text", ["all", "all-except:2", "all-except:3,5", "explicit:3,5!", "explicit:2,3!"])
def test_dr_monoid_matches_eager_oracle(text):
    """The residue index is filled one slice per divisor; under an explicit
    support some residues d*c have d listed and c a unit whose class P does
    not reach, and they stay None whatever a later divisor's slice writes."""
    support = PrimeSupport.parse(text)
    unreached = 0
    for n in [*range(1, 151), 255, 256, 997, 1000]:
        for inf in (False, True):
            cycle = Cycle(None, n, inf)
            expected = _eager_monoid(cycle, support)
            dr = rayclass.DRMonoid(cycle, support)
            assert {key: getattr(dr, key) for key in expected} == expected, (n, inf)
            for d in dr.divisors[1:]:
                units = [c for c in range(n // d) if gcd(c, n // d) == 1]
                unreached += sum(dr.class_groups[d]._class_of[c] is None for c in units)
    assert (unreached > 0) == (support.mode == "explicit")


@pytest.mark.parametrize("field", [GAUSS, K5], ids=["Q(i)", "Q(sqrt-5)"])
def test_quad_division_by_the_unit_ideal_is_skipped(field, monkeypatch):
    ideals = rayclass._quad_ideals(field)
    calls = []
    monkeypatch.setattr(rayclass.qf, "ideal_div", lambda a, d: calls.append(d) or ideal_div(a, d))
    for a in ideals_of_norm_up_to(field, 30):
        assert ideals._div(a, ideals._one) is a
        for d in ideal_divisors(a):
            assert ideals._div(a, d) == ideal_div(a, d)
    # every other division still goes through ideal_div, refusals included
    assert calls and ideals._one not in calls
    with pytest.raises(InputError):
        ideals._div(ideal_from_int(field, 3), ideal_from_int(field, 2))


def test_rational_group_table_checked_once(monkeypatch):
    calls = []

    def counted(table):
        calls.append(len(table))
        check_group_table(table)

    monkeypatch.setattr(rayclass, "check_group_table", counted)
    # the build proves the group by its cosets and builds no table; the
    # table is built and checked once, on first use, at every order
    for n, order in ((255, 128), (1000, 400)):
        group = RationalRayClassGroup(Cycle(None, n, True))
        assert group.order == order and calls == []
        assert group.table is group.table and calls == [order]
        calls.clear()
    # a table built from corrupt data is still refused
    broken = RationalRayClassGroup(Cycle(None, 1000, True))
    broken._class_of = list(broken._class_of)
    broken._class_of[3] = broken._class_of[7]
    with pytest.raises(InputError, match="permutation"):
        broken.table


ORACLE_SUPPORTS = ("all", "all-except:2", "all-except:3,5", "explicit:2,3!")


def _orbit_search_oracle(n: int, infinity: bool, support: PrimeSupport, products: list[int]):
    """Heads, classes and representatives of the rational ray class group
    mod n by a search per orbit: the orbits of the unit residues, the ones
    the listed primes reach under an explicit support, and the smallest
    supported integer in each reached orbit (under an explicit support, the
    first of the sorted ``products`` that lies in it)."""
    if n == 1:
        orbits = [(0,)]
    elif infinity:
        orbits = [(r,) for r in range(1, n) if gcd(r, n) == 1]
    else:
        orbits = [(r, n - r) if 2 * r < n else (r,) for r in range(1, n // 2 + 1) if gcd(r, n) == 1]
    orbit_of = [None] * n
    for k, orbit in enumerate(orbits):
        for x in orbit:
            orbit_of[x] = k
    if support.mode != "explicit":
        reps = [_smallest_supported(orbit, n, support) for orbit in orbits]
        return [orbit[0] for orbit in orbits], orbit_of, reps
    reached, frontier = {orbit_of[1 % n]}, [1 % n]
    while frontier:
        x = frontier.pop()
        for p in support._listed_primes:
            y = orbit_of[x * p % n]
            if y is not None and y not in reached:
                reached.add(y)
                frontier.append(orbits[y][0])
    achievable = sorted(reached)
    index = {o: k for k, o in enumerate(achievable)}
    class_of = [None if o is None else index.get(o) for o in orbit_of]
    reps = [next(m for m in products if m % n in orbits[o]) for o in achievable]
    return [orbits[o][0] for o in achievable], class_of, reps


@pytest.mark.parametrize("text", ORACLE_SUPPORTS)
def test_rational_groups_match_the_orbit_search(text):
    support = PrimeSupport.parse(text)
    products = _products_below(support._listed_primes, 2**400) if support.mode == "explicit" else []
    with time_limit(60):
        for n in range(1, 401):
            for infinity in (False, True):
                group = RationalRayClassGroup(Cycle(None, n, infinity), support)
                expected = _orbit_search_oracle(n, infinity, support, products)
                assert (group._heads, group._class_of, group.reps) == expected, (n, infinity)


def _corruptions(group):
    """Ways to break one class, one head or the reached subgroup, each a
    function of the group's (class_of, heads) and the reached subgroup
    (None under a dense support)."""
    n = group.cycle.finite
    classed = [r for r in range(n) if group._class_of[r] is not None]
    order = len(group._heads)
    r = classed[-1]
    folded = not group.cycle.infinity
    # unclassed residues whose coset has two members, like a head's
    outside = [x for x in range(n) if group._class_of[x] is None and not (folded and 2 * x % n == 0)]

    def reclass(class_of, heads, reached):
        class_of[r] = (class_of[r] + 1) % order if order > 1 else None

    def rehead(class_of, heads, reached):
        heads[-1] = heads[0] if order > 1 else n

    def add_residue(class_of, heads, reached):
        class_of[next(x for x in range(n) if class_of[x] is None)] = 0

    def drop_class(class_of, heads, reached):
        for x in range(n):
            if class_of[x] == order - 1:
                class_of[x] = None
        heads.pop()

    def drop_head(class_of, heads, reached):
        heads.pop()

    def swap_classes(class_of, heads, reached):  # the identity leaves slot 0
        heads[0], heads[1] = heads[1], heads[0]
        class_of[:] = [{0: 1, 1: 0}.get(k, k) for k in class_of]

    def move_class(class_of, heads, reached):  # onto residues outside C
        h, x = heads[-1], outside[0]
        class_of[h] = class_of[-h % n if folded else h] = None
        class_of[x] = class_of[-x % n if folded else x] = order - 1
        heads[-1] = x

    def shrink_reached(class_of, heads, reached):
        reached.remove(r)

    def grow_reached(class_of, heads, reached):
        reached.add(next(x for x in range(n) if x not in reached))

    out = [reclass, rehead, drop_class, drop_head]
    if len(classed) < n:
        out.append(add_residue)
    if order > 1:
        out.append(swap_classes)
    if outside:
        out.append(move_class)
    if group.support.mode == "explicit":
        out.append(shrink_reached)
        if len(classed) < n:
            out.append(grow_reached)
    return out


@pytest.mark.parametrize("text", ORACLE_SUPPORTS)
def test_coset_check_refuses_each_corruption(text, monkeypatch):
    support = PrimeSupport.parse(text)
    check = RationalRayClassGroup._check_cosets
    for n in list(range(1, 40)) + [255, 256, 997, 1000]:
        for infinity in (False, True):
            cycle = Cycle(None, n, infinity)
            for corrupt in _corruptions(RationalRayClassGroup(cycle, support)):

                def corrupted_check(group, phi, reached, corrupt=corrupt):
                    group._class_of, group._heads = list(group._class_of), list(group._heads)
                    reached = None if reached is None else set(reached)
                    corrupt(group._class_of, group._heads, reached)
                    check(group, phi, reached)

                monkeypatch.setattr(RationalRayClassGroup, "_check_cosets", corrupted_check)
                with pytest.raises(InputError, match="cosets"):
                    RationalRayClassGroup(cycle, support)
                monkeypatch.setattr(RationalRayClassGroup, "_check_cosets", check)


def test_oversized_monoid_refused_before_building_every_group(monkeypatch):
    groups = rayclass._ray_class_group
    groups.cache_clear()
    rayclass._dr_monoid.cache_clear()
    # phi(1200000) = 320000 elements in the first cofactor group alone; a
    # dense support's monoid is counted by phi and refused before any build
    with pytest.raises(BoundExceededError, match="^ray class monoid larger than monoid bound$"):
        dr_monoid(Cycle(None, 1_200_000, True))
    assert groups.cache_info().currsize == 0
    # an explicit support's groups are counted as they are built, and the
    # count that passes the bound is the last one built: 16 + 8 > 20
    monkeypatch.setenv("LAMBDA_FORGE_BOUND", "20")
    explicit = PrimeSupport.parse("explicit:2,3,5,7,11,13!")
    with pytest.raises(BoundExceededError, match="^ray class monoid larger than monoid bound$"):
        dr_monoid(Cycle(None, 60, True), explicit)
    built = groups.cache_info()
    assert built.currsize == 2
    # exactly the groups of 60 and 30 were built: both are hits now
    assert ray_class_group(Cycle(None, 60, True), explicit).order == 16
    assert ray_class_group(Cycle(None, 30, True), explicit).order == 8
    after = groups.cache_info()
    assert after.hits == built.hits + 2 and after.misses == built.misses and after.currsize == 2
    groups.cache_clear()
    rayclass._dr_monoid.cache_clear()


def test_cycle_and_support_hash_cached_and_consistent():
    pairs = [
        (Cycle.parse("12*inf"), Cycle(None, 12, True)),
        (Cycle.parse("7"), Cycle(None, 7)),
        (Cycle(GAUSS, ideal_from_int(GAUSS, 6)), Cycle(GAUSS, ideal_from_int(GAUSS, 6))),
        (PrimeSupport.parse("explicit:2,3!"), PrimeSupport("explicit", frozenset({3, 2}), True)),
        (PrimeSupport.parse("all-except:5"), PrimeSupport("all-except", frozenset({5}))),
    ]
    for x, y in pairs:
        assert x == y and x is not y
        assert hash(x) == hash(y) == hash(tuple(getattr(x, k) for k in x.__dataclass_fields__))
        # hashes of strings and None differ between processes: a pickle
        # carries the fields only and is rebuilt through the constructor
        data = pickle.dumps(x)
        assert b"_hash" not in data
        copy = pickle.loads(data)
        assert copy == x and hash(copy) == hash(x)
    assert Cycle.parse("12*inf") != Cycle.parse("12") and PrimeSupport() != PrimeSupport.parse("all-except:2")
    # label lookups with equal but distinct keys still hit the memo
    f, support = Cycle.parse("40*inf"), PrimeSupport.parse("all-except:3")
    f_label(7, f, support)
    hits = _label.cache_info().hits
    assert f_label(7, Cycle(None, 40, True), PrimeSupport("all-except", frozenset({3}))) == f_label(7, f, support)
    assert _label.cache_info().hits == hits + 2
    a = principal_ideal(QuadInt(GAUSS, 3, 2))
    fq = Cycle(GAUSS, ideal_from_int(GAUSS, 3))
    f_label(a, fq)
    hits = _label.cache_info().hits
    assert f_label(a, Cycle(GAUSS, ideal_from_int(GAUSS, 3))) == f_label(a, fq)
    assert _label.cache_info().hits == hits + 2


ROOT = Path(__file__).resolve().parent.parent

# Installing the tracer patches the lambda_forge modules for the whole
# process, so it runs in a child interpreter (-B: nothing is written under
# perfbench/).
TRACED_BUILDS = textwrap.dedent(
    """
    import json, sys
    sys.path[:0] = sys.argv[1:]
    from lambda_forge import quadfield, rayclass
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    gauss = quadfield.QuadField(-1)
    cycles = [rayclass.Cycle(None, 12, True), rayclass.Cycle(gauss, quadfield.ideal_from_int(gauss, 3))]

    def counts(kind):
        metrics = layer_metrics(tracer.aggregates(), 1.0)
        return metrics[f"rayclass.{kind}_requests"][0], metrics[f"rayclass.{kind}_builds"][0]

    for f in cycles + cycles:
        rayclass.ray_class_group(f)
    groups = counts("group")
    monoids = []
    for f in cycles + cycles:
        rayclass.dr_monoid(f)
        monoids.append(counts("monoid"))
    print(json.dumps({"groups": groups, "monoids": monoids}))
    """
)


def test_tracer_counts_group_and_monoid_builds():
    # perfbench/tracer.py counts builds through RayClassGroup.__init__ and
    # DRMonoid.__init__: a subclass with its own __init__, or a rename,
    # would zero its build counters
    proc = subprocess.run(
        [sys.executable, "-B", "-c", TRACED_BUILDS, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    assert counts["groups"] == [4, 2]
    # a repeated request adds a request but no build
    assert counts["monoids"] == [[1, 1], [2, 2], [3, 2], [4, 2]]


def test_label_miss_classifies_the_cofactor_without_a_coprimality_test(monkeypatch):
    """gcd(a/d, f/d) = gcd(a, f)/d = 1: a ``_label`` miss classifies the
    cofactor with no gcd beyond the label's own, through the cache that a
    direct ``class_of_ideal`` reads; the direct call keeps its test and
    message."""
    f = Cycle(GAUSS, ideal_from_int(GAUSS, 15))
    a = ideal_mul(ideal_from_int(GAUSS, 3), principal_ideal(QuadInt(GAUSS, 3, 2)))
    d = ideal_from_int(GAUSS, 3)
    group = rayclass._cofactor_group(f, d, ALL_PRIMES)
    cofactor = ideal_div(a, d)
    group._class_cache.pop(cofactor, None)
    _label.cache_clear()
    ideals, calls = f._ideals, []
    gcd_of = ideals._gcd
    monkeypatch.setattr(ideals, "_gcd", lambda x, y: calls.append((x, y)) or gcd_of(x, y))
    label = f_label(a, f)
    assert calls == [(a, f.finite)] and label[0] == d
    assert group._class_cache[cofactor] == label[1] == group.class_of_ideal(cofactor)
    b = principal_ideal(QuadInt(GAUSS, 4, 1))
    group._class_cache.pop(b, None)
    calls.clear()
    assert group.class_of_ideal(b) == group._class_cache[b] and len(calls) == 1
    with pytest.raises(InputError, match="^ideal not coprime to the conductor$"):
        group.class_of_ideal(principal_ideal(QuadInt(GAUSS, 2, 1)))
    # over Q the cofactor's class is read off its residue, with no gcd at all
    fq = Cycle.parse("40*inf")
    f_label(7, fq)
    monkeypatch.setattr(rayclass, "gcd", lambda x, y: calls.append((x, y)) or gcd(x, y))
    calls.clear()
    assert f_label(3 * 47, fq)[0] == 1 and calls == []
    with pytest.raises(InputError, match="^2 is not coprime to the conductor 40$"):
        rayclass.ray_class_group(fq).class_of_ideal(2)


GAUSS_2 = Cycle(GAUSS, ideal_from_int(GAUSS, 2))
EXCEPT_2 = PrimeSupport("all-except", frozenset({2}))

RAYCLASS_REFUSALS = [
    (Cycle, ("Q", 4), InputError("a cycle's field must be a QuadField, or None for the rationals")),
    (Cycle, (GAUSS, ideal_from_int(GAUSS, 2), True), InputError("imaginary quadratic cycles have no real places")),
    (Cycle(None, 4).divides, (GAUSS_2,), InputError("cycles over different fields")),
    (PrimeSupport, ("some",), InputError("unknown support mode 'some'")),
    (PrimeSupport, ("all", frozenset({2})), InputError('mode "all" takes no prime list')),
    (cycle_lcm, (GAUSS_2, Cycle(None, 2)), InputError("this operation is rational-only")),
    (ray_class_group, (GAUSS_2, EXCEPT_2), InputError('quadratic fields support only mode "all"')),
    (f_label, (ideal_from_int(GAUSS, 3), GAUSS_2, EXCEPT_2), InputError('quadratic fields support only mode "all"')),
    (ray_class_group, (Cycle(GAUSS, ideal_from_int(GAUSS, 1001)),), BoundExceededError("conductor norm 1002001 over residue bound")),
    (dr_pushout_check, (Cycle(None, 4), PrimeSupport("explicit", frozenset({3}))), DensityRequiredError("the pushout description needs a dense support")),
]


@pytest.mark.parametrize("call, args, error", RAYCLASS_REFUSALS, ids=[row[0].__name__ for row in RAYCLASS_REFUSALS])
def test_refusals(call, args, error):
    """Each refusal a caller can send, with its type and message."""
    with pytest.raises(type(error)) as exc:
        call(*args)
    assert str(exc.value) == str(error)


def test_quadratic_group_over_the_monoid_bound_refused(monkeypatch):
    """Under a bound of 100, a prime of norm 71 in Q(sqrt-23) passes the
    norm check, but its 3 * 35 classes do not."""
    field = QuadField(-23)
    prime = next(P for P, _, _ in primes_above(71, field))
    monkeypatch.setenv("LAMBDA_FORGE_BOUND", "100")
    with pytest.raises(BoundExceededError, match="^ray class group larger than monoid bound$"):
        ray_class_group(Cycle(field, prime))
