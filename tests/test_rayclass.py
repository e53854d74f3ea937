import contextlib
import heapq
import json
import pickle
import random
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from lambda_forge import rayclass
from lambda_forge.errors import BoundExceededError, DensityRequiredError, InputError
from lambda_forge.intlinalg import factor
from lambda_forge.quadfield import (
    QuadField,
    QuadInt,
    check_group_table,
    ideal_div,
    ideal_divides,
    ideal_divisors,
    ideal_from_int,
    ideal_mul,
    ideals_of_norm_up_to,
    principal_ideal,
    unit_group,
)
from lambda_forge.rayclass import (
    Cycle,
    DRClass,
    PrimeSupport,
    RationalRayClassGroup,
    cycle_gcd,
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
    free_dr_set,
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
    assert cycle_gcd(a, b) == Cycle.parse("2")
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


def test_pushout_examples():
    assert dr_pushout_check(Cycle.parse("6*inf"))
    assert dr_pushout_check(Cycle.parse("1"))
    f2i = Cycle(GAUSS, principal_ideal(QuadInt(GAUSS, 2, 1)))
    assert dr_pushout_check(f2i)
    assert dr_monoid(f2i).size == 2


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


def test_free_dr_set():
    dr, action, pt = free_dr_set(Cycle.parse("1"))
    assert dr.size == 1 and action == [[0]]
    dr, action, pt = free_dr_set(Cycle.parse("2*inf"))
    assert dr.size == 2
    assert sorted(action[i][pt] for i in range(dr.size)) == [0, 1]  # orbit is everything


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


@pytest.mark.parametrize("text", ["all", "all-except:2", "all-except:3,5", "explicit:3,5!"])
def test_dr_monoid_matches_eager_oracle(text):
    support = PrimeSupport.parse(text)
    for n in range(1, 151):
        for inf in (False, True):
            cycle = Cycle(None, n, inf)
            expected = _eager_monoid(cycle, support)
            dr = rayclass.DRMonoid(cycle, support)
            assert {key: getattr(dr, key) for key in expected} == expected, (n, inf)


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
    # order <= 128: built and checked once, at build time
    small = RationalRayClassGroup(Cycle(None, 255, True))
    assert small.order == 128 and calls == [128]
    assert small.table is small.table and calls == [128]
    # larger: checked once, on first use
    big = RationalRayClassGroup(Cycle(None, 1000, True))
    assert big.order == 400 and calls == [128]
    assert big.table is big.table and calls == [128, 400]
    # a table built from corrupt data is still refused
    broken = RationalRayClassGroup(Cycle(None, 1000, True))
    broken._class_of = list(broken._class_of)
    broken._class_of[3] = broken._class_of[7]
    with pytest.raises(InputError, match="permutation"):
        broken.table


def test_oversized_monoid_refused_before_building_every_group(monkeypatch):
    groups = rayclass._ray_class_group
    groups.cache_clear()
    rayclass._dr_monoid.cache_clear()
    # phi(1200000) = 320000 elements in the first cofactor group alone
    with pytest.raises(BoundExceededError, match="^ray class monoid larger than monoid bound$"):
        dr_monoid(Cycle(None, 1_200_000, True))
    assert groups.cache_info().currsize <= 1
    # the count that passes the bound is the last one built: 16 + 8 > 20
    groups.cache_clear()
    monkeypatch.setenv("LAMBDA_FORGE_BOUND", "20")
    with pytest.raises(BoundExceededError, match="^ray class monoid larger than monoid bound$"):
        dr_monoid(Cycle(None, 60, True))
    built = groups.cache_info()
    assert built.currsize == 2
    # exactly the groups of 60 and 30 were built: both are hits now
    ray_class_group(Cycle(None, 60, True))
    ray_class_group(Cycle(None, 30, True))
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
