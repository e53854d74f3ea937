import random

import pytest

from lambda_forge.errors import DensityRequiredError, InputError
from lambda_forge.intlinalg import factor
from lambda_forge.quadfield import (
    QuadField,
    QuadInt,
    ideal_from_int,
    ideals_of_norm_up_to,
    principal_ideal,
    unit_group,
)
from lambda_forge.rayclass import (
    Cycle,
    PrimeSupport,
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
    free_dr_set,
    ray_class_group,
)
from lambda_forge.rayclass import _check_group_table

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
    _check_group_table(((0, 1, 2), (1, 2, 0), (2, 0, 1)))
    _check_group_table(())
    with pytest.raises(InputError, match="permutation"):
        _check_group_table(((0, 1, 2), (1, 1, 0), (2, 0, 1)))
    with pytest.raises(InputError, match="permutation"):
        _check_group_table(((0, 1, 2), (1, 2), (2, 0, 1)))
    with pytest.raises(InputError, match="permutation"):
        _check_group_table(((0, 1, 2), (1, 2, 0, 1), (2, 0, 1)))
    with pytest.raises(InputError, match="abelian"):
        _check_group_table(((0, 1, 2), (2, 0, 1), (1, 2, 0)))


@pytest.mark.parametrize("support", ["all", "all-except:3"])
@pytest.mark.parametrize("bad", [0, -2, 2.0])
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
        cl.class_of_int(5)  # 5 is not supported


def test_explicit_support_reps_exist():
    # -1 mod 7 is no power of 2: the orbit {1, 6} is represented by 1 alone
    cl = ray_class_group(Cycle.parse("7"), PrimeSupport.parse("explicit:2"))
    assert cl.is_full and cl.reps == [1, 2, 4]
    # a listed entry that is not prime generates nothing
    cl = ray_class_group(Cycle.parse("5*inf"), PrimeSupport.parse("explicit:4"))
    assert cl.order == 1 and cl.reps == [1]
    assert dr_monoid(Cycle.parse("5*inf"), PrimeSupport.parse("explicit:4")).size == 1


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
