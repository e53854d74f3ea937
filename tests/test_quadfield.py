import random

import pytest

from lambda_forge.errors import BoundExceededError, InputError
from lambda_forge.intlinalg import is_prime
from lambda_forge.quadfield import (
    QuadField,
    QuadIdeal,
    QuadInt,
    class_group,
    ideal_div,
    ideal_from_int,
    ideal_from_module,
    ideal_gcd,
    ideal_mul,
    is_principal,
    norm_solutions,
    primes_above,
    principal_ideal,
    reduced_forms,
    residue_units,
    unit_group,
)

GAUSS = QuadField(-1)
EISEN = QuadField(-3)
K5 = QuadField(-5)


def test_field_construction():
    assert GAUSS.disc == -4
    assert EISEN.disc == -3
    assert K5.disc == -20
    with pytest.raises(InputError):
        QuadField(5)
    with pytest.raises(InputError):
        QuadField(-4)


def test_ideal_mul_examples():
    one_plus_i = QuadInt(GAUSS, 1, 1)
    assert ideal_mul(principal_ideal(one_plus_i), principal_ideal(one_plus_i)) == ideal_from_int(GAUSS, 2)
    a = principal_ideal(QuadInt(GAUSS, 2, 1))
    b = principal_ideal(QuadInt(GAUSS, 2, -1))
    assert ideal_mul(a, b) == ideal_from_int(GAUSS, 5)
    ident = ideal_from_int(GAUSS, 1)
    assert ideal_mul(ident, a) == a


def test_ideal_gcd_examples():
    ident = ideal_from_int(GAUSS, 1)
    a = principal_ideal(QuadInt(GAUSS, 2, 1))
    assert ideal_gcd(a, ident) == ident
    assert ideal_gcd(ideal_from_int(GAUSS, 2), ideal_from_int(GAUSS, 3)) == ident
    cube = principal_ideal(QuadInt(GAUSS, 1, 1) * QuadInt(GAUSS, 1, 1) * QuadInt(GAUSS, 1, 1))
    assert ideal_gcd(cube, ideal_from_int(GAUSS, 2)) == ideal_from_int(GAUSS, 2)


def test_norm_multiplicativity():
    rng = random.Random(5)
    for field in (GAUSS, EISEN, K5, QuadField(-7), QuadField(-23)):
        ideals = []
        for _ in range(8):
            x = QuadInt(field, rng.randrange(-5, 6), rng.randrange(-5, 6))
            if not x.is_zero():
                ideals.append(principal_ideal(x))
        for x in ideals:
            for y in ideals:
                assert ideal_mul(x, y).norm() == x.norm() * y.norm()
                assert ideal_gcd(x, ideal_mul(x, y)) == x  # gcd absorbs


def test_primes_above_examples():
    fives = primes_above(5, GAUSS)
    assert len(fives) == 2 and all(q.norm() == 5 for q, _, _ in fives)
    threes = primes_above(3, GAUSS)
    assert len(threes) == 1 and threes[0][0].norm() == 9 and threes[0][2] == 2
    twos = primes_above(2, GAUSS)
    assert len(twos) == 1 and twos[0][1] == 2 and twos[0][0].norm() == 2


def test_primes_above_products():
    for field in (GAUSS, EISEN, K5, QuadField(-23)):
        for p in range(2, 101):
            if not is_prime(p):
                continue
            prod = ideal_from_int(field, 1)
            for q, e, f in primes_above(p, field):
                assert q.norm() == p**f
                for _ in range(e):
                    prod = ideal_mul(prod, q)
            assert prod == ideal_from_int(field, p)


def test_is_principal_examples():
    g = is_principal(ideal_from_int(GAUSS, 7))
    assert g is not None and principal_ideal(g) == ideal_from_int(GAUSS, 7)
    p2 = ideal_from_module(K5, [QuadInt(K5, 2, 0), QuadInt(K5, 1, 1)])
    assert is_principal(p2) is None
    above5 = primes_above(5, GAUSS)[0][0]
    g = is_principal(above5)
    assert g is not None and g.norm() == 5 and principal_ideal(g) == above5


def test_is_principal_hnf_agreement():
    rng = random.Random(11)
    for field in (GAUSS, K5):
        for _ in range(40):
            x = QuadInt(field, rng.randrange(-6, 7), rng.randrange(-6, 7))
            if x.is_zero():
                continue
            ideal = principal_ideal(x)
            g = is_principal(ideal)
            assert g is not None
            assert principal_ideal(g) == ideal


def test_class_groups():
    assert class_group(GAUSS).order == 1
    assert class_group(K5).order == 2
    assert class_group(QuadField(-23)).order == 3


def test_class_numbers_match_reduced_forms():
    for d in range(-1, -50, -1):
        try:
            field = QuadField(d)
        except InputError:
            continue
        if field.disc < -200:
            continue
        cg = class_group(field)
        assert cg.order == len(reduced_forms(field.disc))
        # abelian group sanity is checked at construction; identity slot:
        assert is_principal(cg.reps[0]) is not None


def test_unit_groups():
    assert len(unit_group(GAUSS)) == 4
    assert len(unit_group(EISEN)) == 6
    assert len(unit_group(QuadField(-7))) == 2
    for field in (GAUSS, EISEN, QuadField(-7)):
        for u in unit_group(field):
            assert u.norm() == 1


def test_residue_units_examples():
    assert residue_units(ideal_from_int(GAUSS, 1)).order == 1
    assert residue_units(principal_ideal(QuadInt(GAUSS, 2, 1))).order == 4
    assert residue_units(ideal_from_int(GAUSS, 2)).order == 2


def test_residue_units_bound(monkeypatch):
    monkeypatch.setenv("LAMBDA_FORGE_BOUND", "10")
    with pytest.raises(BoundExceededError):
        residue_units(ideal_from_int(GAUSS, 7))


def test_ideal_serialization():
    a = principal_ideal(QuadInt(GAUSS, 2, 1))
    assert str(a) == "[5, 2+w, 1]"
    assert QuadIdeal.parse(GAUSS, str(a)) == a
    assert QuadIdeal.from_json(GAUSS, a.to_json()) == a
    assert QuadField.from_json(GAUSS.to_json()) == GAUSS


def test_ideal_div_exactness():
    a = ideal_from_int(GAUSS, 6)
    b = ideal_from_int(GAUSS, 2)
    assert ideal_div(a, b) == ideal_from_int(GAUSS, 3)
    with pytest.raises(InputError):
        ideal_div(ideal_from_int(GAUSS, 3), ideal_from_int(GAUSS, 2))


def test_norm_solutions_complete():
    # brute-force oracle on a small box
    for field in (GAUSS, K5):
        for n in range(1, 30):
            got = set(norm_solutions(field, n))
            brute = {
                QuadInt(field, a, b)
                for a in range(-40, 41)
                for b in range(-40, 41)
                if QuadInt(field, a, b).norm() == n
            }
            assert got == brute
