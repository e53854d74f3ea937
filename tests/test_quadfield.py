import random
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_forge import quadfield, rayclass
from lambda_forge.errors import BoundExceededError, InputError
from lambda_forge.intlinalg import divisors, hnf_rows, is_prime
from lambda_forge.quadfield import (
    QuadField,
    QuadIdeal,
    QuadInt,
    class_group,
    generator_pairs,
    ideal_div,
    ideal_divides,
    ideal_from_int,
    ideal_gcd,
    ideal_generators,
    ideal_mul,
    ideal_mul_conj,
    ideals_of_norm_up_to,
    is_principal,
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
    p2 = QuadIdeal(K5, 2, 1, 1)  # Z*2 + Z*(1 + w)
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


# ---------------------------------------------------------------------------
# Oracles: general-echelon ideal arithmetic, to check the closed forms and
# the composition kernel against.


def _echelon_ideal(field, gens):
    rows = [[g.b, g.a] for g in gens if not g.is_zero()]  # (w, 1) coordinates
    if not rows:
        raise InputError("zero module is not an ideal")
    basis = hnf_rows(rows, 2)
    if len(basis) != 2:
        raise InputError("module has rank < 2, not an ideal")
    (v, bq), (z, aq) = basis
    if z != 0:
        raise AssertionError("echelon basis is not upper triangular")
    if aq % v != 0 or bq % v != 0:
        raise InputError("module is not closed under multiplication by w")
    c, a, b = v, aq // v, (bq // v) % (aq // v)
    ideal = QuadIdeal(field, a, b, c)
    w = field.omega()
    for g in ideal.basis():
        if not ideal.contains(g * w):
            raise InputError("module is not closed under multiplication by w")
    return ideal


def _oracle_conj(x):
    g1, g2 = x.basis()
    return _echelon_ideal(x.field, [g1.conj(), g2.conj()])


def _oracle_principal(x):
    if x.is_zero():
        raise InputError("zero element generates no ideal")
    return _echelon_ideal(x.field, [x, x * x.field.omega()])


def _oracle_mul(x, y):
    g1, g2 = x.basis()
    h1, h2 = y.basis()
    return _echelon_ideal(x.field, [g1 * h1, g1 * h2, g2 * h1, g2 * h2])


def _oracle_gcd(x, y):
    return _echelon_ideal(x.field, list(x.basis()) + list(y.basis()))


def _oracle_div(x, y):
    num = _oracle_mul(x, _oracle_conj(y))
    n = y.norm()
    g1, g2 = num.basis()
    for g in (g1, g2):
        if g.a % n or g.b % n:
            raise InputError("ideal division is not exact")
    return _echelon_ideal(x.field, [QuadInt(x.field, g.a // n, g.b // n) for g in (g1, g2)])


def _outcome(fn, *args):
    """The result, or the exception's type and message."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


DIFF_FIELDS = (GAUSS, K5, EISEN)


@pytest.mark.parametrize("field", DIFF_FIELDS, ids=lambda f: f"d={f.d}")
def test_ideal_arithmetic_matches_echelon(field):
    """Every pair of ideals of norm <= 60: products, sums, exact and
    inexact quotients, conjugates and generators agree with the echelon
    path."""
    ideals = ideals_of_norm_up_to(field, 60)
    inexact = 0
    for x in ideals:
        assert x.conj() == _oracle_conj(x)
        assert ideal_mul(x, x.conj()) == ideal_from_int(field, x.norm())
        g = is_principal(x)
        if g is not None:
            assert principal_ideal(g) == _oracle_principal(g) == x
        for y in ideals:
            xy = ideal_mul(x, y)
            assert xy == _oracle_mul(x, y)
            assert ideal_gcd(x, y) == _oracle_gcd(x, y)
            assert ideal_div(xy, y) == _oracle_div(xy, y) == x
            got = _outcome(ideal_div, x, y)
            assert got == _outcome(_oracle_div, x, y)
            inexact += isinstance(got, tuple)
    assert inexact > 0




def _scan_index_of(group, x):
    """The linear scan that the residue dict replaced."""
    r = group.modulus.reduce(x)
    for k, e in enumerate(group.elements):
        if e == r:
            return k
    raise InputError("element is not a unit residue")


@pytest.mark.parametrize("field", DIFF_FIELDS, ids=lambda f: f"d={f.d}")
def test_residue_index_matches_scan(field):
    for f in ideals_of_norm_up_to(field, 50):
        group = residue_units(f)
        shift = f.basis()[1]
        for r in f.residues():
            for x in (r, r + shift, r - shift.scale(3)):
                assert _outcome(group.index_of, x) == _outcome(_scan_index_of, group, x)


# ---------------------------------------------------------------------------
# Oracles: the norm-ellipse scans that lattice reduction replaced (on the
# full norm, and on the primitive part), and the O(B^2) ideal enumeration
# that the lazy ideal stream replaced.

ORACLE_FIELDS = (GAUSS, K5, EISEN, QuadField(-23))


def norm_solutions(field, n):
    """All integers of the field with norm exactly n (n >= 0).

    The norm form is positive definite: 4*N(u+v*w) = (2u+tv)^2 + |disc|*v^2,
    so the search region is a finite ellipse.
    """
    if n < 0:
        return []
    if n == 0:
        return [QuadInt(field, 0, 0)]
    t = field.trace_w
    absd = -field.disc
    out = []
    vmax = isqrt(4 * n // absd)
    for v in range(-vmax, vmax + 1):
        rem = 4 * n - absd * v * v
        s = isqrt(rem)
        if s * s != rem:
            continue
        for sign in ((s, -s) if s else (s,)):
            if (sign - t * v) % 2 == 0:
                out.append(QuadInt(field, (sign - t * v) // 2, v))
    return out


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


def _scan_ideal_generators(ideal):
    """The primitive-part scan: the elements of norm a in J = [a, b + w],
    i.e. with a | u - b*v, scaled by c."""
    a, b, c = ideal.a, ideal.b, ideal.c
    return tuple(x.scale(c) for x in norm_solutions(ideal.field, a) if (x.a - b * x.b) % a == 0)


def _scan_is_principal(ideal):
    for x in norm_solutions(ideal.field, ideal.norm()):
        if ideal.contains(x):
            return x
    return None


def _scan_generators_of(ideal):
    return tuple(x for x in norm_solutions(ideal.field, ideal.norm()) if ideal.contains(x))


def _scan_ideals_of_norm_up_to(field, bound):
    out = []
    for a in range(1, bound + 1):
        t, n = field.trace_w, field.norm_w
        for b in range(a):
            if (b * b + t * b + n) % a == 0:
                cmax = isqrt(bound // a)
                for c in range(1, cmax + 1):
                    out.append(QuadIdeal(field, a, b, c))
    return sorted(out, key=lambda i: (i.norm(), i.a, i.b, i.c))


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f"d={f.d}")
def test_principality_matches_full_norm_scan(field):
    """Same generator, and the same generators in the same order, for every
    ideal of norm <= 200, non-principal ones and c > 1 included."""
    ideals = _scan_ideals_of_norm_up_to(field, 200)
    assert any(i.c > 1 for i in ideals)
    outcomes = set()
    for ideal in ideals:
        want = _scan_generators_of(ideal)
        assert is_principal(ideal) == _scan_is_principal(ideal) == (want[0] if want else None)
        assert ideal_generators(ideal) == want
        outcomes.add((ideal.c > 1, bool(want)))
    expect = {(False, True), (True, True)}
    if class_group(field).order > 1:
        expect |= {(False, False), (True, False)}
    assert outcomes == expect


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f"d={f.d}")
def test_ideal_stream_matches_enumeration(field):
    for bound in range(-1, 201):
        assert ideals_of_norm_up_to(field, bound) == _scan_ideals_of_norm_up_to(field, bound), bound


def _doubling_find_reps(group, size):
    """The representative search that re-scanned from norm 1 at each
    doubling of its bound."""
    fid = group.cycle.finite
    one = ideal_from_int(fid.field, 1)
    reps = {}
    bound = 2
    while len(reps) < size:
        bound *= 2
        if bound > 16 * (fid.norm() + 2) * (size + 2):
            raise BoundExceededError("could not find ray class representatives")
        for ideal in _scan_ideals_of_norm_up_to(fid.field, bound):
            if len(reps) == size:
                break
            if ideal_gcd(ideal, fid) != one:
                continue
            k = group.class_of_ideal(ideal)
            if k not in reps:
                reps[k] = ideal
    return [reps[k] for k in range(size)]


def _sorted_coprime_class_rep(cl, k, nf):
    if gcd(cl.reps[k].norm(), nf) == 1:
        return cl.reps[k]
    for ideal in _scan_ideals_of_norm_up_to(cl.field, 16 * (nf + 2)):
        if gcd(ideal.norm(), nf) == 1 and _scan_is_principal(ideal_mul(ideal, cl.reps[k].conj())) is not None:
            return ideal
    raise BoundExceededError("no coprime class representative found")


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f"d={f.d}")
def test_ray_class_reps_match_doubling_search(field):
    cl = class_group(field)
    for fid in _scan_ideals_of_norm_up_to(field, 25):
        group = rayclass.ray_class_group(rayclass.Cycle(field, fid))
        assert group._base == [_sorted_coprime_class_rep(cl, k, fid.norm()) for k in range(cl.order)], str(fid)
        assert group.reps == _doubling_find_reps(group, group.order), str(fid)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f"d={f.d}")
def test_ray_class_rep_search_limit(field):
    """Asked for one class more than there are, both searches classify the
    same ideals before they refuse."""
    group = rayclass.ray_class_group(rayclass.Cycle(field, primes_above(2, field)[0][0]))
    seen = []
    classify = group.class_of_ideal
    group.class_of_ideal = lambda ideal: seen.append(ideal) or classify(ideal)
    try:
        with pytest.raises(BoundExceededError, match="could not find ray class representatives"):
            group._find_reps(group.order + 1)
        streamed, seen[:] = list(seen), []
        with pytest.raises(BoundExceededError, match="could not find ray class representatives"):
            _doubling_find_reps(group, group.order + 1)
    finally:
        del group.class_of_ideal
    assert streamed == list(dict.fromkeys(seen))


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f"d={f.d}")
def test_normal_form_check_matches_element_norm(field):
    for a in range(1, 41):
        for b in range(a):
            want = None if QuadInt(field, b, 1).norm() % a == 0 else (InputError, "triple does not span an ideal (a | N(b+w) fails)")
            for c in (1, 3):
                got = _outcome(QuadIdeal, field, a, b, c)
                assert (None if isinstance(got, QuadIdeal) else got) == want, (a, b, c)


# ---------------------------------------------------------------------------
# The closed forms and the composition kernel against the echelon oracles,
# and the scan that lattice reduction replaced in ideal_generators; over
# fields with both shapes of w and class numbers 1, 2, 3 and 5.

REDUCTION_FIELDS = tuple(QuadField(d) for d in (-1, -2, -3, -5, -6, -7, -15, -23, -47, -163))


@st.composite
def _ideals(draw, field):
    """c*[a, b + w] for a divisor a of N(b + w): every primitive part with
    a <= 2000 can be drawn, and many larger ones."""
    b = draw(st.integers(0, 2000))
    divs = divisors(QuadInt(field, b, 1).norm())
    a = divs[draw(st.integers(0, len(divs) - 1))]
    return QuadIdeal(field, a, b % a, draw(st.integers(1, 4)))


@st.composite
def _field_and_ideals(draw, count):
    field = draw(st.sampled_from(REDUCTION_FIELDS))
    return field, [draw(_ideals(field)) for _ in range(count)]


@settings(max_examples=300, deadline=None)
@given(_field_and_ideals(1))
def test_ideal_generators_match_scan(case):
    _, (ideal,) = case
    want = _scan_ideal_generators(ideal)
    assert ideal_generators(ideal) == want
    assert is_principal(ideal) == (want[0] if want else None)


@settings(max_examples=300, deadline=None)
@given(_field_and_ideals(2))
def test_ideal_mul_and_gcd_match_fold(case):
    _, (x, y) = case
    xy = ideal_mul(x, y)
    assert xy == _oracle_mul(x, y)
    assert ideal_gcd(x, y) == _oracle_gcd(x, y)
    assert ideal_gcd(x, xy) == _oracle_gcd(x, xy) == x


@pytest.mark.parametrize("field", REDUCTION_FIELDS, ids=lambda f: f"d={f.d}")
def test_reduction_and_composition_on_small_ideals(field):
    """Every ideal of norm <= 120, and every pair of norm <= 30: coprime
    norms, non-principal ideals and c > 1 all occur."""
    ideals = ideals_of_norm_up_to(field, 120)
    for ideal in ideals:
        want = _scan_ideal_generators(ideal)
        assert ideal_generators(ideal) == want
        assert generator_pairs(ideal) == tuple((g.a, g.b) for g in want)
        assert is_principal(ideal) == (want[0] if want else None)
    small = [i for i in ideals if i.norm() <= 30]
    coprime = 0
    for x in small:
        for y in small:
            assert ideal_mul(x, y) == _oracle_mul(x, y)
            assert ideal_gcd(x, y) == _oracle_gcd(x, y)
            coprime += gcd(x.norm(), y.norm()) == 1
    assert coprime and any(i.c > 1 for i in small)


@pytest.mark.parametrize("d", (-1, -2, -3, -5, -7, -14, -23))
def test_ideal_gcd_matches_fold_on_every_pair_of_norm_up_to_80(d):
    """The closed-form sum against the echelon oracle on every ordered
    pair, primitive or not."""
    ideals = ideals_of_norm_up_to(QuadField(d), 80)
    primitive = 0
    for x in ideals:
        for y in ideals:
            assert ideal_gcd(x, y) == _oracle_gcd(x, y)
            primitive += x.c == y.c == 1
    assert 0 < primitive < len(ideals) ** 2


@pytest.mark.parametrize("field", REDUCTION_FIELDS, ids=lambda f: f"d={f.d}")
def test_principal_ideal_matches_echelon(field):
    """Every u + v*w with |u|, |v| <= 30: gcd(u, v) > 1, v = 0 and the
    zero refusal all occur."""
    for a in range(-30, 31):
        for b in range(-30, 31):
            x = QuadInt(field, a, b)
            assert _outcome(principal_ideal, x) == _outcome(_oracle_principal, x)


def _oracle_primes_above(field, p):
    """(prime, e, f) per root b of N(b + w) mod p, the prime the echelon form
    of p*O + (b + w)*O, ramified exactly when p divides the discriminant."""
    roots = [b for b in range(p) if QuadInt(field, b, 1).norm() % p == 0]
    if not roots:
        return [(_oracle_principal(QuadInt(field, p, 0)), 1, 2)]
    e = 2 if field.disc % p == 0 else 1
    w = field.omega()
    return [
        (_echelon_ideal(field, [QuadInt(field, p, 0), QuadInt(field, 0, p), QuadInt(field, b, 1), QuadInt(field, b, 1) * w]), e, 1)
        for b in roots
    ]


def _closed_form_mismatches(field):
    """The pairs of ideals of norm <= 40 (so c <= 6) whose ``ideal_gcd``
    differs from the echelon sum, and the primes p <= 200 whose
    ``primes_above`` differs from the echelon primes."""
    ideals = ideals_of_norm_up_to(field, 40)
    bad = [(x, y) for x in ideals for y in ideals if quadfield.ideal_gcd(x, y) != _oracle_gcd(x, y)]
    return bad + [p for p in range(2, 201) if is_prime(p) and primes_above(p, field) != _oracle_primes_above(field, p)]


@pytest.mark.parametrize("field", REDUCTION_FIELDS, ids=lambda f: f"d={f.d}")
def test_sums_and_primes_above_match_echelon(field):
    assert max(i.c for i in ideals_of_norm_up_to(field, 40)) == 6
    assert _closed_form_mismatches(field) == []


def test_a_wrong_sum_that_spans_an_ideal_is_caught(monkeypatch):
    """A sum with the conjugate b passes the constructor's check, since
    N(conj(b + w)) = N(b + w); the differential catches it."""
    def conjugate_b(x, y):
        s = ideal_gcd(x, y)  # the unpatched function, imported above
        return QuadIdeal(s.field, s.a, (-s.b - s.field.trace_w) % s.a, s.c)

    monkeypatch.setattr(quadfield, "ideal_gcd", conjugate_b)
    assert _closed_form_mismatches(K5)


def _prime_of_form(field, u, v):
    """u + v*w, v stepped by 2 until its norm is prime."""
    while not is_prime(QuadInt(field, u, v).norm()):
        v += 2
    return QuadInt(field, u, v)


def test_principality_at_norms_above_1e20():
    """Prime ideals whose norm ellipse has about 10^10 rows: the reduction
    finds the generator, or refuses, in O(log N) steps."""
    for field, u in ((GAUSS, 10**10 + 1), (K5, 10**10 + 1)):
        g0 = _prime_of_form(field, u, 2)
        ideal = principal_ideal(g0)
        assert ideal.c == 1 and ideal.a == g0.norm() > 10**20
        for scaled in (ideal, QuadIdeal(field, ideal.a, ideal.b, 3)):
            gens = ideal_generators(scaled)
            assert len(gens) == len(unit_group(field)) and g0.scale(scaled.c) in gens
            g = is_principal(scaled)
            assert g == gens[0] and g.norm() == scaled.norm() and scaled.contains(g)
            assert principal_ideal(g) == scaled
    # a split prime p = 3 mod 20 is not of the form x^2 + 5y^2
    p = 10**20 + 3
    while not is_prime(p):
        p += 20
    b = pow(-5 % p, (p + 1) // 4, p)  # sqrt(-5) mod p, as p = 3 mod 4
    ideal = QuadIdeal(K5, p, b, 1)
    assert ideal_generators(ideal) == () and is_principal(ideal) is None
    assert is_principal(ideal_mul(ideal, ideal.conj())) == QuadInt(K5, p, 0)


# ---------------------------------------------------------------------------
# x * conj(y), exact division, coprime sums and residue lookups without the
# throwaway ideals and elements: against the built-out forms, on every pair
# of ideals of norm <= 40.

NO_THROWAWAY_FIELDS = tuple(QuadField(d) for d in (-1, -2, -3, -5, -23))


@pytest.mark.parametrize("field", NO_THROWAWAY_FIELDS, ids=lambda f: f"d={f.d}")
def test_conjugate_products_quotients_and_sums_on_every_pair_of_norm_up_to_40(field):
    ideals = ideals_of_norm_up_to(field, 40)
    sums = rayclass._quad_ideals(field)
    inexact = coprime = 0
    for x in ideals:
        for y in ideals:
            assert ideal_mul_conj(x, y) == ideal_mul(x, y.conj())
            assert ideal_div(ideal_mul(x, y), y) == x
            if ideal_divides(y, x):
                assert ideal_mul(ideal_div(x, y), y) == x
            else:
                assert _outcome(ideal_div, x, y) == (InputError, "ideal division is not exact")
                inexact += 1
            got = sums._gcd(x, y)
            assert got == ideal_gcd(x, y)
            if gcd(x.norm(), y.norm()) == 1:
                assert got is sums._one
                coprime += 1
    assert inexact and coprime and any(i.c > 1 for i in ideals)


@pytest.mark.parametrize("field", NO_THROWAWAY_FIELDS, ids=lambda f: f"d={f.d}")
def test_residue_lookups_on_coordinates_match_the_element_path(field):
    """index_of_coords against the scan on built elements, for residues
    shifted off their representatives; the pushout's coordinate product
    against the reduced element product, on every pair of residues."""
    for f in ideals_of_norm_up_to(field, 30):
        group = residue_units(f)
        shift = f.basis()[1]
        for r in f.residues():
            for x in (r, r + shift, r - shift.scale(3), r + QuadInt(field, -5 * f.a * f.c, 0)):
                want = _outcome(_scan_index_of, group, x)
                assert _outcome(group.index_of_coords, x.a, x.b) == want == _outcome(group.index_of, x)
        residues = f.residues()
        index = {r: i for i, r in enumerate(residues)}
        n_res, units, res_mul, _ = rayclass._quad_residues(rayclass.Cycle(field, f), rayclass.ALL_PRIMES)
        assert n_res == len(residues) and units == [index[g] for g in group.elements]
        for i, ri in enumerate(residues):
            for j, rj in enumerate(residues):
                assert res_mul(i, j) == index[f.reduce(ri * rj)]


def test_products_and_quotients_still_validate(monkeypatch):
    """A composition kernel that returns a wrong b is caught by the
    constructor of every ideal built from it; a residue that is not a unit
    is refused on its coordinates."""
    x = principal_ideal(QuadInt(GAUSS, 2, 1))  # [5, 2+w, 1]
    x2, x3 = ideal_mul(x, x), ideal_mul(ideal_mul(x, x), x)
    compose = quadfield._compose

    def wrong_b(field, a1, b1, a2, b2):
        a, b, e = compose(field, a1, b1, a2, b2)
        return a, (b + 1) % a, e

    monkeypatch.setattr(quadfield, "_compose", wrong_b)
    message = "triple does not span an ideal (a | N(b+w) fails)"
    assert _outcome(ideal_mul, x, x) == (InputError, message)
    assert _outcome(ideal_mul_conj, x2, x.conj()) == (InputError, message)
    assert _outcome(ideal_div, x3, x) == (InputError, message)
    monkeypatch.undo()
    assert ideal_mul_conj(x2, x.conj()) == x3 and ideal_div(x3, x) == x2

    group = residue_units(ideal_from_int(GAUSS, 3))
    assert group.index_of_coords(1, 0) == group.index_of(GAUSS.one())
    for u, v in ((0, 0), (3, 0), (-6, 9), (3, 3)):
        assert _outcome(group.index_of_coords, u, v) == (InputError, "element is not a unit residue")
