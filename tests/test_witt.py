import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_forge import witt
from lambda_forge.errors import InputError, ModelRefusedError
from lambda_forge.intlinalg import divisors, hnf_rows, is_prime, left_kernel
from lambda_forge.lambdapoly import IntPoly, cyclotomic_polynomial
from lambda_forge.rayclass import Cycle, dr_monoid, f_equiv
from lambda_forge.witt import (
    INTEGERS,
    CoeffRing,
    GhostVector,
    TruncationSet,
    WittCoords,
    binomial_quotient_ring,
    dwork_check,
    frobenius_congruence_check,
    ghost_from_witt,
    group_ring_ghost_rows,
    is_f_periodic,
    is_irreducible_smalldeg,
    periodic_witt_field_product_check,
    periodic_witt_lattice,
    ray_class_algebra_witt_iso_check,
    teichmuller,
    witt_from_ghost,
)

T2 = TruncationSet.divisors_of(2)
T12 = TruncationSet.divisors_of(12)


def test_ring_validation():
    # the ring is Z[x]/(x^k - 1), fixed by one integer k >= 1
    for k in (0, -1, 2.0, "4", True):
        with pytest.raises(InputError, match="integer k >= 1"):
            CoeffRing(k)
    for k in (-1, 0, 1):
        with pytest.raises(InputError, match="k >= 2"):
            binomial_quotient_ring(k)
    assert all(CoeffRing(k) == binomial_quotient_ring(k) for k in range(2, 9))
    assert CoeffRing(1) == INTEGERS == group_ring_ghost_rows(1)[0]
    assert group_ring_ghost_rows(6)[0] == CoeffRing(6)
    r = binomial_quotient_ring(4)
    assert r.rank == 4
    # frobenius is a lift and the maps commute on the generator
    x = r.gen()
    assert r.apply_frob(2, x) == r.pow(x, 2)
    assert r.apply_frob(3, r.apply_frob(5, x)) == r.apply_frob(5, r.apply_frob(3, x))
    # row i is the image of x^i
    assert witt._power_matrix(r, 2) == ((1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0), (0, 0, 1, 0))
    assert witt._power_matrix(INTEGERS, 5) == ((1,),)
    # a negative power used to loop forever (and over Z would give a float)
    for ring in (INTEGERS, r):
        with pytest.raises(InputError, match="negative powers"):
            ring.pow(ring.one(), -1)
    assert INTEGERS.pow((Fraction(2, 3),), 0) == (1,) and r.pow(x, 0) == r.one()


def _reduce_reference(coeffs: list, h: IntPoly) -> tuple:
    """Reduction modulo a monic h by long division from the top degree."""
    d = h.degree
    for i in range(len(coeffs) - 1, d - 1, -1):
        c = coeffs[i]
        if c:
            coeffs[i] = 0
            for j in range(d):
                coeffs[i - d + j] -= c * h.coeffs[j]
    return tuple(coeffs[:d])


def _modulus(ring: CoeffRing) -> IntPoly:
    """x^k - 1 for the ring's rank k."""
    return IntPoly.of(-1, *([0] * (ring.rank - 1)), 1)


def _mul_reference(ring: CoeffRing, a: tuple, b: tuple) -> tuple:
    out = [0] * (2 * ring.rank - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _reduce_reference(out, _modulus(ring))


def _frob_matrix_reference(ring: CoeffRing, p: int) -> tuple:
    """Row i is the reduced image (x^p)^i, built multiplicatively."""
    img = _reduce_reference([0] * p + [1], _modulus(ring))
    rows, cur = [], ring.from_int(1)
    for _ in range(ring.rank):
        rows.append(cur)
        cur = _mul_reference(ring, cur, img)
    return tuple(rows)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cyclic_ring_matches_general_reduction(data):
    k = data.draw(st.integers(1, 6))
    ring = CoeffRing(k)
    entry = data.draw(st.sampled_from([st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6)]))
    a, b = (tuple(data.draw(entry) for _ in range(k)) for _ in range(2))
    assert ring.mul(a, b) == _mul_reference(ring, a, b)
    e = data.draw(st.integers(0, 7))
    ref = ring.one()
    for _ in range(e):
        ref = _mul_reference(ring, ref, a)
    assert ring.pow(a, e) == ref
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    rows = _frob_matrix_reference(ring, p)
    assert witt._power_matrix(ring, p) == rows
    assert ring.apply_frob(p, a) == tuple(sum(c * rows[i][j] for i, c in enumerate(a)) for j in range(k))


def test_truncation_validation():
    with pytest.raises(InputError):
        TruncationSet(frozenset({2}))
    assert TruncationSet.divisors_of(6).sorted() == [1, 2, 3, 6]
    assert TruncationSet.upto(4).sorted() == [1, 2, 3, 4]


@pytest.mark.parametrize("trunc", [TruncationSet.upto(b) for b in (1, 7, 30)] + [TruncationSet.divisors_of(n) for n in (1, 12, 120)])
def test_truncation_precomputed_steps(trunc):
    order = sorted(trunc.members)
    assert list(trunc.order) == trunc.sorted() == order
    assert all(order[trunc.index[a]] == a for a in order)
    for n, steps in zip(order, trunc.proper_divisors):
        assert [(order[j], k) for j, k in steps] == [(d, n // d) for d in divisors(n) if d < n]
    # the loop the congruence steps replace: every prime up to the top
    expected = []
    for p in (p for p in range(2, order[-1] + 1) if is_prime(p)):
        for n in order:
            if p * n in trunc.members:
                v = next(v for v in range(n.bit_length() + 1) if n % p ** (v + 1))
                expected.append((p, order.index(n), order.index(p * n), p ** (v + 1)))
    assert list(trunc.dwork_steps) == expected


R4 = binomial_quotient_ring(4)
T6 = TruncationSet.divisors_of(6)
UNIT4 = ((1, 0, 0, 0),) * 4


@pytest.mark.parametrize("cls", [GhostVector, WittCoords])
def test_short_component_refused(cls):
    assert cls(R4, T6, UNIT4)
    # zip in dwork_check would drop the missing entry and answer True
    with pytest.raises(InputError, match="tuple of 4"):
        cls(R4, T6, ((1, 0, 0),) + UNIT4[1:])
    with pytest.raises(InputError, match="integers or fractions"):
        cls(INTEGERS, T2, ((1,), (0.5,)))
    with pytest.raises(InputError, match="integers or fractions"):
        cls(INTEGERS, T2, ((1,), [2]))


@pytest.mark.parametrize("cls", [GhostVector, WittCoords])
def test_too_few_components_refused(cls):
    # would raise IndexError on the first access past the end
    with pytest.raises(InputError, match="one per truncation member"):
        cls(R4, T6, UNIT4[:3])


@pytest.mark.parametrize("cls", [GhostVector, WittCoords])
def test_make_with_missing_or_extra_key_refused(cls):
    with pytest.raises(InputError, match="no component for member 3"):
        cls.make(R4, T6, {1: UNIT4[0], 2: UNIT4[0], 6: UNIT4[0]})
    with pytest.raises(InputError, match="non-members"):
        cls.make(INTEGERS, T2, {1: (1,), 2: (2,), 3: (3,)})


def test_ghost_examples():
    w = WittCoords.make(INTEGERS, T2, {1: (2,), 2: (1,)})
    g = ghost_from_witt(w)
    assert g.component(1) == (2,) and g.component(2) == (6,)
    zero = WittCoords.make(INTEGERS, T2, {1: (0,), 2: (0,)})
    assert ghost_from_witt(zero).components == ((0,), (0,))
    # teichmuller ghost is the power sequence
    t = ghost_from_witt(teichmuller(INTEGERS, (3,), T12))
    for a in T12.sorted():
        assert t.component(a) == (3**a,)


def test_witt_from_ghost_examples():
    g = GhostVector.make(INTEGERS, T2, {1: (1,), 2: (2,)})
    coords, flags = witt_from_ghost(g)
    assert coords.coord(2) == (Fraction(1, 2),)
    assert flags == {1: True, 2: False}
    assert not dwork_check(g)
    tg = GhostVector.make(INTEGERS, TruncationSet.divisors_of(4), {1: (2,), 2: (4,), 4: (16,)})
    coords, flags = witt_from_ghost(tg)
    assert all(flags.values()) and coords.coord(1) == (2,) and coords.coord(2) == (0,)


def _witt_from_ghost_fraction(g: GhostVector):
    """Reference: the recurrence in Fraction arithmetic, divisors found by
    factoring."""
    ring = g.ring
    coords, flags = {}, {}
    for n in g.trunc.sorted():
        acc = tuple(Fraction(c) for c in g.component(n))
        for d in divisors(n):
            if d == n:
                continue
            term = ring.scale(d, ring.pow(coords[d], n // d))
            acc = tuple(a - b for a, b in zip(acc, term))
        val = tuple(a / n for a in acc)
        flags[n] = all(x.denominator == 1 for x in val)
        coords[n] = val
    int_coords = {n: tuple(int(x) if x.denominator == 1 else x for x in v) for n, v in coords.items()}
    return WittCoords.make(ring, g.trunc, int_coords), flags


def _dwork_check_reference(g: GhostVector) -> bool:
    ring = g.ring
    top = max(g.trunc.members)
    for p in (p for p in range(2, top + 1) if is_prime(p)):
        for n in g.trunc.sorted():
            if p * n in g.trunc.members:
                v = next(v for v in range(n.bit_length() + 1) if n % p ** (v + 1))
                diff = ring.sub(g.component(p * n), ring.apply_frob(p, g.component(n)))
                if not ring.divisible(diff, p ** (v + 1)):
                    return False
    return True


def _assert_matches_reference(g: GhostVector):
    coords, flags = witt_from_ghost(g)
    ref_coords, ref_flags = _witt_from_ghost_fraction(g)
    # repr tells an int entry from an integral Fraction
    assert repr(coords.coords) == repr(ref_coords.coords)
    assert flags == ref_flags
    assert dwork_check(g) == _dwork_check_reference(g)
    if all(type(x) is int for comp in g.components for x in comp):
        assert dwork_check(g) == all(flags.values())
    return coords


_RINGS = [INTEGERS] + [binomial_quotient_ring(k) for k in (2, 3, 4)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_witt_from_ghost_matches_fraction_reference(data):
    ring = data.draw(st.sampled_from(_RINGS))
    if data.draw(st.booleans()):
        trunc = TruncationSet.divisors_of(data.draw(st.integers(1, 60 if ring.rank == 1 else 24)))
    else:
        trunc = TruncationSet.upto(data.draw(st.integers(1, 16 if ring.rank == 1 else 8)))
    small = st.integers(-9, 9)
    entry = data.draw(st.sampled_from([small, st.fractions(-9, 9, max_denominator=6), st.one_of(small, st.fractions(-9, 9, max_denominator=6))]))
    vals = {a: tuple(data.draw(entry) for _ in range(ring.rank)) for a in trunc.sorted()}
    if data.draw(st.booleans()):
        # ghost of Witt coordinates: integral coordinates in, or the
        # Fraction-valued ghost of non-integral ones
        g = ghost_from_witt(WittCoords.make(ring, trunc, vals))
    else:
        g = GhostVector.make(ring, trunc, vals)
    coords = _assert_matches_reference(g)
    _assert_matches_reference(ghost_from_witt(coords))


def test_nonintegral_round_trip_div12():
    ring = binomial_quotient_ring(3)
    rng = random.Random(12)
    for r in (INTEGERS, ring):
        g = GhostVector.make(r, T12, {a: tuple(rng.randrange(-5, 6) for _ in range(r.rank)) for a in T12.sorted()})
        w, flags = witt_from_ghost(g)
        assert not all(flags.values())
        back = ghost_from_witt(w)  # entries are Fractions, some with denominator 1
        assert any(type(x) is Fraction and x.denominator == 1 for comp in back.components for x in comp)
        w2, flags2 = witt_from_ghost(back)
        assert w2 == w and flags2 == flags
        assert repr(w2.coords) == repr(_witt_from_ghost_fraction(back)[0].coords)


def test_round_trip_random():
    rng = random.Random(6)
    for _ in range(100):
        w = WittCoords.make(INTEGERS, T12, {d: (rng.randrange(-9, 10),) for d in T12.sorted()})
        g = ghost_from_witt(w)
        back, flags = witt_from_ghost(g)
        assert back == w and all(flags.values())
        assert dwork_check(g)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=6, max_size=6))
def test_dwork_iff_integral_hypothesis(vals):
    T = TruncationSet.divisors_of(12)
    g = GhostVector.make(INTEGERS, T, dict(zip(T.sorted(), [(v,) for v in vals])))
    _, flags = witt_from_ghost(g)
    assert dwork_check(g) == all(flags.values())


def test_dwork_iff_integral_quotient_ring():
    rng = random.Random(8)
    ring = binomial_quotient_ring(4)
    T = TruncationSet.divisors_of(12)
    agree = 0
    for _ in range(200):
        g = GhostVector.make(
            ring, T, {a: tuple(rng.randrange(-4, 5) for _ in range(4)) for a in T.sorted()}
        )
        _, flags = witt_from_ghost(g)
        assert dwork_check(g) == all(flags.values())
        agree += 1
    assert agree == 200


def test_ghost_ring_ops_componentwise():
    rng = random.Random(10)
    for _ in range(30):
        w1 = WittCoords.make(INTEGERS, T12, {d: (rng.randrange(-5, 6),) for d in T12.sorted()})
        w2 = WittCoords.make(INTEGERS, T12, {d: (rng.randrange(-5, 6),) for d in T12.sorted()})
        g1, g2 = ghost_from_witt(w1), ghost_from_witt(w2)
        ssum = {a: (g1.component(a)[0] + g2.component(a)[0],) for a in T12.sorted()}
        sprod = {a: (g1.component(a)[0] * g2.component(a)[0],) for a in T12.sorted()}
        for data in (ssum, sprod):
            g = GhostVector.make(INTEGERS, T12, data)
            _, flags = witt_from_ghost(g)
            assert all(flags.values())  # sums/products of Witt vectors are Witt


def test_periodicity_is_a_subring_condition():
    # sums and products of periodic members stay periodic and integral
    rng = random.Random(21)
    T = TruncationSet.upto(24)
    f = Cycle(None, 4, True)

    def random_periodic():
        vals = {r: rng.randrange(-6, 7) for r in range(4)}
        # enforce the congruences of the rank-3 lattice for conductor 4*inf
        vals[2] = vals[1] + 2 * rng.randrange(-3, 4)
        vals[0] = vals[2] + 4 * rng.randrange(-3, 4)
        vals[3] = vals[1]
        return GhostVector.make(INTEGERS, T, {a: (vals[a % 4],) for a in T.sorted()})

    for _ in range(40):
        g1, g2 = random_periodic(), random_periodic()
        assert dwork_check(g1) and is_f_periodic(g1, f)
        for combo in (
            {a: (g1.component(a)[0] + g2.component(a)[0],) for a in T.sorted()},
            {a: (g1.component(a)[0] * g2.component(a)[0],) for a in T.sorted()},
        ):
            g = GhostVector.make(INTEGERS, T, combo)
            assert dwork_check(g) and is_f_periodic(g, f)


def test_shift_composition():
    # the index-translation operators compose multiplicatively
    rng = random.Random(12)
    T = TruncationSet.upto(24)
    g = GhostVector.make(INTEGERS, T, {a: (rng.randrange(-9, 10),) for a in T.sorted()})

    def shift(gv, b):
        idx = [a for a in gv.trunc.sorted() if a * b <= 24]
        return {a: gv.component(a * b) for a in idx}

    s6 = shift(g, 6)
    s23 = {a: shift(g, 3)[a * 2] for a in [a for a in T.sorted() if a * 6 <= 24]}
    assert s6 == s23


def test_teichmuller_multiplicative():
    t1 = ghost_from_witt(teichmuller(INTEGERS, (3,), T12))
    t2 = ghost_from_witt(teichmuller(INTEGERS, (5,), T12))
    t12 = ghost_from_witt(teichmuller(INTEGERS, (15,), T12))
    for a in T12.sorted():
        assert t1.component(a)[0] * t2.component(a)[0] == t12.component(a)[0]


def _pairwise_periodic(g: GhostVector, f: Cycle) -> bool:
    """Reference: equal components on every f-equivalent pair."""
    idx = g.trunc.sorted()
    return all(g.component(a) == g.component(b) for i, a in enumerate(idx) for b in idx[i + 1 :] if f_equiv(a, b, f))


def test_is_f_periodic_examples():
    T = TruncationSet.upto(8)
    const = GhostVector.make(INTEGERS, T, {a: (7,) for a in T.sorted()})
    ring = binomial_quotient_ring(4)
    gx = GhostVector.make(ring, T, {a: ring.pow(ring.gen(), a) for a in T.sorted()})
    alt = GhostVector.make(INTEGERS, TruncationSet.upto(4), {1: (1,), 2: (2,), 3: (1,), 4: (2,)})
    cases = [(const, f, True) for f in ("1", "2*inf", "5", "3*inf")]
    cases += [(gx, "4*inf", True), (alt, "3*inf", False), (alt, "2*inf", True)]
    for g, f, expected in cases:
        assert is_f_periodic(g, Cycle.parse(f)) == _pairwise_periodic(g, Cycle.parse(f)) == expected


def test_is_f_periodic_matches_pairwise_random():
    rng = random.Random(77)
    verdicts = set()
    for _ in range(300):
        T = rng.choice((TruncationSet.upto, TruncationSet.divisors_of))(rng.randrange(1, 41))
        f = Cycle(None, rng.randrange(1, 13), rng.random() < 0.5)
        dr = dr_monoid(f)
        # constant on classes, then perhaps one component moved
        values = [rng.randrange(-2, 3) for _ in range(dr.size)]
        comp = {a: (values[dr.class_of_ideal(a)],) for a in T.sorted()}
        if rng.random() < 0.5:
            comp[rng.choice(T.sorted())] = (rng.randrange(-2, 3),)
        g = GhostVector.make(INTEGERS, T, comp)
        verdicts.add(is_f_periodic(g, f))
        assert is_f_periodic(g, f) == _pairwise_periodic(g, f)
    assert verdicts == {True, False}


def test_frobenius_congruence():
    t = ghost_from_witt(teichmuller(INTEGERS, (5,), T12))
    for p in (2, 3):
        assert frobenius_congruence_check(t, p)
    g = ghost_from_witt(WittCoords.make(INTEGERS, TruncationSet.divisors_of(4), {1: (0,), 2: (1,), 4: (0,)}))
    assert frobenius_congruence_check(g, 2)
    bad = GhostVector.make(INTEGERS, T2, {1: (1,), 2: (2,)})
    with pytest.raises(ModelRefusedError):
        frobenius_congruence_check(bad, 2)


def test_periodic_lattice_integers():
    L2 = periodic_witt_lattice(2, INTEGERS, 16)
    assert L2.stable and [list(r) for r in L2.basis] == [[1, 1], [0, 2]]
    L3 = periodic_witt_lattice(3, INTEGERS, 16)
    assert L3.stable and [list(r) for r in L3.basis] == [[1, 1, 1], [0, 0, 3]]
    # rank over Z equals the divisor count
    from lambda_forge.intlinalg import divisors

    for n in (1, 2, 3, 4, 6, 8):
        L = periodic_witt_lattice(n, INTEGERS, 32)
        assert L.rank == len(divisors(n)) and L.stable


def test_periodic_lattice_members_are_witt_vectors():
    for n, ring in [(2, INTEGERS), (4, INTEGERS), (2, binomial_quotient_ring(2)), (3, binomial_quotient_ring(3))]:
        L = periodic_witt_lattice(n, ring, 24)
        dr = dr_monoid(Cycle(None, n, True))
        r = ring.rank
        for row in L.basis:
            comp = {}
            for a in range(1, 25):
                c = dr.class_of_ideal(a)
                comp[a] = tuple(row[c * r : (c + 1) * r])
            g = GhostVector.make(ring, TruncationSet.upto(24), comp)
            assert dwork_check(g)
            assert is_f_periodic(g, Cycle(None, n, True))


def test_group_ring_image_is_contained_and_strict():
    # the image of the cyclic group ring sits inside the periodic lattice;
    # the verschiebung of the identity witnesses strictness at level 2
    rep = ray_class_algebra_witt_iso_check(2, 32)
    assert rep.injective and rep.contained and rep.stable
    assert rep.lattice_rank == 3 and rep.image_rank == 2 and not rep.equal
    L = periodic_witt_lattice(2, binomial_quotient_ring(2), 32)
    # ghost (0, 2) repeated: v_2 applied to the identity, outside the image
    witness = [0, 0, 2, 0]
    assert L.contains(witness)
    ring, rows = group_ring_ghost_rows(2)
    from lambda_forge.intlinalg import hnf_rows, in_row_span

    image = hnf_rows([r[:] for r in rows], 4)
    assert not in_row_span(witness, image, 4)


def test_iso_check_trivial_level():
    rep = ray_class_algebra_witt_iso_check(1, 16)
    assert rep.verdict == "true"


def test_field_product_check():
    for n in (1, 4, 6, 12):
        rep = periodic_witt_field_product_check(n)
        assert rep.passes()
        assert rep.dimension == n
    r4 = periodic_witt_field_product_check(4)
    assert r4.idempotents == 3 and sorted(r4.factor_degrees) == [1, 1, 2]
    r6 = periodic_witt_field_product_check(6)
    assert r6.idempotents == 4


def test_irreducibility_tester():
    assert is_irreducible_smalldeg(IntPoly.of(1, 1, 1))
    assert not is_irreducible_smalldeg(IntPoly.of(-1, 0, 1))
    assert not is_irreducible_smalldeg(IntPoly.of(2, 3, 1))
    for d in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12):
        assert is_irreducible_smalldeg(cyclotomic_polynomial(d)), d


@pytest.fixture(scope="module")
def sympy():
    """sympy is an oracle only, never a runtime dependency."""
    return pytest.importorskip("sympy")


def _monic_sympy_poly(sympy, p: IntPoly, **opts):
    return sympy.Poly(list(reversed(p.coeffs)), sympy.Symbol("x"), **opts)


_monic = st.lists(st.integers(-20, 20), min_size=2, max_size=8).map(lambda c: IntPoly.of(*c, 1))


@settings(max_examples=300, deadline=None)
@given(p=_monic, q=st.sampled_from([2, 3, 5, 7, 11, 13]))
def test_rabin_matches_sympy(sympy, p, q):
    assert witt._rabin_irreducible_mod(p, q) == _monic_sympy_poly(sympy, p, modulus=q).is_irreducible


def _has_small_monic_factor(coeffs: tuple[int, ...], q: int) -> bool:
    """A monic polynomial of degree 1 to deg/2 divides coeffs mod q: plain
    search with its own long division."""
    d = len(coeffs) - 1
    for m in range(1, d // 2 + 1):
        for tail in itertools.product(range(q), repeat=m):
            g = tail + (1,)
            r = [c % q for c in coeffs]
            for i in range(d, m - 1, -1):
                c = r[i]
                for j in range(m + 1):
                    r[i - m + j] = (r[i - m + j] - c * g[j]) % q
            if not any(r[:m]):
                return True
    return False


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_rabin_matches_factor_search(q):
    # every monic polynomial of degree 2..4 mod q: reducible exactly when
    # a monic factor of degree <= 2 divides it, and the irreducibles are
    # as many as Gauss's count (1/k) sum_{d | k} mu(d) q^(k/d)
    gauss = {2: (q * q - q) // 2, 3: (q**3 - q) // 3, 4: (q**4 - q * q) // 4}
    for k in (2, 3, 4):
        count = 0
        for tail in itertools.product(range(q), repeat=k):
            coeffs = tail + (1,)
            irreducible = witt._rabin_irreducible_mod(IntPoly.of(*coeffs), q)
            assert irreducible == (not _has_small_monic_factor(coeffs, q)), (coeffs, q)
            count += irreducible
        assert count == gauss[k], (k, q)


# a factor of degree <= 2 keeps the bounded divisor search of a reducible
# input short; degree <= 5 keeps it short for irreducible ones
_small_monic = st.lists(st.integers(-9, 9), min_size=1, max_size=5).map(lambda c: IntPoly.of(*c, 1))
_low_factor = st.lists(st.integers(-9, 9), min_size=1, max_size=2).map(lambda c: IntPoly.of(*c, 1))


@settings(max_examples=150, deadline=None)
@given(p=_small_monic, g=st.none() | _low_factor)
def test_irreducible_smalldeg_matches_sympy(sympy, p, g):
    if g is not None and p.degree + g.degree <= 5:
        p = p * g
    assert is_irreducible_smalldeg(p) == _monic_sympy_poly(sympy, p).is_irreducible


def test_cyclotomic_polynomial_matches_sympy(sympy):
    x = sympy.Symbol("x")
    for n in range(1, 61):
        expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
        assert list(cyclotomic_polynomial(n).coeffs) == [int(c) for c in reversed(expected)], n


def test_universal_lift_components_forced():
    # the unique equivariant lift of the identity coordinate map sends the
    # generator to the tuple of its power images: each component is forced
    n = 6
    ring = binomial_quotient_ring(n)
    dr = dr_monoid(Cycle(None, n, True))
    x = ring.gen()
    lift = {c: ring.pow(x, dr.reps[c] % n) for c in range(dr.size)}
    # first coordinate is the identity map's value
    assert lift[dr.class_of_ideal(1)] == x
    # equivariance forces every other component from the first
    for c in range(dr.size):
        a = dr.reps[c]
        assert lift[c] == ring.pow(x, a % n)
    # and the resulting ghost vector is a genuine periodic Witt vector
    T = TruncationSet.upto(24)
    g = GhostVector.make(ring, T, {a: ring.pow(x, a % n) for a in T.sorted()})
    assert dwork_check(g) and is_f_periodic(g, Cycle(None, n, True))


def _solve_dense_reference(eq_rows, cong_rows, moduli, nvars):
    """Reference solve: dense projection of every congruence row, no
    merging."""
    if eq_rows:
        kernel = left_kernel([[row[i] for row in eq_rows] for i in range(nvars)], len(eq_rows))
    else:
        kernel = [[1 if j == i else 0 for j in range(nvars)] for i in range(nvars)]
    if not kernel:
        return []
    kdim = len(kernel)
    if not cong_rows:
        return hnf_rows([list(r) for r in kernel], nvars)
    cprime = [[sum(row[v] * kernel[t][v] for v in range(nvars)) for t in range(kdim)] for row in cong_rows]
    stacked = [row + [moduli[i] if j == i else 0 for j in range(len(cprime))] for i, row in enumerate(cprime)]
    width = kdim + len(cprime)
    sol = left_kernel([[stacked[i][j] for i in range(len(stacked))] for j in range(width)], len(stacked))
    rows = [[sum(row[i] * kernel[i][v] for i in range(kdim)) for v in range(nvars)] for row in sol]
    return hnf_rows(rows, nvars)


@pytest.mark.parametrize("bound", [16, 64])
def test_lattice_solve_matches_dense_reference(bound, monkeypatch):
    def lattices():
        out = []
        for n in range(1, 9):
            comparison = ray_class_algebra_witt_iso_check(n, bound)
            lat = periodic_witt_lattice(n, INTEGERS, bound)
            out.append((json.dumps(comparison.to_json()), comparison.lattice, lat))
        return out

    merged = lattices()
    monkeypatch.setattr(witt, "_solve_equalities_and_congruences", _solve_dense_reference)
    dense = lattices()
    for (json_m, group_m, z_m), (json_d, group_d, z_d) in zip(merged, dense):
        assert json_m == json_d
        assert (group_m.basis, group_m.stable) == (group_d.basis, group_d.stable)
        assert (z_m.basis, z_m.stable) == (z_d.basis, z_d.stable)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_congruence_merge_matches_dense_solve(data):
    nvars = data.draw(st.integers(1, 4))
    vec = st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars)
    eq_rows = data.draw(st.lists(vec, max_size=2))
    # rows drawn from a few, some negated, under prime-power moduli, so that
    # projections repeat and merge
    base = data.draw(st.lists(vec, min_size=1, max_size=3))
    cong_rows, moduli = [], []
    for _ in range(data.draw(st.integers(1, 6))):
        row = data.draw(st.sampled_from(base))
        cong_rows.append([-x for x in row] if data.draw(st.booleans()) else row)
        moduli.append(data.draw(st.sampled_from([2, 3, 4, 5, 8, 9])))
    solve = witt._solve_equalities_and_congruences
    assert solve(eq_rows, cong_rows, moduli, nvars) == _solve_dense_reference(eq_rows, cong_rows, moduli, nvars)
