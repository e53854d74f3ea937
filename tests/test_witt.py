import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_forge import witt
from lambda_forge.errors import BoundExceededError, InputError, ModelRefusedError
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
    assert _power_matrix(r, 2) == ((1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0), (0, 0, 1, 0))
    assert _power_matrix(INTEGERS, 5) == ((1,),)
    # a negative power used to loop forever (and over Z would give a float)
    for ring in (INTEGERS, r):
        with pytest.raises(InputError, match="negative powers"):
            ring.pow(ring.one(), -1)
    assert INTEGERS.pow((Fraction(2, 3),), 0) == (1,) and r.pow(x, 0) == r.one()


@pytest.mark.parametrize("rank", [1, 2, 4, 6])
def test_pow_matches_repeated_mul(rank):
    ring = CoeffRing(rank)
    rng = random.Random(rank)
    for a in [ring.one(), ring.zero(), tuple(rng.randint(-3, 3) for _ in range(rank)), tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(rank))]:
        expected = ring.one()
        for k in range(21):
            assert ring.pow(a, k) == expected, (a, k)
            expected = ring.mul(expected, a)


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
    assert _power_matrix(ring, p) == rows
    assert ring.apply_frob(p, a) == tuple(sum(c * rows[i][j] for i, c in enumerate(a)) for j in range(k))


def test_truncation_validation():
    with pytest.raises(InputError):
        TruncationSet(frozenset({2}))
    assert TruncationSet.divisors_of(6).sorted() == [1, 2, 3, 6]
    assert TruncationSet.upto(4).sorted() == [1, 2, 3, 4]


@pytest.mark.parametrize("members", [{1, 4}, {1, 2, 6}, {1, 3, 9, 27, 6}, {1, 2, 3, 4, 12}, {1, 7, 49, 343, 2401, 4802}])
def test_truncation_refuses_sets_not_divisor_closed(members):
    with pytest.raises(InputError, match="^truncation set must be divisor closed$"):
        TruncationSet(frozenset(members))


def test_truncation_closure_matches_divisor_reference():
    """Closure under n -> n // p for the primes p | n, read from one
    smallest-prime-factor table (dense sets) or from factor() (sparse ones),
    against every divisor of every member."""
    rng = random.Random(19)
    big = divisors(720720)  # top 720720 over 240 members: the factor() path
    for _ in range(300):
        pool, most = (range(1, 41), 20) if rng.random() < 0.5 else (big, 40)
        members = frozenset(rng.sample(pool, rng.randrange(1, most)))
        closed = all(d in members for n in members for d in divisors(n))
        try:
            TruncationSet(members)
        except InputError:
            assert not closed, sorted(members)
        else:
            assert closed, sorted(members)
    with pytest.raises(InputError, match="^truncation entries must be positive$"):
        TruncationSet(frozenset({0, 1, 2}))
    assert TruncationSet.divisors_of(1000000007).order == (1, 1000000007)


@pytest.mark.parametrize("trunc", [TruncationSet.upto(b) for b in (1, 7, 30)] + [TruncationSet.divisors_of(n) for n in (1, 12, 120)])
def test_truncation_precomputed_steps(trunc):
    order = sorted(trunc.members)
    assert list(trunc.order) == trunc.sorted() == order
    assert all(order[trunc.index[a]] == a for a in order)
    _assert_power_chain(trunc)
    # the loop the congruence steps replace: every prime up to the top
    expected = []
    for p in (p for p in range(2, order[-1] + 1) if is_prime(p)):
        for n in order:
            if p * n in trunc.members:
                v = next(v for v in range(n.bit_length() + 1) if n % p ** (v + 1))
                expected.append((p, order.index(n), order.index(p * n), p ** (v + 1)))
    assert list(trunc.dwork_steps) == expected


def _assert_power_chain(trunc):
    """Each step (n, d) of ``power_steps`` is one proper divisor d of n, in
    ascending order, with p the least prime of n/d; its source is w_d
    itself exactly when n/d is prime, and otherwise the step (n/p, d),
    numbered before the first step of n."""
    order, numbered = trunc.order, []
    for n, steps in zip(order, trunc.power_steps):
        first = len(numbered)
        assert [(order[j], d) for j, d, _, _ in steps] == [(d, d) for d in divisors(n) if d < n]
        for j, d, p, src in steps:
            # the least divisor m > 1 of n/d is its least prime, and n/d is
            # prime when that is n/d itself
            m = next(m for m in range(2, n // d + 1) if n // d % m == 0)
            assert n % d == 0 and p == m and (src is None) == (m == n // d)
            if src is not None:
                assert src < first and numbered[src] == (n // p, d)
            numbered.append((n, d))


def _dwork_steps_by_double_loop(trunc):
    """Every prime member against every member, with no early stop."""
    steps = []
    for p in filter(is_prime, trunc.order):
        for i, n in enumerate(trunc.order):
            if p * n in trunc.index:
                v = next(v for v in range(n.bit_length() + 1) if n % p ** (v + 1))
                steps.append((p, i, trunc.index[p * n], p ** (v + 1)))
    return tuple(steps)


def _step_sets():
    sets = [TruncationSet.upto(b) for b in range(1, 301)]
    return sets + [TruncationSet.divisors_of(n) for n in (*range(1, 301), 720, 5040, 720720, 2**12, 3**7 * 5)]


def test_dwork_steps_match_the_double_loop():
    for trunc in _step_sets():
        assert trunc.dwork_steps == _dwork_steps_by_double_loop(trunc), sorted(trunc.members)[-1]


def test_power_steps_form_one_chain():
    for trunc in _step_sets():
        _assert_power_chain(trunc)


def test_power_drops_follow_the_last_reader():
    """Each step is dropped exactly once, after the last member among its
    own and those whose steps name it as source."""
    for trunc in _step_sets():
        readers = []  # per step number, the members that need its power
        for i, steps in enumerate(trunc.power_steps):
            for _, _, _, src in steps:
                readers.append({i})
                if src is not None:
                    readers[src].add(i)
        dropped_at = {t: i for i, drops in enumerate(trunc.power_drops) for t in drops}
        assert sum(map(len, trunc.power_drops)) == len(dropped_at) == len(readers)
        assert all(dropped_at[t] == max(members) for t, members in enumerate(readers))


@pytest.mark.parametrize("transform", [ghost_from_witt, witt_from_ghost])
def test_transforms_hold_only_the_powers_still_needed(transform):
    """Over upto:1000 the powers of all 6,000-odd steps, kept to the end,
    take 1.8x (ghost_from_witt) and 4.1x (witt_from_ghost) the memory of
    the result; dropped after their last reader, well under 1x."""
    trunc = TruncationSet.upto(1000)
    assert trunc.power_steps and trunc.power_drops  # both built before the trace
    vector = (WittCoords if transform is ghost_from_witt else GhostVector)(INTEGERS, trunc, ((9,),) * 1000)
    tracemalloc.start()
    try:
        result = transform(vector)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result and peak < 2 * held


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
            acc = tuple(a - d * x for a, x in zip(acc, ring.pow(coords[d], n // d)))
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


def _draw_entries(data):
    """A ring of rank 1-4, a divisors_of or upto set, and int, Fraction or
    mixed entries, one tuple per member."""
    ring = data.draw(st.sampled_from(_RINGS))
    if data.draw(st.booleans()):
        trunc = TruncationSet.divisors_of(data.draw(st.integers(1, 60 if ring.rank == 1 else 24)))
    else:
        trunc = TruncationSet.upto(data.draw(st.integers(1, 16 if ring.rank == 1 else 8)))
    small = st.integers(-9, 9)
    entry = data.draw(st.sampled_from([small, st.fractions(-9, 9, max_denominator=6), st.one_of(small, st.fractions(-9, 9, max_denominator=6))]))
    return ring, trunc, {a: tuple(data.draw(entry) for _ in range(ring.rank)) for a in trunc.sorted()}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_witt_from_ghost_matches_fraction_reference(data):
    ring, trunc, vals = _draw_entries(data)
    if data.draw(st.booleans()):
        # ghost of Witt coordinates: integral coordinates in, or the
        # Fraction-valued ghost of non-integral ones
        g = ghost_from_witt(WittCoords.make(ring, trunc, vals))
    else:
        g = GhostVector.make(ring, trunc, vals)
    coords = _assert_matches_reference(g)
    _assert_matches_reference(ghost_from_witt(coords))


def _ghost_reference(w: WittCoords) -> tuple:
    """The definition g_n = sum over d | n of d * w_d^(n/d), each power by
    plain ``ring.pow``."""
    ring, out = w.ring, []
    for n in w.trunc.sorted():
        acc = ring.zero()
        for d in divisors(n):
            acc = tuple(a + d * x for a, x in zip(acc, ring.pow(w.coord(d), n // d)))
        out.append(acc)
    return tuple(out)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ghost_from_witt_matches_the_definition(data):
    w = WittCoords.make(*_draw_entries(data))
    # repr tells an int entry from an integral Fraction
    assert repr(ghost_from_witt(w).components) == repr(_ghost_reference(w))


# the benchmark's transform sets (div:120 over Z, div:60 over x^4 - 1) and
# upto:60 over x^2 - 1, whose power chains reach depth 5 (120 = 2*2*2*3*5)
@pytest.mark.parametrize(
    "ring, trunc",
    [(INTEGERS, TruncationSet.divisors_of(120)), (R4, TruncationSet.divisors_of(60)), (CoeffRing(2), TruncationSet.upto(60))],
    ids=["Z-div120", "x^4-1-div60", "x^2-1-upto60"],
)
def test_transforms_match_both_references_on_deep_chains(ring, trunc):
    rng = random.Random(len(trunc.members))
    for entry in (lambda: rng.randint(-9, 9), lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))):
        vals = {a: tuple(entry() for _ in range(ring.rank)) for a in trunc.sorted()}
        w = WittCoords.make(ring, trunc, vals)
        g = ghost_from_witt(w)
        assert repr(g.components) == repr(_ghost_reference(w))
        assert _assert_matches_reference(g) == w
        # the same entries as a ghost vector give non-integral coordinates,
        # which take the denominators' branch
        g = GhostVector.make(ring, trunc, vals)
        assert not all(witt_from_ghost(g)[1].values())
        _assert_matches_reference(g)


@pytest.mark.parametrize("ring", [INTEGERS, R4])
@pytest.mark.parametrize("fault", ["source", "prime"])
def test_a_corrupt_power_chain_is_seen_by_the_references(ring, fault):
    """The references above are not vacuous: a power chain with one wrong
    source (the step (4, 1) for (12, 1), giving w_1^8 for w_1^12), or with
    one wrong prime (3 for 2 at (12, 1), giving w_1^18), makes both
    transforms disagree with them."""
    trunc = TruncationSet.divisors_of(12)
    numbers = {}
    for n, steps in zip(trunc.order, trunc.power_steps):
        for _, d, _, _ in steps:
            numbers[n, d] = len(numbers)
    chain = [list(steps) for steps in trunc.power_steps]
    j, d, p, src = chain[-1][0]
    assert (d, p, src) == (1, 2, numbers[6, 1])
    chain[-1][0] = (j, d, p, numbers[4, 1]) if fault == "source" else (j, d, 3, src)
    corrupt = TruncationSet.divisors_of(12)
    corrupt.__dict__["power_steps"] = tuple(map(tuple, chain))
    vals = {a: tuple(range(2 + a, 2 + a + ring.rank)) for a in trunc.sorted()}
    w = WittCoords.make(ring, corrupt, vals)
    assert repr(ghost_from_witt(w).components) != repr(_ghost_reference(w))
    g = GhostVector(ring, corrupt, _ghost_reference(w))
    assert _witt_from_ghost_fraction(g)[0] == w != witt_from_ghost(g)[0]


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
    start = time.perf_counter()
    for n in range(1, 31):
        if n in (21, 28):  # Phi_21 and Phi_28 have degree 12
            with pytest.raises(InputError, match="limited to degree 8"):
                periodic_witt_field_product_check(n)
            continue
        rep = periodic_witt_field_product_check(n)
        assert rep.passes()
        assert rep.dimension == n
    assert time.perf_counter() - start < 30
    r4 = periodic_witt_field_product_check(4)
    assert r4.idempotents == 3 and sorted(r4.factor_degrees) == [1, 1, 2]
    r6 = periodic_witt_field_product_check(6)
    assert r6.idempotents == 4


def test_irreducibility_tester():
    assert is_irreducible_smalldeg(IntPoly.of(1, 1, 1))
    assert not is_irreducible_smalldeg(IntPoly.of(-1, 0, 1))
    assert not is_irreducible_smalldeg(IntPoly.of(2, 3, 1))
    for d in (*range(1, 13), 14, 15, 16, 18, 20, 24, 30):  # d <= 12 and every d with phi(d) <= 8
        assert is_irreducible_smalldeg(cyclotomic_polynomial(d)), d
    # irreducible over Q but reducible modulo every prime
    assert is_irreducible_smalldeg(IntPoly.of(1, 0, -10, 0, 1))
    # reducible: x divides the first, and the second has only the linear factor x - 2
    assert not is_irreducible_smalldeg(IntPoly.of(0, 1, 1))
    assert not is_irreducible_smalldeg(IntPoly.of(-2, 1) * IntPoly.of(3, 1, 1))
    # reducible, with no factor of degree below 4
    assert not is_irreducible_smalldeg(cyclotomic_polynomial(8) * cyclotomic_polynomial(12))


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
    assert witt._irreducible_mod(p, q) == _monic_sympy_poly(sympy, p, modulus=q).is_irreducible


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
            irreducible = witt._irreducible_mod(IntPoly.of(*coeffs), q)
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


# ---------------------------------------------------------------------------
# The dense oracle for the periodic lattice: the equality and congruence
# rows of every relation written out in full, one sweep per bound, and
# each congruence projected and solved apart, with no merging.


def _power_matrix(ring: CoeffRing, e: int) -> tuple[tuple[int, ...], ...]:
    """Matrix of the monomial map x -> x^e: row i is the unit vector at
    i*e mod k (over Z, the 1x1 identity)."""
    k = ring.rank
    return tuple(tuple(int(j == i * e % k) for j in range(k)) for i in range(k))


def _valuation(m: int, p: int) -> int:
    return next(v for v in range(m.bit_length() + 1) if m % p ** (v + 1))


def _dense_lattice_rows(n: int, ring: CoeffRing, bound: int):
    """(eq_rows, cong_rows, moduli, nvars, reps): every twisted equality
    and every congruence y[pm] = frob_p(y[m]) mod p^(v_p(m)+1) with
    p*m <= bound, as dense rows over the class-indexed variables."""
    dr = dr_monoid(Cycle(None, n, True))
    r = ring.rank
    nvars = dr.size * r

    def relation_rows(c_to, c_from, frob):
        rows = []
        for j in range(r):
            row = [0] * nvars
            row[c_to * r + j] += 1
            for i in range(r):
                row[c_from * r + i] -= frob[i][j]
            rows.append(row)
        return rows

    eq_rows = []
    g = math.gcd(n, r)
    for u in (u for u in range(1, n + 1) if math.gcd(u, n) == 1):
        for e in (j for j in range(1, r + 1) if math.gcd(j, r) == 1 and j % g == u % g):
            for c, a in enumerate(dr.reps):
                eq_rows += [row for row in relation_rows(dr.class_of_ideal(u * a), c, _power_matrix(ring, e)) if any(row)]
    for p in (p for p in range(2, n + 1) if n % p == 0 and is_prime(p)):
        for c, a in enumerate(dr.reps):
            if a % n % p ** _valuation(n, p) == 0:
                eq_rows += [row for row in relation_rows(dr.class_of_ideal(p * a), c, _power_matrix(ring, p)) if any(row)]
    cong_rows, moduli = [], []
    for p in (p for p in range(2, bound + 1) if is_prime(p)):
        keys = dict.fromkeys((dr.class_of_ideal(p * m), dr.class_of_ideal(m), _valuation(m, p) + 1) for m in range(1, bound // p + 1))
        for c_to, c_from, e in keys:
            for row in relation_rows(c_to, c_from, _power_matrix(ring, p)):
                cong_rows.append(row)
                moduli.append(p**e)
    return eq_rows, cong_rows, moduli, nvars, tuple(dr.reps)


def _equality_kernel_dense(eq_rows, nvars):
    if not eq_rows:
        return [[1 if j == i else 0 for j in range(nvars)] for i in range(nvars)]
    return left_kernel([[row[i] for row in eq_rows] for i in range(nvars)], len(eq_rows))


def _solve_dense_reference(eq_rows, cong_rows, moduli, nvars):
    """Reference solve: dense projection of every congruence row, no
    merging."""
    kernel = _equality_kernel_dense(eq_rows, nvars)
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


def _dense_lattice(n: int, ring: CoeffRing, bound: int):
    """(basis, stable, class_reps) of the periodic lattice, solved densely
    at the bound and at bound // 2."""
    eq_rows, cong_rows, moduli, nvars, reps = _dense_lattice_rows(n, ring, bound)
    basis = _solve_dense_reference(eq_rows, cong_rows, moduli, nvars)
    half = _solve_dense_reference(*_dense_lattice_rows(n, ring, bound // 2)[:4])
    return tuple(map(tuple, basis)), half == basis, reps


@pytest.mark.parametrize("bound", [4, 7, 16, 33, 64])
def test_lattice_solve_matches_dense_reference(bound):
    """The one-solve lattice against the dense oracle for n <= 12 over Z,
    Z[C_n], Z[C_4] and Z[C_6]: the same basis, stability and class
    representatives.  The odd bounds pin the rounding of bound // 2."""
    for n in range(1, 13):
        for ring in (INTEGERS, CoeffRing(n), CoeffRing(4), CoeffRing(6)):
            lattice = periodic_witt_lattice(n, ring, bound)
            assert (lattice.basis, lattice.stable, lattice.class_reps) == _dense_lattice(n, ring, bound), (n, ring.rank)
    # the comparison reuses the group ring's lattice
    for n in range(1, 9):
        assert ray_class_algebra_witt_iso_check(n, bound).lattice == periodic_witt_lattice(n, CoeffRing(n), bound)


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
    kernel = _equality_kernel_dense(eq_rows, nvars)
    merged = {}
    projections = [[sum(c * x for c, x in zip(row, krow)) for krow in kernel] for row in cong_rows]
    for proj, m in zip(projections, moduli):
        witt._merge_congruence(merged, proj, m)
    # one key per nonzero projection up to sign, leading with a positive
    # entry, modulo the lcm of the moduli that projection came with
    expected = {}
    for proj, m in zip(projections, moduli):
        if any(proj):
            key = tuple(x * (1 if next(y for y in proj if y) > 0 else -1) for x in proj)
            expected[key] = math.lcm(expected.get(key, 1), m)
    assert merged == expected
    assert all(next(x for x in key if x) > 0 for key in merged)
    solved = hnf_rows([[sum(t * y for t, y in zip(sol, col)) for col in zip(*kernel)] for sol in witt._kernel_solutions(kernel, merged)], nvars)
    assert solved == _solve_dense_reference(eq_rows, cong_rows, moduli, nvars)


def _two_solve_lattice(n: int, ring: CoeffRing, bound: int):
    """(basis, stable) by the earlier path of ``periodic_witt_lattice``:
    the merged congruences solved at the bound and again at bound // 2,
    and the two bases compared."""
    dr = dr_monoid(Cycle(None, n, True))
    k = ring.rank
    nvars = dr.size * k
    cls = [0] * n
    for a in range(1, n + 1):
        cls[a % n] = dr.class_of_ideal(a)
    kernel = witt._equality_kernel(n, k, dr.reps, cls, nvars)
    tags = {}
    for p in witt.primes_upto(bound):
        for m in range(1, bound // p + 1):
            key = (cls[p * m % n], cls[m % n], p % k)
            tags.setdefault(key, {}).setdefault(p ** (witt._valuation(m, p) + 1), p * m)
    columns = list(zip(*kernel))
    full, halved = {}, {}
    for (c_to, c_from, e), moduli in tags.items() if kernel else ():
        projs = [list(columns[c_to * k + j]) for j in range(k)]
        for i in range(k):
            projs[i * e % k] = [x - y for x, y in zip(projs[i * e % k], columns[c_from * k + i])]
        every, within_half = math.lcm(*moduli), math.lcm(*[m for m, pm in moduli.items() if pm <= bound // 2])
        for proj in projs:
            witt._merge_congruence(full, proj, every)
            witt._merge_congruence(halved, proj, within_half)

    def solve(merged):
        ncong = len(merged)
        system = [[c[i] for c in merged] for i in range(len(kernel))]
        system += [[m if j == i else 0 for j in range(ncong)] for i, m in enumerate(merged.values())]
        rows = []
        for sol in left_kernel(system, ncong):
            row = [0] * nvars
            for t, krow in zip(sol, kernel):
                if t:
                    row = [x + t * y for x, y in zip(row, krow)]
            rows.append(row)
        return hnf_rows(rows, nvars)

    basis = solve(full)
    return tuple(map(tuple, basis)), basis == solve(halved)


def test_one_solve_stability_matches_two_solves():
    """Stability decided from the half solve (each full congruence tested
    on its solutions, a second solve only when one fails) gives the basis
    and flag of solving both sweeps, over n <= 8, rings of rank 1, n and 4
    and bounds 16, 32 and 64, unstable lattices included."""
    unstable = 0
    for n in range(1, 9):
        for ring in (INTEGERS, CoeffRing(n), CoeffRing(4)):
            for bound in (16, 32, 64):
                lattice = periodic_witt_lattice(n, ring, bound)
                assert (lattice.basis, lattice.stable) == _two_solve_lattice(n, ring, bound), (n, ring.rank, bound)
                unstable += not lattice.stable
    assert unstable == 12


def test_lattice_bound_refuses_before_any_monoid(monkeypatch):
    """The variable count n * k and the sweep are each held to the lattice
    bound, which LAMBDA_FORGE_BOUND scales; nothing is built first."""

    def no_monoid(*args):
        raise AssertionError("monoid built before the bound check")

    monkeypatch.setattr(witt, "dr_monoid", no_monoid)
    with pytest.raises(BoundExceededError, match="^40000 periodic lattice variables over lattice bound$"):
        ray_class_algebra_witt_iso_check(200, 64)
    with pytest.raises(BoundExceededError, match="^congruence sweep to 100000000 over lattice bound$"):
        periodic_witt_lattice(4, CoeffRing(4), 10**8)
    monkeypatch.setenv("LAMBDA_FORGE_BOUND", "63")
    with pytest.raises(BoundExceededError, match="^64 periodic lattice variables over lattice bound$"):
        periodic_witt_lattice(8, CoeffRing(8), 16)
    with pytest.raises(BoundExceededError, match="^congruence sweep to 64 over lattice bound$"):
        periodic_witt_lattice(2, INTEGERS, 64)
    monkeypatch.undo()
    expected = periodic_witt_lattice(8, CoeffRing(8), 64)
    monkeypatch.setenv("LAMBDA_FORGE_BOUND", "64")  # both limits are inclusive
    assert periodic_witt_lattice(8, CoeffRing(8), 64) == expected


WITT_REFUSALS = [
    (INTEGERS.gen, (), InputError("the integer ring has no generator")),
    (INTEGERS.exact_div, ((3,), 2), InputError("inexact division in the coefficient ring")),
    (is_irreducible_smalldeg, (IntPoly.of(1, 2),), InputError("monic input required")),
]


@pytest.mark.parametrize("call, args, error", WITT_REFUSALS, ids=[row[0].__name__ for row in WITT_REFUSALS])
def test_refusals(call, args, error):
    """Each refusal a caller can send, with its type and message."""
    with pytest.raises(type(error)) as exc:
        call(*args)
    assert str(exc.value) == str(error)


def test_frobenius_congruence_on_a_window_without_multiples():
    """On the truncation set {1} no a has p*a in the set: nothing to check."""
    g = GhostVector.make(INTEGERS, TruncationSet.divisors_of(1), {1: (5,)})
    assert frobenius_congruence_check(g, 2)


def test_unstable_lattice_gives_an_inconclusive_verdict():
    """At n = 3 the sweep to 4 does not stabilize: the verdict is neither
    true nor false."""
    rep = ray_class_algebra_witt_iso_check(3, 4)
    assert not rep.stable and rep.verdict == "inconclusive"
