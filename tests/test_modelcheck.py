import itertools
import json
import random
import time
from collections import Counter
from math import gcd, lcm

import pytest

from lambda_forge import cli, modelcheck
from lambda_forge.errors import InputError, ModelRefusedError
from lambda_forge.intlinalg import divisors, factor, is_prime
from lambda_forge.modelcheck import (
    FiniteIdSet,
    LocalIdSet,
    compute_r,
    conductor,
    decide_model,
    dr_action,
    factors_through_dr,
    has_integral_model,
    local_model_exists,
    local_quotient_monoid,
    local_retraction,
    local_unramified_core,
    minimal_cycle,
    model_cycle_bound,
    mu_n_data,
    mu_n_pm_data,
    subset_conductors,
    _compose,
    _subset_image,
)
from lambda_forge.quadfield import QuadField, ideal_from_int
from lambda_forge.rayclass import Cycle, divisor_cycles, dr_monoid


def test_validation():
    with pytest.raises(InputError):
        FiniteIdSet.make(2, 2, {1: [0, 1]}, {})  # missing special prime 2
    with pytest.raises(InputError):
        FiniteIdSet.make(2, 3, {1: [0, 1], 2: [0, 0]}, {3: [0, 1]})  # not a permutation
    # non-commuting maps rejected
    with pytest.raises(InputError):
        FiniteIdSet.make(3, 1, {1: [0, 1, 2]}, {2: [1, 0, 2], 3: [0, 2, 1]})


def test_galois_lists_each_unit_once_in_increasing_order():
    """psi_prime finds a unit's permutation by bisection, so a tuple that
    repeats a unit or lists the units out of order is refused."""
    s = mu_n_pm_data(5)
    for galois in (s.galois[::-1], s.galois + s.galois[:1]):
        with pytest.raises(InputError, match="^galois data must list exactly the units mod m$"):
            FiniteIdSet(s.size, s.m, galois, s.special)
    assert [s.psi_prime(p) for p in (2, 3, 7, 11)] == [s.galois_map[p % 5] for p in (2, 3, 7, 11)]


@pytest.mark.parametrize("key, message", [(9, "galois keys 4 and 9"), (-4, "galois keys -4 and 1")])
def test_make_refuses_two_keys_for_one_unit(key, message):
    """mu5pm with a second key for a unit mod 5: one of the two maps used
    to be dropped without a word."""
    galois = {1: [0, 1, 2], 2: [0, 2, 1], 3: [0, 2, 1], 4: [0, 1, 2], key: [0, 1, 2]}
    with pytest.raises(InputError, match=f"^{message} are the same unit mod 5$"):
        FiniteIdSet.make(3, 5, galois, {5: [0, 0, 0]})


def _all_pairs_refusal(size, m, galois, special):
    """The message FiniteIdSet gave when it checked the group law on every
    pair of units and commutation on every pair of maps, or None: the
    oracle for the check on generators."""
    if size < 0:
        return "size must be non-negative"
    if m < 1 or m > 10**4:
        return "modulus must be positive and within the enumeration bound"
    units = [u % m for u in range(1, m + 1) if gcd(u, m) == 1]
    gal = {u % m: tuple(perm) for u, perm in galois.items()}
    if sorted(gal) != sorted(set(units)):
        return "galois data must list exactly the units mod m"
    for u, perm in gal.items():
        if sorted(perm) != list(range(size)):
            return f"galois image of {u} is not a permutation"
    for u in gal:
        for v in gal:
            if _compose(gal[u], gal[v]) != gal[(u * v) % m]:
                return "galois data is not a group action"
    sp = {p: tuple(f) for p, f in special.items()}
    for p in sorted(sp):
        if not is_prime(p):
            return f"special map key {p} is not a prime"
    for p in factor(m).primes():
        if p not in sp:
            return f"special maps must cover the primes dividing m (missing {p})"
    maps = [sp[p] for p in sorted(sp)] + [gal[u] for u in sorted(gal)]
    for f in sp.values():
        if len(f) != size or any(not 0 <= x < size for x in f):
            return "special map out of range"
    for i, f in enumerate(maps):
        for g in maps[i + 1 :]:
            if _compose(f, g) != _compose(g, f):
                return "the prime maps and Galois action must all commute"
    return None


def _corrupted(rng: random.Random, s: FiniteIdSet) -> tuple:
    """(size, m, galois, special) of s with one random change: a unit's
    permutation reshuffled, swapped with another's, moved to the inverse
    unit (still an action), or put on 1; the permutations of a coset of a
    cyclic subgroup <g> shifted by a unit, which keeps the law on g (g is
    often the least unit past 1); a special map redrawn, made a Galois
    permutation (still commuting), or given a non-prime key."""
    gal, sp = {u: list(p) for u, p in s.galois}, {p: list(f) for p, f in s.special}
    units, n = sorted(gal), s.size
    kind = rng.randrange(8)
    u = rng.choice(units)
    if kind == 0:
        rng.shuffle(gal[u])
    elif kind == 1:
        gal[u] = list(gal[rng.choice(units)])
    elif kind == 2:
        gal = {v: gal[pow(v, -1, s.m) if s.m > 1 else v] for v in units}
    elif kind == 3:
        gal[1 % s.m] = rng.sample(range(n), n)
    elif kind == 4 and sp:
        sp[rng.choice(sorted(sp))] = [rng.randrange(n) for _ in range(n)] if n else []
    elif kind == 5 and sp:
        sp[rng.choice(sorted(sp))] = list(gal[u])
    elif kind == 6 and len(units) > 2:
        g = units[1] if rng.random() < 0.5 else u
        cyclic = {pow(g, k, s.m) for k in range(len(units))}
        h, w = rng.choice([v for v in units if v not in cyclic] or units), rng.choice(units)
        gal.update({h * x % s.m: gal[h * x * w % s.m] for x in cyclic})
    else:
        sp[rng.choice([1, 4, 9])] = list(range(n))
    return n, s.m, gal, sp


def test_generator_check_refuses_what_all_pairs_refuse():
    rng = random.Random(28)
    sets = _random_idsets(rng, 80) + [mu_n_data(n) for n in range(1, 31)] + [mu_n_pm_data(n) for n in range(1, 31, 2)]
    outcomes = Counter()
    for s in sets:
        for _ in range(6):
            size, m, galois, special = _corrupted(rng, s)
            want = _all_pairs_refusal(size, m, galois, special)
            try:
                FiniteIdSet.make(size, m, galois, special)
                got = None
            except InputError as exc:
                got = str(exc)
            assert got == want, (size, m, galois, special)
            outcomes[want] += 1
    assert outcomes[None] >= 100 and outcomes["galois data is not a group action"] >= 100, outcomes
    assert outcomes["the prime maps and Galois action must all commute"] >= 50, outcomes
    assert outcomes["galois data is not a group action"] > outcomes[None] / 2, outcomes


def test_mu_n_data_constructs_within_a_second():
    """phi(1000) = 400 units: 400^2 compositions of length 1000 took 11 s;
    on its 3 generators the checks take 1,200."""
    start = time.perf_counter()
    s = mu_n_data(1000)
    assert time.perf_counter() - start < 1
    assert s.size == 1000 and len(s.galois) == 400


def test_subset_conductors_are_the_conductors_of_the_images():
    for s in _random_idsets(random.Random(5), 40) + [mu_n_data(n) for n in (1, 4, 12, 30)]:
        conductors = subset_conductors(s)
        assert list(conductors) == divisors(compute_r(s))
        assert all(c == conductor(s, _subset_image(s, d)) for d, c in conductors.items())


def test_compute_r_examples():
    assert compute_r(mu_n_data(4)) == 4  # ord_2 = 2
    assert compute_r(mu_n_data(6)) == 6
    s = FiniteIdSet.make(2, 1, {1: [0, 1]}, {5: [0, 1]})
    assert compute_r(s) == 1  # bijective special map


def test_conductor_examples():
    s = mu_n_data(5)
    assert conductor(s) == Cycle(None, 5, True)
    sq = mu_n_pm_data(5)
    assert conductor(sq) == Cycle(None, 5, False)
    # trivial action
    s1 = mu_n_data(1)
    assert conductor(s1) == Cycle(None, 1, False)


def test_decide_model_examples():
    s1 = mu_n_data(1)
    for f in ("1", "3", "4*inf"):
        assert decide_model(s1, Cycle.parse(f))
    s4 = mu_n_data(4)
    assert decide_model(s4, Cycle.parse("4*inf"))
    assert not decide_model(s4, Cycle.parse("4"))
    assert not decide_model(s4, Cycle.parse("2*inf"))
    assert decide_model(s4, Cycle.parse("8*inf"))


def test_minimal_cycle_examples():
    assert minimal_cycle(mu_n_data(1)) == Cycle.parse("1")
    assert minimal_cycle(mu_n_data(2)) == Cycle.parse("2")
    for n in (3, 4, 5, 6, 8, 12):
        assert minimal_cycle(mu_n_data(n)) == Cycle(None, n, True), n
    for n in (1, 3, 5, 7):
        assert minimal_cycle(mu_n_pm_data(n)) == Cycle(None, n, False), n


@pytest.mark.parametrize("wrong", ["24*inf", "12", "6*inf"])
def test_minimal_cycle_search_refuses_a_wrong_bound(wrong, monkeypatch):
    """The divisor search tests each cycle directly, so a wrong lcm bound
    (a multiple, or a divisor, of the true 12*inf) is caught rather than
    confirmed by decide_model, which reads the same bound."""
    s = mu_n_data(12)
    monkeypatch.setattr(modelcheck, "model_cycle_bound", lambda _: Cycle.parse(wrong))
    with pytest.raises(AssertionError, match="^lcm formula disagrees with divisor-cycle search$"):
        minimal_cycle(s)


def test_projected_image_equals_the_image_at_each_divisor():
    """(id x pi_g)(J_F) = J_g for every divisor cycle g of F = the lcm
    bound, so the verdict read off the projection is the direct test's."""
    sets = _random_idsets(random.Random(27), 300)
    sets += [mu_n_data(n) for n in range(1, 31)] + [mu_n_pm_data(n) for n in range(1, 31, 2)]
    checked = 0
    for s in sets:
        f0 = model_cycle_bound(s)
        image, top = modelcheck._joint_image(s, f0)
        for g in divisor_cycles(f0):
            projected = modelcheck._projected_image(image, top, g)
            assert projected == modelcheck._joint_image(s, g)[0], (s, str(g))
            assert modelcheck._single_valued(projected) == factors_through_dr(s, g), (s, str(g))
            checked += 1
    assert checked >= 2000


def test_joint_image_holds_every_ideal():
    """Each ideal (a) contributes (psi_(a), [a]) to J_f: the generator data
    misses none of them, including the primes of f that are not special."""
    rng = random.Random(5)
    for s in _random_idsets(rng, 60):
        for f in _candidate_cycles(rng, s):
            image, dr = modelcheck._joint_image(s, f)
            for a in range(1, 3 * lcm(s.m, f.finite) + 1):
                assert (s.psi_ideal(a), dr.class_of_ideal(a)) in image, (s, str(f), a)


def test_minimal_cycle_builds_one_joint_image(monkeypatch):
    built = []
    joint_image = modelcheck._joint_image

    def counted(s, f):
        built.append(f)
        return joint_image(s, f)

    monkeypatch.setattr(modelcheck, "_joint_image", counted)
    assert minimal_cycle(mu_n_data(60)) == Cycle.parse("60*inf")
    assert built == [Cycle.parse("60*inf")]


def _verb_reference(s: FiniteIdSet, cycle: str | None) -> dict:
    """model-check's JSON read off the public functions, in the verb's
    order: r, each c(dS), the local conditions, the minimal cycle, then
    decide_model at the cycle, parsed last."""
    r = compute_r(s)
    conductors = {str(d): str(c) for d, c in subset_conductors(s).items()}
    exists = has_integral_model(s)
    minimal = str(minimal_cycle(s)) if exists else None
    if cycle is not None:
        exists = decide_model(s, Cycle.parse(cycle))
    return {"exists": exists, "minimal_cycle": minimal, "r": r, "conductors": conductors}


def _outcome(fn, *args):
    """fn's answer, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _one_pass_answer(s: FiniteIdSet, cycle: str | None) -> dict:
    exists, f0, r, conductors = modelcheck.model_check(s, cycle)
    minimal = None if f0 is None else str(f0)
    return {"exists": exists, "minimal_cycle": minimal, "r": r, "conductors": {str(d): str(c) for d, c in conductors.items()}}


def test_model_check_matches_the_public_functions(tmp_path, capsys):
    """The one-pass verb answers, and refuses with the same type and
    message, as the public functions called one by one: on random sets and
    mu_n, mu_n/+-1, at no cycle, f0, 2 f0, f0 without the real place, a
    non-multiple of f0 (f0 + 1, when f0 > 1) and a cycle that is no ideal.
    The CLI's JSON is that answer; its error line is that message."""
    sets = _random_idsets(random.Random(30), 300)
    sets += [mu_n_data(n) for n in range(1, 31)] + [mu_n_pm_data(n) for n in range(1, 30, 2)]
    path = tmp_path / "s.json"
    kinds = Counter()
    for s in sets:
        f0 = model_cycle_bound(s)
        path.write_text(json.dumps(s.to_json()))
        for cycle in (None, f0, Cycle(None, 2 * f0.finite, f0.infinity), Cycle(None, f0.finite, False), Cycle(None, f0.finite + 1, f0.infinity), "0"):
            cycle = None if cycle is None else str(cycle)
            want = _outcome(_verb_reference, s, cycle)
            assert _outcome(_one_pass_answer, s, cycle) == want, (s, cycle)
            code = cli.main(["model-check", "--input", str(path), "--json"] + ([] if cycle is None else ["--cycle", cycle]))
            out, err = capsys.readouterr()
            if isinstance(want, dict):
                assert (code, json.loads(out), err) == (0, want, ""), (s, cycle)
                kinds[want["exists"]] += 1
            else:
                assert want[0] is InputError and (code, out, err) == (1, "", f"error: {want[1]}\n"), (s, cycle)
                kinds[want[1]] += 1
    assert kinds[True] > 500 and kinds[False] > 500
    assert kinds["a rational ideal must be a positive integer"] == len(sets)


def test_model_check_at_f0_builds_one_joint_image(tmp_path, monkeypatch, capsys):
    """At --cycle f0 the divisor search's image serves the decision, and
    each c(dS) is computed once; another multiple of f0 gets its own image."""
    built, conducted = [], []
    joint_image, conductor_ = modelcheck._joint_image, modelcheck.conductor

    def counted_image(s, f):
        built.append(str(f))
        return joint_image(s, f)

    def counted_conductor(s, subset=None):
        conducted.append(subset)
        return conductor_(s, subset)

    monkeypatch.setattr(modelcheck, "_joint_image", counted_image)
    monkeypatch.setattr(modelcheck, "conductor", counted_conductor)
    path = tmp_path / "mu60.json"
    path.write_text(json.dumps(mu_n_data(60).to_json()))
    for cycle, images in (("60*inf", ["60*inf"]), ("120*inf", ["60*inf", "120*inf"]), ("60", ["60*inf"])):
        built.clear()
        conducted.clear()
        assert cli.main(["model-check", "--input", str(path), "--cycle", cycle, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["exists"] is (cycle != "60")
        assert built == images
        assert len(conducted) == len(divisors(60))  # r = 60


def test_minimal_cycle_refusal():
    # transposition at an unramified prime with trivial galois: no model
    s = FiniteIdSet.make(2, 1, {1: [0, 1]}, {2: [1, 0]})
    assert not has_integral_model(s)
    with pytest.raises(ModelRefusedError):
        minimal_cycle(s)
    # and the direct factorization test refuses every cycle too
    for f in ("1", "2", "2*inf", "6*inf"):
        assert not factors_through_dr(s, Cycle.parse(f))


def test_gcd_lemma_image_sets():
    rng = random.Random(4)
    for s in _random_idsets(rng, 40):
        r = compute_r(s)
        for d in (1, 2, 3, 4, 6, 8, 12, 30):
            assert _subset_image(s, d) == _subset_image(s, gcd(d, r))


def test_r_divides_minimal_cycle():
    for n in (1, 2, 3, 4, 6, 9, 10):
        s = mu_n_data(n)
        assert minimal_cycle(s).finite % compute_r(s) == 0


def test_dr_action_examples():
    s6 = mu_n_data(6)
    table = dr_action(s6, Cycle.parse("6*inf"))
    dr = dr_monoid(Cycle.parse("6*inf"))
    # the action matches multiplication on Z/6 by the representative
    for i in range(dr.size):
        rep = dr.reps[i]
        assert table[i] == tuple((rep * x) % 6 for x in range(6))
    with pytest.raises(ModelRefusedError):
        dr_action(s6, Cycle.parse("3*inf"))


def test_free_dr_set_round_trip():
    # the free action, packaged as combinatorial data, acts by translation
    f = Cycle.parse("6*inf")
    dr = dr_monoid(f)
    n = f.finite
    galois = {}
    for u in range(1, n + 1):
        if gcd(u, n) == 1:
            galois[u] = [dr.mul(dr.class_of_ideal(u), x) for x in range(dr.size)]
    special = {p: [dr.mul(dr.class_of_ideal(p), x) for x in range(dr.size)] for p in factor(n).primes()}
    s = FiniteIdSet.make(dr.size, n, galois, special)
    table = dr_action(s, f)
    assert [list(row) for row in table] == [list(r) for r in dr.table()]


def test_lemma_equivalence_randomized_small():
    rng = random.Random(9)
    checked = 0
    for s in _random_idsets(rng, 60):
        for f in _candidate_cycles(rng, s):
            assert decide_model(s, f) == factors_through_dr(s, f), (s, str(f))
            checked += 1
    assert checked >= 120


def _random_idsets(rng: random.Random, count: int):
    """Multiplication-type actions on Z/N (plus an optional fixed point):
    commuting by construction, with both model and non-model cases."""
    out = []
    while len(out) < count:
        N = rng.randrange(1, 13)
        j = rng.choice([1, 1, 2, 3])
        m = N * j
        if m > 24 or m < 1:
            continue
        add_fixed = rng.random() < 0.3
        size = N + (1 if add_fixed else 0)

        def mult_map(c: int) -> list[int]:
            base = [(c * x) % N for x in range(N)]
            return base + [N] if add_fixed else base

        galois = {u: mult_map(u % N) for u in range(1, m + 1) if gcd(u, m) == 1}
        bprimes = set(factor(m).primes()) | ({2, 3} if rng.random() < 0.5 else set())
        special = {p: mult_map(rng.randrange(0, max(N, 1))) for p in sorted(bprimes)}
        try:
            out.append(FiniteIdSet.make(size, m, galois, special))
        except InputError:
            continue
    return out


def _candidate_cycles(rng: random.Random, s: FiniteIdSet):
    cycles = [Cycle.parse("1"), Cycle.parse("2*inf")]
    if has_integral_model(s):
        f0 = model_cycle_bound(s)
        cycles.append(f0)
        if f0.finite > 1:
            cycles.append(Cycle(None, f0.finite // factor(f0.finite).primes()[0], f0.infinity))
        cycles.append(Cycle(None, f0.finite * 2, True))
    cycles.append(Cycle(None, rng.randrange(1, 13), rng.random() < 0.5))
    return cycles


# ---------------------------------------------------------------------------
# Local theory


TRIV = ((0,),)


def _local(size, group, inertia, frob, action, psi):
    return LocalIdSet(size, group, frozenset(inertia), frozenset(frob), action, psi)


def test_levels_and_retraction():
    s = _local(4, TRIV, {0}, {0}, ((0, 1, 2, 3),), (0, 2, 0, 2))
    core, levels = local_unramified_core(s)
    assert sorted(core) == [0]
    assert [sorted(l) for l in levels] == [[0], [2], [1, 3]]
    assert local_retraction(s) == (0, 0, 0, 0)
    # identity when the core is everything
    s2 = _local(3, TRIV, {0}, {0}, ((0, 1, 2),), (1, 2, 0))
    assert local_retraction(s2) == (0, 1, 2)


def test_retraction_equivariance():
    g2 = ((0, 1), (1, 0))
    action = ((0, 1, 2, 3), (1, 0, 3, 2))
    psi = (0, 1, 0, 1)
    s = _local(4, g2, {0}, {0}, action, psi)
    ret = local_retraction(s)
    for gi in range(2):
        for x in range(4):
            assert ret[s.action[gi][x]] == s.action[gi][ret[x]]
    for x in range(4):
        assert ret[s.psi[x]] == s.psi[ret[x]]


def test_local_model_exists():
    # psi equals the frobenius action on the core
    g2 = ((0, 1), (1, 0))
    s = _local(2, g2, {0}, {1}, ((0, 1), (1, 0)), (1, 0))
    assert local_model_exists(s)
    # inertia acting nontrivially on the core kills it
    s2 = _local(2, g2, {0, 1}, {0, 1}, ((0, 1), (1, 0)), (0, 1))
    assert not local_model_exists(s2)
    # psi differing from frobenius on the core kills it
    s3 = _local(2, g2, {0}, {1}, ((0, 1), (1, 0)), (0, 1))
    assert not local_model_exists(s3)


def test_local_quotient_monoid():
    g2 = ((0, 1), (1, 0))
    m = local_quotient_monoid(g2, frozenset({0}), frozenset({0}), 1)
    assert m.size == 4  # 1*|G| + |G/I|
    m0 = local_quotient_monoid(g2, frozenset({0}), frozenset({1}), 0)
    assert m0.size == 2
    z4 = tuple(tuple((i + j) % 4 for j in range(4)) for i in range(4))
    for group, inertia, frob, n in [
        (g2, {0}, {0}, 2),
        (g2, {0, 1}, {0, 1}, 1),
        (z4, {0, 2}, {1, 3}, 2),
        (z4, {0}, {2}, 3),
    ]:
        mon = local_quotient_monoid(group, frozenset(inertia), frozenset(frob), n)
        assert mon.size == n * len(group) + len(group) // len(inertia)
        size = mon.size
        for a, b, c in itertools.product(range(size), repeat=3):
            assert mon.table[mon.table[a][b]][c] == mon.table[a][mon.table[b][c]]


Z2 = ((0, 1), (1, 0))
SWAP = ((0, 1), (1, 0))  # Z/2 acting on two points, 1 by the swap
S3_PERMS = list(itertools.permutations(range(3)))
S3 = tuple(tuple(S3_PERMS.index(_compose(f, g)) for g in S3_PERMS) for f in S3_PERMS)
# a Galois unit that swaps the two points, and the quadratic cycle (2) of Q(i)
SWAPPED = FiniteIdSet.make(2, 3, {1: [0, 1], 2: [1, 0]}, {3: [0, 1]})
GAUSS_CYCLE = Cycle(QuadField(-1), ideal_from_int(QuadField(-1), 2))

MODELCHECK_REFUSALS = [
    (FiniteIdSet.make, (2, 1, {1: [0, 1]}, {2: [0, 2]}), InputError("special map out of range")),
    (FiniteIdSet.make(2, 2, {1: [0, 1]}, {2: [0, 1]}).psi_prime, (4,), InputError("prime 4 divides m but is not special")),
    (conductor, (SWAPPED, frozenset({0})), InputError("subset is not closed under the Galois action")),
    (decide_model, (SWAPPED, GAUSS_CYCLE), InputError("model decisions run over the rationals")),
    (factors_through_dr, (SWAPPED, GAUSS_CYCLE), InputError("model decisions run over the rationals")),
    # LocalIdSet's checks, in order: (size, group, inertia, frobenius, action, psi)
    (LocalIdSet, (1, ((0, 1), (1, 1)), frozenset({0}), frozenset({0}), ((0,), (0,)), (0,)), InputError("group table rows must be permutations")),
    (LocalIdSet, (2, Z2, frozenset({0}), frozenset({0}), ((1, 0), (1, 0)), (0, 1)), InputError("action is not a group action")),
    (LocalIdSet, (2, ((0,),), frozenset({0}), frozenset({0}), ((0, 0),), (0, 1)), InputError("identity must act trivially")),
    (LocalIdSet, (2, Z2, frozenset({1}), frozenset({1}), SWAP, (0, 1)), InputError("inertia is not a subgroup")),
    (LocalIdSet, (1, S3, frozenset({0, 1}), frozenset({0, 1}), ((0,),) * 6, (0,)), InputError("inertia is not normal")),
    (LocalIdSet, (2, Z2, frozenset({0}), frozenset({0, 1}), SWAP, (0, 1)), InputError("frobenius is not an inertia coset")),
    (LocalIdSet, (2, Z2, frozenset({0}), frozenset({1}), SWAP, (0, 0)), InputError("psi must commute with the group action")),
    (local_quotient_monoid, (S3, frozenset({0, 1}), frozenset({0, 1}), 2), InputError("inertia must be a normal subgroup")),
    (local_quotient_monoid, (Z2, frozenset({0}), frozenset({0, 1}), 2), InputError("frobenius must be an inertia coset")),
]


@pytest.mark.parametrize("call, args, error", MODELCHECK_REFUSALS, ids=[row[0].__name__ for row in MODELCHECK_REFUSALS])
def test_refusals(call, args, error):
    """Each refusal a caller can send, with its type and message."""
    with pytest.raises(type(error)) as exc:
        call(*args)
    assert str(exc.value) == str(error)


def test_local_model_refused_when_inertia_moves_the_core():
    """psi = id makes every point core; inertia = the whole Z/2, which
    swaps the two points, does not act trivially there."""
    assert not local_model_exists(LocalIdSet(2, Z2, frozenset({0, 1}), frozenset({0, 1}), SWAP, (0, 1)))
