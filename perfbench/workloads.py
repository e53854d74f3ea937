"""The four benchmark workloads.

A run of a workload is a sequence of sessions.  A session is one fresh
interpreter that builds the workload's fixed fixtures through the library
in its constructor (that time is part of ``setup_s``) and then serves
``SESSION_OPS`` operations ``op(i)`` in a closed loop with one client.
The package's caches warm up within a session, so a session of fixed size
makes every session of a run follow the same cold-to-warm path whatever
the machine's speed; a run repeats sessions until its time is up.

All inputs come from the seed and the session number; the library only
ever sees the generated inputs.  Every operation checks its own answer
against an oracle and returns ``(ok, answer)``; the answer feeds the
session's answer digest.  Heavy operations sit at fixed positions of a
repeating schedule and their sizes cycle through fixed lists, so every
session runs the same mix; the seed picks the concrete inputs.

Library functions are always called through their module
(``rc.f_equiv``), never through names imported into this file, so that
the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_FILE = os.path.join(HERE, "cli_goldens.json")


def library_env(root: str) -> dict[str, str]:
    """Environment for a child interpreter that imports lambda_forge from
    ROOT/src, without a size-bound override."""
    env = dict(os.environ)
    env.pop("LAMBDA_FORGE_BOUND", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _rng(name: str, seed: int, session: int, stream: str) -> random.Random:
    return random.Random(f"{name}/{stream}/{seed}/{session}")


class RationalConductors:
    """A stream of rational conductors (n) and (n)*inf with n in the
    hundreds, under the supports ``all`` and ``all-except:2``.

    Why: most operations meet a conductor not seen before in the session, so
    building ray class groups and monoids (the write side of ``rayclass``)
    and factoring in ``intlinalg`` dominate; ``quadfield`` and ``witt``
    stay idle.
    """

    name = "rational-conductors"
    SESSION_OPS = 300
    PERIOD = 50
    TORIC_SLOT = 0  # gm_periodic_exponent
    MODEL_SLOT = 25  # decide_model against factors_through_dr

    def __init__(self, seed: int, session: int, root: str):
        from lambda_forge import lambdapoly, modelcheck, rayclass

        self.rc, self.lp, self.mc = rayclass, lambdapoly, modelcheck
        self.rng = _rng(self.name, seed, session, "ops")
        self.supports = [rayclass.PrimeSupport.parse("all"), rayclass.PrimeSupport.parse("all-except:2")]
        self.idsets = self._random_idsets(_rng(self.name, seed, session, "fixtures"), 32)
        self.conductor_draws = self._conductor_draws(_rng(self.name, seed, session, "conductors"))
        self.seen: set[tuple] = set()
        self.conductor_ops = 0
        self.new_conductor_ops = 0

    def _random_idsets(self, rng: random.Random, count: int):
        """Finite sets with commuting multiplication maps: Z/N (plus an
        optional fixed point) with (Z/m)* acting through Z/N, N | m."""
        out = []
        while len(out) < count:
            big_n = rng.randrange(1, 13)
            m = big_n * rng.choice((1, 1, 2, 3))
            if m > 24:
                continue
            fixed = rng.random() < 0.3

            def mult_map(c: int, big_n=big_n, fixed=fixed) -> list[int]:
                base = [(c * x) % big_n for x in range(big_n)]
                return base + [big_n] if fixed else base

            galois = {u: mult_map(u % big_n) for u in range(1, m + 1) if gcd(u, m) == 1}
            special_primes = {p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23) if m % p == 0}
            if rng.random() < 0.5:
                special_primes |= {2, 3}
            special = {p: mult_map(rng.randrange(0, big_n)) for p in sorted(special_primes)}
            out.append(self.mc.FiniteIdSet.make(big_n + fixed, m, galois, special))
        return out

    def _conductor_draws(self, rng: random.Random) -> list[tuple[int, bool, int]]:
        """(n, inf, support index) for each conductor operation of a
        session, in a seeded order.  The triples are the same for every
        seed: evenly spaced n in 100..999, with inf and the support each
        set for half of them.  A conductor's cost depends on n, its
        factorisation and the two flags; with them drawn at random the
        session's cost moved by about 15% and its 90th-percentile latency
        by about 20% from seed to seed.  The seed picks the order, which
        decides what the caches hold when each conductor comes, and the
        ideals."""
        count = self.SESSION_OPS - 2 * (self.SESSION_OPS // self.PERIOD)
        draws = [(100 + (k * 900) // count, k % 2 == 1, k // 2 % 2) for k in range(count)]
        rng.shuffle(draws)
        return draws

    def op(self, i: int):
        slot = i % self.PERIOD
        if slot == self.TORIC_SLOT:
            return self._toric_op()
        if slot == self.MODEL_SLOT:
            return self._model_op()
        return self._conductor_op()

    def _conductor_op(self):
        rc, rng = self.rc, self.rng
        n, inf, sup_index = self.conductor_draws[self.conductor_ops]
        sup = self.supports[sup_index]
        odd_only = sup.mode != "all"
        key = (n, inf, odd_only)
        self.conductor_ops += 1
        if key not in self.seen:
            self.seen.add(key)
            self.new_conductor_ops += 1
        f = rc.Cycle(None, n, inf)
        dr = rc.dr_monoid(f, sup)
        supported_divisors = [d for d in range(1, n + 1) if n % d == 0 and (d % 2 or not odd_only)]
        expected = sum(rc.ray_class_group(rc.Cycle(None, n // d, inf), sup).order for d in supported_divisors)
        ok = dr.size == expected and (dr.size == n or not inf or odd_only)
        ideals = []
        for _ in range(5):
            a = rng.randrange(1, 20 * n)
            ideals.append(a | 1 if odd_only else a)
        ideals.append(ideals[4] + 2 * n * rng.randrange(1, 4))  # same residue: equivalent
        classes = [dr.class_of_ideal(a) for a in ideals]
        verdicts = []
        for j in (0, 2, 4):
            a, b = ideals[j], ideals[j + 1]
            by_definition = rc.f_equiv(a, b, f, sup)
            by_generator = rc.f_equiv_generator(a, b, f, sup)
            ok = ok and by_definition == by_generator == (classes[j] == classes[j + 1])
            verdicts.append(by_definition)
        ok = ok and verdicts[2]
        return ok, ("dr", n, inf, odd_only, dr.size, tuple(classes), tuple(verdicts))

    def _toric_op(self):
        n = self.rng.randrange(100, 200)
        inf = self.rng.random() < 0.5
        m = self.lp.gm_periodic_exponent(self.rc.Cycle(None, n, inf))
        return m == (n if inf else gcd(2, n)), ("toric", n, inf, m)

    def _model_op(self):
        mc, rc, rng = self.mc, self.rc, self.rng
        k = rng.randrange(len(self.idsets))
        s = self.idsets[k]
        if rng.random() < 0.5 and mc.has_integral_model(s):
            f0 = mc.model_cycle_bound(s)
            f = rc.Cycle(None, f0.finite * rng.choice((1, 2, 3)), f0.infinity or rng.random() < 0.5)
        else:
            f = rc.Cycle(None, rng.randrange(1, 25), rng.random() < 0.5)
        decided = mc.decide_model(s, f)
        direct = mc.factors_through_dr(s, f)
        return decided == direct, ("model", k, f.finite, f.infinity, decided)

    def properties(self) -> dict[str, float]:
        return {"input.new_conductor_share": self.new_conductor_ops / max(self.conductor_ops, 1)}


class QuadraticEquivalence:
    """Queries against a few dozen fixed conductors of norm 2..25 over
    Q(i), Q(sqrt-5) and Q(sqrt-3): both f-equivalence routes on seeded
    ideal pairs of norm up to 150, plus occasional pushout checks.

    Why: a handful of groups answer thousands of queries, so lookups (the
    read side of ``rayclass``) dominate, spending their time in
    ``quadfield`` ideal arithmetic and principality searches.  The first
    ideal of each pair is a uniform draw from all 10898 (conductor,
    ideal) labels; a session touches about 4500 of them.  A pushout check
    costs from a few to a few hundred milliseconds depending on the
    conductor, so the pushouts walk a fixed stride through the conductors
    whatever the seed: every seed pays the same pushout cost.
    """

    name = "quadratic-equivalence"
    FIELDS = (-1, -5, -3)
    PUSHOUT_PERIOD = 250
    PUSHOUT_STRIDE = 5  # through the conductors of all three fields, in order
    SESSION_OPS = 3000

    def __init__(self, seed: int, session: int, root: str):
        from lambda_forge import quadfield, rayclass

        self.rc = rayclass
        self.rng = _rng(self.name, seed, session, "ops")
        fields = [quadfield.QuadField(d) for d in self.FIELDS]
        self.ideals = [quadfield.ideals_of_norm_up_to(k, 150) for k in fields]
        self.conductors = [
            [rayclass.Cycle(k, ideal) for ideal in quadfield.ideals_of_norm_up_to(k, 25) if ideal.norm() > 1]
            for k in fields
        ]
        self.label_space = [len(c) * len(i) for c, i in zip(self.conductors, self.ideals)]
        self.all_conductors = [(k, c) for k, cs in enumerate(self.conductors) for c in range(len(cs))]
        self.labels: set[tuple[int, int, int]] = set()

    def _label(self) -> tuple[int, int, int]:
        """A uniform (field, conductor, ideal) index triple."""
        r = self.rng.randrange(sum(self.label_space))
        for k, size in enumerate(self.label_space):
            if r < size:
                return (k, *divmod(r, len(self.ideals[k])))
            r -= size
        raise AssertionError("unreachable")

    def op(self, i: int):
        rc = self.rc
        if i % self.PUSHOUT_PERIOD == self.PUSHOUT_PERIOD - 1:
            j = i // self.PUSHOUT_PERIOD * self.PUSHOUT_STRIDE
            k, c = self.all_conductors[j % len(self.all_conductors)]
            return rc.dr_pushout_check(self.conductors[k][c]) is True, ("pushout", k, c)
        k, c, ia = self._label()
        f = self.conductors[k][c]
        ib = self.rng.randrange(len(self.ideals[k]))
        a, b = self.ideals[k][ia], self.ideals[k][ib]
        self.labels.add((k, c, ia))
        self.labels.add((k, c, ib))
        by_definition = rc.f_equiv(a, b, f)
        by_generator = rc.f_equiv_generator(a, b, f)
        return by_definition == by_generator, ("pair", k, c, ia, ib, by_definition)

    def properties(self) -> dict[str, float]:
        return {"input.label_working_set": float(len(self.labels))}


class WittLattices:
    """Ghost/coordinate transforms over Z on div:120 and over Z[x]/(x^4-1)
    on div:60, both integral and not, with ``dwork_check`` against the
    integrality flags; plus Chebyshev generators and periodic Witt
    lattices (n <= 8, bound 64).

    Why: Fraction arithmetic in ``witt``, the ``intlinalg`` echelon solve
    and ``lambdapoly`` construction dominate while ``quadfield`` stays
    idle.  Only the integral inputs would gain from an integer fast path;
    ``witt.nonintegral_share`` reports the split.
    """

    name = "witt-lattices"
    # slot -> kind, over one period of 20 operations
    SCHEDULE = ["z-roundtrip"] * 10 + ["z-ghost"] * 3 + ["r4-ghost"] * 3 + ["r4-roundtrip"] * 2 + ["chebyshev", "lattice"]
    LATTICE_SIZES = (1, 2, 3, 4, 5, 6, 7, 8)
    BOUND = 64
    SESSION_OPS = 2 * len(LATTICE_SIZES) * len(SCHEDULE)  # every lattice size, both checks, once

    def __init__(self, seed: int, session: int, root: str):
        from lambda_forge import lambdapoly, witt

        self.lp, self.w = lambdapoly, witt
        self.rng = _rng(self.name, seed, session, "ops")
        self.t120 = witt.TruncationSet.divisors_of(120)
        self.t60 = witt.TruncationSet.divisors_of(60)
        self.r4 = witt.binomial_quotient_ring(4)
        self.lattice_phase = self.rng.randrange(2 * len(self.LATTICE_SIZES))
        self.transforms = 0
        self.nonintegral = 0

    def op(self, i: int):
        kind = self.SCHEDULE[i % len(self.SCHEDULE)]
        if kind == "z-roundtrip":
            return self._roundtrip(self.w.INTEGERS, self.t120, 1, 9)
        if kind == "r4-roundtrip":
            return self._roundtrip(self.r4, self.t60, 4, 2)
        if kind == "z-ghost":
            return self._ghost(self.w.INTEGERS, self.t120, 1, 9)
        if kind == "r4-ghost":
            return self._ghost(self.r4, self.t60, 4, 4)
        if kind == "chebyshev":
            return self._chebyshev()
        return self._lattice(i // len(self.SCHEDULE) + self.lattice_phase)

    def _vector(self, trunc, rank: int, spread: int) -> dict[int, tuple]:
        rng = self.rng
        return {a: tuple(rng.randint(-spread, spread) for _ in range(rank)) for a in trunc.sorted()}

    def _roundtrip(self, ring, trunc, rank: int, spread: int):
        w = self.w
        coords = w.WittCoords.make(ring, trunc, self._vector(trunc, rank, spread))
        ghost = w.ghost_from_witt(coords)
        back, flags = w.witt_from_ghost(ghost)
        integral = all(flags.values())
        self.transforms += 1
        self.nonintegral += not integral
        ok = back == coords and integral and w.dwork_check(ghost)
        return ok, ("roundtrip", rank, ghost.components)

    def _ghost(self, ring, trunc, rank: int, spread: int):
        w = self.w
        ghost = w.GhostVector.make(ring, trunc, self._vector(trunc, rank, spread))
        coords, flags = w.witt_from_ghost(ghost)
        integral = all(flags.values())
        self.transforms += 1
        self.nonintegral += not integral
        ok = w.dwork_check(ghost) == integral
        return ok, ("ghost", rank, ghost.components, integral, str(coords.coords[-1]))

    def _chebyshev(self):
        lp = self.lp
        n = self.rng.randrange(2, 150)
        q = lp.chebyshev_periodic_generator(n)
        expected_degree = (n + 1) // 2 if n % 2 else n // 2 + 1
        division = lp.poly_divmod(lp.chebyshev_psi(n) - lp.IntPoly.of(2), q)
        ok = q.lead() == 1 and q.degree == expected_degree and division is not None and division[1].is_zero()
        return ok, ("chebyshev", n, q.coeffs)

    def _lattice(self, j: int):
        w = self.w
        n = self.LATTICE_SIZES[(j // 2) % len(self.LATTICE_SIZES)]
        if j % 2:
            c = w.ray_class_algebra_witt_iso_check(n, self.BOUND)
            strict = n >= 2
            ok = (
                c.injective
                and c.contained
                and c.stable
                and c.equal != strict
                and (c.lattice_rank > c.image_rank) == strict
            )
            return ok, ("iso", n, c.lattice_rank, c.image_rank, c.equal)
        ring, rows = w.group_ring_ghost_rows(n)
        lattice = w.periodic_witt_lattice(n, ring, self.BOUND)
        ok = lattice.stable and all(lattice.contains(row) for row in rows)
        return ok, ("lattice", n, lattice.basis)

    def properties(self) -> dict[str, float]:
        return {"witt.nonintegral_share": self.nonintegral / max(self.transforms, 1)}


class CliBatch:
    """The command-line front end called in-process: ``lambda_forge.cli.main``
    on every invocation of a golden corpus that covers every verb, three
    times per session in seeded orders; stdout and exit code are compared
    byte for byte with goldens captured from the seed commit.  Importing
    ``lambda_forge.cli`` is part of set-up.

    Why: the only workload that measures the ``cli`` layer (argument
    parsing, dispatch, output formatting) and the package import, as a
    script that drives the front end many times pays them.  The first pass
    of a session runs on cold caches, the next two on warm ones.
    """

    name = "cli-batch"
    PASSES = 3

    def __init__(self, seed: int, session: int, root: str):
        t0 = time.perf_counter()
        import lambda_forge.cli

        self.import_s = time.perf_counter() - t0
        self.cli = lambda_forge.cli
        with open(CORPUS_FILE) as fh:
            self.corpus = json.load(fh)
        self.SESSION_OPS = self.PASSES * len(self.corpus)
        self.rng = _rng(self.name, seed, session, "ops")
        self.order: list[int] = []
        self.nonzero_exits = 0

    def op(self, i: int):
        if not self.order:
            self.order = list(range(len(self.corpus)))
            self.rng.shuffle(self.order)
        k = self.order.pop()
        rec = self.corpus[k]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(rec["argv"]))
        self.nonzero_exits += code != 0
        ok = code == rec["exit"] and out.getvalue() == rec["stdout"] and "Traceback" not in err.getvalue()
        return ok, ("cli", k, code, out.getvalue())

    def properties(self) -> dict[str, float]:
        return {"cli.nonzero_exits": float(self.nonzero_exits), "cli.import_s": self.import_s}


WORKLOADS = {w.name: w for w in (RationalConductors, QuadraticEquivalence, WittLattices, CliBatch)}
