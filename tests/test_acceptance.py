"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its elapsed time and asserting its stated runtime budget.

Criterion 11's first half (the lattice-equality claim for the cyclic group
ring coefficients) is mathematically unattainable as stated and is marked
as a strict expected failure; see notes in the repository documentation
and the companion test exhibiting the witness vector.  Everything else is
green.
"""

import random
import time
from math import gcd

import pytest


from lambda_forge.intlinalg import divisors, factor, is_prime
from lambda_forge.lambdapoly import (
    IntPoly,
    LaurentPoly,
    chebyshev_equalizer_check,
    chebyshev_image_lattice,
    chebyshev_periodic_generator,
    chebyshev_psi,
    cyclotomic_cotangent_dim,
    frobenius_lift_check,
    gm_periodic_exponent,
    poly_divides,
    )
from lambda_forge.modelcheck import (
    FiniteIdSet,
    decide_model,
    factors_through_dr,
    has_integral_model,
    minimal_cycle,
    model_cycle_bound,
    mu_n_data,
    mu_n_pm_data,
)
from lambda_forge.quadfield import (
    QuadField,
    QuadInt,
    class_group,
    ideals_of_norm_up_to,
    principal_ideal,
    reduced_forms,
)
from lambda_forge.rayclass import (
    Cycle,
    PrimeSupport,
    dr_iso_residue,
    dr_monoid,
    dr_pushout_check,
    f_equiv,
    f_equiv_generator,
    ray_class_group,
)
from lambda_forge.witt import (
    INTEGERS,
    GhostVector,
    TruncationSet,
    WittCoords,
    binomial_quotient_ring,
    dwork_check,
    ghost_from_witt,
    periodic_witt_field_product_check,
    ray_class_algebra_witt_iso_check,
    witt_from_ghost,
)

GAUSS = QuadField(-1)
EISEN = QuadField(-3)
K5 = QuadField(-5)


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"acceptance {self.name}: {verdict} ({elapsed:.1f}s, budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded its {self.seconds}s budget ({elapsed:.1f}s)"
        return False


def test_criterion_01_dr_residue_description():
    """Monoid isomorphism DR((n)inf) = (Z/n)deg for n <= 500."""
    with _Budget("1 (residue description n<=500)", 30):
        for n in range(1, 501):
            dr, _ = dr_iso_residue(Cycle(None, n, True))
            assert dr.size == n


def test_criterion_02_decomposition_counts():
    """|DR(f)| equals the divisor sum of ray class orders, against an
    independent enumeration-quotient count, for both supports."""
    supports = [PrimeSupport.parse("all"), PrimeSupport.parse("all-except:2")]
    with _Budget("2 (decomposition n<=200)", 30):
        for n in range(1, 201):
            for infinity in (True, False):
                cyc = Cycle(None, n, infinity)
                for sup in supports:
                    dr = dr_monoid(cyc, sup)
                    total = sum(
                        ray_class_group(cyc.cofactor(d), sup).order
                        for d in divisors(n)
                        if sup.supports_int(d)
                    )
                    assert dr.size == total, (n, infinity, str(sup))
                    # independent route: count enumeration-quotient classes
                    seen = set()
                    for a in range(1, 8 * n + 1):
                        if sup.supports_int(a):
                            seen.add(dr.class_of_ideal(a))
                    assert len(seen) == dr.size, (n, infinity, str(sup))


def test_criterion_03_generator_criterion_equivalence():
    """The definition of the equivalence agrees with the generator-witness
    criterion over Q, Q(i), Q(sqrt-5)."""
    with _Budget("3 (two-route agreement)", 60):
        # rationals
        for n in range(1, 49):
            for infinity in (True, False):
                cyc = Cycle(None, n, infinity)
                for a in range(1, 201):
                    for b in range(a, 201):
                        if f_equiv(a, b, cyc) != f_equiv_generator(a, b, cyc):
                            raise AssertionError((a, b, str(cyc)))
        # imaginary quadratic
        for field in (GAUSS, K5):
            ideals = ideals_of_norm_up_to(field, 200)
            cycles = [Cycle(field, I) for I in ideals_of_norm_up_to(field, 48)]
            for cyc in cycles:
                for i, a in enumerate(ideals):
                    for b in ideals[i:]:
                        if f_equiv(a, b, cyc) != f_equiv_generator(a, b, cyc):
                            raise AssertionError((str(a), str(b), str(cyc), field.d))


def test_criterion_04_pushout():
    """The amalgamated description of the monoid holds over Q and the three
    quadratic fields; the norm-5 conductor over Q(i) has a 2-element
    monoid."""
    with _Budget("4 (pushout description)", 60):
        for n in range(1, 61):
            for infinity in (True, False):
                assert dr_pushout_check(Cycle(None, n, infinity)), (n, infinity)
        f2i = Cycle(GAUSS, principal_ideal(QuadInt(GAUSS, 2, 1)))
        assert dr_monoid(f2i).size == 2
        for field in (GAUSS, EISEN, K5):
            for fid in ideals_of_norm_up_to(field, 50):
                assert dr_pushout_check(Cycle(field, fid)), (field.d, str(fid))


def test_criterion_05_class_groups():
    """Class numbers 1, 2, 3 for the three fields; the norm-5 ray class
    group over Q(i) is trivial."""
    with _Budget("5 (class groups)", 5):
        assert class_group(GAUSS).order == 1 == len(reduced_forms(-4))
        assert class_group(K5).order == 2 == len(reduced_forms(-20))
        assert class_group(QuadField(-23)).order == 3 == len(reduced_forms(-23))
        f2i = Cycle(GAUSS, principal_ideal(QuadInt(GAUSS, 2, 1)))
        assert ray_class_group(f2i).order == 1


def _random_idsets(rng: random.Random, count: int):
    out = []
    while len(out) < count:
        N = rng.randrange(1, 13)
        j = rng.choice([1, 1, 2, 3])
        m = N * j
        if m > 24:
            continue
        add_fixed = rng.random() < 0.3
        size = N + (1 if add_fixed else 0)

        def mult_map(c: int) -> list[int]:
            base = [(c * x) % N for x in range(N)]
            return base + [N] if add_fixed else base

        galois = {u: mult_map(u % N) for u in range(1, m + 1) if gcd(u, m) == 1}
        bset = set(factor(m).primes()) | ({2, 3} if rng.random() < 0.5 else set())
        special = {p: mult_map(rng.randrange(0, max(N, 1))) for p in sorted(bset)}
        try:
            out.append(FiniteIdSet.make(size, m, galois, special))
        except Exception:
            continue
    return out


def test_criterion_06_model_decision():
    """The conductor-lcm criterion matches the direct factorization test on
    500 randomized inputs; minimal cycles of the root-of-unity data and its
    sign quotient come out right, cross-checked by exhaustive search.

    The expected minimal cycle for levels 1 and 2 is the finite cycle (n),
    not (n)*inf: the real place only enters once -1 acts nontrivially.
    The exhaustive divisor-cycle search (the criterion's own oracle)
    confirms this correction.
    """
    rng = random.Random(77)
    with _Budget("6 (model decision)", 120):
        checked = 0
        for s in _random_idsets(rng, 500):
            cycles = [Cycle.parse("1"), Cycle(None, rng.randrange(1, 13), rng.random() < 0.5)]
            if has_integral_model(s):
                f0 = model_cycle_bound(s)
                cycles.append(f0)
                if f0.finite > 1:
                    p = factor(f0.finite).primes()[0]
                    cycles.append(Cycle(None, f0.finite // p, f0.infinity))
            for f in cycles:
                assert decide_model(s, f) == factors_through_dr(s, f)
                checked += 1
        assert checked >= 1000
        # minimal cycles; search_check re-derives each by divisor search
        assert minimal_cycle(mu_n_data(1)) == Cycle(None, 1, False)
        assert minimal_cycle(mu_n_data(2)) == Cycle(None, 2, False)
        for n in range(3, 31):
            assert minimal_cycle(mu_n_data(n)) == Cycle(None, n, True), n
        for n in range(1, 16, 2):
            assert minimal_cycle(mu_n_pm_data(n)) == Cycle(None, n, False), n


def test_criterion_07_chebyshev_suite():
    """Frobenius congruences to 100, the composition law to 30, and the
    three printed polynomials."""
    with _Budget("7 (chebyshev suite)", 10):
        for p in range(2, 101):
            if is_prime(p):
                assert frobenius_lift_check("chebyshev", p)
        # composition law, checked through the injective substitution
        for a in range(1, 31):
            fa = chebyshev_psi(a)
            for b in range(1, 31):
                inner = LaurentPoly.monomial(b) + LaurentPoly.monomial(-b)
                acc = LaurentPoly(0, ())
                for c in reversed(fa.coeffs):
                    acc = acc * inner + LaurentPoly.of(0, (c,))
                assert acc == LaurentPoly.monomial(a * b) + LaurentPoly.monomial(-a * b), (a, b)
        assert chebyshev_psi(2) == IntPoly.of(-2, 0, 1)
        assert chebyshev_psi(3) == IntPoly.of(0, -3, 0, 1)
        assert chebyshev_psi(5) == IntPoly.of(0, 5, 0, -5, 0, 1)


def test_criterion_08_periodic_locus_structure():
    """For n <= 40: the generator is squarefree and monic of the stated
    degree, divides every congruent difference within 3n, the reverse
    generation holds by exponent arithmetic, and the image lattice has the
    stated basis with cokernel order 1 or 2 by parity."""
    with _Budget("8 (periodic locus structure)", 60):
        for n in range(1, 41):
            q = chebyshev_periodic_generator(n)  # squarefree + degree asserted inside
            for a in range(1, 3 * n + 1):
                for b in range(1, a):
                    if (a - b) % n and (a + b) % n:
                        continue
                    assert poly_divides(q, chebyshev_psi(a) - chebyshev_psi(b)), (n, a, b)
            assert chebyshev_equalizer_check(n, 2 * n + 2), n
            rep = chebyshev_image_lattice(n)  # stated basis asserted inside
            assert rep.cokernel_order == (1 if n % 2 else 2), n


def test_criterion_09_toric_loci():
    """Toric periodic exponents with scan stability for n <= 100."""
    with _Budget("9 (toric periodic loci)", 10):
        for n in range(1, 101):
            assert gm_periodic_exponent(Cycle(None, n, True)) == n, n
            assert gm_periodic_exponent(Cycle(None, n, False)) == gcd(2, n), n


def test_criterion_10_witt_transforms():
    """Round trips on a thousand integral vectors; the congruence test
    matches coordinate integrality over both coefficient rings."""
    rng = random.Random(4242)
    with _Budget("10 (witt transforms)", 60):
        T120 = TruncationSet.divisors_of(120)
        for _ in range(1000):
            w = WittCoords.make(INTEGERS, T120, {d: (rng.randrange(-9, 10),) for d in T120.sorted()})
            assert witt_from_ghost(ghost_from_witt(w))[0] == w
        T60 = TruncationSet.divisors_of(60)
        for _ in range(1000):
            g = GhostVector.make(INTEGERS, T60, {a: (rng.randrange(-20, 21),) for a in T60.sorted()})
            _, flags = witt_from_ghost(g)
            assert dwork_check(g) == all(flags.values())
        ring = binomial_quotient_ring(4)
        for _ in range(1000):
            g = GhostVector.make(
                ring, T60, {a: tuple(rng.randrange(-4, 5) for _ in range(4)) for a in T60.sorted()}
            )
            _, flags = witt_from_ghost(g)
            assert dwork_check(g) == all(flags.values())


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Unattainable as specified: over the coefficient ring Z[x]/(x^n-1) the"
        " periodic Witt lattice strictly contains the group ring's ghost image"
        " for every n >= 2 (the verschiebung of the identity is a periodic Witt"
        " vector outside the image; at n=2 the ranks are 3 vs 2).  The cited"
        " isomorphism lives over the integral closure in a separable closure,"
        " which carries no computable Frobenius lifts.  See the companion test"
        " below for the verified true behavior."
    ),
)
def test_criterion_11a_ray_class_algebra_iso():
    """Image of the cyclic group ring equals the periodic Witt lattice with
    stability for n in 1..8 at bound 64 -- as specified."""
    with _Budget("11a (ray class algebra vs periodic lattice, as specified)", 120):
        for n in range(1, 9):
            rep = ray_class_algebra_witt_iso_check(n, 64)
            assert rep.verdict == "true", (n, rep.to_json())


def test_criterion_11a_verified_behavior():
    """The mathematically forced behavior: the image embeds in the periodic
    lattice with stability at bound 64, the trivial level is an equality,
    and the inclusion is strict for every n >= 2."""
    with _Budget("11a' (verified containment and strictness)", 120):
        for n in range(1, 9):
            rep = ray_class_algebra_witt_iso_check(n, 64)
            assert rep.injective and rep.contained and rep.stable, (n, rep.to_json())
            assert rep.image_rank == n
            assert rep.equal == (n == 1), (n, rep.to_json())
            assert rep.lattice_rank > n or n == 1


def test_criterion_11b_field_product():
    """The rational span of the group ring's ghost image has dimension n
    and divisor-count many idempotents for n <= 12."""
    with _Budget("11b (field product decomposition)", 120):
        for n in range(1, 13):
            rep = periodic_witt_field_product_check(n)
            assert rep.passes(), (n, rep.to_json())


def test_criterion_12_cotangent():
    """The cotangent dimension is 1 exactly at the residue characteristics
    dividing the level, for a <= 30 and q <= 13."""
    with _Budget("12 (cotangent dimensions)", 10):
        for a in range(1, 31):
            for q in (2, 3, 5, 7, 11, 13):
                expect = 1 if (a % q == 0 and a > 1) else 0
                assert cyclotomic_cotangent_dim(a, q) == expect, (a, q)
