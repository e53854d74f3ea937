
from fractions import Fraction
from itertools import zip_longest
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_forge.errors import DensityRequiredError, InputError
from lambda_forge.intlinalg import divisors
from lambda_forge.lambdapoly import (
    IntPoly,
    LaurentPoly,
    chebyshev_equalizer_check,
    chebyshev_image_lattice,
    chebyshev_periodic_generator,
    chebyshev_psi,
    cyclotomic_cotangent_dim,
    cyclotomic_polynomial,
    exponent_gcd_combination,
    frobenius_lift_check,
    gm_periodic_exponent,
    poly_divides,
    poly_divmod,
    poly_gcd,
    ray_class_algebra_maps,
    squarefree_part,
    substitute_x_plus_xinv,
    toric_psi,
    torsion_locus_contains_periodic,
)
from lambda_forge.rayclass import Cycle, PrimeSupport, f_equiv


def test_intpoly_arithmetic():
    x = IntPoly.x()
    p = x * x - IntPoly.of(2)
    assert str(p) == "y^2 - 2"
    assert p.compose(x) == p
    q, r = poly_divmod(p, x)
    assert q == x and r == IntPoly.of(-2)
    assert poly_divmod(p, IntPoly.of(0, 2)) is None  # 2y does not divide
    assert poly_gcd(p * x, x) == x
    assert squarefree_part((x - IntPoly.of(2)) * (x - IntPoly.of(2))) == x - IntPoly.of(2)


def _poly_divmod_fraction(num: IntPoly, den: IntPoly):
    """Long division over Q in Fractions: the quotient and remainder if
    both are integral, else None (the reference for poly_divmod)."""
    rem = [Fraction(c) for c in num.coeffs]
    dl = den.lead()
    q = [Fraction(0)] * max(len(rem) - den.degree, 0)
    for i in range(len(rem) - 1, den.degree - 1, -1):
        c = rem[i] / dl
        q[i - den.degree] = c
        if c:
            for j, d in enumerate(den.coeffs):
                rem[i - den.degree + j] -= c * d
    if any(x.denominator != 1 for x in q) or any(x.denominator != 1 for x in rem):
        return None
    return IntPoly.of(*(int(x) for x in q)), IntPoly.of(*(int(x) for x in rem))


_coeffs = st.lists(st.integers(-30, 30), max_size=8)


@settings(max_examples=300, deadline=None)
@given(num=_coeffs, den=_coeffs, lead=st.sampled_from([1, -1, 2, -3, 4, 6]), exact=st.booleans())
def test_poly_divmod_matches_fraction_reference(num, den, lead, exact):
    # den gets the drawn leading coefficient: monic, -1 and non-monic;
    # an exact case multiplies num by den, so the quotient is integral
    den = IntPoly.of(*den, lead)
    num = IntPoly.of(*num)
    if exact:
        num = num * den
    out = poly_divmod(num, den)
    assert out == _poly_divmod_fraction(num, den)
    if out is not None:
        q, r = out
        assert q * den + r == num and r.degree < den.degree
    if exact:
        assert out is not None and out[1].is_zero()


@pytest.mark.parametrize(
    "num, den",
    [
        ((), (1, 2)),  # zero numerator
        ((3, 1), (1, 0, 0, 2)),  # deg den > deg num, non-monic
        ((3, 1), (1, 0, 0, 1)),  # deg den > deg num, monic
        ((1, 3), (5,)),  # a constant divisor
        ((2, 4, 6), (2,)),
        ((1, 0, 1), (0, 2)),  # the first quotient coefficient is not integral
        ((0, 2, 0, 1), (0, 2)),  # a later one is not
    ],
)
def test_poly_divmod_edge_cases(num, den):
    num, den = IntPoly.of(*num), IntPoly.of(*den)
    assert poly_divmod(num, den) == _poly_divmod_fraction(num, den)


def _product_reference(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Exponent -> coefficient of a product of two sparse polynomials."""
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: c for k, c in out.items() if c}


def _terms(low: int, coeffs) -> dict[int, int]:
    return {low + i: c for i, c in enumerate(coeffs) if c}


@settings(max_examples=200, deadline=None)
@given(
    a=_coeffs,
    b=_coeffs,
    low_a=st.integers(-5, 5),
    low_b=st.integers(-5, 5),
    shape=st.sampled_from(("free", "disjoint", "cancel")),
)
def test_poly_products_and_sums_match_term_reference(a, b, low_a, low_b, shape):
    p, q = IntPoly.of(*a), IntPoly.of(*b)
    assert _terms(0, (p * q).coeffs) == _product_reference(_terms(0, a), _terms(0, b))
    assert _terms(0, (p + q).coeffs) == {k: c for k in range(max(len(a), len(b))) if (c := p[k] + q[k])}
    assert _terms(0, (p - q).coeffs) == {k: c for k in range(max(len(a), len(b))) if (c := p[k] - q[k])}
    assert all((p + q).coeffs[-1:]) and all((p - q).coeffs[-1:])  # trimmed
    s, t = LaurentPoly.of(low_a, tuple(a)), LaurentPoly.of(low_b, tuple(b))
    prod = s * t
    assert _terms(prod.low, prod.coeffs) == _product_reference(_terms(low_a, a), _terms(low_b, b))
    assert prod == LaurentPoly.of(prod.low, prod.coeffs)  # trimmed at both ends
    # Laurent sums: the second operand as drawn, above the first's support,
    # or cancelling the first at both ends (b fills the degrees between)
    if shape == "disjoint":
        t = LaurentPoly.of(s.low + len(s.coeffs) + abs(low_b), tuple(b))
    elif shape == "cancel":
        mid = [0] + b[: max(len(s.coeffs) - 2, 0)]
        t = LaurentPoly.of(s.low, tuple(m - c for c, m in zip_longest(s.coeffs, mid, fillvalue=0)))
    for u in (t, t.scale(-1)):
        s_terms, u_terms = _terms(s.low, s.coeffs), _terms(u.low, u.coeffs)
        keys = s_terms.keys() | u_terms.keys()
        for total, sign in ((s + u, 1), (s - u, -1)):
            expected = {k: c for k in keys if (c := s_terms.get(k, 0) + sign * u_terms.get(k, 0))}
            assert _terms(total.low, total.coeffs) == expected
            assert total == LaurentPoly.of(total.low, total.coeffs)  # trimmed at both ends


def test_laurent_arithmetic():
    a = LaurentPoly.of(-1, (1, 0, 1))  # x^-1 + x
    b = a * a
    assert b == LaurentPoly.of(-2, (1, 0, 2, 0, 1))
    assert LaurentPoly.x_power_minus_one(3) - LaurentPoly.x_power_minus_one(3) == LaurentPoly(0, ())
    assert a.substitute_power(2) == LaurentPoly.of(-2, (1, 0, 0, 0, 1))
    assert a.equal_up_to_unit(LaurentPoly.of(0, (1, 0, 1)))


def test_chebyshev_printed_values():
    assert chebyshev_psi(0) == IntPoly.of(2)
    assert chebyshev_psi(1) == IntPoly.x()
    assert chebyshev_psi(2) == IntPoly.of(-2, 0, 1)
    assert chebyshev_psi(3) == IntPoly.of(0, -3, 0, 1)
    assert chebyshev_psi(5) == IntPoly.of(0, 5, 0, -5, 0, 1)


def test_chebyshev_defining_identity():
    for n in range(0, 201):
        lhs = substitute_x_plus_xinv(chebyshev_psi(n))
        rhs = LaurentPoly.monomial(n) + LaurentPoly.monomial(-n)
        assert lhs == rhs, n


def test_chebyshev_commutation():
    for a in range(1, 31):
        for b in range(1, 31):
            if a * b <= 60:
                assert chebyshev_psi(a).compose(chebyshev_psi(b)) == chebyshev_psi(a * b)


def test_toric_psi():
    x = LaurentPoly.monomial(1)
    assert toric_psi(1, x) == x
    y = LaurentPoly.of(-1, (1, 0, 1))
    assert toric_psi(2, y) == LaurentPoly.of(-2, (1, 0, 0, 0, 1))
    p = LaurentPoly.of(-2, (3, 1, 0, 2, 5))
    assert toric_psi(6, p) == toric_psi(2, toric_psi(3, p))


def test_frobenius_lift_checks():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        assert frobenius_lift_check("chebyshev", p)
        assert frobenius_lift_check("toric", p)
    with pytest.raises(InputError):
        frobenius_lift_check("chebyshev", 4)


def test_generator_examples():
    assert chebyshev_periodic_generator(1) == IntPoly.of(-2, 1)
    assert chebyshev_periodic_generator(3) == IntPoly.of(-2, -1, 1)
    assert chebyshev_periodic_generator(4) == IntPoly.of(0, -4, 0, 1)


def chebyshev_generator_product_oracle(n: int) -> IntPoly:
    """Independent route: expand the product over folded root-of-unity pairs
    inside Z[x]/(cyclotomic), and read off the integer coefficients."""
    phi = cyclotomic_polynomial(n)

    def red(p: IntPoly) -> IntPoly:
        out = poly_divmod(p, phi)
        if out is None:
            raise AssertionError("reduction by a monic cyclotomic polynomial failed")
        return out[1]

    # zeta^i + zeta^(-i) as a residue polynomial
    def folded(i: int) -> IntPoly:
        a = IntPoly.of(*([0] * (i % n) + [1])) if i % n else IntPoly.of(1)
        b = IntPoly.of(*([0] * ((-i) % n) + [1])) if (-i) % n else IntPoly.of(1)
        return red(a + b)

    top = n // 2 if n % 2 == 0 else (n - 1) // 2
    # polynomial in y with coefficients in Z[x]/phi: list of residues
    coeffs = [IntPoly.of(1)]
    for i in range(0, top + 1):
        c = folded(i)
        new = [IntPoly(())] * (len(coeffs) + 1)
        for k, ck in enumerate(coeffs):
            new[k + 1] = new[k + 1] + ck
            new[k] = new[k] - red(ck * c)
        coeffs = new
    out = []
    for ck in coeffs[: len(coeffs) - 1] + [coeffs[-1]]:
        if ck.degree > 0:
            raise AssertionError("product formula did not collapse to integers")
        out.append(ck[0] if not ck.is_zero() else 0)
    return IntPoly.of(*out)


def test_generator_against_product_oracle():
    for n in range(1, 21):
        assert chebyshev_periodic_generator(n) == chebyshev_generator_product_oracle(n), n


def test_generator_degree_and_divisibility():
    for n in range(1, 25):
        q = chebyshev_periodic_generator(n)
        assert q.degree == ((n + 1) // 2 if n % 2 else n // 2 + 1)
        assert poly_divides(q, chebyshev_psi(n) - IntPoly.of(2))


def test_exponent_gcd_combination():
    for a, b in [(5, 7), (6, 4), (9, 1), (8, 12), (5, 5)]:
        A, B = exponent_gcd_combination(a, b)
        from math import gcd

        got = A * LaurentPoly.x_power_minus_one(a) + B * LaurentPoly.x_power_minus_one(b)
        assert got == LaurentPoly.x_power_minus_one(gcd(a, b))


def test_equalizer_examples():
    assert chebyshev_equalizer_check(3, 12)
    assert chebyshev_equalizer_check(1, 4)
    assert chebyshev_equalizer_check(4, 12)
    with pytest.raises(InputError):
        chebyshev_equalizer_check(4, 5)


def test_image_lattice_examples():
    rep3 = chebyshev_image_lattice(3)
    assert rep3.cokernel_order == 1
    rep4 = chebyshev_image_lattice(4)
    assert rep4.cokernel_order == 2
    # missing generator at the middle monomial: only 2x^2 present
    mid = [row[2] for row in rep4.image_basis]
    assert 2 in mid and 1 not in mid
    rep1 = chebyshev_image_lattice(1)
    assert len(rep1.image_basis) == 1 and rep1.cokernel_order == 1


def test_image_lattice_sigma_invariance():
    for n in range(1, 15):
        rep = chebyshev_image_lattice(n)
        for row in rep.image_basis:
            flipped = tuple(row[(-i) % n] for i in range(n))
            assert flipped == row or sorted(flipped) == sorted(row)


def test_torsion_contains_periodic():
    assert torsion_locus_contains_periodic("chebyshev", 3, 4)
    assert torsion_locus_contains_periodic("chebyshev", 1, 5)
    assert torsion_locus_contains_periodic("chebyshev", 4, 3)
    # direct instance: psi_3 - 2 = (y+1) * Q(3)
    q, r = poly_divmod(chebyshev_psi(3) - IntPoly.of(2), chebyshev_periodic_generator(3))
    assert r.is_zero() and q == IntPoly.of(1, 1)


def test_gm_periodic_exponent():
    for n in (1, 2, 3, 5, 8, 12):
        assert gm_periodic_exponent(Cycle(None, n, True)) == n
    assert gm_periodic_exponent(Cycle.parse("12")) == 2
    assert gm_periodic_exponent(Cycle.parse("10")) == 2
    assert gm_periodic_exponent(Cycle.parse("9")) == 1


def _pairwise_exponent(f: Cycle, support: PrimeSupport) -> int:
    """Reference scan: the gcd of b - a over f-equivalent supported pairs
    a < b, by f_equiv, within [1, 4n] and within [1, 8n]; the two must
    agree.  Each b meets the a < b in increasing order up to the first
    equivalent one: for a later a' ~ b, b - a' = (b - a) - (a' - a), and
    a' ~ a was counted when b was a'."""
    bound = 4 * f.finite
    supported = [a for a in range(1, 2 * bound + 1) if support.supports_int(a)]
    m = m_bound = 0
    for j, b in enumerate(supported):
        for a in supported[:j]:
            if f_equiv(a, b, f, support):
                m = gcd(m, b - a)
                break
        if b <= bound:
            m_bound = m
    if m != m_bound:
        if support.mode == "explicit":
            raise DensityRequiredError("scan did not stabilize")
        raise AssertionError("scan did not stabilize")
    return m


def _outcome(scan, f: Cycle, support: PrimeSupport):
    try:
        return scan(f, support)
    except (DensityRequiredError, AssertionError) as exc:
        return type(exc).__name__


def test_gm_periodic_exponent_matches_pairwise_scan():
    outcomes = set()
    for text in ("all", "all-except:2", "explicit:2,3!", "explicit:5!"):
        support = PrimeSupport.parse(text)
        for n in range(1, 61):
            for inf in (False, True):
                f = Cycle(None, n, inf)
                got = _outcome(gm_periodic_exponent, f, support)
                assert got == _outcome(_pairwise_exponent, f, support), (text, n, inf)
                outcomes.add(type(got))
    assert outcomes == {int, str}  # both answers and refusals were compared


def test_ray_class_algebra_maps():
    u, v = ray_class_algebra_maps(2, 4)
    x_small = (0, 1)
    assert u(x_small) == (0, 0, 1, 0)  # x -> x^2
    assert v(u(x_small)) == (1, 0)  # x^2 in Z[x]/(x^2 - 1)
    assert v((1, 2, 3, 4)) == (4, 6)
    u, v = ray_class_algebra_maps(3, 3)
    e = (0, 0, 1)
    assert u(e) == e and v(e) == e
    with pytest.raises(InputError):
        ray_class_algebra_maps(3, 4)


def test_ray_class_algebra_maps_refuse_the_wrong_source_ring():
    u, v = ray_class_algebra_maps(2, 6)
    for bad in ((), (1,), (1, 0, 0), (1,) * 6):
        with pytest.raises(InputError, match="wrong source ring"):
            u(bad)
    for bad in ((), (1, 0), (1,) * 5, (1,) * 7):
        with pytest.raises(InputError, match="wrong source ring"):
            v(bad)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == IntPoly.of(-1, 1)
    assert cyclotomic_polynomial(2) == IntPoly.of(1, 1)
    assert cyclotomic_polynomial(4) == IntPoly.of(1, 0, 1)
    assert cyclotomic_polynomial(12) == IntPoly.of(1, 0, -1, 0, 1)
    for n in (6, 8, 9, 10, 12, 15):
        prod = IntPoly.of(1)
        for d in divisors(n):
            prod = prod * cyclotomic_polynomial(d)
        assert prod == IntPoly.of(*([-1] + [0] * (n - 1) + [1]))


def test_cotangent_examples():
    assert cyclotomic_cotangent_dim(1, 2) == 0
    assert cyclotomic_cotangent_dim(4, 2) == 1
    assert cyclotomic_cotangent_dim(4, 3) == 0
    for a in range(1, 16):
        for q in (2, 3, 5, 7):
            assert cyclotomic_cotangent_dim(a, q) == (1 if a % q == 0 and a > 1 else 0)
