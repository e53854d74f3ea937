
from fractions import Fraction
from itertools import zip_longest
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_forge import lambdapoly
from lambda_forge.errors import DensityRequiredError, InputError
from lambda_forge.intlinalg import divisors, hnf_coords, hnf_rows, is_prime, lattice_index
from lambda_forge.lambdapoly import (
    IntPoly,
    LaurentPoly,
    _cyclic_mul,
    _gcd_mod,
    _periodic_generator,
    _squarefree_prime,
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
    ray_class_algebra_maps,
    substitute_x_plus_xinv,
    toric_psi,
    torsion_locus_contains_periodic,
)
from lambda_forge.quadfield import QuadField, ideal_from_int
from lambda_forge.rayclass import Cycle, PrimeSupport, f_equiv


def _primitive(p: IntPoly) -> IntPoly:
    """p divided by the gcd of its coefficients, with positive leading
    coefficient."""
    g = 0
    for c in p.coeffs:
        g = gcd(g, c)
    if g > 1:
        p = IntPoly(tuple(c // g for c in p.coeffs))
    return p if p.lead() >= 0 else -p


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd over Z (positive leading coefficient), by
    pseudo-remainders: the oracle for the closed-form generator."""
    a, b = _primitive(a), _primitive(b)
    while not b.is_zero():
        # pseudo-remainder keeps everything integral
        k = a.degree - b.degree + 1
        if k < 1:
            a, b = b, a
            continue
        scaled = a.scale(b.lead() ** k)
        out = poly_divmod(scaled, b)
        if out is None:
            raise AssertionError("pseudo-division by the leading power failed")
        a, b = b, _primitive(out[1])
    return _primitive(a)


def squarefree_part(f: IntPoly) -> IntPoly:
    """f with every repeated factor taken once (monic input, monic output)."""
    g = poly_gcd(f, f.derivative())
    out = poly_divmod(f, g)
    if out is None or not out[1].is_zero():
        raise AssertionError("gcd with the derivative does not divide the polynomial")
    return _primitive(out[0])


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


def _psi_by_recurrence(top: int) -> list[IntPoly]:
    """psi_0 .. psi_top by psi_(n+1) = y psi_n - psi_(n-1)."""
    out = [IntPoly.of(2), IntPoly.x()]
    while len(out) <= top:
        out.append(IntPoly.x() * out[-1] - out[-2])
    return out


def test_psi_matches_the_three_term_recurrence():
    for n, psi in enumerate(_psi_by_recurrence(400)):
        assert chebyshev_psi(n) == psi, n


def test_substitution_identity_refuses_one_changed_coefficient():
    for n in (4, 9, 30):
        target = LaurentPoly.monomial(n) + LaurentPoly.monomial(-n)
        for i in range(n + 1):
            for delta in (1, -2):
                changed = list(chebyshev_psi(n).coeffs)
                changed[i] += delta
                assert substitute_x_plus_xinv(IntPoly.of(*changed)) != target, (n, i, delta)


@pytest.fixture
def fresh_psi():
    """A cold psi cache before and after, so that a test may corrupt the
    coefficient formula."""
    chebyshev_psi.__wrapped__.cache_clear()
    yield
    chebyshev_psi.__wrapped__.cache_clear()


def test_psi_certificate_refuses_a_wrong_coefficient(monkeypatch, fresh_psi):
    # C(6, 2) off by one changes only the y^4 coefficient of psi_8
    monkeypatch.setattr(lambdapoly, "comb", lambda a, b: comb(a, b) + ((a, b) == (6, 2)))
    assert chebyshev_psi(7) == _psi_by_recurrence(7)[7]
    with pytest.raises(AssertionError, match="^the coefficient formula failed the defining identity$"):
        chebyshev_psi(8)


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


def test_generator_matches_the_squarefree_part_oracle():
    for n in range(1, 151):
        assert chebyshev_periodic_generator(n) == squarefree_part(chebyshev_psi(n) - IntPoly.of(2)), n


_Y = IntPoly.x()
_ODD_L, _EVEN_L = IntPoly.of(-2, 1), IntPoly.of(-4, 0, 1)  # y - 2 and y^2 - 4


@pytest.mark.parametrize(
    "n, f, message",
    [
        # psi_n - 1 is 1 at y = 2 and y = -2
        (7, chebyshev_psi(7) - IntPoly.of(1), "psi_n - 2 is not divisible by L"),
        (8, chebyshev_psi(8) - IntPoly.of(1), "psi_n - 2 is not divisible by L"),
        # L (V^2 + 1): the top half of V^2 + 1 still gives V
        (7, chebyshev_psi(7) - IntPoly.of(2) + _ODD_L, "psi_n - 2 is not L times a square"),
        (8, chebyshev_psi(8) - IntPoly.of(2) + _EVEN_L, "psi_n - 2 is not L times a square"),
        # L V^2 with V sharing a root with L: q = (y - 2)^2 (y + 2), and
        # (y - 2)^2 (y + 2) (y + 1), of the right degrees
        (5, _ODD_L * _EVEN_L * _EVEN_L, "generator is not squarefree"),
        (6, _EVEN_L * (_ODD_L * (_Y + IntPoly.of(1))) * (_ODD_L * (_Y + IntPoly.of(1))), "generator is not squarefree"),
        # psi_5 - 2 read as level 7: a certified generator of the wrong degree
        (7, chebyshev_psi(5) - IntPoly.of(2), "generator degree mismatch"),
    ],
    ids=["odd-not-divisible", "even-not-divisible", "odd-not-square", "even-not-square", "odd-repeated", "even-repeated", "degree"],
)
def test_generator_certificate_refuses(n, f, message):
    with pytest.raises(AssertionError, match=f"^{message}$"):
        _periodic_generator(f, n)


def test_squarefree_check_refuses_a_repeated_factor():
    def squarefree_mod(q: IntPoly, p: int) -> bool:
        return _gcd_mod(q, q.derivative(), p).degree == 0

    two, minus_two = IntPoly.of(-2, 1), IntPoly.of(2, 1)
    for p in (3, 5, 7, 11):
        assert not squarefree_mod(two * two * minus_two, p)
        assert squarefree_mod(two * minus_two, p)
    # 2 = -2 mod 2, so y^2 - 4 is a square there: the prime must be odd
    assert not squarefree_mod(two * minus_two, 2)


def test_squarefree_prime_is_the_least_prime_not_dividing_2n():
    for n in range(1, 501):
        p = _squarefree_prime(n)
        assert is_prime(p) and (2 * n) % p, n
        assert all((2 * n) % r == 0 for r in range(2, p) if is_prime(r)), n


def test_gcd_mod_examples():
    y = IntPoly.x()
    a = (y - IntPoly.of(1)) * (y - IntPoly.of(2))
    b = (y - IntPoly.of(2)) * (y - IntPoly.of(3))
    assert _gcd_mod(a, b, 5) == IntPoly.of(3, 1)  # y - 2 = y + 3 mod 5
    assert _gcd_mod(a.scale(7), b.scale(3), 5) == IntPoly.of(3, 1)
    assert _gcd_mod(a, b, 2) == IntPoly.of(0, 1, 1)  # a = b = y (y + 1) mod 2
    assert _gcd_mod(a, IntPoly.of(1), 5).degree == 0


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


def test_image_lattice_matches_the_hermite_fold():
    """The Hermite route as the oracle: the powers y^0, ..., y^(deg Q - 1),
    multiplied out by the cyclic product, fold to the stated basis, whose
    index in the involution invariants is the cokernel order."""
    for n in range(1, 61):
        rep = chebyshev_image_lattice(n)
        y = [0] * n
        y[1 % n] += 1
        y[-1 % n] += 1
        powers = [tuple(int(j == 0) for j in range(n))]
        while len(powers) < rep.generator.degree:
            powers.append(_cyclic_mul(powers[-1], tuple(y)))
        image = hnf_rows(powers, n)
        assert tuple(map(tuple, image)) == rep.image_basis, n
        invariants = [[int(j == 0) for j in range(n)]]
        invariants += [[int(j in (i, n - i)) for j in range(n)] for i in range(1, n // 2 + 1)]
        assert lattice_index(image, invariants, n) == rep.cokernel_order == 2 - n % 2, n


@pytest.mark.parametrize("n", [1, 2, 7, 12])
def test_image_lattice_refuses_a_wrong_generator(monkeypatch, n):
    real = lambdapoly.chebyshev_periodic_generator
    monkeypatch.setattr(lambdapoly, "chebyshev_periodic_generator", lambda m: real(m) + IntPoly.of(1))
    with pytest.raises(AssertionError, match="does not annihilate the image"):
        chebyshev_image_lattice(n)


@pytest.mark.parametrize(
    "middle, message",
    [
        # the involution invariants' x^(n/2) in place of D_(n/2) = 2 x^(n/2)
        (lambda row: [tuple(c // 2 for c in row)], "stated row {} is not D_{}"),
        # the middle row left out
        (lambda row: [], "the stated basis is not 1 and deg Q - 1 Dickson rows"),
    ],
    ids=["halved", "missing"],
)
@pytest.mark.parametrize("n", [2, 4, 12, 30])
def test_image_lattice_refuses_a_wrong_middle_row(monkeypatch, middle, message, n):
    real = lambdapoly._involution_basis
    monkeypatch.setattr(lambdapoly, "_involution_basis", lambda m: real(m)[:-1] + middle(real(m)[-1]))
    with pytest.raises(AssertionError, match=message.format(n // 2, n // 2)):
        chebyshev_image_lattice(n)


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


def test_gm_periodic_exponent_labels_each_residue_once(monkeypatch):
    residues = []
    label = lambdapoly.f_label

    def counted(a, f, support):
        residues.append(a % f.finite)
        return label(a, f, support)

    monkeypatch.setattr(lambdapoly, "f_label", counted)
    assert gm_periodic_exponent(Cycle.parse("60*inf")) == 60
    assert sorted(residues) == list(range(60))


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
    for a in range(1, 61):
        for q in (2, 3, 5, 7, 11, 13):
            assert cyclotomic_cotangent_dim(a, q) == (1 if a % q == 0 and a > 1 else 0)


def _cotangent_by_products(a: int, smith) -> list[int]:
    """Invariant factors of I/I^2 the long way: I^2 spanned by the a^2/2
    products of the generators x^i - 1 of I, written in coordinates of
    I's Hermite basis, with the direct Smith elimination of the tests."""
    gens = [tuple(int(j == i) - int(j == 0) for j in range(a)) for i in range(1, a)]
    basis = hnf_rows(gens, a)
    products = [_cyclic_mul(g, h) for i, g in enumerate(gens) for h in gens[i:]]
    return smith([hnf_coords(r, basis, a) for r in hnf_rows(products, a)], len(basis))


def test_cotangent_matches_smith_form_of_products(smith_reference):
    for a in range(1, 31):
        invs = _cotangent_by_products(a, smith_reference)
        assert [d for d in invs if d != 1] == ([a] if a > 1 else []), a
        assert lambdapoly._cotangent_order(a) == a
        for q in (2, 3, 5, 7, 11, 13):
            assert cyclotomic_cotangent_dim(a, q) == sum(1 for d in invs if d % q == 0), (a, q)


def _plus_one_when(when):
    """A corrupt product: x^0 off by one where the second factor matches."""

    def fake(real, u, w):
        v = real(u, w)
        return (v[0] + 1,) + v[1:] if when(w) else v

    return fake


@pytest.mark.parametrize(
    "fake, message",
    [
        # 2 (x - 1)^2 in place of the square
        (lambda real, u, w: tuple(2 * c for c in real(u, w)), r"\(x - 1\)\^2 is not x\(x - 1\) - \(x - 1\)"),
        # the ideal itself in place of its square
        (lambda real, u, w: u, r"\(x - 1\)\^2 is not x\(x - 1\) - \(x - 1\)"),
        # the sum of the shifts, s (1 + x + ... + x^(a-1)), off at x^0
        (_plus_one_when(lambda w: w == (1,) * len(w)), "do not sum to zero"),
        # the weighted sum, s times the weights a - 1, ..., 0, off at x^0
        (_plus_one_when(lambda w: w == tuple(range(len(w) - 1, -1, -1))), "is not the weighted sum"),
    ],
    ids=["square", "ideal", "sum", "weights"],
)
@pytest.mark.parametrize("a", [2, 3, 4, 12, 30])
def test_cotangent_certificate_refuses_a_corrupt_clause(monkeypatch, fake, message, a):
    """Corrupt products, each seen by the clause of the certificate that
    its product feeds."""
    real = _cyclic_mul
    monkeypatch.setattr(lambdapoly, "_cyclic_mul", lambda u, w: fake(real, u, w))
    with pytest.raises(AssertionError, match=message):
        cyclotomic_cotangent_dim(a, 2)
    monkeypatch.undo()
    assert cyclotomic_cotangent_dim(a, 2) == int(a % 2 == 0)


LAMBDAPOLY_REFUSALS = [
    (poly_divmod, (IntPoly.of(1), IntPoly(())), InputError("division by the zero polynomial")),
    (LaurentPoly.monomial(1).substitute_power, (0,), InputError("substituting x^0 is not a ring map here")),
    (toric_psi, (0, LaurentPoly.monomial(1)), InputError("positive exponent required")),
    (frobenius_lift_check, ("circle", 3), InputError("unknown family 'circle'")),
    (gm_periodic_exponent, (Cycle(QuadField(-1), ideal_from_int(QuadField(-1), 2)),), InputError("the toric line lives over the rationals")),
    (exponent_gcd_combination, (0, 0), InputError("need positive exponents")),
    (torsion_locus_contains_periodic, ("toric", 3, 4), InputError("the torsion comparison is for the chebyshev family")),
]


@pytest.mark.parametrize("call, args, error", LAMBDAPOLY_REFUSALS, ids=[row[0].__name__ for row in LAMBDAPOLY_REFUSALS])
def test_refusals(call, args, error):
    """Each refusal a caller can send, with its type and message."""
    with pytest.raises(type(error)) as exc:
        call(*args)
    assert str(exc.value) == str(error)


def test_laurent_zero_cases():
    """Trailing zeros are trimmed, zero stays zero under substitution and
    scaling, and is equal up to a unit only to zero; x^k - 1 is zero at
    k = 0 and x^k (1 - x^(-k)) below it."""
    zero = LaurentPoly(0, ())
    assert LaurentPoly.of(3, (1, 0, 0)) == LaurentPoly(3, (1,))
    assert LaurentPoly.of(3, (0, 0)) == zero
    assert zero.substitute_power(5) == zero
    assert LaurentPoly.monomial(2, 7).scale(0) == zero
    assert zero.equal_up_to_unit(zero)
    assert not zero.equal_up_to_unit(LaurentPoly.monomial(0))
    assert not LaurentPoly.monomial(0).equal_up_to_unit(zero)
    assert LaurentPoly.x_power_minus_one(0) == zero
    assert LaurentPoly.x_power_minus_one(-2) == LaurentPoly(-2, (1, 0, -1))
    assert LaurentPoly.x_power_minus_one(2) == LaurentPoly(0, (-1, 0, 1))
