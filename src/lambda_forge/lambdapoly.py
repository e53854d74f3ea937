"""The toric and Chebyshev polynomial families and their periodic and
torsion loci.

Integer polynomials are dense coefficient tuples (constant term first);
Laurent polynomials carry a lowest degree; both multiply by one linear
convolution.  Elements of the cyclic group ring Z[x]/(x^n - 1) are plain
coefficient tuples of length n, multiplied and mapped by the cyclic
kernels ``_cyclic_mul`` and ``_cyclic_power_map``, which the Witt layer's
coefficient ring shares.  The Chebyshev family and its periodic
generators are read off closed forms, each certified exactly, and refuse
levels over ``config.degree_bound()``.  All ideal reasoning
in the equalizer check runs inside the Laurent ring, where the generators
are products of binomials x^k - 1 and membership reduces to exponent
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import count, zip_longest
from math import comb, gcd
from operator import mul

from .config import degree_bound, residue_bound
from .errors import BoundExceededError, DensityRequiredError, InputError
from .intlinalg import divisors, is_prime
from .rayclass import ALL_PRIMES, Cycle, PrimeSupport, f_label


# ---------------------------------------------------------------------------
# Dense integer polynomials


@dataclass(frozen=True)
class IntPoly:
    """Polynomial over Z, coefficients constant-term first, no trailing
    zeros."""

    coeffs: tuple[int, ...]

    @staticmethod
    def of(*coeffs: int) -> "IntPoly":
        return IntPoly(_trim(tuple(coeffs)))

    @staticmethod
    def x() -> "IntPoly":
        return IntPoly((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, o: "IntPoly") -> "IntPoly":
        return IntPoly(_trim(tuple(a + b for a, b in zip_longest(self.coeffs, o.coeffs, fillvalue=0))))

    def __sub__(self, o: "IntPoly") -> "IntPoly":
        return IntPoly(_trim(tuple(a - b for a, b in zip_longest(self.coeffs, o.coeffs, fillvalue=0))))

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, o: "IntPoly") -> "IntPoly":
        if self.is_zero() or o.is_zero():
            return IntPoly(())
        return IntPoly(_trim(_convolve(self.coeffs, o.coeffs)))

    def scale(self, k: int) -> "IntPoly":
        return IntPoly(_trim(tuple(k * c for c in self.coeffs)))

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def lead(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def derivative(self) -> "IntPoly":
        return IntPoly(_trim(tuple(i * c for i, c in enumerate(self.coeffs))[1:]))

    def compose(self, inner: "IntPoly") -> "IntPoly":
        out = IntPoly(())
        for c in reversed(self.coeffs):
            out = out * inner + IntPoly.of(c)
        return out

    def mod_coeffs(self, p: int) -> "IntPoly":
        return IntPoly(_trim(tuple(c % p for c in self.coeffs)))

    def __str__(self):
        """Text of the polynomial in y, highest term first; zero terms are
        skipped and the zero polynomial is "0"."""
        parts = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if not c:
                continue
            term = "" if k == 0 else ("y" if k == 1 else f"y^{k}")
            mag = abs(c)
            body = str(mag) if (k == 0 or mag != 1) else ""
            piece = body + ("*" if body and term else "") + term
            if not parts:
                parts.append(("-" if c < 0 else "") + piece)
            else:
                parts.append((" - " if c < 0 else " + ") + piece)
        return "".join(parts) or "0"


def _convolve(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The coefficients of the product of two nonempty dense coefficient
    tuples, lowest first: the linear convolution, untrimmed."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return tuple(out)


def _trim(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


def poly_divmod(num: IntPoly, den: IntPoly) -> tuple[IntPoly, IntPoly] | None:
    """Quotient and remainder over Q if both are integral, else None.

    Long division stays in the integers: each quotient coefficient is an
    exact division by the leading coefficient, and the first one that is
    not an integer makes the quotient over Q non-integral."""
    if den.is_zero():
        raise InputError("division by the zero polynomial")
    rem = list(num.coeffs)
    dd, dl = den.degree, den.lead()
    q = [0] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            c, r = divmod(c, dl)
            if r:
                return None
            q[i - dd] = c
            for j in range(dd):
                rem[i - dd + j] -= c * den.coeffs[j]
            rem[i] = 0
    return IntPoly(_trim(tuple(q))), IntPoly(_trim(tuple(rem)))


def poly_divides(den: IntPoly, num: IntPoly) -> bool:
    out = poly_divmod(num, den)
    return out is not None and out[1].is_zero()


def _gcd_mod(a: IntPoly, b: IntPoly, p: int) -> IntPoly:
    """A gcd of a and b over F_p (p prime), by Euclid's algorithm with each
    divisor made monic; coefficients are reduced mod p."""
    a, b = a.mod_coeffs(p), b.mod_coeffs(p)
    while not b.is_zero():
        b = b.scale(pow(b.lead(), -1, p)).mod_coeffs(p)
        a, b = b, poly_divmod(a, b)[1].mod_coeffs(p)
    return a


# ---------------------------------------------------------------------------
# Laurent polynomials


@dataclass(frozen=True)
class LaurentPoly:
    """Sum of c_i x^(low+i) with canonical trimming at both ends."""

    low: int
    coeffs: tuple[int, ...]

    @staticmethod
    def of(low: int, coeffs: tuple[int, ...]) -> "LaurentPoly":
        coeffs = tuple(coeffs)
        start = 0
        while start < len(coeffs) and coeffs[start] == 0:
            start += 1
        end = len(coeffs)
        while end > start and coeffs[end - 1] == 0:
            end -= 1
        if start == end:
            return LaurentPoly(0, ())
        return LaurentPoly(low + start, coeffs[start:end])

    @staticmethod
    def monomial(k: int, c: int = 1) -> "LaurentPoly":
        return LaurentPoly.of(k, (c,))

    @staticmethod
    def x_power_minus_one(k: int) -> "LaurentPoly":
        return LaurentPoly.monomial(k) - LaurentPoly.monomial(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, o: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        low = min(self.low, o.low)
        shifted = lambda p: IntPoly((0,) * (p.low - low) + p.coeffs)
        return LaurentPoly.of(low, (shifted(self) + shifted(o)).coeffs)

    def __sub__(self, o: "LaurentPoly") -> "LaurentPoly":
        return self + o.scale(-1)

    def scale(self, k: int) -> "LaurentPoly":
        return LaurentPoly.of(self.low, tuple(k * c for c in self.coeffs))

    def __mul__(self, o: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero() or o.is_zero():
            return LaurentPoly(0, ())
        return LaurentPoly.of(self.low + o.low, _convolve(self.coeffs, o.coeffs))

    def substitute_power(self, a: int) -> "LaurentPoly":
        """x -> x^a (a nonzero; a < 0 composes with the inversion)."""
        if a == 0:
            raise InputError("substituting x^0 is not a ring map here")
        terms = [(a * (self.low + i), c) for i, c in enumerate(self.coeffs) if c]
        if not terms:
            return LaurentPoly(0, ())
        low = min(k for k, _ in terms)
        hi = max(k for k, _ in terms)
        out = [0] * (hi - low + 1)
        for k, c in terms:
            out[k - low] += c
        return LaurentPoly.of(low, tuple(out))

    def equal_up_to_unit(self, o: "LaurentPoly") -> bool:
        """Equality up to +-x^k."""
        if self.is_zero() or o.is_zero():
            return self.is_zero() and o.is_zero()
        return self.coeffs == o.coeffs or self.coeffs == tuple(-c for c in o.coeffs)


def substitute_x_plus_xinv(p: IntPoly) -> LaurentPoly:
    """Evaluate an integer polynomial at y = x + x^(-1), by Horner's rule on
    one flat list: after k steps acc[i] is the coefficient of x^(i - k), and
    multiplying by x + x^(-1) adds the list shifted up two to the list."""
    acc = [p.lead()]
    for c in reversed(p.coeffs[:-1]):
        acc = [a + b for a, b in zip([0, 0] + acc, acc + [0, 0])]
        acc[len(acc) // 2] += c
    return LaurentPoly.of(-p.degree, tuple(acc))


# ---------------------------------------------------------------------------
# Group ring Z[x]/(x^n - 1)


def _cyclic_mul(a: tuple, b: tuple) -> tuple:
    """The product in Z[x]/(x^n - 1) of two coefficient vectors of length n:
    the cyclic convolution, x^i * x^j = x^((i + j) mod n)."""
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[(i + j) % n] += x * y
    return tuple(out)


def _cyclic_power_map(a: tuple, e: int) -> tuple:
    """x -> x^e on Z[x]/(x^n - 1): the monomial x^i goes to x^(i*e mod n)."""
    n = len(a)
    out = [0] * n
    for i, c in enumerate(a):
        out[(i * e) % n] += c
    return tuple(out)


def _monomial(n: int, i: int) -> tuple[int, ...]:
    """x^i in Z[x]/(x^n - 1) as a coefficient tuple."""
    return tuple(int(j == i % n) for j in range(n))


# ---------------------------------------------------------------------------
# The two polynomial families


def _degree_bounded(fn):
    """Refuse a level n over ``degree_bound()`` before fn and its cache."""

    @wraps(fn)
    def bounded(n: int) -> IntPoly:
        if n > degree_bound():
            raise BoundExceededError(f"Chebyshev degree {n} over degree bound")
        return fn(n)

    return bounded


@_degree_bounded
@lru_cache(maxsize=None)
def chebyshev_psi(n: int) -> IntPoly:
    """The unique polynomial sending x + x^(-1) to x^n + x^(-n): the Dickson
    formula gives y^(n-2k) the coefficient (-1)^k (C(n-k, k) + C(n-k-1, k-1))
    = (-1)^k n/(n-k) C(n-k, k), certified by direct substitution."""
    if n < 0:
        raise InputError("nonnegative index required")
    if n == 0:
        return IntPoly.of(2)
    coeffs = [0] * n + [1]
    for k in range(1, n // 2 + 1):
        coeffs[n - 2 * k] = (-1) ** k * (comb(n - k, k) + comb(n - k - 1, k - 1))
    psi = IntPoly(tuple(coeffs))
    if substitute_x_plus_xinv(psi) != LaurentPoly.of(-n, (1,) + (0,) * (2 * n - 1) + (1,)):
        raise AssertionError("the coefficient formula failed the defining identity")
    return psi


def toric_psi(a: int, p: LaurentPoly) -> LaurentPoly:
    """The toric operation: substitution x -> x^a."""
    if a < 1:
        raise InputError("positive exponent required")
    return p.substitute_power(a)


def frobenius_lift_check(family: str, p: int) -> bool:
    """Does the family's p-th operation reduce to the p-power map mod p?"""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if family == "toric":
        x = LaurentPoly.monomial(1)
        return toric_psi(p, x).equal_up_to_unit(LaurentPoly.monomial(p)) and (toric_psi(p, x) - LaurentPoly.monomial(p)).is_zero()
    if family == "chebyshev":
        diff = chebyshev_psi(p) - IntPoly.of(*(([0] * p) + [1]))
        return diff.mod_coeffs(p).is_zero()
    raise InputError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Toric periodic loci


def gm_periodic_exponent(f: Cycle, support: PrimeSupport = ALL_PRIMES) -> int:
    """The exponent m with the toric periodic locus cut out by x^m - 1: the
    gcd of |a - b| over f-equivalent supported exponents a, b within the
    scan bound 4*n, required to stabilize at twice the bound.

    One pass labels each residue mod n once: over Q the label of a depends
    only on a mod n (gcd(a, n) does, and so does the class of the cofactor
    a/d mod n/d).  Over the pairs of one class the gcd of |a - b| is the
    gcd of each member's distance to the class's first member.  A scan
    that does not stabilize refuses under an explicit support and is a
    broken invariant under a dense one.
    """
    if f.field is not None:
        raise InputError("the toric line lives over the rationals")
    n = f.finite
    bound = 4 * n
    first: dict[tuple, int] = {}
    labels: dict[int, tuple] = {}  # per residue mod n
    m = m_bound = 0
    for a in range(1, 2 * bound + 1):
        if not support.supports_int(a):
            continue
        label = labels.get(a % n)
        if label is None:
            label = labels[a % n] = f_label(a, f, support)
        m = gcd(m, a - first.setdefault(label, a))
        if a <= bound:
            m_bound = m
            if m == 1:  # the gcd only shrinks, so the doubled scan ends at 1 too
                return 1
        elif m != m_bound:
            if support.mode == "explicit":
                raise DensityRequiredError(f"the periodic exponent scan for {f} does not stabilize: the support is not dense")
            raise AssertionError("periodic exponent scan did not stabilize")
    return m


# ---------------------------------------------------------------------------
# Chebyshev periodic loci


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> IntPoly:
    num = IntPoly.of(*([-1] + [0] * (n - 1) + [1]))
    for d in divisors(n):
        if d == n:
            continue
        out = poly_divmod(num, cyclotomic_polynomial(d))
        if out is None or not out[1].is_zero():
            raise AssertionError("a cyclotomic factor does not divide x^n - 1")
        num = out[0]
    return num


@_degree_bounded
@lru_cache(maxsize=None)
def chebyshev_periodic_generator(n: int) -> IntPoly:
    """The monic squarefree generator of the conductor-(n) periodic locus
    of the Chebyshev line: the squarefree part of psi_n - 2."""
    if n < 1:
        raise InputError("positive level required")
    return _periodic_generator(chebyshev_psi(n) - IntPoly.of(2), n)


def _periodic_generator(f: IntPoly, n: int) -> IntPoly:
    """The squarefree part of f = psi_n - 2.  As x^n + x^(-n) - 2 =
    x^(-n) (x^n - 1)^2, f = L V^2 with V monic and L = y - 2 for odd n,
    y^2 - 4 for even n.  L is divided out exactly and V read off the
    quotient's top half (V * V checked); q = L V divides f and f divides
    q^2, so q is the squarefree part once gcd(q, q') = 1 mod some prime
    (q is monic).  The least prime not dividing 2n always serves."""
    L = IntPoly.of(-2, 1) if n % 2 else IntPoly.of(-4, 0, 1)
    out = poly_divmod(f, L)
    if out is None or not out[1].is_zero():
        raise AssertionError("psi_n - 2 is not divisible by L")
    w, m = out[0], out[0].degree // 2
    v = [0] * m + [1]
    for k in range(m - 1, -1, -1):
        # the coefficient of y^(m+k) in V^2: 2 v_k + v_i v_(m+k-i) over k < i < m
        higher = v[k + 1 : m]
        v[k] = (w.coeffs[m + k] - sum(map(mul, higher, reversed(higher)))) // 2
    root = IntPoly(tuple(v))
    if root * root != w:
        raise AssertionError("psi_n - 2 is not L times a square")
    q = L * root
    if q.lead() != 1:
        raise AssertionError("squarefree part should be monic here")
    if _gcd_mod(q, q.derivative(), _squarefree_prime(n)).degree != 0:
        raise AssertionError("generator is not squarefree")
    if q.degree != ((n + 1) // 2 if n % 2 else n // 2 + 1):
        raise AssertionError("generator degree mismatch")
    return q


def _squarefree_prime(n: int) -> int:
    """The least prime not dividing 2n."""
    return next(p for p in count(3, 2) if n % p and is_prime(p))


def exponent_gcd_combination(a: int, b: int) -> tuple[LaurentPoly, LaurentPoly]:
    """Laurent cofactors (A, B) with A*(x^a - 1) + B*(x^b - 1) = x^gcd(a,b) - 1."""
    if a < 0 or b < 0 or (a == 0 and b == 0):
        raise InputError("need positive exponents")
    if b == 0:
        return LaurentPoly.monomial(0), LaurentPoly(0, ())
    if a < b:
        B, A = exponent_gcd_combination(b, a)
        return A, B
    # x^(a-b) - 1 = x^(-b) (x^a - 1) - x^(-b) (x^b - 1)
    A1, B1 = exponent_gcd_combination(a - b, b)
    shift = LaurentPoly.monomial(-b)
    return A1 * shift, B1 - A1 * shift


def chebyshev_equalizer_check(n: int, bound: int) -> bool:
    """Both containments for the conductor-(n) Chebyshev periodic ideal.

    (i) the generator divides every difference of operations at exponents
    congruent up to sign mod n within the bound; (ii) the generator lies in
    the ideal of the two witness differences, exhibited by exponent
    arithmetic on binomials inside the Laurent ring.
    """
    if bound < 2 * n + 2:
        raise InputError("bound must be at least 2n + 2")
    q = chebyshev_periodic_generator(n)
    for a in range(1, bound + 1):
        for b in range(1, a):
            if (a - b) % n and (a + b) % n:
                continue
            if not poly_divides(q, chebyshev_psi(a) - chebyshev_psi(b)):
                return False
    # witness differences as binomial products
    p1 = substitute_x_plus_xinv(chebyshev_psi(n + 1) - chebyshev_psi(1))
    p2 = substitute_x_plus_xinv(chebyshev_psi(n + 2) - chebyshev_psi(2))
    xn1 = LaurentPoly.x_power_minus_one(n)
    if not p1.equal_up_to_unit(xn1 * LaurentPoly.x_power_minus_one(n + 2)):
        return False
    if not p2.equal_up_to_unit(xn1 * LaurentPoly.x_power_minus_one(n + 4)):
        return False
    A, B = exponent_gcd_combination(n + 2, n + 4)
    g = gcd(n + 2, n + 4)
    combo = A * LaurentPoly.x_power_minus_one(n + 2) + B * LaurentPoly.x_power_minus_one(n + 4)
    if combo != LaurentPoly.x_power_minus_one(g):
        return False
    if g != (2 if n % 2 == 0 else 1):
        return False
    return substitute_x_plus_xinv(q).equal_up_to_unit(xn1 * LaurentPoly.x_power_minus_one(g))


@dataclass(frozen=True)
class PeriodicLocusReport:
    cycle: Cycle
    family: str
    generator: IntPoly | int  # polynomial for chebyshev, exponent for toric
    image_basis: tuple[tuple[int, ...], ...] | None  # HNF rows
    cokernel_order: int | None

    def to_json(self) -> dict:
        out = {"cycle": str(self.cycle), "family": self.family}
        if self.family == "chebyshev":
            out["Q"] = list(self.generator.coeffs)
            out["image_basis"] = [list(r) for r in self.image_basis]
            out["cokernel_order"] = self.cokernel_order
        else:
            out["exponent"] = self.generator
        return out


def chebyshev_image_lattice(n: int) -> PeriodicLocusReport:
    """The image of the periodic quotient Z[y]/(Q), y = x + x^(-1), in the
    group ring as a Hermite lattice.  Q(y) = 0 is checked by Horner's rule,
    so as Q is monic the image is spanned by 1 and the D_j = x^j + x^(-j) =
    psi_j(y), 0 < j < deg Q, monic of degree j in y: the stated rows, each
    checked by D_(j+1) = y D_j - D_(j-1) from D_0 = 2.  The cokernel order in
    the involution invariants is the middle pivot, 2 x^(n/2) for even n."""
    q = chebyshev_periodic_generator(n)
    times_y = lambda p: tuple(p[i - 1] + p[(i + 1) % n] for i in range(n))  # y = 2 when n = 1
    acc = (0,) * n
    for c in reversed(q.coeffs):
        acc = times_y(acc)
        acc = (acc[0] + c,) + acc[1:]
    if any(acc):
        raise AssertionError("the generator does not annihilate the image")
    image, one = _involution_basis(n), _monomial(n, 0)
    if len(image) != q.degree or image[0] != one:
        raise AssertionError("the stated basis is not 1 and deg Q - 1 Dickson rows")
    prev, dickson = tuple(2 * c for c in one), times_y(one)
    for j, row in enumerate(image[1:], 1):
        if row != dickson:
            raise AssertionError(f"stated row {j} is not D_{j} = x^{j} + x^(-{j})")
        prev, dickson = dickson, tuple(a - b for a, b in zip(times_y(dickson), prev))
    return PeriodicLocusReport(Cycle(None, n, False), "chebyshev", q, tuple(image), image[-1][n // 2])


def _involution_basis(n: int) -> list[tuple[int, ...]]:
    """Rows e_0 and e_i + e_(n-i) for 0 < i <= n/2 (2 e_(n/2) for even n):
    the stated image of the periodic quotient, already in Hermite form."""
    rows = [_monomial(n, 0)]
    for i in range(1, n // 2 + 1):
        v = [0] * n
        v[i] += 1
        v[n - i] += 1
        rows.append(tuple(v))
    return rows


def torsion_locus_contains_periodic(family: str, n: int, bound: int) -> bool:
    """The periodic generator divides the torsion generator, and pulling
    back along any operation of exponent up to the bound respects the
    periodic generators."""
    if family != "chebyshev":
        raise InputError("the torsion comparison is for the chebyshev family")
    q = chebyshev_periodic_generator(n)
    if not poly_divides(q, chebyshev_psi(n) - IntPoly.of(2)):
        return False
    for a in range(1, bound + 1):
        q_an = chebyshev_periodic_generator(a * n)
        if not poly_divides(q_an, q.compose(chebyshev_psi(a))):
            return False
    return True


# ---------------------------------------------------------------------------
# Ray class algebra maps and the cotangent computation


def ray_class_algebra_maps(n: int, n2: int):
    """The inclusion u (x -> x^(n2/n)) and the surjection v (monomial
    reduction) between the cyclic group rings, on coefficient tuples, with
    the composition law checked on the whole monomial basis."""
    if n2 % n:
        raise InputError("the smaller level must divide the larger")
    k = n2 // n

    def u(e: tuple) -> tuple:
        if len(e) != n:
            raise InputError("wrong source ring")
        out = [0] * n2
        for i, c in enumerate(e):
            out[(i * k) % n2] += c
        return tuple(out)

    def v(e: tuple) -> tuple:
        if len(e) != n2:
            raise InputError("wrong source ring")
        out = [0] * n
        for i, c in enumerate(e):
            out[i % n] += c
        return tuple(out)

    for i in range(n):
        e = _monomial(n, i)
        if u(e) != _monomial(n2, i * k):  # n distinct monomials: u is injective
            raise AssertionError("u failed injectivity")
        if v(u(e)) != _cyclic_power_map(e, k):
            raise AssertionError("v after u is not the power operation")
    for i in range(n2):
        e = _monomial(n2, i)
        if u(v(e)) != _cyclic_power_map(e, k):
            raise AssertionError("u after v is not the power operation")
    return u, v


def cyclotomic_cotangent_dim(a: int, q: int) -> int:
    """Dimension over F_q of the cotangent space of the level-a cyclic
    group ring along its augmentation: the augmentation ideal modulo its
    square, cyclic of order a, so 1 exactly when q divides a."""
    if a < 1 or not is_prime(q):
        raise InputError("need a >= 1 and q prime")
    if a > residue_bound():
        raise BoundExceededError(f"cotangent level {a} over residue bound")
    return int(_cotangent_order(a) % q == 0)


def _cotangent_order(a: int) -> int:
    """The order a of I/I^2 for the augmentation ideal I of the level-a
    group ring, certified cyclic on the class of g = x - 1.  I has the basis
    f_i = x^i g, i < a - 1, and I^2 is spanned by the s_k = x^k g^2, checked
    to satisfy s_0 = f_1 - f_0, sum s_k = 0 and a g + sum over k < a - 1 of
    (a - 1 - k) s_k = 0.  So s_0, ..., s_(a-3), a f_0 span I^2, bidiagonal
    over the f_i with determinant a, and each f_i is f_0 mod I^2.  Each
    product has a three-term factor, so costs O(a)."""
    g = tuple(int(j == 1 % a) - int(j == 0) for j in range(a))
    s = _cyclic_mul(g, g)
    if s != tuple(b - c for b, c in zip(g[-1:] + g[:-1], g)):
        raise AssertionError("(x - 1)^2 is not x(x - 1) - (x - 1)")
    if any(_cyclic_mul(s, (1,) * a)):
        raise AssertionError("the shifts of (x - 1)^2 do not sum to zero")
    if any(w + a * c for w, c in zip(_cyclic_mul(s, tuple(range(a - 1, -1, -1))), g)):
        raise AssertionError("a(x - 1) is not the weighted sum of the shifts of (x - 1)^2")
    return a
