import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import krein.polynomials
from krein.decompose import certify_family, verify_certificate
from krein.exceptions import ParameterError
from krein.matrices import char_poly
from krein.polynomials import (
    _PRIMES,
    Polynomial,
    _primitive,
    _pseudo_divmod,
    poly_gcd,
    poly_lcm,
    poly_roots,
    squarefree_decomposition,
)
from krein.scalars import ZERO, GaussianRational, as_scalar
from krein.witnesses import ALL_FAMILIES, admissible_ks, build_witness, witness_complex_b, witness_real_e
from test_acceptance import GLUED_PAIRS

SRC = Path(__file__).resolve().parents[1] / "src"

# Expected polynomials are built in sympy, t the variable, and read back
# through the public constructor: krein has no polynomial arithmetic.
T = sympy.Symbol("t")
I = sympy.I


def sym(c) -> sympy.Expr:
    """A scalar (GaussianRational, Fraction or int) as a sympy number."""
    c = as_scalar(c)
    return sympy.Rational(c.re.numerator, c.re.denominator) + I * sympy.Rational(c.im.numerator, c.im.denominator)


def _fraction(x) -> Fraction:
    """A rational of sympy's ground domain as a Fraction."""
    return Fraction(int(x.numerator), int(x.denominator))


def sympy_poly(expr) -> Polynomial:
    """The Polynomial of a sympy expression or Poly in t with Gaussian-rational coefficients."""
    coeffs = sympy.Poly(expr, T, domain="QQ_I").rep.to_list()
    return Polynomial(GaussianRational(_fraction(c.x), _fraction(c.y)) for c in reversed(coeffs))


def _poly(coeffs) -> sympy.Poly:
    """The sympy Poly over Q(i) of ascending scalar coefficients; products of
    Polys run on sympy's dense arithmetic, far faster than expanding."""
    return sympy.Poly([sym(c) for c in reversed(coeffs)], T, domain="QQ_I")


def _zexpr(f) -> sympy.Expr:
    """The sympy expression of an integer (re, im) pair of coefficient lists."""
    re, im = f
    return sum((x + I * y) * T**k for k, (x, y) in enumerate(zip(re, im or [0] * len(re))))


def test_divmod_is_exact():
    # the pseudo-division over Z[i]: s a = q b + r with deg r < deg b, for
    # a positive integer s, multiplied back over Q(i)
    rng = random.Random(1)
    for trial in range(50):
        im = (lambda: rng.randint(-5, 5)) if trial % 2 else (lambda: 0)
        a = Polynomial([GaussianRational(rng.randint(-5, 5), im()) for _ in range(6)])
        b = Polynomial([GaussianRational(rng.randint(-5, 5), im()) for _ in range(3)])
        if a.is_zero or b.is_zero:
            continue
        za, zb = _primitive(a._re, a._im), _primitive(b._re, b._im)
        q, r = _pseudo_divmod(za, zb)
        back = sympy.Poly(_zexpr(q) * _zexpr(zb) + _zexpr(r), T, domain="QQ_I")
        s = back.LC() / sympy.Poly(_zexpr(za), T, domain="QQ_I").LC()
        assert s.is_integer and s > 0
        assert back == sympy.Poly(s * _zexpr(za), T, domain="QQ_I")
        assert len(r[0]) < len(zb[0])


def test_gcd_and_lcm():
    a = sympy_poly((T - 1) * (T - 2))
    b = sympy_poly((T - 2) * (T - 3))
    assert poly_gcd(a, b) == sympy_poly(T - 2)
    assert poly_lcm(a, b) == sympy_poly((T - 1) * (T - 2) * (T - 3))


def test_squarefree_decomposition():
    p = sympy_poly((T - 1) ** 3 * (T + 2))
    parts = dict((m, f) for f, m in squarefree_decomposition(p))
    assert parts[1] == sympy_poly(T + 2)
    assert parts[3] == sympy_poly(T - 1)


def test_char_poly_and_poly_roots_box_no_coefficient(monkeypatch):
    # char_poly builds its integer form from the recurrence, and poly_roots
    # reads it back: neither goes through the coefficients, so a broken
    # boxing route changes no root
    ns = [make().n_op for make in GLUED_PAIRS]
    ns += [build_witness(f, k, {}).pair.n_op for f in ALL_FAMILIES for k in admissible_ks(f, 4)]
    expected = [repr(poly_roots(char_poly(n))) for n in ns]

    def no_integer_form(values):
        raise AssertionError("a coefficient was boxed")

    monkeypatch.setattr(krein.polynomials, "integer_form", no_integer_form)
    assert [repr(poly_roots(char_poly(n))) for n in ns] == expected


def test_roots_of_t_squared_minus_one():
    roots = poly_roots(Polynomial([-1, 0, 1]))
    values = sorted((r.value.re for r in roots))
    assert all(r.is_exact and r.multiplicity == 1 for r in roots)
    assert values == [-1, 1]


def test_roots_of_power_keep_multiplicity():
    lam = GaussianRational(Fraction(1, 2), Fraction(-2, 3))
    for k in (1, 2, 5, 12):
        p = sympy_poly((T - sym(lam)) ** k)
        roots = poly_roots(p)
        assert len(roots) == 1
        assert roots[0].is_exact and roots[0].value == lam and roots[0].multiplicity == k


def test_roots_quadratic_formula_oracle():
    # t^2 - 2at + (a^2+b^2) with a=1, b=2; the quadratic formula gives
    # a +- sqrt(a^2 - (a^2+b^2)) = 1 +- 2i, recomputed here independently
    a, b = 1.0, 2.0
    disc = a * a - (a * a + b * b)
    oracle = {complex(a, math.sqrt(-disc)), complex(a, -math.sqrt(-disc))}
    roots = poly_roots(Polynomial([5, -2, 1]))
    got = {complex(float(r.value.re), float(r.value.im)) for r in roots}
    assert all(r.is_exact for r in roots)
    assert got == oracle


def test_irrational_roots_are_reported_approximately():
    roots = poly_roots(Polynomial([-2, 0, 1]))  # t^2 - 2
    assert all(not r.is_exact for r in roots)
    vals = sorted(r.value.real for r in roots)
    assert abs(vals[0] + math.sqrt(2)) < 1e-9
    assert abs(vals[1] - math.sqrt(2)) < 1e-9


def test_mixed_exact_and_approximate():
    p = sympy_poly((T - sympy.Rational(3, 7)) * (T**2 - 2))
    roots = poly_roots(p)
    exact = [r for r in roots if r.is_exact]
    assert len(exact) == 1 and exact[0].value == Fraction(3, 7)
    assert sum(r.multiplicity for r in roots) == 3


def test_degree_zero_rejected():
    with pytest.raises(ParameterError):
        poly_roots(Polynomial([3]))


def test_irrational_root_past_the_float_range_is_reported():
    # t^2 - 2 10^800 has no root in Q(i), and its coefficients have no float
    # for the display values. In t^2 - 1.7 10^308 t + 2 the coefficients are
    # floats but the large root's Newton steps overflow, which must not pass
    # as a display value. Either way the roots have no value, and their
    # realness is still exact
    for p in (Polynomial([-2 * 10**800, 0, 1]), Polynomial([2, -17 * 10**307, 1])):
        roots = poly_roots(p)
        assert [(r.value, r.multiplicity, r.is_exact, r.is_real) for r in roots] == [(None, 1, False, True)] * 2


def test_display_values_of_far_apart_irrational_roots():
    # +-sqrt(2) 10^100 and +-sqrt(3) i: the fourth power of the large roots
    # has no float, and they are 10^100 times the small ones
    roots = poly_roots(sympy_poly((T**2 - 2 * 10**200) * (T**2 + 3)))
    assert not any(r.is_exact for r in roots)
    expected = [-math.sqrt(2) * 1e100, -math.sqrt(3) * 1j, math.sqrt(3) * 1j, math.sqrt(2) * 1e100]
    assert all(abs(r.value - z) <= 1e-12 * abs(z) for r, z in zip(roots, expected))
    assert [r.value.imag == 0 for r in roots] == [True, False, False, True]


def test_poly_from_roots_round_trip():
    roots = poly_roots(sympy_poly((T - sympy.Rational(1, 2)) * (T + 3) * (T - sympy.Rational(1, 2))))
    assert {(r.value, r.multiplicity) for r in roots} == {
        (GaussianRational(Fraction(1, 2)), 2),
        (GaussianRational(Fraction(-3)), 1),
    }


def _exact_values(p):
    return sorted((r.value.re, r.value.im, r.multiplicity) for r in poly_roots(p) if r.is_exact)


def test_snap_does_not_claim_a_neighbouring_exact_root():
    # the numeric root near 3/2 + i rounds to the Gaussian integer 1 + i,
    # which is an exact root of the same factor; it must not take it
    w = witness_complex_b(1, GaussianRational(Fraction(3, 2), 1), GaussianRational(1, 1))
    roots = poly_roots(char_poly(w.pair.n_op))
    assert all(r.is_exact for r in roots)
    assert _exact_values(char_poly(w.pair.n_op)) == [(1, 1, 1), (Fraction(3, 2), 1, 1)]
    cert = certify_family(w)
    assert verify_certificate(w.pair, cert)


def test_snap_on_real_e_neighbouring_conjugate_pairs():
    w = witness_real_e(2, -1, 1, Fraction(-3, 2), 1)
    assert _exact_values(char_poly(w.pair.n_op)) == [
        (Fraction(-3, 2), -1, 1),
        (Fraction(-3, 2), 1, 1),
        (-1, -1, 1),
        (-1, 1, 1),
    ]
    assert verify_certificate(w.pair, certify_family(w))


def test_huge_root_is_found_exactly():
    # no float enters the search for roots in Q(i), so a root past the float
    # range is found with its multiplicity
    p = sympy_poly((T - 10**400) ** 2 * (T - 1))
    assert squarefree_decomposition(p)[1] == (sympy_poly(T - 10**400), 2)
    roots = poly_roots(p)
    assert [(r.value, r.multiplicity, r.is_exact) for r in roots] == [
        (GaussianRational(1), 1, True),
        (GaussianRational(10**400), 2, True),
    ]


@pytest.mark.parametrize("c", [Fraction(1, 10**17), Fraction(1, 10**20), Fraction(1, 10**30)])
@pytest.mark.parametrize("r", [Fraction(1), Fraction(3, 7), Fraction(5, 3)])
def test_rational_root_next_to_a_huge_leading_coefficient(r, c):
    # the primitive form of (t - r)(t^3 + c t + c + 2) has a leading
    # coefficient L >= 10^17, so L z is past what a double resolves and the
    # candidate comes from exact Newton steps
    roots = poly_roots(sympy_poly((T - sym(r)) * (T**3 + sym(c) * T + sym(c + 2))))
    assert [(x.value, x.multiplicity) for x in roots if x.is_exact] == [(r, 1)]
    assert len(roots) == 4


# -- property tests against a Fraction-Euclid reference ---------------------------


# The reference works on ascending coefficient lists of GaussianRationals,
# trimmed (the zero polynomial is []).


def _trimmed(cs):
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _ref_monic(cs):
    return [c / cs[-1] for c in cs]


def _ref_divmod(a, b):
    """Long division over Q(i)."""
    rem = list(a)
    quo = [ZERO] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        f = quo[k] = rem[k + len(b) - 1] / b[-1]
        for j, c in enumerate(b):
            rem[k + j] = rem[k + j] - f * c
    return _trimmed(quo), _trimmed(rem)


def _ref_gcd(a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, _ref_monic(_ref_divmod(a, b)[1])
    return Polynomial(_ref_monic(a))


def _ref_squarefree(p):
    """Yun's algorithm with Euclid's gcd and long division over Q(i)."""
    p = _ref_monic(list(p.coeffs))
    g = list(_ref_gcd(p, [k * c for k, c in enumerate(p)][1:]).coeffs)
    if len(g) <= 1:
        return [(Polynomial(p), 1)]
    w = _ref_divmod(p, g)[0]
    out = []
    k = 1
    while len(w) > 1:
        y = list(_ref_gcd(w, g).coeffs)
        factor = _ref_divmod(w, y)[0]
        if len(factor) > 1:
            out.append((Polynomial(_ref_monic(factor)), k))
        w = y
        g = _ref_divmod(g, y)[0]
        k += 1
    return out


_rationals = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 7, 1000003)))


def _scalars(gaussian):
    if gaussian:
        return st.builds(GaussianRational, _rationals, _rationals)
    return st.builds(GaussianRational, _rationals)


@st.composite
def _factored(draw, gaussian, max_degree):
    """A nonzero scalar times a product of degree-1 and degree-2 factors with
    multiplicities 1 to 6 (the factors may share roots), as a sympy Poly."""
    p, degree = _poly([draw(_scalars(gaussian).filter(bool))]), 0
    for _ in range(draw(st.integers(1, 3))):
        factor = draw(st.lists(_scalars(gaussian), min_size=1, max_size=2)) + [1]
        mult = draw(st.integers(1, 6))
        if degree + (len(factor) - 1) * mult <= max_degree:
            p, degree = p * _poly(factor) ** mult, degree + (len(factor) - 1) * mult
    return p


def _any_factored(max_degree):
    return st.booleans().flatmap(lambda gaussian: _factored(gaussian, max_degree))


@st.composite
def _gcd_pairs(draw):
    common = draw(_any_factored(6))
    return sympy_poly(common * draw(_any_factored(6))), sympy_poly(common * draw(_any_factored(6)))


# Gaussian content 1 + 2i, a double root 1 + i and a simple root 3i
_GAUSSIAN_EXAMPLE = (1 + 2 * I) * (T - 1 - I) ** 2 * (T - 3 * I)


@settings(max_examples=80, deadline=None)
@given(_any_factored(12).map(sympy_poly))
@example(sympy_poly(_GAUSSIAN_EXAMPLE))
def test_squarefree_decomposition_matches_fraction_euclid(p):
    parts = squarefree_decomposition(p)
    assert parts == _ref_squarefree(p)
    assert all(factor.coeffs[-1] == 1 for factor, _ in parts)
    product = math.prod((_poly(f.coeffs) ** m for f, m in parts), start=_poly([1]))
    assert sympy_poly(product) == Polynomial(_ref_monic(list(p.coeffs)))


@settings(max_examples=80, deadline=None)
@given(_gcd_pairs())
@example((sympy_poly(_GAUSSIAN_EXAMPLE), sympy_poly((T - 1 - I) * (T + 1))))
def test_gcd_matches_fraction_euclid(pair):
    a, b = pair
    assert poly_gcd(a, b) == _ref_gcd(a.coeffs, b.coeffs)
    assert poly_gcd(b, a) == _ref_gcd(a.coeffs, b.coeffs)
    assert poly_gcd(a, Polynomial()) == Polynomial(_ref_monic(list(a.coeffs)))
    assert poly_gcd(Polynomial(), b) == Polynomial(_ref_monic(list(b.coeffs)))


def test_gcd_of_zeros_is_zero():
    assert poly_gcd(Polynomial(), Polynomial()).is_zero


_small_rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 8))
_IRREDUCIBLE_QUADRATICS = ([-2, 0, 1], [3, 0, 1], [1, 1, 1], [-1, -1, 1], [-3, 0, 2])


@st.composite
def _roots_times_quadratic(draw):
    gaussian = draw(st.booleans())
    values = st.builds(GaussianRational, _small_rationals, _small_rationals if gaussian else st.just(0))
    roots = draw(st.lists(values, min_size=1, max_size=3, unique=True))
    mults = [draw(st.integers(1, 6)) for _ in roots]
    p = _poly([draw(_scalars(gaussian).filter(bool))]) * _poly(draw(st.sampled_from(_IRREDUCIBLE_QUADRATICS)))
    for r, m in zip(roots, mults):
        p *= _poly([-r, 1]) ** m
    return sympy_poly(p), set(zip(roots, mults))


@settings(max_examples=80, deadline=None)
@given(_roots_times_quadratic())
@example((sympy_poly(_GAUSSIAN_EXAMPLE * (T**2 + T + 1)), {(GaussianRational(1, 1), 2), (GaussianRational(0, 3), 1)}))
def test_roots_of_a_product_are_found_exactly(case):
    p, expected = case
    roots = poly_roots(p)
    assert {(r.value, r.multiplicity) for r in roots if r.is_exact} == expected
    assert sum(r.multiplicity for r in roots if not r.is_exact) == 2


_huge_rationals = st.builds(Fraction, st.integers(-(10**400), 10**400), st.integers(1, 10**30))


@st.composite
def _huge_roots_times_quadratic(draw):
    """Up to three distinct Gaussian-rational roots with parts up to 10^400
    and denominators up to 10^30, multiplicities 1 to 3, times an irreducible
    quadratic."""
    gaussian = draw(st.booleans())
    values = st.builds(GaussianRational, _huge_rationals, _huge_rationals if gaussian else st.just(0))
    roots = draw(st.lists(values, min_size=1, max_size=3, unique=True))
    mults = [draw(st.integers(1, 3)) for _ in roots]
    p = _poly(draw(st.sampled_from(_IRREDUCIBLE_QUADRATICS)))
    for r, m in zip(roots, mults):
        p *= _poly([-r, 1]) ** m
    return sympy_poly(p), set(zip(roots, mults))


@settings(max_examples=40, deadline=None)
@given(_huge_roots_times_quadratic())
@example(
    (
        sympy_poly(_poly([1, 1, 1]) * _poly([-GaussianRational(Fraction(10**400 - 1, 10**30 - 1), Fraction(-(10**400), 7)), 1]) ** 3),
        {(GaussianRational(Fraction(10**400 - 1, 10**30 - 1), Fraction(-(10**400), 7)), 3)},
    )
)
def test_huge_and_fine_roots_are_found_exactly(case):
    p, expected = case
    roots = poly_roots(p)
    assert {(r.value, r.multiplicity) for r in roots if r.is_exact} == expected
    assert sum(r.multiplicity for r in roots if not r.is_exact) == 2


def test_bad_primes_are_skipped():
    # q is divisible by every prime of the list, which divides the lead of
    # the first polynomial and, mod each prime, makes two roots of the others
    # coincide; every prime is skipped and the roots come from a later one
    assert all(p % 4 == 1 and (iota * iota + 1) % p == 0 for p, iota in _PRIMES)
    q = math.prod(p for p, _ in _PRIMES)
    i = GaussianRational(0, 1)
    for p, expected in (
        ((q * T - 1) * (T**2 + 3), [Fraction(1, q)]),
        (T * (T - q) * (T**2 + T + 1), [0, q]),
        ((T - I) * (T - q - I) * (T**2 - 2), [i, q + i]),
    ):
        roots = poly_roots(sympy_poly(p))
        assert [(r.value, r.multiplicity) for r in roots if r.is_exact] == [(as_scalar(r), 1) for r in expected]
        assert sum(1 for r in roots if not r.is_exact) == 2


_real_coeffs = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))


@st.composite
def _real_with_repeated_roots(draw):
    """A rational polynomial of degree >= 1 times up to three linear factors
    with multiplicities 1 to 3."""
    p = _poly(draw(st.lists(_real_coeffs, min_size=1, max_size=6)) + [draw(_real_coeffs.filter(bool))])
    for r in draw(st.lists(_real_coeffs, max_size=3)):
        p *= _poly([-r, 1]) ** draw(st.integers(1, 3))
    return sympy_poly(p)


def _sympy_distinct_and_real(p):
    f = sympy.Poly([sympy.Rational(c.re.numerator, c.re.denominator) for c in reversed(p.coeffs)], T).sqf_part()
    return f.degree(), f.count_roots()


@settings(max_examples=80, deadline=None)
@given(_real_with_repeated_roots())
@example(sympy_poly((T**2 - 2) * (T**2 + sympy.Rational(1, 10**20) * T - 2 - sympy.Rational(1, 10**20))))
@example(sympy_poly(T**2 - 6 * T + 9 + sympy.Rational(1, 10**20)))  # 3 +- 10^-10 i, solved on the real axis
def test_root_counts_match_sympy(p):
    roots = poly_roots(p)
    distinct, real = _sympy_distinct_and_real(p)
    assert len(roots) == distinct
    assert sum(r.is_real for r in roots) == real
    assert all(r.is_real == (r.value.is_real if r.is_exact else r.value.imag == 0.0) for r in roots)
    assert sum(r.multiplicity for r in roots) == p.degree


def test_importing_krein_does_not_import_sympy():
    code = "import sys; sys.path.insert(0, sys.argv[1]); import krein; print('sympy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, timeout=120, check=True
    )
    assert out.stdout.strip() == "False"


def test_importing_krein_does_not_import_numpy():
    code = "import sys; sys.path.insert(0, sys.argv[1]); import krein; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, timeout=120, check=True
    )
    assert out.stdout.strip() == "False"
