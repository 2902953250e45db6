import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krein.decompose import certify_family, verify_certificate
from krein.exceptions import ParameterError
from krein.matrices import char_poly
from krein.polynomials import (
    _PRIMES,
    Polynomial,
    _integer_poly,
    _pseudo_divmod,
    poly_gcd,
    poly_lcm,
    poly_roots,
    squarefree_decomposition,
)
from krein.scalars import GaussianRational, as_scalar
from krein.witnesses import witness_complex_b, witness_real_e

SRC = Path(__file__).resolve().parents[1] / "src"


def test_basic_arithmetic():
    p = Polynomial([1, 2])        # 1 + 2t
    q = Polynomial([0, 0, 1])     # t^2
    assert p + q == Polynomial([1, 2, 1])
    assert p * q == Polynomial([0, 0, 1, 2])
    assert (p - p).is_zero
    assert p ** 3 == p * p * p


def test_power_squares_only_while_bits_remain(monkeypatch):
    p = Polynomial([GaussianRational(1, 2), Fraction(-1, 3), 1])
    products = [Polynomial([1])]
    for _ in range(9):
        products.append(products[-1] * p)
    calls = []
    mul = Polynomial.__mul__

    def counting_mul(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    for n in range(10):
        calls.clear()
        assert p ** n == products[n]
        if n:
            # one product per set bit and one square per further bit
            assert len(calls) == bin(n).count("1") + n.bit_length() - 1


def _from_zpoly(f):
    re, im = f
    return Polynomial([GaussianRational(x, y) for x, y in zip(re, im or [0] * len(re))])


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
        za, zb = _integer_poly(a), _integer_poly(b)  # primitive
        q, r = _pseudo_divmod(za, zb)
        back = _from_zpoly(q) * _from_zpoly(zb) + _from_zpoly(r)
        s = back.leading() / _from_zpoly(za).leading()
        assert s.im == 0 and s.re.denominator == 1 and s.re > 0
        assert back == _from_zpoly(za) * Polynomial([s])
        assert len(r[0]) < len(zb[0])


def test_gcd_and_lcm():
    t = Polynomial([0, 1])
    a = (t - Polynomial([1])) * (t - Polynomial([2]))
    b = (t - Polynomial([2])) * (t - Polynomial([3]))
    g = poly_gcd(a, b)
    assert g == t - Polynomial([2])
    assert poly_lcm(a, b).degree == 3


def test_squarefree_decomposition():
    t = Polynomial([0, 1])
    p = (t - Polynomial([1])) ** 3 * (t + Polynomial([2])) ** 1
    parts = dict((m, f) for f, m in squarefree_decomposition(p))
    assert parts[1] == t + Polynomial([2])
    assert parts[3] == t - Polynomial([1])


def test_roots_of_t_squared_minus_one():
    roots = poly_roots(Polynomial([-1, 0, 1]))
    values = sorted((r.value.re for r in roots))
    assert all(r.is_exact and r.multiplicity == 1 for r in roots)
    assert values == [-1, 1]


def test_roots_of_power_keep_multiplicity():
    lam = GaussianRational(Fraction(1, 2), Fraction(-2, 3))
    for k in (1, 2, 5, 12):
        p = Polynomial([-lam, 1]) ** k
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
    t = Polynomial([0, 1])
    p = (t - Polynomial([Fraction(3, 7)])) * (t * t - Polynomial([2]))
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
    roots = poly_roots(Polynomial([-2 * 10**200, 0, 1]) * Polynomial([3, 0, 1]))
    assert not any(r.is_exact for r in roots)
    expected = [-math.sqrt(2) * 1e100, -math.sqrt(3) * 1j, math.sqrt(3) * 1j, math.sqrt(2) * 1e100]
    assert all(abs(r.value - z) <= 1e-12 * abs(z) for r, z in zip(roots, expected))
    assert [r.value.imag == 0 for r in roots] == [True, False, False, True]


def test_poly_from_roots_round_trip():
    vals = [Fraction(1, 2), Fraction(-3), Fraction(1, 2)]
    p = Polynomial([1])
    for v in vals:
        p = p * Polynomial([-v, 1])
    roots = poly_roots(p)
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
    t = Polynomial([0, 1])
    p = (t - Polynomial([10**400])) ** 2 * (t - Polynomial([1]))
    assert squarefree_decomposition(p)[1] == (t - Polynomial([10**400]), 2)
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
    t = Polynomial([0, 1])
    roots = poly_roots((t - Polynomial([r])) * Polynomial([c + 2, c, 0, 1]))
    assert [(x.value, x.multiplicity) for x in roots if x.is_exact] == [(r, 1)]
    assert len(roots) == 4


# -- property tests against a Fraction-Euclid reference ---------------------------


def _ref_divmod(a, b):
    """Long division over Q(i)."""
    rem = list(a.coeffs)
    dq = len(rem) - len(b.coeffs)
    if dq < 0:
        return Polynomial(), a
    quo = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        f = rem[k + b.degree] / b.leading()
        quo[k] = f
        for j, c in enumerate(b.coeffs):
            rem[k + j] = rem[k + j] - f * c
    return Polynomial(quo), Polynomial(rem)


def _ref_gcd(a, b):
    while not b.is_zero:
        a, b = b, _ref_divmod(a, b)[1].monic()
    return a.monic()


def _ref_squarefree(p):
    """Yun's algorithm with Euclid's gcd and long division over Q(i)."""
    p = p.monic()
    g = _ref_gcd(p, Polynomial([k * c for k, c in enumerate(p.coeffs)][1:]))
    if g.degree <= 0:
        return [(p, 1)]
    w = _ref_divmod(p, g)[0]
    out = []
    k = 1
    while w.degree > 0:
        y = _ref_gcd(w, g)
        factor = _ref_divmod(w, y)[0]
        if factor.degree > 0:
            out.append((factor.monic(), k))
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
    multiplicities 1 to 6 (the factors may share roots)."""
    p = Polynomial([draw(_scalars(gaussian).filter(bool))])
    for _ in range(draw(st.integers(1, 3))):
        factor = Polynomial(draw(st.lists(_scalars(gaussian), min_size=1, max_size=2)) + [1])
        mult = draw(st.integers(1, 6))
        if p.degree + factor.degree * mult <= max_degree:
            p = p * factor**mult
    return p


def _any_factored(max_degree):
    return st.booleans().flatmap(lambda gaussian: _factored(gaussian, max_degree))


@st.composite
def _gcd_pairs(draw):
    common = draw(_any_factored(6))
    return common * draw(_any_factored(6)), common * draw(_any_factored(6))


# Gaussian content 1 + 2i, a double root 1 + i and a simple root 3i
_GAUSSIAN_EXAMPLE = (
    Polynomial([GaussianRational(1, 2)])
    * Polynomial([GaussianRational(-1, -1), 1]) ** 2
    * Polynomial([GaussianRational(0, -3), 1])
)


@settings(max_examples=80, deadline=None)
@given(_any_factored(12))
@example(_GAUSSIAN_EXAMPLE)
def test_squarefree_decomposition_matches_fraction_euclid(p):
    parts = squarefree_decomposition(p)
    assert parts == _ref_squarefree(p)
    product = Polynomial([1])
    for factor, mult in parts:
        assert factor.leading() == 1
        product = product * factor**mult
    assert product == p.monic()


@settings(max_examples=80, deadline=None)
@given(_gcd_pairs())
@example((_GAUSSIAN_EXAMPLE, Polynomial([GaussianRational(-1, -1), 1]) * Polynomial([1, 1])))
def test_gcd_matches_fraction_euclid(pair):
    a, b = pair
    assert poly_gcd(a, b) == _ref_gcd(a, b)
    assert poly_gcd(b, a) == _ref_gcd(a, b)
    assert poly_gcd(a, Polynomial()) == a.monic()
    assert poly_gcd(Polynomial(), b) == b.monic()


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
    scale = draw(_scalars(gaussian).filter(bool))
    p = Polynomial([scale]) * Polynomial(draw(st.sampled_from(_IRREDUCIBLE_QUADRATICS)))
    for r, m in zip(roots, mults):
        p = p * Polynomial([-r, 1]) ** m
    return p, set(zip(roots, mults))


@settings(max_examples=80, deadline=None)
@given(_roots_times_quadratic())
@example((_GAUSSIAN_EXAMPLE * Polynomial([1, 1, 1]), {(GaussianRational(1, 1), 2), (GaussianRational(0, 3), 1)}))
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
    p = Polynomial(draw(st.sampled_from(_IRREDUCIBLE_QUADRATICS)))
    for r, m in zip(roots, mults):
        p = p * Polynomial([-r, 1]) ** m
    return p, set(zip(roots, mults))


@settings(max_examples=40, deadline=None)
@given(_huge_roots_times_quadratic())
@example(
    (
        Polynomial([1, 1, 1])
        * Polynomial([-GaussianRational(Fraction(10**400 - 1, 10**30 - 1), Fraction(-(10**400), 7)), 1]) ** 3,
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
    t = Polynomial([0, 1])
    i = GaussianRational(0, 1)
    for p, expected in (
        (Polynomial([-1, q]) * Polynomial([3, 0, 1]), [Fraction(1, q)]),
        (t * (t - Polynomial([q])) * Polynomial([1, 1, 1]), [0, q]),
        ((t - Polynomial([i])) * (t - Polynomial([q + i])) * Polynomial([-2, 0, 1]), [i, q + i]),
    ):
        roots = poly_roots(p)
        assert [(r.value, r.multiplicity) for r in roots if r.is_exact] == [(as_scalar(r), 1) for r in expected]
        assert sum(1 for r in roots if not r.is_exact) == 2


_real_coeffs = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))


@st.composite
def _real_with_repeated_roots(draw):
    """A rational polynomial of degree >= 1 times up to three linear factors
    with multiplicities 1 to 3."""
    p = Polynomial(draw(st.lists(_real_coeffs, min_size=1, max_size=6)) + [draw(_real_coeffs.filter(bool))])
    for r in draw(st.lists(_real_coeffs, max_size=3)):
        p = p * Polynomial([-r, 1]) ** draw(st.integers(1, 3))
    return p


def _sympy_distinct_and_real(p):
    import sympy

    t = sympy.Symbol("t")
    f = sympy.Poly([sympy.Rational(c.re.numerator, c.re.denominator) for c in reversed(p.coeffs)], t).sqf_part()
    return f.degree(), f.count_roots()


@settings(max_examples=80, deadline=None)
@given(_real_with_repeated_roots())
@example(Polynomial([-2, 0, 1]) * Polynomial([-2 - Fraction(1, 10**20), Fraction(1, 10**20), 1]))
@example(Polynomial([9 + Fraction(1, 10**20), -6, 1]))  # 3 +- 10^-10 i, solved on the real axis
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
