import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krein.decompose import certify_family, verify_certificate
from krein.exceptions import ParameterError, RootFindingError
from krein.matrices import char_poly
from krein.polynomials import (
    Polynomial,
    poly_from_roots,
    poly_gcd,
    poly_lcm,
    poly_roots,
    squarefree_decomposition,
)
from krein.scalars import GaussianRational
from krein.witnesses import witness_complex_b, witness_real_e


def test_basic_arithmetic():
    p = Polynomial([1, 2])        # 1 + 2t
    q = Polynomial([0, 0, 1])     # t^2
    assert p + q == Polynomial([1, 2, 1])
    assert p * q == Polynomial([0, 0, 1, 2])
    assert (p - p).is_zero
    assert p ** 3 == p * p * p


def test_divmod_is_exact():
    rng = random.Random(1)
    for _ in range(50):
        a = Polynomial([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)])
        b = Polynomial([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)])
        if b.is_zero:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


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
    got = {r.value.to_complex() for r in roots}
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


def test_nonfinite_numeric_roots_are_reported(monkeypatch):
    import numpy as np
    import krein.polynomials as polys

    monkeypatch.setattr(polys.np, "roots", lambda c: np.array([np.nan + 0j]))
    with pytest.raises(RootFindingError):
        poly_roots(Polynomial([1, 1]))


def test_poly_from_roots_round_trip():
    vals = [Fraction(1, 2), Fraction(-3), Fraction(1, 2)]
    p = poly_from_roots(vals)
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


def test_huge_coefficient_raises_root_finding_error():
    # Yun's algorithm runs on integers, so only the float conversion for the
    # numeric solve can overflow; it must surface as RootFindingError
    t = Polynomial([0, 1])
    p = (t - Polynomial([10**400])) ** 2 * (t - Polynomial([1]))
    assert squarefree_decomposition(p)[1] == (t - Polynomial([10**400]), 2)
    with pytest.raises(RootFindingError):
        poly_roots(p)


# -- property tests against a Fraction-Euclid reference ---------------------------


def _ref_gcd(a, b):
    while not b.is_zero:
        a, b = b, (a % b).monic()
    return a.monic()


def _ref_squarefree(p):
    """Yun's algorithm with Euclid's gcd and long division over Q(i)."""
    p = p.monic()
    g = _ref_gcd(p, p.derivative())
    if g.degree <= 0:
        return [(p, 1)]
    w = p // g
    out = []
    k = 1
    while w.degree > 0:
        y = _ref_gcd(w, g)
        factor = w // y
        if factor.degree > 0:
            out.append((factor.monic(), k))
        w = y
        g = g // y
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
