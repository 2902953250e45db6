import math
import random
from fractions import Fraction

import pytest

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
