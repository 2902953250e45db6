import random
from fractions import Fraction

import pytest

from krein.exceptions import SchemaError
from krein.scalars import (
    GaussianRational,
    format_scalar,
    parse_scalar,
    rational_sqrt,
)


def gq(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_arithmetic_basics():
    a = gq(Fraction(1, 2), 1)
    b = gq(-1, Fraction(1, 3))
    assert a + b == gq(Fraction(-1, 2), Fraction(4, 3))
    assert a - b == gq(Fraction(3, 2), Fraction(2, 3))
    # (1/2 + i)(-1 + i/3) = -1/2 + i/6 - i - 1/3
    assert a * b == gq(Fraction(-5, 6), Fraction(-5, 6))
    assert (a / b) * b == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gq(1) / gq(0)


def test_conjugation_is_involution():
    rng = random.Random(7)
    for _ in range(100):
        z = gq(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        assert z.conjugate().conjugate() == z
        assert (z * z.conjugate()).im == 0
        assert (z * z.conjugate()).re == z.re * z.re + z.im * z.im


def test_equality_and_hash_agree_with_fraction():
    assert gq(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(gq(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert gq(3) == 3
    assert gq(0, 1) != 1


def test_format_parse_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        z = gq(Fraction(rng.randint(-20, 20), rng.randint(1, 20)),
               Fraction(rng.randint(-20, 20), rng.randint(1, 20)))
        assert parse_scalar(format_scalar(z)) == z


@pytest.mark.parametrize(
    "text,expected",
    [
        ("0", gq(0)),
        ("-3/5", gq(Fraction(-3, 5))),
        ("1/2+3/4i", gq(Fraction(1, 2), Fraction(3, 4))),
        ("1/2-3/4i", gq(Fraction(1, 2), Fraction(-3, 4))),
        ("2i", gq(0, 2)),
        ("-1i", gq(0, -1)),
        ("i", gq(0, 1)),
        ("-i", gq(0, -1)),
    ],
)
def test_parse_forms(text, expected):
    assert parse_scalar(text) == expected


@pytest.mark.parametrize("bad", ["", "1+2", "x", "1//2", "1+2j", "1.5"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(SchemaError):
        parse_scalar(bad)


@pytest.mark.parametrize("bad", ["1/0", "0/0", "-1/0", "3/0i", "1/2+3/0i", "1/0-1/2i"])
def test_parse_rejects_a_zero_denominator(bad):
    with pytest.raises(SchemaError, match="zero denominator"):
        parse_scalar(bad)


def test_zero_imaginary_parts_are_shared():
    z = GaussianRational(Fraction(-3, 4))
    assert GaussianRational(5).im is z.im
    assert z.conjugate() is z
    assert (-z).im is z.im and -z == gq(Fraction(3, 4))
    w = gq(1, 2)
    assert w.conjugate() == gq(1, -2) and hash(w.conjugate()) == hash(gq(1, -2))


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 25)) == Fraction(3, 5)
    assert rational_sqrt(Fraction(0)) == 0
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None
