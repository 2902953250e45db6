"""Exact scalars: rationals and Gaussian rationals (complex with rational parts).

Rationals are plain ``fractions.Fraction`` (always stored reduced, positive
denominator). ``GaussianRational`` layers an exact imaginary part on top and
is the entry type of every matrix in this package. Scalars serialize to
strings like ``"-3/5"`` or ``"1/2-3/4i"`` so round trips are lossless.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt, lcm
from typing import Sequence, Union

from .exceptions import SchemaError

Rational = Fraction

ScalarLike = Union[int, Fraction, "GaussianRational"]


class GaussianRational:
    """A complex number ``re + im*i`` with exact rational components.

    Instances are immutable by convention; all arithmetic returns new values.
    Conjugation is an involution and equality/hash agree with ``Fraction``
    when the imaginary part is zero.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    # -- predicates ---------------------------------------------------------

    @property
    def is_real(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (int, Fraction, GaussianRational)):
            return NotImplemented
        other = as_scalar(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, GaussianRational)):
            return NotImplemented
        other = as_scalar(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction, GaussianRational)):
            return NotImplemented
        return as_scalar(other) - self

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction, GaussianRational)):
            return NotImplemented
        other = as_scalar(other)
        if not self.im and not other.im:
            return GaussianRational(self.re * other.re)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction, GaussianRational)):
            return NotImplemented
        other = as_scalar(other)
        if not other:
            raise ZeroDivisionError("division by zero scalar")
        if not self.im and not other.im:
            return GaussianRational(self.re / other.re)
        n = other.re * other.re + other.im * other.im
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction, GaussianRational)):
            return NotImplemented
        return as_scalar(other) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        """|z|^2, exact."""
        return self.re * self.re + self.im * self.im

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def sort_key(self):
        return (self.re, self.im)

    # -- conversions --------------------------------------------------------

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return format_scalar(self)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I_UNIT = GaussianRational(0, 1)


def as_scalar(x: ScalarLike) -> GaussianRational:
    """Coerce an int, Fraction or GaussianRational to a GaussianRational."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError(f"cannot interpret {x!r} as an exact scalar")


def integer_form(values: Sequence[GaussianRational]) -> tuple[int, list[int], list[int]]:
    """(d, re, im) with value k = (re[k] + i*im[k]) / d, where d is the lcm of
    all denominators; im is empty when every value is real."""
    re = [e.re for e in values]
    im = [e.im for e in values]
    if not any(im):
        im = []
    d = lcm(*{f.denominator for f in re + im})
    return (
        d,
        [f.numerator * (d // f.denominator) for f in re],
        [f.numerator * (d // f.denominator) for f in im],
    )


_RAT = r"[+-]?\d+(?:/\d+)?"
_PURE_REAL = re.compile(rf"^({_RAT})$")
_PURE_IMAG = re.compile(rf"^({_RAT})i$")
_FULL = re.compile(rf"^({_RAT})([+-]\d+(?:/\d+)?)i$")


def parse_scalar(text: str) -> GaussianRational:
    """Parse ``"p/q"`` or ``"p/q+r/si"`` into an exact scalar.

    Accepts the canonical forms emitted by :func:`format_scalar` plus the
    shorthands ``i``, ``-i`` and ``+i``.
    """
    s = text.strip().replace(" ", "")
    if s in ("i", "+i"):
        return I_UNIT
    if s == "-i":
        return GaussianRational(0, -1)
    m = _PURE_REAL.match(s)
    if m:
        return GaussianRational(Fraction(m.group(1)))
    m = _PURE_IMAG.match(s)
    if m:
        return GaussianRational(0, Fraction(m.group(1)))
    m = _FULL.match(s)
    if m:
        return GaussianRational(Fraction(m.group(1)), Fraction(m.group(2)))
    raise SchemaError(f"cannot parse scalar string {text!r}")


def format_scalar(z: GaussianRational) -> str:
    """Canonical lossless string form; inverse of :func:`parse_scalar`."""
    if not z.im:
        return str(z.re)
    if not z.re:
        return f"{z.im}i"
    sign = "+" if z.im > 0 else "-"
    return f"{z.re}{sign}{abs(z.im)}i"


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None
