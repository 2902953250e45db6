"""Exact scalars: rationals and Gaussian rationals (complex with rational parts).

Rationals are plain ``fractions.Fraction`` (always stored reduced, positive
denominator). ``GaussianRational`` layers an exact imaginary part on top and
is the entry type of every matrix in this package. Scalars serialize to
strings like ``"-3/5"`` or ``"1/2-3/4i"`` so round trips are lossless.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Sequence, Union

from .exceptions import SchemaError

Rational = Fraction

ScalarLike = Union[int, Fraction, "GaussianRational"]

_FRACTION_ZERO = Fraction(0)


class GaussianRational:
    """A complex number ``re + im*i`` with exact rational components.

    Instances are immutable by convention; all arithmetic returns new values.
    Conjugation is an involution and equality/hash agree with ``Fraction``
    when the imaginary part is zero.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        # an int zero imaginary part (the default) becomes one shared Fraction(0)
        self.im = im if isinstance(im, Fraction) else Fraction(im) if im != 0 else _FRACTION_ZERO

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
        return GaussianRational(-self.re, -self.im if self.im else 0)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im) if self.im else self

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
    re = [e.re.as_integer_ratio() for e in values]
    im = [e.im.as_integer_ratio() for e in values]
    if not any(p for p, _ in im):
        im = []
    d = lcm(*{q for _, q in re}, *{q for _, q in im})
    return d, [p * (d // q) for p, q in re], [p * (d // q) for p, q in im]


_RAT = r"[+-]?\d+(?:/\d+)?"
_PURE_REAL = re.compile(rf"^({_RAT})$")
_PURE_IMAG = re.compile(rf"^({_RAT})i$")
_FULL = re.compile(rf"^({_RAT})([+-]\d+(?:/\d+)?)i$")


def parse_scalar(text: str) -> GaussianRational:
    """Parse ``"p/q"`` or ``"p/q+r/si"`` into an exact scalar.

    Accepts the canonical forms emitted by :func:`format_scalar` plus the
    shorthands ``i``, ``-i`` and ``+i``.
    """
    (p, q), (r, s) = scalar_parts(text)
    return GaussianRational(Fraction(p, q), Fraction(r, s))


def scalar_parts(text: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """The integer parts ((p, q), (r, s)) of a scalar string, the value
    p/q + (r/s)i with q, s > 0 (not necessarily reduced): the grammar of
    :func:`parse_scalar`, without building a scalar."""
    s = text.strip().replace(" ", "")
    if s in ("i", "+i"):
        return (0, 1), (1, 1)
    if s == "-i":
        return (0, 1), (-1, 1)
    m = _PURE_REAL.match(s)
    if m:
        return _ratio(m.group(1), text), (0, 1)
    m = _PURE_IMAG.match(s)
    if m:
        return (0, 1), _ratio(m.group(1), text)
    m = _FULL.match(s)
    if m:
        return _ratio(m.group(1), text), _ratio(m.group(2), text)
    raise SchemaError(f"cannot parse scalar string {text!r}")


def _ratio(part: str, text: str) -> tuple[int, int]:
    """(p, q) of a matched "p/q" (or "p") part of the scalar string ``text``."""
    num, _, den = part.partition("/")
    q = int(den) if den else 1
    if not q:
        raise SchemaError(f"zero denominator in scalar string {text!r}")
    return int(num), q


def format_scalar(z: GaussianRational) -> str:
    """Canonical lossless string form; inverse of :func:`parse_scalar`."""
    return _join_parts(str(z.re), str(z.im))


def format_integer_parts(x: int, y: int, d: int) -> str:
    """:func:`format_scalar` of (x + i*y) / d for d > 0, without building it."""
    return _join_parts(_ratio_text(x, d), _ratio_text(y, d))


def _ratio_text(x: int, d: int) -> str:
    """str(Fraction(x, d)) for d > 0."""
    g = gcd(x, d)
    return str(x // g) if g == d else f"{x // g}/{d // g}"


def _join_parts(re: str, im: str) -> str:
    """The scalar string of a real and an imaginary part written as rationals."""
    if im == "0":
        return re
    if re == "0":
        return f"{im}i"
    return f"{re}{im}i" if im[0] == "-" else f"{re}+{im}i"


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None
