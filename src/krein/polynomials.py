"""Exact univariate polynomials over the Gaussian rationals, plus root finding.

All polynomial arithmetic is exact. The gcd, Yun's squarefree decomposition
and the root checks run on integers: a polynomial is written once over the
lcm of its coefficient denominators as integer lists (re, im), im empty for a
real polynomial, and kept primitive (coprime integer parts, a positive
integer leading coefficient) through a pseudo-remainder sequence, so no step
divides ``Fraction``s. Floating point enters only in :func:`poly_roots`,
which detects exact rational/Gaussian-rational roots first (candidate roots
are snapped from a numeric solve and then verified by exact evaluation over
Z[i]) and reports everything else as explicitly approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

import numpy as np

from .exceptions import ParameterError, RootFindingError
from .scalars import ZERO, GaussianRational, as_scalar, integer_form


class Polynomial:
    """Polynomial with GaussianRational coefficients, ascending degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> GaussianRational:
        if self.is_zero:
            raise ParameterError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial()
            out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
            return Polynomial(out)
        c = as_scalar(other)
        return Polynomial([c * a for a in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ParameterError("negative polynomial power")
        r = Polynomial([1])
        base = self
        while n:
            if n & 1:
                r = r * base
            base = base * base
            n >>= 1
        return r

    def __divmod__(self, other: "Polynomial"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial(), self
        quo = [ZERO] * (dq + 1)
        lead = other.leading()
        for k in range(dq, -1, -1):
            top = rem[k + other.degree]
            if top:
                f = top / lead
                quo[k] = f
                for j, c in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - f * c
        return Polynomial(quo), Polynomial(rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        lead = self.leading()
        return Polynomial([c / lead for c in self.coeffs])

    def derivative(self) -> "Polynomial":
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x) -> GaussianRational:
        """Exact evaluation by Horner's rule."""
        x = as_scalar(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def evaluate_complex(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c.to_complex()
        return acc

    def __repr__(self) -> str:
        if self.is_zero:
            return "Polynomial(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                terms.append(f"({c})*t^{k}" if k else f"({c})")
        return "Polynomial(" + " + ".join(terms) + ")"


def poly_from_roots(roots: Sequence) -> Polynomial:
    """Monic polynomial with the given (exact) roots."""
    p = Polynomial([1])
    for r in roots:
        p = p * Polynomial([-as_scalar(r), 1])
    return p


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd, by a primitive pseudo-remainder sequence over Z[i]."""
    return _monic(_gcd(_integer_poly(a), _integer_poly(b)))


def poly_lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.is_zero or b.is_zero:
        return Polynomial()
    g = _gcd(_integer_poly(a), _integer_poly(b))
    return _monic(_exact_quotient(_integer_poly(a * b), g))


def squarefree_decomposition(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun's algorithm: p (monic) = prod q_i^i with the q_i squarefree, coprime.

    Returns the nontrivial (q_i, i) pairs in ascending multiplicity. The
    q_i are computed on integer coefficient lists (:func:`_squarefree_parts`)
    and returned monic.
    """
    if p.degree < 1:
        return [(p.monic(), 1)]
    return [(_monic(f), k) for f, k in _squarefree_parts(_integer_poly(p))]


# -- the integer core ------------------------------------------------------------
#
# A polynomial over Q(i) is held as (re, im): Python int coefficient lists in
# ascending degree, im empty when every coefficient is real, no trailing zero
# coefficient (the zero polynomial is ([], [])). Only the polynomial up to a
# nonzero scalar matters here, so there is no denominator: every result is
# brought to the primitive form of _primitive, which is unique among the
# scalar multiples of a polynomial and has a positive integer leading
# coefficient (so x / lead is the float of a monic coefficient, signed zeros
# included).

ZPoly = tuple[list[int], list[int]]


def _integer_poly(p: Polynomial) -> ZPoly:
    _, re, im = integer_form(p.coeffs)
    return _primitive(re, im) if re else (re, im)


def _primitive(re: list[int], im: list[int]) -> ZPoly:
    """The scalar multiple with a positive integer leading coefficient and
    coprime integer parts: a Gaussian leading coefficient is first made real
    by multiplying with its conjugate. The input is nonzero and trimmed."""
    if im:
        a, b = re[-1], im[-1]
        if b:
            re, im = [a * x + b * y for x, y in zip(re, im)], [a * y - b * x for x, y in zip(re, im)]
        if not any(im):
            im = []
    c = gcd(*re, *im)
    if re[-1] < 0:
        c = -c
    if c != 1:
        re = [x // c for x in re]
        im = [y // c for y in im]
    return re, im


def _trim(re: list[int], im: list[int]) -> ZPoly:
    n = len(re)
    while n and not re[n - 1] and not (im and im[n - 1]):
        n -= 1
    return re[:n], im[:n] if any(im[:n]) else []


def _pseudo_divmod(a: ZPoly, b: ZPoly) -> tuple[ZPoly, ZPoly]:
    """(q, r) with s * a = q * b + r and deg r < deg b, for a positive integer s.

    b is primitive, so its leading coefficient L is a positive integer. Each
    step scales the running remainder (and quotient) only by the part of L
    that does not divide the top coefficient, so an exact quotient over Z
    needs no scaling at all.
    """
    (ar, ai), (br, bi) = a, b
    m = len(br) - 1
    lead = br[-1]
    dq = len(ar) - 1 - m
    if dq < 0:
        return ([], []), a
    cplx = bool(ai or bi)
    rr, ri = list(ar), list(ai or [0] * len(ar)) if cplx else []
    bi = bi or [0] * len(br) if cplx else []
    qr, qi = [0] * (dq + 1), [0] * (dq + 1) if cplx else []
    for k in range(dq, -1, -1):
        tr = rr.pop()
        ti = ri.pop() if cplx else 0
        if not (tr or ti):
            continue
        g = gcd(lead, tr, ti)
        s, fr, fi = lead // g, tr // g, ti // g
        if s != 1:
            rr, qr = [s * x for x in rr], [s * x for x in qr]
            ri, qi = [s * y for y in ri], [s * y for y in qi]
        qr[k] = fr
        if cplx:
            qi[k] = fi
            lo = slice(k, k + m)
            rr[lo], ri[lo] = (
                [x - fr * u + fi * v for x, u, v in zip(rr[lo], br, bi)],
                [y - fr * v - fi * u for y, u, v in zip(ri[lo], br, bi)],
            )
        else:
            rr[k : k + m] = [x - fr * u for x, u in zip(rr[k : k + m], br)]
    return _trim(qr, qi), _trim(rr, ri)


def _exact_quotient(a: ZPoly, b: ZPoly) -> ZPoly:
    return _primitive(*_pseudo_divmod(a, b)[0])


def _gcd(a: ZPoly, b: ZPoly) -> ZPoly:
    """Primitive gcd by the primitive pseudo-remainder sequence; ([], []) for two zeros."""
    if not b[0]:
        a, b = b, a
    if not b[0]:
        return b
    b = _primitive(*b)
    while True:
        r = _pseudo_divmod(a, b)[1]
        if not r[0]:
            return b
        a, b = b, _primitive(*r)


def _squarefree_parts(f: ZPoly) -> list[tuple[ZPoly, int]]:
    """Yun's algorithm on a primitive f of degree >= 1 (see squarefree_decomposition)."""
    re, im = f
    g = _gcd(f, _primitive([k * x for k, x in enumerate(re)][1:], [k * y for k, y in enumerate(im)][1:]))
    if len(g[0]) == 1:
        return [(f, 1)]
    w = _exact_quotient(f, g)
    out: list[tuple[ZPoly, int]] = []
    k = 1
    while len(w[0]) > 1:
        y = _gcd(w, g)
        factor = _exact_quotient(w, y)
        if len(factor[0]) > 1:
            out.append((factor, k))
        w = y
        g = _exact_quotient(g, y)
        k += 1
    return out


def _monic(f: ZPoly) -> Polynomial:
    re, im = f
    lead = re[-1] if re else 1
    return Polynomial(
        [GaussianRational(Fraction(x, lead), Fraction(y, lead)) for x, y in zip(re, im or [0] * len(re))]
    )


def _vanishes_at(f: ZPoly, z: GaussianRational) -> bool:
    """f(z) == 0 exactly: with z = (a + b i) / q and d = deg f, Horner's rule
    computes q^d f(z) = sum f_k (a + b i)^k q^(d-k) over Z[i]."""
    re, im = f
    q = lcm(z.re.denominator, z.im.denominator)
    a = z.re.numerator * (q // z.re.denominator)
    b = z.im.numerator * (q // z.im.denominator)
    xr = xi = 0
    qk = 1
    for cr, ci in zip(reversed(re), reversed(im or [0] * len(re))):
        xr, xi = xr * a - xi * b + cr * qk, xr * b + xi * a + ci * qk
        qk *= q
    return not (xr or xi)


Scalarish = Union[GaussianRational, complex]


@dataclass(frozen=True)
class Root:
    """One root of a polynomial: exact when possible, else approximate."""

    value: Scalarish
    multiplicity: int
    is_exact: bool

    def approx(self) -> complex:
        return self.value.to_complex() if self.is_exact else self.value


_SNAP_DENOMINATORS = (1, 6, 60, 1000, 10**6)
# approximate roots closer than this are one root; approximate imaginary
# parts within it of zero are read as real
GROUPING_TOL = 1e-9


def _snap_candidates(z: complex):
    for bound in _SNAP_DENOMINATORS:
        re = Fraction(z.real).limit_denominator(bound)
        im = Fraction(z.imag).limit_denominator(bound)
        yield GaussianRational(re, im)


def _numeric_roots(f: ZPoly) -> list[complex]:
    """Numeric roots of f from its monic coefficients as floats."""
    re, im = f
    lead = re[-1]
    try:
        coeffs = [complex(x / lead, y / lead) for x, y in zip(reversed(re), reversed(im or [0] * len(re)))]
    except OverflowError as exc:
        raise RootFindingError(f"coefficient too large for a float ({exc})") from None
    vals = np.roots(np.asarray(coeffs, dtype=complex))
    if not np.all(np.isfinite(vals)):
        raise RootFindingError("numeric root finder returned non-finite values")
    return [complex(v) for v in vals]


def _group_approx(values: list[complex]) -> list[tuple[complex, int]]:
    groups: list[tuple[complex, int]] = []
    for z in sorted(values, key=lambda v: (v.real, v.imag)):
        for idx, (c, cnt) in enumerate(groups):
            if abs(z - c) <= GROUPING_TOL:
                groups[idx] = ((c * cnt + z) / (cnt + 1), cnt + 1)
                break
        else:
            groups.append((z, 1))
    return groups


def poly_roots(p: Polynomial) -> list[Root]:
    """All complex roots with multiplicity.

    Exact Gaussian-rational roots are detected first: the polynomial is split
    into squarefree factors on integer coefficient lists, numeric roots of
    each factor are snapped to nearby small-denominator candidates, and a
    candidate is accepted only if it is nearest to the numeric root it was
    snapped from and exact evaluation over Z[i] (:func:`_vanishes_at`) gives
    zero. A factor is squarefree, so it is never deflated: an accepted root
    is only skipped afterwards. Remaining roots are reported as approximate complex values,
    grouped to within ``GROUPING_TOL``.
    """
    if p.degree < 1:
        raise ParameterError("root finding needs degree >= 1")
    exact: list[Root] = []
    approx_pool: list[tuple[complex, int]] = []
    for factor, mult in _squarefree_parts(_integer_poly(p)):
        degree = len(factor[0]) - 1
        found: list[GaussianRational] = []
        leftovers: list[complex] = []
        numeric = _numeric_roots(factor)
        for z in numeric:
            if len(found) == degree:
                break
            for cand in _snap_candidates(z):
                # z claims only a candidate it is the nearest numeric root to,
                # never a neighbouring exact root
                c = cand.to_complex()
                if (
                    cand not in found
                    and abs(z - c) <= min(abs(w - c) for w in numeric)
                    and _vanishes_at(factor, cand)
                ):
                    found.append(cand)
                    break
            else:
                leftovers.append(z)
        exact.extend(Root(cand, mult, True) for cand in found)
        # keep only as many approximate roots as the exact ones leave over
        if len(found) < degree:
            for z, cnt in _group_approx(leftovers[: degree - len(found)]):
                approx_pool.append((z, cnt * mult))

    exact.sort(key=lambda r: r.value.sort_key())
    out = exact + [Root(z, m, False) for z, m in approx_pool]
    total = sum(r.multiplicity for r in out)
    if total != p.degree:
        raise RootFindingError(
            f"accounted for {total} roots of a degree-{p.degree} polynomial"
        )
    return out
