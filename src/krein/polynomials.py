"""Exact univariate polynomials over the Gaussian rationals, plus root finding.

All polynomial arithmetic is exact. Floating point enters only in
:func:`poly_roots`, which detects exact rational/Gaussian-rational roots
first (candidate roots are snapped from a numeric solve and then verified by
exact evaluation) and reports everything else as explicitly approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .exceptions import ParameterError, RootFindingError
from .scalars import ZERO, GaussianRational, as_scalar


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
    """Monic gcd by the Euclidean algorithm over the field of coefficients."""
    while not b.is_zero:
        a, b = b, (a % b).monic()
    return a.monic()


def poly_lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.is_zero or b.is_zero:
        return Polynomial()
    g = poly_gcd(a, b)
    return ((a * b) // g).monic()


def squarefree_decomposition(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun's algorithm: p (monic) = prod q_i^i with the q_i squarefree, coprime.

    Returns the nontrivial (q_i, i) pairs in ascending multiplicity.
    """
    p = p.monic()
    out: list[tuple[Polynomial, int]] = []
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return [(p, 1)]
    w = p // g
    k = 1
    while w.degree > 0:
        y = poly_gcd(w, g)
        factor = w // y
        if factor.degree > 0:
            out.append((factor.monic(), k))
        w = y
        g = g // y
        k += 1
    return out


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


def _numeric_roots(q: Polynomial) -> list[complex]:
    try:
        coeffs = [c.to_complex() for c in reversed(q.coeffs)]
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
    into squarefree factors, numeric roots of each factor are snapped to
    nearby small-denominator candidates, and a candidate is accepted only if
    it is nearest to the numeric root it was snapped from and exact
    evaluation gives zero. Remaining roots are reported as approximate
    complex values, grouped to within ``GROUPING_TOL``.
    """
    if p.degree < 1:
        raise ParameterError("root finding needs degree >= 1")
    exact: list[Root] = []
    approx_pool: list[tuple[complex, int]] = []
    for factor, mult in squarefree_decomposition(p.monic()):
        rem = factor
        leftovers: list[complex] = []
        numeric = _numeric_roots(factor)
        for z in numeric:
            if rem.degree < 1:
                break
            for cand in _snap_candidates(z):
                # z claims only a candidate it is the nearest numeric root to,
                # never a neighbouring exact root
                c = cand.to_complex()
                if abs(z - c) <= min(abs(w - c) for w in numeric) and not rem.evaluate(cand):
                    exact.append(Root(cand, mult, True))
                    rem = rem // Polynomial([-cand, 1])
                    break
            else:
                leftovers.append(z)
        # keep only as many approximate roots as the deflated factor demands
        if rem.degree > 0:
            for z, cnt in _group_approx(leftovers[: rem.degree]):
                approx_pool.append((z, cnt * mult))

    exact.sort(key=lambda r: r.value.sort_key())
    out = exact + [Root(z, m, False) for z, m in approx_pool]
    total = sum(r.multiplicity for r in out)
    if total != p.degree:
        raise RootFindingError(
            f"accounted for {total} roots of a degree-{p.degree} polynomial"
        )
    return out
