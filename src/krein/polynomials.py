"""Exact univariate polynomials over the Gaussian rationals, plus root finding.

All polynomial arithmetic is exact. The gcd, Yun's squarefree decomposition
and root finding run on integers: a polynomial is written once over the lcm
of its coefficient denominators as integer lists (re, im), im empty for a
real polynomial, and kept primitive (coprime integer parts, a positive
integer leading coefficient) through a pseudo-remainder sequence, so no step
divides ``Fraction``s. :func:`poly_roots` finds every root in Q(i) exactly
and p-adically: the roots of each squarefree factor modulo a prime
p = 1 (mod 4) are Hensel-lifted, each candidate is read back off a reduced
2-D lattice, and exact evaluation over Z[i] accepts it; Sturm sequences count
the real roots outside Q(i), so ``Root.is_real`` is exact. Floats give only
display values of those roots (Aberth-Ehrlich), none past the float range.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, islice
from math import gcd, isqrt
from operator import ne
from typing import Iterable, Optional, Union

from .exceptions import ParameterError
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
            n >>= 1
            if n:
                base = base * base
        return r

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        lead = self.leading()
        return Polynomial([c / lead for c in self.coeffs])

    def evaluate(self, x) -> GaussianRational:
        """Exact evaluation by Horner's rule."""
        x = as_scalar(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        if self.is_zero:
            return "Polynomial(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                terms.append(f"({c})*t^{k}" if k else f"({c})")
        return "Polynomial(" + " + ".join(terms) + ")"


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


def _gcd_with_derivative(f: ZPoly) -> ZPoly:
    """gcd(f, f') for f of degree >= 1."""
    re, im = f
    return _gcd(f, _primitive([k * x for k, x in enumerate(re)][1:], [k * y for k, y in enumerate(im)][1:]))


def _squarefree_parts(f: ZPoly) -> list[tuple[ZPoly, int]]:
    """Yun's algorithm on a primitive f of degree >= 1 (see squarefree_decomposition)."""
    g = _gcd_with_derivative(f)
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


def _vanishes_at(f: ZPoly, a: int, b: int, q: int) -> bool:
    """f((a + b i) / q) == 0 exactly, for q > 0: with d = deg f, Horner's rule
    computes q^d f((a + b i) / q) = sum f_k (a + b i)^k q^(d-k) over Z[i]."""
    re, im = f
    xr = xi = 0
    qk = 1
    for cr, ci in zip(reversed(re), reversed(im or [0] * len(re))):
        xr, xi = xr * a - xi * b + cr * qk, xr * b + xi * a + ci * qk
        qk *= q
    return not (xr or xi)


Scalarish = Union[GaussianRational, complex]


@dataclass(frozen=True)
class Root:
    """One root of a polynomial: exact when possible, else approximate (value
    None past the float range). ``is_real`` is exact either way."""

    value: Optional[Scalarish]
    multiplicity: int
    is_exact: bool
    is_real: bool


# -- roots in Q(i), p-adically -----------------------------------------------------
#
# A root r of a primitive squarefree f over Z[i] with positive integer lead L
# has L r in Z[i] (Gauss lemma) and |L r| <= B = L + max_k (|Re f_k| + |Im f_k|)
# (Cauchy). For a prime p = 1 (mod 4) and iota^2 = -1 (mod p^k), the ring map
# Z[i] -> Z/p^k, i -> iota, has a principal kernel (alpha) with N(alpha) = p^k:
# a square lattice of side sqrt(p^k). Once p^k > 8 B^2, L r is the only point
# of its residue class within sqrt(p^k) / 2 of 0, so it is read back off
# L rho mod p^k for the p-adic root rho it reduces to (Loos, SIAM J. Comput.
# 1983; the reconstruction after Collins and Encarnacion, J. Symbolic Comput.
# 1995). When p does not divide L and f mod p is squarefree, every root in Q(i)
# reduces to a simple root of f mod p, which lifts to exactly one rho, so
# none is missed.


def _split_primes():
    """(p, iota) for the primes p = 1 (mod 4), ascending, with iota^2 = -1
    (mod p): iota = c^((p-1)/4) for the least quadratic nonresidue c."""
    for p in count(5, 4):
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            c = next(c for c in count(2) if pow(c, p // 2, p) == p - 1)
            yield p, pow(c, p // 4, p)


# The first primes of _split_primes. An f for which each of them divides the
# lead or leaves f mod p with a repeated factor takes the next ones.
_PRIMES = tuple(islice(_split_primes(), 8))


def _exact_roots(f: ZPoly) -> list[tuple[int, int]]:
    """The roots r in Q(i) of a primitive squarefree f of degree >= 1, as the
    Gaussian integers L r = x + y i for the lead L: each root of f mod p is
    Hensel-lifted (Newton steps, doubling the precision) until p^k > 8 B^2,
    L rho is read back off the kernel lattice of Z[i] -> Z/p^k, and the
    candidate is kept only if f vanishes there exactly."""
    re, im = f
    im = im or [0] * len(re)
    lead = re[-1]
    for p, iota in chain(_PRIMES, islice(_split_primes(), len(_PRIMES), None)):
        if lead % p:
            fp = [(x + iota * y) % p for x, y in zip(re, im)]
            if len(_fp_gcd(fp, _fp_trim([k * c % p for k, c in enumerate(fp)][1:]), p)) == 1:
                break
    rhos = _fp_roots(fp, p)
    if not rhos:
        return []
    bound = lead + max(abs(x) + abs(y) for x, y in zip(re[:-1], im))
    m = p
    while m <= 8 * bound * bound:
        m *= m
        iota = (iota - (iota * iota + 1) * pow(2 * iota, -1, m)) % m
        g = [(x + iota * y) % m for x, y in zip(re, im)]
        dg = [k * c for k, c in enumerate(g)][1:]
        rhos = [(r - _eval_mod(g, r, m) * pow(_eval_mod(dg, r, m), -1, m)) % m for r in rhos]
    a, b = _kernel_generator(m, iota)
    out = []
    for r in rhos:
        # L rho minus the nearest point of the lattice (a + b i) Z[i]
        c = lead * r % m
        qa, qb = _round_div(c * a, m), _round_div(-c * b, m)
        x, y = c - a * qa + b * qb, -a * qb - b * qa
        if _vanishes_at(f, x, y, lead):
            out.append((x, y))
    return out


# Polynomials over F_p are ascending coefficient lists in 0..p-1 with a
# nonzero last coefficient; [] is zero.


def _fp_roots(f: list[int], p: int) -> list[int]:
    """The roots in F_p of a squarefree f of degree >= 1: the product of its
    linear factors h = gcd(f, t^p - t), split by gcd(h, (t + a)^((p-1)/2) - 1)
    for the shifts a = 0, 1, 2, ... (Cantor-Zassenhaus, made deterministic:
    two distinct roots differ in quadratic character after some shift)."""
    x = _fp_powmod(0, p, f, p) + [0, 0]
    x[1] -= 1
    return _fp_split(_fp_gcd(f, _fp_trim([c % p for c in x]), p), p)


def _fp_split(h: list[int], p: int) -> list[int]:
    """The roots of a product h of distinct linear factors over F_p."""
    if len(h) <= 2:
        return [-h[0] * pow(h[1], -1, p) % p] if len(h) == 2 else []
    for a in count():
        s = _fp_powmod(a, p // 2, h, p) or [0]
        s[0] -= 1
        g = _fp_gcd(h, _fp_trim([c % p for c in s]), p)
        if 1 < len(g) < len(h):
            return _fp_split(g, p) + _fp_split(_fp_divmod(h, g, p)[0], p)


def _fp_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder over F_p of a (any integer list) by a nonzero b."""
    a = list(a)
    m = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - m, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = a.pop() * inv % p
        if c:
            for j in range(m):
                a[k + j] -= c * b[j]
    return q, _fp_trim([x % p for x in a])


def _fp_trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    return a


def _fp_powmod(a: int, e: int, f: list[int], p: int) -> list[int]:
    """(t + a)^e mod f over F_p for e >= 1, by left-to-right squaring (a step
    that multiplies by t + a is a shift and an add)."""
    x = _fp_divmod([a, 1], f, p)[1]
    for bit in bin(e)[3:]:
        sq = [0] * (2 * len(x) - 1) if x else []
        for i, u in enumerate(x):
            if u:
                for j, v in enumerate(x):
                    sq[i + j] += u * v
        if bit == "1":
            sq = [a * u + v for u, v in zip(sq + [0], [0] + sq)]
        x = _fp_divmod(sq, f, p)[1]
    return x


def _eval_mod(g: list[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(g):
        acc = (acc * x + c) % m
    return acc


def _kernel_generator(m: int, iota: int) -> tuple[int, int]:
    """A shortest nonzero (a, b) with a + b iota = 0 (mod m), by Gauss
    reduction of the lattice basis (m, 0), (-iota, 1). For iota^2 = -1 (mod m)
    that lattice is the kernel of Z[i] -> Z/m, i -> iota, and a + b i
    generates it, with a^2 + b^2 = m."""
    u, v = (m, 0), (-iota, 1)
    while True:
        nv = v[0] * v[0] + v[1] * v[1]
        q = _round_div(u[0] * v[0] + u[1] * v[1], nv)
        u = (u[0] - q * v[0], u[1] - q * v[1])
        if u[0] * u[0] + u[1] * u[1] >= nv:
            return v
        u, v = v, u


def _round_div(x: int, m: int) -> int:
    """The integer nearest x / m, for m > 0 (halves round up)."""
    return (2 * x + m) // (2 * m)


# -- display values for the other roots --------------------------------------------


def _approximate_roots(g: ZPoly) -> Optional[list[complex]]:
    """Display values for the roots of a squarefree g over Z[i] of degree >= 1,
    by the Aberth-Ehrlich iteration on its monic float coefficients. The
    Newton ratio g/g' at z is taken from g at z when |z| <= 1 and from the
    reversed polynomial at 1/z otherwise, so no power of z overflows. None
    when a coefficient or a root is past the float range."""
    re, im = g
    im = im or [0] * len(re)
    lead = re[-1]
    try:
        cs = [complex(x / lead, y / lead) for x, y in zip(re, im)]
        zs = _aberth_start(re, im)
    except OverflowError:
        return None
    n = len(cs) - 1
    for _ in range(100):
        moved = overflowed = False
        for k, z in enumerate(zs):
            outer = abs(z) > 1
            w = 1 / z if outer else z
            v = dv = 0j
            for c in cs if outer else reversed(cs):
                dv = dv * w + v
                v = v * w + c
            # g/g' = num/den; past the unit circle v is rev(w) = w^n g(1/w),
            # and g/g' = z rev / (n rev - w rev')
            num, den = (z * v, n * v - w * dv) if outer else (v, dv)
            # the Aberth step (g/g') / (1 - (g/g') sum_u 1/(z - u))
            den -= num * sum(1 / (z - u) for u in zs if u != z)
            step = num / den if den else 0j
            if cmath.isfinite(step) and cmath.isfinite(z - step):
                zs[k] = z - step
                moved = moved or abs(step) > 2**-48 * abs(z)
            else:
                overflowed = True
        if not moved:
            break
    return None if overflowed else zs


def _aberth_start(re: list[int], im: list[int]) -> list[complex]:
    """Starting points for the Aberth-Ehrlich iteration (Bini, Numer.
    Algorithms 1996): for each edge (i, j) of the upper convex hull of the
    points (k, log2 |g_k|), j - i points spread on the circle of radius
    (|g_i| / |g_j|)^(1/(j-i)), about where that many roots lie."""
    hull: list[tuple[int, float]] = []
    for k, (x, y) in enumerate(zip(re, im)):
        if x or y:
            h = math.log2(abs(x) + abs(y))
            # drop the last hull point while it is not above the chord to (k, h)
            while len(hull) > 1 and (hull[-1][0] - hull[-2][0]) * (h - hull[-2][1]) >= (
                hull[-1][1] - hull[-2][1]
            ) * (k - hull[-2][0]):
                hull.pop()
            hull.append((k, h))
    n = len(re) - 1
    return [
        cmath.rect(2.0 ** ((a - b) / (j - i)), 2 * math.pi * (t / (j - i) + i / n) + 0.7)
        for (i, a), (j, b) in zip(hull, hull[1:])
        for t in range(j - i)
    ]


def _real_root_count(f: ZPoly) -> int:
    """Distinct real roots of a squarefree f over Z[i]. They are the real
    roots of g = gcd(Re f, Im f), which is f itself for a real f, and the
    Sturm sequence of g counts them. Each remainder's sign is kept:
    _pseudo_divmod scales by a positive factor when the divisor's lead is
    positive, and contents are divided out as positive."""
    re = _gcd((f[0], []), _trim(f[1], []))[0]
    if len(re) < 2:
        return 0
    seq = [re, [k * x for k, x in enumerate(re)][1:]]
    while len(seq[-1]) > 1:
        b = seq[-1] if seq[-1][-1] > 0 else [-x for x in seq[-1]]
        r = _pseudo_divmod((seq[-2], []), (b, []))[1][0]
        c = gcd(*r)
        seq.append([-x // c for x in r])
    at_plus = [p[-1] > 0 for p in seq]
    at_minus = [(p[-1] > 0) == (len(p) % 2 == 1) for p in seq]
    return sum(map(ne, at_minus, at_minus[1:])) - sum(map(ne, at_plus, at_plus[1:]))


def poly_roots(p: Polynomial) -> list[Root]:
    """All complex roots with multiplicity: the exact roots in Q(i) first, in
    ascending (re, im) order, then the approximate ones.

    Each squarefree factor of Yun's decomposition gives its roots in Q(i)
    exactly, found p-adically (:func:`_exact_roots`) and each checked by exact
    evaluation over Z[i]; no float enters. They are divided out exactly, and
    only the cofactor, which has no root in Q(i), gets approximate display
    values (:func:`_approximate_roots`), in (re, im) order. Its Sturm count
    (:func:`_real_root_count`) says how many of them are real: those of
    smallest |imag| get ``is_real`` and imag 0.0. When the cofactor has no
    display values, its roots get value None, the real ones first.
    """
    if p.degree < 1:
        raise ParameterError("root finding needs degree >= 1")
    exact: list[Root] = []
    approx: list[Root] = []
    for factor, mult in _squarefree_parts(_integer_poly(p)):
        lead = factor[0][-1]
        found = _exact_roots(factor)
        exact.extend(Root(GaussianRational(Fraction(x, lead), Fraction(y, lead)), mult, True, not y) for x, y in found)
        if len(found) == len(factor[0]) - 1:
            continue
        for x, y in found:
            factor = _exact_quotient(factor, _primitive([-x, lead], [-y, 0] if y else []))
        n_real = _real_root_count(factor)
        zs = _approximate_roots(factor)
        if zs is None:
            approx.extend(Root(None, mult, False, j < n_real) for j in range(len(factor[0]) - 1))
            continue
        zs.sort(key=lambda v: (v.real, v.imag))
        real = set(sorted(range(len(zs)), key=lambda j: abs(zs[j].imag))[:n_real])
        approx.extend(Root(complex(z.real, 0.0) if j in real else z, mult, False, j in real) for j, z in enumerate(zs))
    exact.sort(key=lambda r: r.value.sort_key())
    return exact + approx
