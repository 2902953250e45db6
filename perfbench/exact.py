"""Exact linear algebra for output checks, independent of ``krein``.

The checks must not trust the arithmetic they check, and they must not show
up in the traced ``krein`` layers, so they run on plain Python integers: a
matrix over Q(i) is scaled by the lcm of its denominators into a Gaussian
integer matrix (pairs of ints), and ranks come from fraction-free (Bareiss)
elimination, whose divisions are exact.
"""

from __future__ import annotations

from math import lcm


class GaussMatrix:
    """A matrix (re + i*im) / den with integer re, im and a positive integer den."""

    __slots__ = ("rows", "cols", "re", "im", "den")

    def __init__(self, re, im, den=1):
        self.rows = len(re)
        self.cols = len(re[0]) if re else 0
        self.re, self.im, self.den = re, im, den

    @classmethod
    def of(cls, m) -> "GaussMatrix":
        """Convert a ``krein.Matrix`` (entries with Fraction .re/.im)."""
        ents = m.entries
        den = 1
        for z in ents:
            den = lcm(den, z.re.denominator, z.im.denominator)
        re = [[0] * m.cols for _ in range(m.rows)]
        im = [[0] * m.cols for _ in range(m.rows)]
        for idx, z in enumerate(ents):
            i, j = divmod(idx, m.cols)
            re[i][j] = z.re.numerator * (den // z.re.denominator)
            im[i][j] = z.im.numerator * (den // z.im.denominator)
        return cls(re, im, den)

    def conj_transpose(self) -> "GaussMatrix":
        return GaussMatrix(
            [list(c) for c in zip(*self.re)], [[-x for x in c] for c in zip(*self.im)], self.den
        )

    def __matmul__(self, other: "GaussMatrix") -> "GaussMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        bre = list(zip(*other.re))
        bim = list(zip(*other.im))
        re, im = [], []
        for ar, ai in zip(self.re, self.im):
            re.append([_dot(ar, br) - _dot(ai, bi) for br, bi in zip(bre, bim)])
            im.append([_dot(ar, bi) + _dot(ai, br) for br, bi in zip(bre, bim)])
        return GaussMatrix(re, im, self.den * other.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussMatrix) or (self.rows, self.cols) != (other.rows, other.cols):
            return False
        a, b = other.den, self.den
        return all(
            x * a == y * b
            for mine, theirs in ((self.re, other.re), (self.im, other.im))
            for rx, ry in zip(mine, theirs)
            for x, y in zip(rx, ry)
        )

    def rank(self) -> int:
        """Rank by Bareiss elimination over the Gaussian integers."""
        m = [list(zip(r, i)) for r, i in zip(self.re, self.im)]
        nrows, ncols = self.rows, self.cols
        prev = (1, 0)
        r = 0
        for c in range(ncols):
            piv = next((i for i in range(r, nrows) if m[i][c] != (0, 0)), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            p = m[r][c]
            for i in range(r + 1, nrows):
                f = m[i][c]
                row, prow = m[i], m[r]
                for j in range(c + 1, ncols):
                    row[j] = _gdiv(_gsub(_gmul(p, row[j]), _gmul(f, prow[j])), prev)
                row[c] = (0, 0)
            prev = p
            r += 1
            if r == nrows:
                break
        return r


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b) if x and y)


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _gdiv(a, b):
    """Exact Gaussian-integer division (Bareiss guarantees divisibility)."""
    num = _gmul(a, (b[0], -b[1]))
    norm = b[0] * b[0] + b[1] * b[1]
    qr, rr = divmod(num[0], norm)
    qi, ri = divmod(num[1], norm)
    if rr or ri:
        raise ArithmeticError("inexact Bareiss division")
    return (qr, qi)
