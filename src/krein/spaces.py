"""The indefinite scalar product layer.

A space is determined by a nonsingular Hermitian Gram matrix H; the product
is [x, y] = (Hx, y) with the ordinary product (u, v) taken conjugate-linear
in its second argument, so [x, y] = y* H x. The paper-facing notions all
reduce to exact matrix identities: the H-adjoint of A is H^-1 A* H, an
operator is H-normal when it commutes with its H-adjoint, a subspace is
neutral when the Gram matrix of a basis vanishes and nondegenerate when that
Gram matrix is nonsingular. The adjoint and normality predicates do not
depend on the sesquilinear convention; the convention only fixes which
argument of [.,.] is conjugated.

Inertia is read off a fraction-free Hermitian congruence reduction of the
Gaussian-integer form of H (``matrices._hermitian_inertia``), the one
symmetric reduction in the package: by Sylvester's law of inertia a
congruence keeps it, and no eigenvalue is computed, so signatures are exact.

The spectrum of a pair is exact and computed once. A spectrum of one class
(one eigenvalue, or over R one conjugate pair) is certified by a nilpotency
(:func:`one_class_spectrum`), with O(n^2) trace sums and a few squarings;
only the other spectra take the O(n^4) characteristic polynomial and
:func:`~krein.polynomials.poly_roots`. Both routes give the same tuple of
roots.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import mul
from typing import Sequence

from .exceptions import (
    DimensionMismatch,
    NotHermitian,
    ParameterError,
    SingularH,
)
from .matrices import COMPLEX, REAL, Matrix, _box, _hermitian_inertia, char_poly, hstack
from .polynomials import Polynomial, Root, poly_roots
from .scalars import GaussianRational


def signature(h: Matrix) -> tuple[int, int]:
    """Exact inertia (v_minus, v_plus) of a nonsingular Hermitian matrix, by
    the congruence reduction of its integer form d H (d > 0 keeps the inertia).
    """
    if not h.is_hermitian():
        raise NotHermitian("signature needs a Hermitian matrix")
    v_minus, v_zero, v_plus = _hermitian_inertia(h.rows, h._re, h._im)
    if v_zero:
        raise SingularH("Gram matrix is singular")
    return v_minus, v_plus


def _square_trace(n: int, re: list[int], im: list[int]) -> tuple[int, int]:
    """tr A^2 = sum_ij A_ij A_ji of the n x n Gaussian-integer matrix re + i im,
    as (real part, imaginary part), in O(n^2) with no matrix product."""
    rows = range(0, n * n, n)
    tr_re = sum(sum(map(mul, re[r : r + n], re[i::n])) for i, r in enumerate(rows))
    if not im:
        return tr_re, 0
    tr_re -= sum(sum(map(mul, im[r : r + n], im[i::n])) for i, r in enumerate(rows))
    return tr_re, 2 * sum(sum(map(mul, re[r : r + n], im[i::n])) for i, r in enumerate(rows))


def _is_nilpotent(m: Matrix) -> bool:
    """M^n = 0 for the n x n matrix M, by squaring: M^p for p = 1, 2, 4, ...
    until it is zero (nilpotent) or p >= n with M^p nonzero (not). Before
    each product, tr (M^p)^2 must vanish, as it does for a nilpotent M; that
    O(n^2) sum rejects most other matrices before any product."""
    power = 1
    while not m.is_zero:
        if power >= m.rows or _square_trace(m.rows, m._re, m._im) != (0, 0):
            return False
        m = m @ m
        power *= 2
    return True


def one_class_spectrum(m: Matrix) -> tuple[Root, ...]:
    """The exact spectrum of M when it is one class, else ().

    One class is one eigenvalue, or, for a real M, one conjugate pair; the
    result is then ``tuple(poly_roots(char_poly(M)))`` root for root, order
    included, and no characteristic polynomial is computed. Let
    lam = tr M / n and C = M - lam I.

    - One eigenvalue: the result is ((lam, n),) iff C is nilpotent. If M
      has the one eigenvalue mu, then tr M = n mu forces lam = mu, and C is
      nilpotent. Conversely, if C is nilpotent, lam is the only eigenvalue.
      :func:`_is_nilpotent` first checks tr C^2 = 0, an O(n^2) sum.
    - One conjugate pair (real M, even n): with
      beta^2 = -tr C^2 / n = lam^2 - tr M^2 / n, the result is
      ((lam - i beta, n/2), (lam + i beta, n/2)) iff beta^2 is the square of
      a positive rational beta and Q = C^2 + beta^2 I is nilpotent. If the
      spectrum of M is a +- ib with b > 0, a real M gives both the same
      multiplicity n/2. Then tr M = n a and tr M^2 = n (a^2 - b^2) force
      lam = a and beta^2 = b^2. Q = (M - a - ib)(M - a + ib), whose
      commuting factors are nilpotent on the generalized eigenspaces of
      a + ib and a - ib, so Q is nilpotent; :func:`poly_roots` gives exact
      roots iff b is rational. Conversely, if Q is nilpotent, every
      eigenvalue mu has (mu - lam)^2 + beta^2 = 0, so mu = lam +- i beta,
      two distinct values as beta > 0, with equal multiplicities since M is
      real.

    Any other spectrum fails both tests, so () means that the spectrum is
    not one class, or is a conjugate pair outside Q(i), which
    :func:`poly_roots` gives as approximate roots. The roots come in its
    ascending (re, im) order.

    The tests run on Gaussian integers: with A = d M the integer form and
    s = tr A, the matrix n A - s I = n d C has denominator 1, and
    D = -tr (n d C)^2 / n = (n d beta)^2 must be the square of an integer.
    """
    n, d = m.rows, m._d
    if not n:
        return ()
    diag = range(0, n * n, n + 1)
    c_re, c_im = [n * x for x in m._re], [n * y for y in m._im]
    s_re = sum(m._re[i] for i in diag)
    s_im = sum(m._im[i] for i in diag) if c_im else 0
    for i in diag:
        c_re[i] -= s_re
        if c_im:
            c_im[i] -= s_im
    c = Matrix._from_ints(n, n, 1, c_re, c_im, m.field)
    if _is_nilpotent(c):
        return (Root(_box(s_re, s_im, n * d), n, True),)
    if m.field != REAL or n % 2:
        return ()
    disc = -_square_trace(n, c._re, c._im)[0] // n
    b = isqrt(disc) if disc > 0 else 0
    if not b or b * b != disc or not _is_nilpotent(c @ c + Matrix.identity(n, REAL) * disc):
        return ()
    alpha, beta = Fraction(s_re, n * d), Fraction(b, n * d)
    return (
        Root(GaussianRational(alpha, -beta), n // 2, True),
        Root(GaussianRational(alpha, beta), n // 2, True),
    )


class IndefiniteSpace:
    """A finite-dimensional space carrying [x, y] = (Hx, y), H nonsingular Hermitian."""

    __slots__ = ("h", "signature", "_h_inv")

    def __init__(self, h: Matrix):
        if not h.is_square:
            raise DimensionMismatch("Gram matrix must be square")
        self.h = h
        self.signature = signature(h)  # validates Hermitian + nonsingular
        self._h_inv = None

    @property
    def dim(self) -> int:
        return self.h.rows

    @property
    def field(self) -> str:
        return self.h.field

    @property
    def v_minus(self) -> int:
        return self.signature[0]

    @property
    def v_plus(self) -> int:
        return self.signature[1]

    @property
    def rank_v(self) -> int:
        """min(v_minus, v_plus), the rank of the space."""
        return min(self.signature)

    @property
    def h_inv(self) -> Matrix:
        if self._h_inv is None:
            self._h_inv = self.h.inverse()
        return self._h_inv

    def __eq__(self, other) -> bool:
        return isinstance(other, IndefiniteSpace) and self.h == other.h

    def __hash__(self):
        return hash(self.h)

    def __repr__(self):
        return f"IndefiniteSpace(dim={self.dim}, signature={self.signature}, field={self.field})"


class MatrixPair:
    """An operator together with the space it acts on (the central object here)."""

    __slots__ = ("n_op", "space", "_adjoint", "_char_poly", "_normal", "_spectrum", "_trace_form")

    def __init__(self, n_op: Matrix, space: IndefiniteSpace):
        if not n_op.is_square or n_op.rows != space.dim:
            raise DimensionMismatch("operator shape does not match the space")
        if n_op.field != space.field:
            raise DimensionMismatch("operator and space field tags differ")
        self.n_op = n_op
        self.space = space
        self._adjoint = None
        self._char_poly = None
        self._normal = None
        self._spectrum = None
        self._trace_form = None  # set once by krein.decompose._trace_form

    @classmethod
    def from_matrices(cls, n_op: Matrix, h: Matrix) -> "MatrixPair":
        return cls(n_op, IndefiniteSpace(h))

    @property
    def n(self) -> int:
        return self.space.dim

    @property
    def field(self) -> str:
        return self.space.field

    @property
    def adjoint(self) -> Matrix:
        """The H-adjoint N^[*] of the operator, computed once by :func:`h_adjoint`."""
        if self._adjoint is None:
            self._adjoint = h_adjoint(self.n_op, self.space)
        return self._adjoint

    @property
    def char_poly(self) -> Polynomial:
        """The characteristic polynomial of the operator, computed once by :func:`char_poly`."""
        if self._char_poly is None:
            self._char_poly = char_poly(self.n_op)
        return self._char_poly

    @property
    def spectrum(self) -> tuple[Root, ...]:
        """The exact spectrum of the operator, computed once: the certificate
        of :func:`one_class_spectrum` when the spectrum is one class, else
        ``tuple(poly_roots(self.char_poly))``. The two routes agree root for
        root, so the result does not depend on which one ran."""
        spec = self.certified_spectrum
        if not spec:
            spec = self._spectrum = tuple(poly_roots(self.char_poly))
        return spec

    @property
    def certified_spectrum(self) -> tuple[Root, ...]:
        """The spectrum as far as it is known without a characteristic
        polynomial: :attr:`spectrum` once that is computed, else the result of
        :func:`one_class_spectrum`, kept on the pair, which is () when the
        spectrum is not one class. A one-class spectrum is always certified,
        so comparing this with a one-class target decides the spectrum."""
        if self._spectrum is None:
            self._spectrum = one_class_spectrum(self.n_op)
        return self._spectrum

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixPair)
            and self.n_op == other.n_op
            and self.space == other.space
        )

    def __repr__(self):
        return f"MatrixPair(n={self.n}, field={self.field})"


class SubspaceBasis:
    """A list of exact, linearly independent column vectors."""

    __slots__ = ("vectors", "ambient_dim", "field")

    def __init__(self, vectors: Sequence[Matrix], ambient_dim: int, field: str = COMPLEX):
        vecs = tuple(vectors)
        for v in vecs:
            if v.cols != 1 or v.rows != ambient_dim:
                raise DimensionMismatch("basis vectors must be ambient_dim x 1")
        if vecs:
            field = vecs[0].field
            if self._stacked(vecs, ambient_dim, field).rank() != len(vecs):
                raise ParameterError("basis vectors are linearly dependent")
        self.vectors = vecs
        self.ambient_dim = ambient_dim
        self.field = field

    @staticmethod
    def _stacked(vecs, ambient_dim, field) -> Matrix:
        if not vecs:
            return Matrix.zeros(ambient_dim, 0, field)
        return hstack(vecs)

    @property
    def dim(self) -> int:
        return len(self.vectors)

    @property
    def matrix(self) -> Matrix:
        """The ambient_dim x dim matrix whose columns are the basis."""
        return self._stacked(self.vectors, self.ambient_dim, self.field)

    def gram(self, space: IndefiniteSpace) -> Matrix:
        v = self.matrix
        return v.conj_transpose() @ space.h @ v

    def __repr__(self):
        return f"SubspaceBasis(dim={self.dim}, ambient={self.ambient_dim})"


def h_adjoint(a: Matrix, space: IndefiniteSpace) -> Matrix:
    """The operator A^[*] = H^-1 A* H satisfying [A^[*] x, y] = [x, A y]."""
    if a.rows != space.dim or a.cols != space.dim:
        raise DimensionMismatch("operator shape does not match the space")
    return space.h_inv @ a.conj_transpose() @ space.h


def is_h_normal(pair: MatrixPair) -> bool:
    """Exact test that the operator commutes with its H-adjoint; the verdict
    is kept on the (immutable) pair."""
    if pair._normal is None:
        a, adj = pair.n_op, pair.adjoint
        pair._normal = a @ adj == adj @ a
    return pair._normal


def is_neutral(sub: SubspaceBasis, space: IndefiniteSpace) -> bool:
    """True when [x, y] = 0 for all x, y in the subspace."""
    return sub.gram(space).is_zero


def is_nondegenerate(sub: SubspaceBasis, space: IndefiniteSpace) -> bool:
    """True when the restricted product has trivial radical."""
    g = sub.gram(space)
    return g.rank() == sub.dim


def h_orthogonal_complement(sub: SubspaceBasis, space: IndefiniteSpace) -> SubspaceBasis:
    """Exact basis of {x : [x, y] = 0 for all y in the subspace}."""
    if sub.dim == 0:
        vecs = [Matrix.unit_column(space.dim, i, space.field) for i in range(space.dim)]
        return SubspaceBasis(vecs, space.dim, space.field)
    rows = sub.matrix.conj_transpose() @ space.h
    return SubspaceBasis(rows.kernel_basis(), space.dim, space.field)


def direct_sum(a: MatrixPair, b: MatrixPair) -> MatrixPair:
    """H-orthogonal direct sum of two pairs (block diagonal operator and Gram)."""
    if a.field != b.field:
        raise DimensionMismatch("cannot glue pairs over different fields")
    n_op = Matrix.block_diagonal([a.n_op, b.n_op])
    h = Matrix.block_diagonal([a.space.h, b.space.h])
    return MatrixPair.from_matrices(n_op, h)
