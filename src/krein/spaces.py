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
"""

from __future__ import annotations

from typing import Sequence

from .exceptions import (
    DimensionMismatch,
    NotHermitian,
    ParameterError,
    SingularH,
)
from .matrices import COMPLEX, Matrix, _hermitian_inertia, char_poly, hstack
from .polynomials import Polynomial


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

    __slots__ = ("n_op", "space", "_adjoint", "_char_poly", "_normal", "_trace_form")

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
