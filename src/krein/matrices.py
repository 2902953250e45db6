"""Exact dense matrices over the rationals and Gaussian rationals.

Matrices are immutable, carry a real/complex field tag, and all arithmetic is
exact. Products are integer-scaled: each operand is written over the lcm d of
its entry denominators as (re + i*im) / d with integer lists re and im, the
product's inner loop runs on Python ints (one multiply-add per term when both
operands are real) and each output entry is normalized once, as a fraction
over d_a * d_b. Every row reduction in the package goes through one sparse
Gauss-Jordan core, ``_gauss_jordan``, which returns the reduced row echelon
form of a system of {column: coefficient} rows. Rank, kernels, inverses and
particular solutions are read off it, and so are the sparse commutant systems
of :mod:`krein.decompose` (through :func:`kernel_of_sparse_rows`). The RREF
is unique, so these results do not depend on how rows are ordered or stored.
Characteristic polynomials are computed by an exact Hessenberg reduction
followed by the last-column determinant expansion, and the determinant is
read off the characteristic polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .exceptions import (
    DimensionMismatch,
    FieldMismatch,
    ParameterError,
    SingularMatrix,
)
from .polynomials import Polynomial
from .scalars import (
    ONE,
    ZERO,
    GaussianRational,
    ScalarLike,
    as_scalar,
    format_scalar,
    integer_form,
)

REAL = "real"
COMPLEX = "complex"


class Matrix:
    """Immutable dense matrix with GaussianRational entries (row-major)."""

    __slots__ = ("rows", "cols", "entries", "field")

    def __init__(self, rows: int, cols: int, entries: Sequence, field: str = COMPLEX):
        if field not in (REAL, COMPLEX):
            raise FieldMismatch(f"unknown field tag {field!r}")
        ents = tuple(as_scalar(e) for e in entries)
        if len(ents) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(ents)}"
            )
        if field == REAL:
            for idx, e in enumerate(ents):
                if e.im:
                    raise FieldMismatch(
                        f"real matrix has complex entry {e!r} at position {idx}"
                    )
        self.rows = rows
        self.cols = cols
        self.entries = ents
        self.field = field

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[ScalarLike]], field: str = COMPLEX):
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise DimensionMismatch("ragged rows")
            flat.extend(row)
        return cls(r, c, flat, field)

    @classmethod
    def identity(cls, n: int, field: str = COMPLEX):
        ents = [ONE if i == j else ZERO for i in range(n) for j in range(n)]
        return cls(n, n, ents, field)

    @classmethod
    def zeros(cls, rows: int, cols: int, field: str = COMPLEX):
        return cls(rows, cols, [ZERO] * (rows * cols), field)

    @classmethod
    def diagonal(cls, values: Sequence[ScalarLike], field: str = COMPLEX):
        n = len(values)
        ents = [as_scalar(values[i]) if i == j else ZERO for i in range(n) for j in range(n)]
        return cls(n, n, ents, field)

    @classmethod
    def trailing_identity(cls, n: int, field: str = COMPLEX):
        """The matrix with 1's on the trailing (anti-) diagonal, zeros elsewhere."""
        ents = [ONE if i + j == n - 1 else ZERO for i in range(n) for j in range(n)]
        return cls(n, n, ents, field)

    @classmethod
    def column(cls, values: Sequence[ScalarLike], field: str = COMPLEX):
        return cls(len(values), 1, list(values), field)

    @classmethod
    def unit_column(cls, n: int, i: int, field: str = COMPLEX):
        return cls(n, 1, [ONE if k == i else ZERO for k in range(n)], field)

    @classmethod
    def from_blocks(cls, grid: Sequence[Sequence["Matrix"]], field: str | None = None):
        """Assemble a block matrix; block shapes must tile consistently."""
        if field is None:
            field = grid[0][0].field
        row_heights = [row[0].rows for row in grid]
        col_widths = [b.cols for b in grid[0]]
        for row in grid:
            for j, b in enumerate(row):
                if b.cols != col_widths[j] or b.rows != row[0].rows:
                    raise DimensionMismatch("inconsistent block shapes")
        out = []
        for bi, row in enumerate(grid):
            for r in range(row_heights[bi]):
                for b in row:
                    out.extend(b.entries[r * b.cols : (r + 1) * b.cols])
        return cls(sum(row_heights), sum(col_widths), out, field)

    @classmethod
    def block_diagonal(cls, blocks: Sequence["Matrix"], field: str | None = None):
        if field is None:
            field = blocks[0].field
        n = sum(b.rows for b in blocks)
        m = sum(b.cols for b in blocks)
        rows = [[ZERO] * m for _ in range(n)]
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    rows[r0 + i][c0 + j] = b[i, j]
            r0 += b.rows
            c0 += b.cols
        return cls.from_rows(rows, field)

    # -- access ---------------------------------------------------------------

    def __getitem__(self, key) -> GaussianRational:
        i, j = key
        return self.entries[i * self.cols + j]

    def row_list(self, i: int) -> list[GaussianRational]:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def to_lists(self) -> list[list[GaussianRational]]:
        return [self.row_list(i) for i in range(self.rows)]

    def col(self, j: int) -> "Matrix":
        return Matrix(self.rows, 1, [self[i, j] for i in range(self.rows)], self.field)

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        ents = []
        for i in range(r0, r1):
            ents.extend(self.entries[i * self.cols + c0 : i * self.cols + c1])
        return Matrix(r1 - r0, c1 - c0, ents, self.field)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_zero(self) -> bool:
        return not any(self.entries)

    def is_hermitian(self) -> bool:
        if not self.is_square:
            return False
        for i in range(self.rows):
            for j in range(i, self.cols):
                if self[i, j] != self[j, i].conjugate():
                    return False
        return True

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(format_scalar(self[i, j]) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"Matrix[{self.rows}x{self.cols},{self.field}]({body})"

    # -- field handling ---------------------------------------------------------

    def complexified(self) -> "Matrix":
        """The same matrix with a complex field tag."""
        if self.field == COMPLEX:
            return self
        return Matrix(self.rows, self.cols, self.entries, COMPLEX)

    def with_field(self, field: str) -> "Matrix":
        return Matrix(self.rows, self.cols, self.entries, field)

    def real_part(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [GaussianRational(e.re) for e in self.entries], REAL)

    def imag_part(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [GaussianRational(e.im) for e in self.entries], REAL)

    def _join_field(self, other: "Matrix") -> str:
        if self.field != other.field:
            raise FieldMismatch(f"field tags differ: {self.field} vs {other.field}")
        return self.field

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        field = self._join_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in addition")
        return Matrix(
            self.rows,
            self.cols,
            [a + b for a, b in zip(self.entries, other.entries)],
            field,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [-a for a in self.entries], self.field)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self._matmul(other)
        c = as_scalar(other)
        field = self.field if (self.field == COMPLEX or not c.im) else COMPLEX
        return Matrix(self.rows, self.cols, [c * a for a in self.entries], field)

    def __rmul__(self, other):
        return self * other

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return self._matmul(other)

    def _matmul(self, other: "Matrix") -> "Matrix":
        # With A = (ar + i ai) / da and B = (br + i bi) / db over integers,
        # AB = (ar br - ai bi + i (ar bi + ai br)) / (da db): the sums run on
        # Python ints, skipping zero entries, and each output is normalized once.
        field = self._join_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        n, m, p = self.rows, self.cols, other.cols
        da, ar, ai = integer_form(self.entries)
        db, br, bi = integer_form(other.entries)
        d = da * db
        out = []
        if not ai and not bi:
            brows = [[(j, u) for j, u in enumerate(br[k * p : (k + 1) * p]) if u] for k in range(m)]
            for i in range(n):
                acc = [0] * p
                for k, x in enumerate(ar[i * m : (i + 1) * m]):
                    if x:
                        for j, u in brows[k]:
                            acc[j] += x * u
                out.extend(GaussianRational(Fraction(r, d)) if r else ZERO for r in acc)
            return Matrix(n, p, out, field)
        ai = ai or [0] * (n * m)
        bi = bi or [0] * (m * p)
        brows = [
            [(j, br[t], bi[t]) for j, t in enumerate(range(k * p, (k + 1) * p)) if br[t] or bi[t]]
            for k in range(m)
        ]
        for i in range(n):
            re = [0] * p
            im = [0] * p
            for k, (x, y) in enumerate(zip(ar[i * m : (i + 1) * m], ai[i * m : (i + 1) * m])):
                if x or y:
                    for j, u, v in brows[k]:
                        re[j] += x * u - y * v
                        im[j] += x * v + y * u
            out.extend(
                GaussianRational(Fraction(r, d), Fraction(s, d)) if r or s else ZERO
                for r, s in zip(re, im)
            )
        return Matrix(n, p, out, field)

    def transpose(self) -> "Matrix":
        ents = [self[j, i] for i in range(self.cols) for j in range(self.rows)]
        return Matrix(self.cols, self.rows, ents, self.field)

    def conj_transpose(self) -> "Matrix":
        ents = [self[j, i].conjugate() for i in range(self.cols) for j in range(self.rows)]
        return Matrix(self.cols, self.rows, ents, self.field)

    def trace(self) -> GaussianRational:
        if not self.is_square:
            raise DimensionMismatch("trace of a non-square matrix")
        t = ZERO
        for i in range(self.rows):
            t = t + self[i, i]
        return t

    def scalar(self) -> GaussianRational:
        if (self.rows, self.cols) != (1, 1):
            raise DimensionMismatch("not a 1x1 matrix")
        return self.entries[0]

    # -- elimination-based operations -----------------------------------------

    def _sparse_rows(self, offset: int = 0) -> list[dict[int, GaussianRational]]:
        """The rows as {column + offset: entry} dicts without zero entries."""
        return [
            {offset + j: v for j, v in enumerate(self.row_list(i)) if v}
            for i in range(self.rows)
        ]

    def det(self) -> GaussianRational:
        """det(M) = (-1)^n char_poly(M)(0)."""
        if not self.is_square:
            raise DimensionMismatch("determinant of a non-square matrix")
        c0 = char_poly(self).coeffs[0]
        return -c0 if self.rows % 2 else c0

    def rank(self) -> int:
        return len(_gauss_jordan(self._sparse_rows()))

    def inverse(self) -> "Matrix":
        if not self.is_square:
            raise DimensionMismatch("inverse of a non-square matrix")
        return self._solve(Matrix.identity(self.rows, self.field), "matrix is singular")

    def kernel_basis(self) -> list["Matrix"]:
        """Exact basis of the null space; empty list when trivial."""
        return [
            Matrix.column([v.get(j, ZERO) for j in range(self.cols)], self.field)
            for v in kernel_of_sparse_rows(self._sparse_rows(), self.cols)
        ]

    def solve_right(self, rhs: "Matrix") -> "Matrix":
        """A particular solution X of self @ X = rhs (free variables set to 0)."""
        self._join_field(rhs)
        if self.rows != rhs.rows:
            raise DimensionMismatch("row count mismatch in solve")
        return self._solve(rhs, "inconsistent linear system")

    def _solve(self, rhs: "Matrix", failure: str) -> "Matrix":
        # Reduce [self | rhs]: the system is consistent exactly when no pivot
        # lands in the rhs columns, and then each pivot row holds the value
        # of its pivot variable with the free variables set to 0.
        m = self.cols
        reduced = _gauss_jordan(
            a | b for a, b in zip(self._sparse_rows(), rhs._sparse_rows(offset=m))
        )
        if any(p >= m for p in reduced):
            raise SingularMatrix(failure)
        ents = [
            reduced.get(i, {}).get(m + j, ZERO)
            for i in range(m)
            for j in range(rhs.cols)
        ]
        return Matrix(m, rhs.cols, ents, self.field)


def hstack(mats: Sequence[Matrix]) -> Matrix:
    mats = [m for m in mats]
    if not mats:
        raise ParameterError("hstack of nothing")
    field = mats[0].field
    rows = mats[0].rows
    out_rows = []
    for i in range(rows):
        row: list[GaussianRational] = []
        for m in mats:
            if m.rows != rows:
                raise DimensionMismatch("hstack with differing row counts")
            row.extend(m.row_list(i))
        out_rows.append(row)
    return Matrix.from_rows(out_rows, field)


def vstack(mats: Sequence[Matrix]) -> Matrix:
    rows = [row for m in mats for row in m.to_lists()]
    return Matrix.from_rows(rows, mats[0].field)


def _gauss_jordan(
    rows: Iterable[dict[int, GaussianRational]],
) -> dict[int, dict[int, GaussianRational]]:
    """Reduced row echelon form of a sparse row system, as {pivot column: row}.

    Rows are {column: coefficient} dicts. Rows are taken smallest first, and
    each is reduced against the pivot rows so far, pivots on its leftmost
    column and is then eliminated from the earlier pivot rows. Each pivot row
    thus stays 1 at its pivot, 0 at every other pivot column and 0 left of
    its pivot, so the result is the unique RREF of the row space: pivots,
    kernels and solutions do not depend on the order rows arrive in.
    """
    pivot_rows: dict[int, dict[int, GaussianRational]] = {}
    pending = [dict(r) for r in rows if r]
    pending.sort(key=lambda r: (len(r), sorted(r)))
    for row in pending:
        # pivot rows are mutually reduced, so one sweep removes every hit
        for c in [c for c in row if c in pivot_rows]:
            _eliminate(row, c, pivot_rows[c])
        if not row:
            continue
        p = min(row)
        inv = ONE / row[p]
        nrow = {c: v * inv for c, v in row.items()}
        for prow in pivot_rows.values():
            if p in prow:
                _eliminate(prow, p, nrow)
        pivot_rows[p] = nrow
    return pivot_rows


def _eliminate(row: dict, c: int, prow: dict) -> None:
    """row -= row[c] * prow, for a pivot row prow that is 1 at column c."""
    coef = row.pop(c)
    for cc, vv in prow.items():
        if cc == c:
            continue
        nv = row.get(cc, ZERO) - coef * vv
        if nv:
            row[cc] = nv
        else:
            row.pop(cc, None)


def kernel_of_sparse_rows(
    rows: Iterable[dict[int, GaussianRational]], ncols: int
) -> list[dict[int, GaussianRational]]:
    """Kernel basis of a sparse row system; rows are {column: coefficient}.

    One vector per free (non-pivot) column f, in increasing f: 1 at f, 0 at
    every other free column, and minus the reduced rows' column f at the
    pivots. Deterministic.
    """
    pivot_rows = _gauss_jordan(rows)
    basis = []
    for f in range(ncols):
        if f in pivot_rows:
            continue
        v = {f: ONE}
        for c, prow in pivot_rows.items():
            w = prow.get(f)
            if w:
                v[c] = -w
        basis.append(v)
    return basis


# -- characteristic polynomials ------------------------------------------------


def _hessenberg(a: list[list[GaussianRational]]) -> list[list[GaussianRational]]:
    n = len(a)
    for j in range(n - 2):
        if not a[j + 1][j]:
            piv = next((i for i in range(j + 2, n) if a[i][j]), None)
            if piv is None:
                continue
            a[j + 1], a[piv] = a[piv], a[j + 1]
            for row in a:
                row[j + 1], row[piv] = row[piv], row[j + 1]
        inv = ONE / a[j + 1][j]
        for i in range(j + 2, n):
            f = a[i][j] * inv
            if not f:
                continue
            src, dst = a[j + 1], a[i]
            for c in range(j, n):
                if src[c]:
                    dst[c] = dst[c] - f * src[c]
            for r in range(n):
                if a[r][i]:
                    a[r][j + 1] = a[r][j + 1] + f * a[r][i]
    return a


def char_poly(m: Matrix) -> Polynomial:
    """Exact characteristic polynomial det(tI - M), monic.

    Computed by similarity reduction to Hessenberg form and expansion of the
    determinant along the last column (an O(n^3) fraction-exact scheme).
    """
    if not m.is_square:
        raise DimensionMismatch("characteristic polynomial of a non-square matrix")
    n = m.rows
    if n == 0:
        return Polynomial([1])
    h = _hessenberg(m.to_lists())
    # ps[k] = det(tI - H[:k, :k]) as an ascending coefficient list
    ps = [[ONE]]
    for k in range(1, n + 1):
        prev = ps[k - 1]
        p = [ZERO] + prev  # t * ps[k-1]
        _axpy(p, -h[k - 1][k - 1], prev)
        prod = ONE
        for i in range(k - 2, -1, -1):
            prod = prod * h[i + 1][i]
            if not prod:
                break
            _axpy(p, -(h[i][k - 1] * prod), ps[i])
        ps.append(p)
    return Polynomial(ps[n])


def _axpy(p: list, c: GaussianRational, q: list) -> None:
    """p[j] += c * q[j] for the entries of q (p at least as long as q)."""
    if c:
        for j, v in enumerate(q):
            if v:
                p[j] = p[j] + c * v


def apply_poly(p: Polynomial, m: Matrix) -> Matrix:
    """Evaluate a polynomial at a square matrix (Horner)."""
    if not m.is_square:
        raise DimensionMismatch("polynomial of a non-square matrix")
    acc = Matrix.zeros(m.rows, m.rows, m.field)
    ident = Matrix.identity(m.rows, m.field)
    for c in reversed(p.coeffs):
        acc = acc @ m + ident * c
    return acc


def mat_power(m: Matrix, k: int) -> Matrix:
    if k < 0:
        raise ParameterError("negative matrix power")
    acc = Matrix.identity(m.rows, m.field)
    base = m
    while k:
        if k & 1:
            acc = acc @ base
        base = base @ base if k > 1 else base
        k >>= 1
    return acc
