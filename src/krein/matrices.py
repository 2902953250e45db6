"""Exact dense matrices over the rationals and Gaussian rationals.

Matrices are immutable, carry a real/complex field tag, and all arithmetic is
exact. A matrix is stored in one canonical integer form (d, re, im): it is
(re + i*im) / d with row-major int lists re and im, a common denominator
d > 0 coprime to every part, and im empty exactly when every entry is real.
The form is unique, so equality and hashing read it directly. The public
constructor builds it from the entries it is given; every matrix-valued
operation reads the form of its operands and builds its result through
:meth:`Matrix._from_ints`, without boxing an entry. ``entries`` (and
``m[i, j]``, ``row_list``, ``to_lists``) boxes the form into a tuple of
``GaussianRational``s on first use. Products run on Python ints
(one multiply-add per term when both operands are real), with one gcd pass
to keep the result canonical; transposes, submatrices and stacks move ints,
and sums, differences and scalar multiples work over the lcm of the
denominators.

Every row reduction in the package goes through one sparse Gauss-Jordan
core, ``_integer_gauss_jordan``, which reduces a system of integer rows
fraction-free over Z[i] and returns its pivot rows as Gaussian-integer
multiples of the reduced row echelon form: each row is eliminated by cross
multiplication, pivot rows are kept primitive with a positive integer
pivot, and no fraction is formed. Rank, kernels, inverses and particular
solutions are read off the integer pivot rows of d M, and kernels by one
helper, ``_integer_kernel``, also for the integer commutant systems that
:mod:`krein.decompose` builds from the (d, re, im) of its matrices.
:func:`kernel_of_sparse_rows` takes rows of ``GaussianRational``s and
scales each to integers first. The RREF is unique, so these results do not
depend on how rows are ordered, scaled or stored.
The one symmetric reduction is the Hermitian congruence of
``_hermitian_inertia``, which reads the inertia of a Hermitian
Gaussian-integer matrix in O(n^3), fraction-free, with the entries kept at
the primitive part of the minors.
Starred arguments (``lcm(*[...])``, ``gcd(*[...])``) come from lists, not
generators or iterators: those build their argument tuple by resizing, and
the freed tuple lands on the free list of another size, so between full
garbage collections such calls grow the interpreter's tuple free lists.
Characteristic polynomials come from the division-free Samuelson-Berkowitz
recurrence on d M (``_samuelson_berkowitz``, called by :func:`char_poly`
alone), for real and Gaussian entries alike, straight into a
``Polynomial``'s integer form; the determinant is read off its constant term.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain
from math import gcd, lcm
from typing import Iterable, Sequence

from .exceptions import (
    DimensionMismatch,
    FieldMismatch,
    ParameterError,
    SingularMatrix,
)
from .polynomials import Polynomial
from .scalars import (
    ZERO,
    GaussianRational,
    ScalarLike,
    as_scalar,
    format_scalar,
    integer_form,
)

REAL = "real"
COMPLEX = "complex"

IntRow = tuple[dict[int, int], dict[int, int]]


def _box(x: int, y: int, d: int) -> GaussianRational:
    """The scalar (x + i*y) / d."""
    if not y:
        return GaussianRational(Fraction(x, d)) if x else ZERO
    return GaussianRational(Fraction(x, d), Fraction(y, d))


class Matrix:
    """Immutable dense matrix over Q(i), stored as (re + i*im) / d (module docstring)."""

    __slots__ = ("rows", "cols", "field", "_d", "_re", "_im", "_entries", "_inertia")

    def __init__(self, rows: int, cols: int, entries: Sequence, field: str = COMPLEX):
        d, re, im = integer_form([as_scalar(e) for e in entries])
        self._set(rows, cols, d, re, im, field)

    @classmethod
    def _from_ints(cls, rows: int, cols: int, d: int, re: list[int], im: list[int], field: str) -> "Matrix":
        """The matrix (re + i*im) / d for a positive d and int lists that need
        not be canonical (im may be empty for a real matrix): the constructor
        of every internal operation. No matrix mutates its lists, so they may
        be shared."""
        g = gcd(d, *re, *im)
        if g != 1:
            d //= g
            re = [x // g for x in re]
            im = [y // g for y in im]
        if im and not any(im):
            im = []
        m = object.__new__(cls)
        m._set(rows, cols, d, re, im, field)
        return m

    def _set(self, rows: int, cols: int, d: int, re: list[int], im: list[int], field: str) -> None:
        """Check the field tag, the shape and a real tag's entries, and store the form."""
        if field not in (REAL, COMPLEX):
            raise FieldMismatch(f"unknown field tag {field!r}")
        if len(re) != rows * cols:
            raise DimensionMismatch(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(re)}")
        if field == REAL and im:
            idx = next(k for k, y in enumerate(im) if y)
            raise FieldMismatch(
                f"real matrix has complex entry {_box(re[idx], im[idx], d)!r} at position {idx}"
            )
        self.rows = rows
        self.cols = cols
        self.field = field
        self._d = d
        self._re = re
        self._im = im
        self._entries = None
        self._inertia = None  # (v_minus, v_zero, v_plus) of a Hermitian matrix; see spaces.signature

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
        return cls._from_ints(n, n, 1, [int(i == j) for i in range(n) for j in range(n)], [], field)

    @classmethod
    def zeros(cls, rows: int, cols: int, field: str = COMPLEX):
        return cls._from_ints(rows, cols, 1, [0] * (rows * cols), [], field)

    @classmethod
    def diagonal(cls, values: Sequence[ScalarLike], field: str = COMPLEX):
        n = len(values)
        ents = [as_scalar(values[i]) if i == j else ZERO for i in range(n) for j in range(n)]
        return cls(n, n, ents, field)

    @classmethod
    def trailing_identity(cls, n: int, field: str = COMPLEX):
        """The matrix with 1's on the trailing (anti-) diagonal, zeros elsewhere."""
        return cls._from_ints(n, n, 1, [int(i + j == n - 1) for i in range(n) for j in range(n)], [], field)

    @classmethod
    def column(cls, values: Sequence[ScalarLike], field: str = COMPLEX):
        return cls(len(values), 1, list(values), field)

    @classmethod
    def unit_column(cls, n: int, i: int, field: str = COMPLEX):
        return cls._from_ints(n, 1, 1, [int(k == i) for k in range(n)], [], field)

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
        d, all_re, all_im = _common_integer_form([b for row in grid for b in row])
        re: list[int] = []
        im: list[int] = []
        o = 0
        for row in grid:
            # block b of this row starts at o + starts[b] in the common form
            starts = list(accumulate((b.rows * b.cols for b in row), initial=0))
            for r in range(row[0].rows):
                for b, start in zip(row, starts):
                    lo = o + start + r * b.cols
                    re += all_re[lo : lo + b.cols]
                    im += all_im[lo : lo + b.cols]
            o += starts[-1]
        return cls._from_ints(sum(row_heights), sum(col_widths), d, re, im, field)

    @classmethod
    def block_diagonal(cls, blocks: Sequence["Matrix"], field: str | None = None):
        if field is None:
            field = blocks[0].field
        grid = [
            [b if i == j else cls.zeros(b.rows, c.cols, field) for j, c in enumerate(blocks)]
            for i, b in enumerate(blocks)
        ]
        return cls.from_blocks(grid, field)

    # -- access ---------------------------------------------------------------

    @property
    def entries(self) -> tuple[GaussianRational, ...]:
        """The entries as GaussianRationals, row-major; boxed on first use."""
        if self._entries is None:
            d, re, im = self._d, self._re, self._im
            self._entries = tuple(_box(x, y, d) for x, y in zip(re, im or [0] * len(re)))
        return self._entries

    def __getitem__(self, key) -> GaussianRational:
        i, j = key
        return self.entries[i * self.cols + j]

    def row_list(self, i: int) -> list[GaussianRational]:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def to_lists(self) -> list[list[GaussianRational]]:
        return [self.row_list(i) for i in range(self.rows)]

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        c = self.cols
        re = [x for i in range(r0, r1) for x in self._re[i * c + c0 : i * c + c1]]
        im = [y for i in range(r0, r1) for y in self._im[i * c + c0 : i * c + c1]]
        return Matrix._from_ints(r1 - r0, c1 - c0, self._d, re, im, self.field)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_zero(self) -> bool:
        return not self._im and not any(self._re)

    def is_hermitian(self) -> bool:
        return self.is_square and self.conj_transpose() == self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._d == other._d
            and self._re == other._re
            and self._im == other._im
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._d, tuple(self._re), tuple(self._im)))

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
        return self.with_field(COMPLEX)

    def with_field(self, field: str) -> "Matrix":
        return Matrix._from_ints(self.rows, self.cols, self._d, self._re, self._im, field)

    def real_part(self) -> "Matrix":
        return Matrix._from_ints(self.rows, self.cols, self._d, self._re, [], REAL)

    def imag_part(self) -> "Matrix":
        return Matrix._from_ints(self.rows, self.cols, self._d, self._im or [0] * len(self._re), [], REAL)

    def _join_field(self, other: "Matrix") -> str:
        if self.field != other.field:
            raise FieldMismatch(f"field tags differ: {self.field} vs {other.field}")
        return self.field

    # -- arithmetic ---------------------------------------------------------

    def _elementwise(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign * other over the lcm of the two denominators."""
        field = self._join_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in addition")
        d = lcm(self._d, other._d)
        s, t = d // self._d, sign * (d // other._d)
        re = [s * x + t * y for x, y in zip(self._re, other._re)]
        im = []
        if self._im or other._im:
            zeros = [0] * len(re)
            im = [s * x + t * y for x, y in zip(self._im or zeros, other._im or zeros)]
        return Matrix._from_ints(self.rows, self.cols, d, re, im, field)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._elementwise(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._elementwise(other, -1)

    def __neg__(self) -> "Matrix":
        return Matrix._from_ints(
            self.rows, self.cols, self._d, [-x for x in self._re], [-y for y in self._im], self.field
        )

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self._matmul(other)
        c = as_scalar(other)
        field = self.field if (self.field == COMPLEX or not c.im) else COMPLEX
        # c = (u + i v) / e, so c (re + i im) / d = (u re - v im + i (u im + v re)) / (e d)
        e, (u,), im_c = integer_form([c])
        v = im_c[0] if im_c else 0
        re, im = self._re, self._im
        if not v:
            out_re, out_im = [u * x for x in re], [u * y for y in im]
        elif not im:
            out_re, out_im = [u * x for x in re], [v * x for x in re]
        else:
            out_re = [u * x - v * y for x, y in zip(re, im)]
            out_im = [u * y + v * x for x, y in zip(re, im)]
        return Matrix._from_ints(self.rows, self.cols, e * self._d, out_re, out_im, field)

    def __rmul__(self, other):
        return self * other

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return self._matmul(other)

    def _matmul(self, other: "Matrix") -> "Matrix":
        # With A = (ar + i ai) / da and B = (br + i bi) / db, AB = (ar br -
        # ai bi + i (ar bi + ai br)) / (da db): the sums run on Python ints,
        # skipping zero entries.
        field = self._join_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        n, m, p = self.rows, self.cols, other.cols
        ar, ai, br, bi = self._re, self._im, other._re, other._im
        d = self._d * other._d
        re: list[int] = []
        if not ai and not bi:
            brows = [[(j, u) for j, u in enumerate(br[k * p : (k + 1) * p]) if u] for k in range(m)]
            for i in range(n):
                acc = [0] * p
                for k, x in enumerate(ar[i * m : (i + 1) * m]):
                    if x:
                        for j, u in brows[k]:
                            acc[j] += x * u
                re += acc
            return Matrix._from_ints(n, p, d, re, [], field)
        ai = ai or [0] * (n * m)
        bi = bi or [0] * (m * p)
        brows = [
            [(j, br[t], bi[t]) for j, t in enumerate(range(k * p, (k + 1) * p)) if br[t] or bi[t]]
            for k in range(m)
        ]
        im: list[int] = []
        for i in range(n):
            acc_re = [0] * p
            acc_im = [0] * p
            for k, (x, y) in enumerate(zip(ar[i * m : (i + 1) * m], ai[i * m : (i + 1) * m])):
                if x or y:
                    for j, u, v in brows[k]:
                        acc_re[j] += x * u - y * v
                        acc_im[j] += x * v + y * u
            re += acc_re
            im += acc_im
        return Matrix._from_ints(n, p, d, re, im, field)

    def conj_transpose(self) -> "Matrix":
        c = self.cols
        re = [x for j in range(c) for x in self._re[j::c]]
        im = [-y for j in range(c) for y in self._im[j::c]]
        return Matrix._from_ints(c, self.rows, self._d, re, im, self.field)

    def trace(self) -> GaussianRational:
        if not self.is_square:
            raise DimensionMismatch("trace of a non-square matrix")
        step = self.cols + 1
        return _box(sum(self._re[::step]), sum(self._im[::step]), self._d)

    def scalar(self) -> GaussianRational:
        if (self.rows, self.cols) != (1, 1):
            raise DimensionMismatch("not a 1x1 matrix")
        return self.entries[0]

    # -- elimination-based operations -----------------------------------------

    def _sparse_rows(self) -> list[IntRow]:
        """The rows of d M as sparse {column: int} dicts of their nonzero real
        and imaginary parts, each divided by the gcd of its parts."""
        c, re, im = self.cols, self._re, self._im
        out = []
        for i in range(self.rows):
            row_re, row_im = re[i * c : (i + 1) * c], im[i * c : (i + 1) * c]
            g = gcd(*row_re, *row_im) or 1
            out.append((
                {j: x // g for j, x in enumerate(row_re) if x},
                {j: y // g for j, y in enumerate(row_im) if y},
            ))
        return out

    def det(self) -> GaussianRational:
        """det(M) = (-1)^n char_poly(M)(0)."""
        if not self.is_square:
            raise DimensionMismatch("determinant of a non-square matrix")
        p, sign = char_poly(self), (-1) ** self.rows
        return _box(sign * p._re[0], sign * p._im[0] if p._im else 0, p._d)

    def rank(self) -> int:
        return len(_integer_gauss_jordan(self._sparse_rows()))

    def inverse(self) -> "Matrix":
        if not self.is_square:
            raise DimensionMismatch("inverse of a non-square matrix")
        return self._solve(Matrix.identity(self.rows, self.field), "matrix is singular")

    def kernel_basis(self) -> list["Matrix"]:
        """Exact basis of the null space; empty list when trivial: one vector
        per free (non-pivot) column, as :func:`_integer_kernel` builds it.
        Deterministic."""
        n = self.cols
        basis = []
        for d, vec in _integer_kernel(_integer_gauss_jordan(self._sparse_rows()), n):
            vre, vim = [0] * n, [0] * n
            for c, (x, y) in vec.items():
                vre[c], vim[c] = x, y
            basis.append(Matrix._from_ints(n, 1, d, vre, vim, self.field))
        return basis

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
        m, k = self.cols, rhs.cols
        pivot_rows = _integer_gauss_jordan(hstack([self, rhs])._sparse_rows())
        if any(p >= m for p in pivot_rows):
            raise SingularMatrix(failure)
        d = lcm(*[big_p for big_p, _, _ in pivot_rows.values()])
        re, im = [0] * (m * k), [0] * (m * k)
        for i, (big_p, pre, pim) in pivot_rows.items():
            s = d // big_p
            for out, part in ((re, pre), (im, pim)):
                for c, x in part.items():
                    if c >= m:
                        out[i * k + c - m] = x * s
        return Matrix._from_ints(m, k, d, re, im, self.field)


def hstack(mats: Sequence[Matrix]) -> Matrix:
    mats = list(mats)
    if not mats:
        raise ParameterError("hstack of nothing")
    if any(m.rows != mats[0].rows for m in mats):
        raise DimensionMismatch("hstack with differing row counts")
    return Matrix.from_blocks([mats])


def vstack(mats: Sequence[Matrix]) -> Matrix:
    if any(m.cols != mats[0].cols for m in mats):
        raise DimensionMismatch("ragged rows")
    return Matrix._from_ints(
        sum(m.rows for m in mats), mats[0].cols, *_common_integer_form(mats), mats[0].field
    )


def _common_integer_form(mats: Sequence[Matrix]) -> tuple[int, list[int], list[int]]:
    """(d, re, im) of the entries of ``mats`` in sequence over their common
    denominator d, as ``scalars.integer_form`` gives it: im is empty when
    every entry is real."""
    d = lcm(*[m._d for m in mats])
    cplx = any(m._im for m in mats)
    re: list[int] = []
    im: list[int] = []
    for m in mats:
        s = d // m._d
        re += [x * s for x in m._re]
        if cplx:
            im += [y * s for y in m._im] if m._im else [0] * len(m._re)
    return d, re, im


def _integer_row(row: dict[int, GaussianRational]) -> IntRow:
    """A row of GaussianRationals times the lcm of its denominators."""
    den = lcm(*{f.denominator for v in row.values() for f in (v.re, v.im)})
    return (
        {c: v.re.numerator * (den // v.re.denominator) for c, v in row.items() if v.re},
        {c: v.im.numerator * (den // v.im.denominator) for c, v in row.items() if v.im},
    )


def _row_order(row: IntRow) -> tuple:
    cols = sorted(row[0].keys() | row[1].keys())
    return len(cols), cols


def _integer_gauss_jordan(rows: Iterable[IntRow]) -> dict[int, list]:
    """The pivot rows of the reduced row echelon form of a sparse system of
    Gaussian-integer rows, as {pivot column: [P, re, im]}.

    Each row is a pair (re, im) of sparse {column: int} dicts of its nonzero
    real and imaginary parts (they are consumed), so a real system never
    touches an imaginary part. Rows are taken smallest first, and each is
    reduced against the pivot rows so far, pivots on its leftmost column and
    is then eliminated from the earlier pivot rows. Each pivot row thus ends
    0 at every other pivot column and 0 left of its pivot: [P, re, im] is P
    times the row of the unique RREF of the row space, with its pivot column
    left out, P a positive integer and the parts coprime. So pivots, kernels
    and solutions do not depend on the order rows arrive in, or on how each
    row is scaled.

    The elimination is fraction-free over Z[i]. A new pivot row is
    multiplied by the conjugate of its pivot (by its sign, when the pivot is
    real), which makes the pivot a positive integer P, and the gcd of P and
    all integer parts is divided out. A hit z at a pivot column c is cleared
    by cross multiplication, row <- P row - z prow.
    """
    pivot_rows: dict[int, list] = {}
    pending = [r for r in rows if r[0] or r[1]]
    pending.sort(key=_row_order)
    for re, im in pending:
        # pivot rows are mutually reduced, so one sweep clears every hit
        hits = {c: pivot_rows[c] for c in chain(re, im) if c in pivot_rows}
        _, re, im = _eliminate(re, im, hits)
        if not re and not im:
            continue
        p = min(re.keys() | im.keys())
        nrow = _pivot_row(re, im, p)
        for prow in pivot_rows.values():
            big_p, pre, pim = prow
            if p in pre or p in pim:
                s, pre, pim = _eliminate(pre, pim, {p: nrow})
                prow[:] = [s * big_p, pre, pim]
                _make_primitive(prow)
        pivot_rows[p] = nrow
    return pivot_rows


def _pivot_row(re: dict[int, int], im: dict[int, int], p: int) -> list:
    """[P, re, im] for the row re + i*im with pivot column p: the row times
    the conjugate (or, for a real pivot, the sign) of its pivot, made
    primitive, with column p left out."""
    a, b = re.pop(p, 0), im.pop(p, 0)
    if b:
        # (u + iv)(a - ib) = (au + bv) + i(av - bu)
        nre = {c: a * u for c, u in re.items()} if a else {}
        nim = {c: a * v for c, v in im.items()} if a else {}
        _subtract(nre, -b, im)
        _subtract(nim, b, re)
        row = [a * a + b * b, nre, nim]
    elif a < 0:
        row = [-a, {c: -u for c, u in re.items()}, {c: -v for c, v in im.items()}]
    else:
        row = [a, re, im]
    _make_primitive(row)
    return row


def _make_primitive(row: list) -> None:
    """Divide a pivot row [P, re, im] by the gcd of P and all its parts."""
    big_p, re, im = row
    g = gcd(big_p, *re.values(), *im.values())
    if g != 1:
        row[:] = [big_p // g, {c: u // g for c, u in re.items()}, {c: v // g for c, v in im.items()}]


def _eliminate(re: dict[int, int], im: dict[int, int], hits: dict[int, list]) -> tuple[int, dict, dict]:
    """(L, re', im') with re' + i*im' = L (re + i*im) - sum_c (L z_c / P_c) prow_c,
    where hits maps each hit column c to its pivot row prow_c = [P_c, pre, pim]
    and z_c is the row's entry there (popped from re and im): the hits
    cleared by cross multiplication, with L the least common scale."""
    terms = []
    scale = 1
    for c, (big_p, pre, pim) in hits.items():
        x, y = re.pop(c, 0), im.pop(c, 0)
        g = gcd(big_p, x, y)
        terms.append((big_p // g, x // g, y // g, pre, pim))
        scale = lcm(scale, big_p // g)
    if scale != 1:
        re = {c: scale * u for c, u in re.items()}
        im = {c: scale * v for c, v in im.items()}
    for big_p, x, y, pre, pim in terms:
        # (x + iy)(u + iv) = (xu - yv) + i(xv + yu), times scale / big_p
        k = scale // big_p
        if x:
            _subtract(re, k * x, pre)
            _subtract(im, k * x, pim)
        if y:
            _subtract(re, -k * y, pim)
            _subtract(im, k * y, pre)
    return scale, re, im


def _subtract(dst: dict[int, int], k: int, src: dict[int, int]) -> None:
    """dst -= k * src over sparse integer dicts, dropping zeros."""
    get = dst.get
    for c, u in src.items():
        v = get(c, 0) - k * u
        if v:
            dst[c] = v
        else:
            del dst[c]


def _integer_kernel(pivot_rows: dict[int, list], ncols: int) -> list[tuple[int, dict]]:
    """The kernel basis of a system from its pivot rows (as
    :func:`_integer_gauss_jordan` returns them), one vector per free column
    f in increasing f: 1 at f, 0 at every other free column, and minus the
    reduced rows' column f at the pivots. Each vector is (d, {column: (x, y)})
    for the entries (x + i*y) / d, zeros left out, f first and then the
    pivots in the order of ``pivot_rows``."""
    basis = []
    for f in range(ncols):
        if f in pivot_rows:
            continue
        # pivot row c is [P, re, im], P times the reduced row
        hits = [
            (c, big_p, re.get(f, 0), im.get(f, 0))
            for c, (big_p, re, im) in pivot_rows.items()
            if f in re or f in im
        ]
        d = lcm(*[big_p for _, big_p, _, _ in hits])
        vec = {f: (d, 0)}
        for c, big_p, x, y in hits:
            vec[c] = (-x * (d // big_p), -y * (d // big_p))
        basis.append((d, vec))
    return basis


def kernel_of_sparse_rows(
    rows: Iterable[dict[int, GaussianRational]], ncols: int
) -> list[dict[int, GaussianRational]]:
    """Kernel basis of a sparse row system; rows are {column: coefficient}.

    The vectors of :meth:`Matrix.kernel_basis`, as {column: entry} dicts
    without zero entries.
    """
    pivot_rows = _integer_gauss_jordan(map(_integer_row, rows))
    return [
        {c: _box(x, y, d) for c, (x, y) in vec.items()} for d, vec in _integer_kernel(pivot_rows, ncols)
    ]


# -- inertia ---------------------------------------------------------------------


def _hermitian_inertia(n: int, re: list[int], im: list[int]) -> tuple[int, int, int]:
    """(v_minus, v_zero, v_plus) of the n x n Hermitian Gaussian-integer
    matrix A = re + i*im, row-major; im may be empty for a real A.

    Hermitian congruence reduction over Z[i]; inertia is a congruence
    invariant (Sylvester's law), and every step keeps it. A nonzero diagonal
    pivot p is counted by its sign, and the rest C of the matrix is replaced
    by |p| C - sgn(p) b b* for the pivot column b, a positive multiple of the
    Schur complement, which is then divided by the gcd of all its integer
    parts: the entries stay the primitive part of the minors of A (Bareiss).
    When the whole diagonal vanishes but some a_ij does not, the unimodular
    congruence row_i += c row_j, col_i += conj(c) col_j makes a_ii = 2 Re a_ij
    for c = 1 and a_ii = 2 Im a_ij for c = i, so c = 1 unless Re a_ij = 0.
    The zero matrix that is left over has size v_zero.
    """
    ar = [re[i * n : (i + 1) * n] for i in range(n)]
    ai = [im[i * n : (i + 1) * n] for i in range(n)] if im else None
    neg = pos = 0
    while ar:
        m = len(ar)
        k = next((i for i in range(m) if ar[i][i]), None)
        if k is None:
            hit = next(
                ((i, j) for i in range(m) for j in range(i + 1, m) if ar[i][j] or (ai and ai[i][j])),
                None,
            )
            if hit is None:
                return neg, m, pos
            k, j = hit
            u, v = (1, 0) if ar[k][j] else (0, 1)
            _add_line(ar, ai, k, j, u, v)
        p = ar[k][k]
        if p < 0:
            neg += 1
        else:
            pos += 1
        ap, s = abs(p), (1 if p > 0 else -1)
        rk = ar.pop(k)
        del rk[k]
        if ai is None:
            for row in ar:
                x = s * row.pop(k)
                row[:] = [ap * a - x * b for a, b in zip(row, rk)] if x else [ap * a for a in row]
            g = gcd(*[a for row in ar for a in row])
            if g > 1:
                ar = [[a // g for a in row] for row in ar]
            continue
        ik = ai.pop(k)
        del ik[k]
        for row_r, row_i in zip(ar, ai):
            # a_rc <- |p| a_rc - sgn(p) a_rk a_kc, with a_rk = x + iy, a_kc = u + iv
            x, y = s * row_r.pop(k), s * row_i.pop(k)
            if x or y:
                row_r[:] = [ap * a - x * u + y * v for a, u, v in zip(row_r, rk, ik)]
                row_i[:] = [ap * b - x * v - y * u for b, u, v in zip(row_i, rk, ik)]
            else:
                row_r[:] = [ap * a for a in row_r]
                row_i[:] = [ap * b for b in row_i]
        g = gcd(*[a for row in ar for a in row], *[b for row in ai for b in row])
        if g > 1:
            ar = [[a // g for a in row] for row in ar]
            ai = [[b // g for b in row] for row in ai]
    return neg, 0, pos


def _add_line(ar: list[list[int]], ai: list[list[int]] | None, k: int, j: int, u: int, v: int) -> None:
    """The congruence row_k += c row_j, col_k += conj(c) col_j, c = u + iv, in place."""
    if ai is None:
        ar[k] = [a + u * b for a, b in zip(ar[k], ar[j])]
        for row in ar:
            row[k] += u * row[j]
        return
    # c (x + iy) = (ux - vy) + i(uy + vx), conj(c) (x + iy) = (ux + vy) + i(uy - vx)
    ar[k], ai[k] = (
        [u * x - v * y + a for a, x, y in zip(ar[k], ar[j], ai[j])],
        [u * y + v * x + b for b, x, y in zip(ai[k], ar[j], ai[j])],
    )
    for row_r, row_i in zip(ar, ai):
        x, y = row_r[j], row_i[j]
        row_r[k] += u * x + v * y
        row_i[k] += u * y - v * x


# -- characteristic polynomials ------------------------------------------------


def _samuelson_berkowitz(n: int, are: list[int], aim: list[int]) -> tuple[list[int], list[int]]:
    """(re, im) with det(tI - A) = sum_k (re[k] + i*im[k]) t^k for the n x n
    Gaussian-integer matrix A = are + i*aim, row-major; aim may be empty for
    a real A, and im is empty when every coefficient is real.

    Samuelson-Berkowitz recurrence, with no division: for the leading blocks
    A_k, det(tI - A_(k+1)) is the (k+2) x (k+1) lower triangular Toeplitz
    matrix with first column
    (1, -a, -R C, -R A_k C, ..., -R A_k^(k-1) C) times the descending
    coefficients of det(tI - A_k), where a = A[k][k], R is row k and C is
    column k of A left of and above the diagonal. The products A_k^j C run on
    the sparse rows of A_k and stop once R or A_k^j C is zero.
    """
    aim = aim or [0] * (n * n)
    # lead[i]: the nonzero (column, re, im) of row i left of column k
    lead: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    pr, pi = [1], [0]  # det(tI - A_k), descending
    for k in range(n):
        row = lead[k]
        v = [(are[i * n + k], aim[i * n + k]) for i in range(k)]
        toeplitz = [(1, 0), (-are[k * n + k], -aim[k * n + k])]
        for j in range(k if row else 0):
            if j:
                v = [_sparse_dot(r, v) for r in lead[:k]]
            if not any(map(any, v)):
                break
            sr, si = _sparse_dot(row, v)
            toeplitz.append((-sr, -si))
        nr, ni = [0] * (k + 2), [0] * (k + 2)
        for s, (x, y) in enumerate(toeplitz):
            if x or y:
                for j in range(min(k + 1, k + 2 - s)):
                    u, w = pr[j], pi[j]
                    nr[s + j] += x * u - y * w
                    ni[s + j] += x * w + y * u
        pr, pi = nr, ni
        for i in range(n):
            x, y = are[i * n + k], aim[i * n + k]
            if x or y:
                lead[i].append((k, x, y))
    pr.reverse()
    pi.reverse()
    return pr, pi if any(pi) else []


def _sparse_dot(row: list[tuple[int, int, int]], v: list[tuple[int, int]]) -> tuple[int, int]:
    """The Z[i] dot product of a sparse row of (column, re, im) with v."""
    sr = si = 0
    for c, x, y in row:
        u, w = v[c]
        sr += x * u - y * w
        si += x * w + y * u
    return sr, si


def char_poly(m: Matrix) -> Polynomial:
    """Exact characteristic polynomial det(tI - M), monic.

    Coefficient k is coefficient k of det(tI - d M), the Gaussian-integer
    matrix of :func:`_samuelson_berkowitz` for the common denominator d of
    M, divided by d^(n-k): the polynomial's integer form is that coefficient
    times d^k over d^n, made canonical by one gcd pass.
    """
    if not m.is_square:
        raise DimensionMismatch("characteristic polynomial of a non-square matrix")
    n, d = m.rows, m._d
    re, im = _samuelson_berkowitz(n, m._re, m._im)
    powers = [d**k for k in range(n + 1)]
    return Polynomial._from_ints(powers[n], [x * q for x, q in zip(re, powers)], [y * q for y, q in zip(im, powers)])





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
