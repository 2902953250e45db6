import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krein.exceptions import DimensionMismatch, FieldMismatch, SingularMatrix
from krein.matrices import (
    COMPLEX,
    REAL,
    Matrix,
    _box,
    _integer_gauss_jordan,
    _integer_row,
    char_poly,
    hstack,
    kernel_of_sparse_rows,
    vstack,
)
from krein.polynomials import Polynomial
from krein.scalars import ONE, ZERO, GaussianRational
from krein.witnesses import chain_witness
from test_polynomials import T, sym, sympy_poly


def faddeev_leverrier(m):
    """Characteristic polynomial by the Faddeev-LeVerrier iteration: an
    O(n^4) oracle for char_poly and det, independent of the elimination."""
    n = m.rows
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    mk = Matrix.identity(n, m.field)
    for k in range(1, n + 1):
        mk = m @ mk
        c = -(mk.trace() / k)
        coeffs[n - k] = c
        if k < n:
            mk = mk + Matrix.identity(n, m.field) * c
    return Polynomial(coeffs)


def rand_rational(rng, lim=4):
    return Fraction(rng.randint(-lim, lim), rng.randint(1, lim))


def rand_matrix(rng, n, m=None, field=REAL, lim=4):
    m = n if m is None else m
    if field == REAL:
        ents = [rand_rational(rng, lim) for _ in range(n * m)]
    else:
        ents = [
            GaussianRational(rand_rational(rng, lim), rand_rational(rng, lim))
            for _ in range(n * m)
        ]
    return Matrix(n, m, ents, field)


def rand_nonsingular(rng, n, field=REAL):
    while True:
        m = rand_matrix(rng, n, field=field)
        if m.det():
            return m


# --- multiplication -----------------------------------------------------------


def test_identity_is_neutral():
    rng = random.Random(1)
    x = rand_matrix(rng, 2)
    assert Matrix.identity(2, REAL) @ x == x
    assert x @ Matrix.identity(2, REAL) == x


def test_trailing_identity_squares_to_identity():
    d2 = Matrix.trailing_identity(2, REAL)
    assert d2 @ d2 == Matrix.identity(2, REAL)


def test_even_seed_product_by_hand():
    # entries recomputed longhand as sum-of-products of Fractions
    a_rows = [[Fraction(1, 2), Fraction(1)], [Fraction(-1), Fraction(0)]]
    b_rows = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(1, 2)]]
    expected = [
        [
            a_rows[i][0] * b_rows[0][j] + a_rows[i][1] * b_rows[1][j]
            for j in range(2)
        ]
        for i in range(2)
    ]
    assert expected == [[Fraction(-1), Fraction(1)], [Fraction(0), Fraction(-1)]]
    a = Matrix.from_rows(a_rows, REAL)
    b = Matrix.from_rows(b_rows, REAL)
    assert a @ b == Matrix.from_rows(expected, REAL)


def test_complex_product_by_hand():
    # (1+i)(2-i) + (i/2)(3i) = 3 + i - 3/2 and (1+i)(-1/3) + (i/2)(2) = -1/3 + 2i/3
    a = Matrix.from_rows([[GaussianRational(1, 1), GaussianRational(0, Fraction(1, 2))]], COMPLEX)
    b = Matrix.from_rows(
        [[GaussianRational(2, -1), Fraction(-1, 3)], [GaussianRational(0, 3), 2]], COMPLEX
    )
    expected = [GaussianRational(Fraction(3, 2), 1), GaussianRational(Fraction(-1, 3), Fraction(2, 3))]
    assert (a @ b).entries == tuple(expected)


def test_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        Matrix.zeros(2, 3, REAL) @ Matrix.zeros(2, 2, REAL)


def test_real_field_gate_rejects_complex_entries():
    with pytest.raises(FieldMismatch):
        Matrix.from_rows([[GaussianRational(0, 1)]], REAL)
    with pytest.raises(FieldMismatch):
        Matrix.identity(2, REAL) @ Matrix.identity(2, COMPLEX)


def _reference_product(a, b):
    """Entries of a @ b by the textbook triple loop over GaussianRational."""
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = GaussianRational(0)
            for k in range(a.cols):
                acc = acc + a[i, k] * b[k, j]
            out.append(acc)
    return tuple(out)


def _wide_rationals():
    """Small and mixed denominators, zeros, and very large or very fine entries."""
    return st.one_of(
        st.just(Fraction(0)),
        _rationals(),
        st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
        st.sampled_from(
            [Fraction(10**400), Fraction(-(10**400), 3), Fraction(1, 1000003), Fraction(-7, 10**400)]
        ),
    )


@st.composite
def _product_operands(draw):
    """(A, B) with A n x m and B m x p, each dimension 0 to 4, over one field tag.

    An operand is dense, zero or (when square) the identity; a complex-tagged
    dense operand may have only real entries.
    """
    n, m, p = (draw(st.integers(0, 4)) for _ in range(3))
    field = draw(st.sampled_from([REAL, COMPLEX]))

    def operand(rows, cols):
        kinds = ["dense"] * 4 + ["zero"] + (["identity"] if rows == cols else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            return Matrix.zeros(rows, cols, field)
        if kind == "identity":
            return Matrix.identity(rows, field)
        if field == REAL or draw(st.integers(0, 3)) == 0:
            entry = _wide_rationals().map(GaussianRational)
        else:
            entry = st.builds(GaussianRational, _wide_rationals(), _wide_rationals())
        ents = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
        return Matrix(rows, cols, ents, field)

    return operand(n, m), operand(m, p)


@settings(max_examples=200, deadline=None)
@given(_product_operands())
def test_product_matches_the_reference_triple_loop(operands):
    a, b = operands
    c = a @ b
    assert (c.rows, c.cols, c.field) == (a.rows, b.cols, a.field)
    assert c.entries == _reference_product(a, b)
    assert a * b == c
    if a.field == REAL:
        assert c.field == REAL and all(not e.im for e in c.entries)


def test_product_errors_are_unchanged():
    with pytest.raises(FieldMismatch, match="field tags differ: real vs complex"):
        Matrix.zeros(2, 3, REAL) @ Matrix.zeros(2, 2, COMPLEX)
    with pytest.raises(FieldMismatch, match="field tags differ: complex vs real"):
        Matrix.identity(2, COMPLEX) * Matrix.identity(2, REAL)
    with pytest.raises(DimensionMismatch, match="cannot multiply 2x3 by 2x2"):
        Matrix.zeros(2, 3, COMPLEX) @ Matrix.zeros(2, 2, COMPLEX)
    with pytest.raises(DimensionMismatch, match="cannot multiply 0x1 by 0x1"):
        Matrix.zeros(0, 1, REAL) * Matrix.zeros(0, 1, REAL)


# --- elementwise operations -----------------------------------------------------------


@st.composite
def _elementwise_operands(draw):
    """(A, B, c): two n x m operands over one field tag, each dense, sparse,
    zero or (when square) the identity, and a real, nonreal or zero scalar c."""
    n, m = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    field = draw(st.sampled_from([REAL, COMPLEX]))
    if field == REAL:
        entry = _wide_rationals().map(GaussianRational)
    else:
        entry = st.builds(GaussianRational, _wide_rationals(), _wide_rationals())

    def operand():
        kinds = ["dense", "sparse", "zero"] + (["identity"] if n == m else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            return Matrix.zeros(n, m, field)
        if kind == "identity":
            return Matrix.identity(n, field)
        if kind == "sparse":
            entry_or_zero = st.one_of(st.just(ZERO), st.just(ZERO), entry)
            return Matrix(n, m, draw(st.lists(entry_or_zero, min_size=n * m, max_size=n * m)), field)
        return Matrix(n, m, draw(st.lists(entry, min_size=n * m, max_size=n * m)), field)

    scalar = draw(st.one_of(
        st.just(ZERO),
        _wide_rationals().map(GaussianRational),
        st.builds(GaussianRational, _wide_rationals(), _wide_rationals().filter(bool)),
    ))
    return operand(), operand(), scalar


@settings(max_examples=200, deadline=None)
@given(_elementwise_operands())
def test_elementwise_operations_match_the_scalar_reference(operands):
    a, b, c = operands
    pairs = list(zip(a.entries, b.entries))
    assert (a + b).entries == tuple(x + y for x, y in pairs)
    assert (a - b).entries == tuple(x - y for x, y in pairs)
    assert (-a).entries == tuple(-x for x in a.entries)
    assert (a * c).entries == tuple(c * x for x in a.entries)
    assert (a + b).field == (a - b).field == a.field
    assert (a * c).field == (COMPLEX if c.im else a.field)
    assert (a * c) == (c * a)


def test_real_matrix_times_a_nonreal_scalar_is_complex():
    m = Matrix.from_rows([[1, 0], [0, Fraction(1, 2)]], REAL)
    out = m * GaussianRational(0, 2)
    assert out.field == COMPLEX
    assert out.entries == (GaussianRational(0, 2), ZERO, ZERO, GaussianRational(0, 1))
    assert (m * Fraction(3)).field == REAL


def test_elementwise_errors_are_unchanged():
    # the field tags are compared before the shapes
    with pytest.raises(FieldMismatch, match="field tags differ: real vs complex"):
        Matrix.zeros(2, 3, REAL) - Matrix.zeros(2, 2, COMPLEX)
    with pytest.raises(FieldMismatch, match="field tags differ: complex vs real"):
        Matrix.zeros(2, 2, COMPLEX) + Matrix.zeros(2, 2, REAL)
    with pytest.raises(DimensionMismatch, match="shape mismatch in addition"):
        Matrix.zeros(2, 3, REAL) - Matrix.zeros(3, 2, REAL)
    with pytest.raises(DimensionMismatch, match="shape mismatch in addition"):
        Matrix.zeros(2, 3, COMPLEX) + Matrix.zeros(2, 2, COMPLEX)


# --- conjugate transpose --------------------------------------------------------


def test_conj_transpose_fixes_real_symmetric():
    s = Matrix.from_rows([[1, 2], [2, 5]], REAL)
    assert s.conj_transpose() == s


def test_conj_transpose_conjugates():
    i = GaussianRational(0, 1)
    m = Matrix.from_rows([[i, 0], [0, 0]], COMPLEX)
    assert m.conj_transpose() == Matrix.from_rows([[-i, 0], [0, 0]], COMPLEX)


def test_conj_transpose_antihomomorphism():
    rng = random.Random(2)
    for _ in range(25):
        a = rand_matrix(rng, 3, field=COMPLEX)
        b = rand_matrix(rng, 3, field=COMPLEX)
        assert (a @ b).conj_transpose() == b.conj_transpose() @ a.conj_transpose()
        assert a.conj_transpose().conj_transpose() == a


# --- inverse ----------------------------------------------------------------


def test_inverse_identity():
    for k in (1, 3):
        assert Matrix.identity(k, REAL).inverse() == Matrix.identity(k, REAL)


def test_inverse_diagonal():
    d = Matrix.diagonal([2, Fraction(1, 3)], REAL)
    assert d.inverse() == Matrix.diagonal([Fraction(1, 2), 3], REAL)


def test_inverse_of_odd_chain_witness_self_check():
    w = chain_witness(3)
    assert w == Matrix.from_rows([[0, 0, -1], [-1, 1, 0], [-1, 0, 0]], REAL)
    assert w @ w.inverse() == Matrix.identity(3, REAL)


def test_inverse_random_round_trip():
    rng = random.Random(3)
    for n in (2, 3, 4, 5, 6):
        m = rand_nonsingular(rng, n)
        assert m @ m.inverse() == Matrix.identity(n, REAL)


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrix):
        Matrix.zeros(2, 2, REAL).inverse()


# --- kernels ---------------------------------------------------------------


def test_kernel_of_identity_is_empty():
    assert Matrix.identity(4, REAL).kernel_basis() == []


def test_kernel_of_zero_matrix_is_everything():
    basis = Matrix.zeros(2, 2, REAL).kernel_basis()
    assert len(basis) == 2


def test_kernel_of_nilpotent_jordan_block():
    j = Matrix.from_rows([[0, 1], [0, 0]], REAL)
    basis = j.kernel_basis()
    assert len(basis) == 1
    v = basis[0]
    assert v[0, 0] and not v[1, 0]  # span{e1}


def test_kernel_vectors_annihilate_and_count():
    rng = random.Random(4)
    for _ in range(20):
        m = rand_matrix(rng, rng.randint(2, 5), rng.randint(2, 5))
        basis = m.kernel_basis()
        assert len(basis) == m.cols - m.rank()
        for v in basis:
            assert (m @ v).is_zero


def _zero_root_multiplicity(p: Polynomial) -> int:
    return next(i for i, c in enumerate(p.coeffs) if c)


def test_sparse_kernel_has_the_nullity_of_the_gram_matrix():
    # nullity(A) = nullity(A* A), the multiplicity of the eigenvalue 0 of the
    # Hermitian matrix A* A: read off char_poly, which eliminates nothing
    rng = random.Random(5)
    for trial in range(30):
        field = REAL if trial % 2 else COMPLEX
        n, m, r = rng.randint(2, 5), rng.randint(2, 6), rng.randint(0, 2)
        if trial % 3:
            a = rand_matrix(rng, n, m, field)
        elif r:
            a = rand_matrix(rng, n, r, field) @ rand_matrix(rng, r, m, field)
        else:
            a = Matrix.zeros(n, m, field)
        rows = [{j: a[i, j] for j in range(m) if a[i, j]} for i in range(n)]
        sparse = kernel_of_sparse_rows(rows, m)
        assert len(sparse) == _zero_root_multiplicity(char_poly(a.conj_transpose() @ a))
        for vec in sparse:
            v = Matrix.column([vec.get(j, 0) for j in range(m)], field)
            assert (a @ v).is_zero


def _rationals():
    return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def _low_rank_matrices(draw):
    """A = B C with B n x r and C r x m, so rank(A) <= r; r = min(n, m) is allowed."""
    field = draw(st.sampled_from([REAL, COMPLEX]))
    if field == REAL:
        entry = _rationals().map(GaussianRational)
    else:
        entry = st.builds(GaussianRational, _rationals(), _rationals())
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    r = draw(st.integers(0, min(n, m)))

    def mat(rows, cols):
        ents = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
        return Matrix(rows, cols, ents, field)

    a = mat(n, r) @ mat(r, m) if r else Matrix.zeros(n, m, field)
    return a, r, mat(m, 1)


@settings(max_examples=80, deadline=None)
@given(_low_rank_matrices())
def test_elimination_properties(case):
    a, r, x = case
    basis = a.kernel_basis()
    rank = a.rank()
    assert rank <= r
    assert rank + len(basis) == a.cols
    # each kernel vector ends at its free column, where it is 1, and is 0
    # at every other free column
    frees = [max(i for i in range(a.cols) if v[i, 0]) for v in basis]
    for v, f in zip(basis, frees):
        assert (a @ v).is_zero
        assert [v[g, 0] for g in frees] == [1 if g == f else 0 for g in frees]
    if a.is_square:
        n = a.rows
        det = a.det()
        assert det == faddeev_leverrier(a).coeffs[0] * (-1) ** n
        if det:
            assert a.inverse() @ a == Matrix.identity(n, a.field)
        else:
            with pytest.raises(SingularMatrix):
                a.inverse()
    b = a @ x
    assert a @ a.solve_right(b) == b
    if rank < a.rows:
        # y != 0 with A* y = 0 is orthogonal to the column space of A
        y = a.conj_transpose().kernel_basis()[0]
        assert (a.conj_transpose() @ y).is_zero and not y.is_zero
        with pytest.raises(SingularMatrix):
            a.solve_right(b + y)


# --- the fraction-free Gauss-Jordan core against sympy ------------------------------


def _gauss_jordan_parts():
    return st.one_of(
        _rationals(),
        st.sampled_from([Fraction(-3), Fraction(10**40), Fraction(-(10**40), 7), Fraction(1, 1000003)]),
    )


@st.composite
def _sparse_systems(draw):
    """(rows, ncols, order): up to 7 dense rows over 1 to 6 columns, real or
    Gaussian, often with zero entries, a zero row and a duplicate row, plus a
    shuffled order of the rows."""
    ncols = draw(st.integers(1, 6))
    if draw(st.booleans()):
        entry = _gauss_jordan_parts().map(GaussianRational)
    else:
        entry = st.one_of(
            st.builds(GaussianRational, _gauss_jordan_parts(), _gauss_jordan_parts()),
            st.builds(GaussianRational, st.just(0), _gauss_jordan_parts()),
            st.sampled_from([GaussianRational(1, 1), GaussianRational(0, 2), GaussianRational(-3)]),
        )
    entry = st.one_of(st.just(ZERO), entry)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=5))
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.append([ZERO] * ncols)
    return rows, ncols, draw(st.permutations(range(len(rows))))


def _sympy_rref(rows, ncols):
    """{pivot: row} of the RREF that sympy computes over Q(i)."""

    def to_sympy(q):
        return sympy.Rational(q.numerator, q.denominator)

    def to_fraction(x):
        return Fraction(int(x.p), int(x.q))

    m = sympy.Matrix(len(rows), ncols, [to_sympy(e.re) + sympy.I * to_sympy(e.im) for row in rows for e in row])
    r, pivots = m.rref()
    return {
        p: {j: GaussianRational(to_fraction(sympy.re(r[k, j])), to_fraction(sympy.im(r[k, j])))
            for j in range(ncols) if r[k, j] != 0}
        for k, p in enumerate(pivots)
    }


def _gauss_jordan(rows):
    """Reduced row echelon form of a sparse row system, as {pivot column: row}:
    the integer pivot rows of the elimination core, each divided by its pivot,
    1 at each pivot."""
    out = {}
    for p, (big_p, re, im) in _integer_gauss_jordan(map(_integer_row, rows)).items():
        orow = {p: ONE}
        for c in sorted(re.keys() | im.keys()):
            orow[c] = _box(re.get(c, 0), im.get(c, 0), big_p)
        out[p] = orow
    return out


@settings(max_examples=150, deadline=None)
@given(_sparse_systems())
@example(([[GaussianRational(1, 1), GaussianRational(0, 2)], [GaussianRational(0, 2), GaussianRational(-3)]], 2, [1, 0]))
@example(([[GaussianRational(0, 2), ONE, GaussianRational(Fraction(1, 1000003))],
           [GaussianRational(-3), GaussianRational(10**40), ZERO]], 3, [0, 1]))
def test_gauss_jordan_matches_the_sympy_rref(case):
    rows, ncols, order = case
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    reduced = _gauss_jordan(sparse)
    assert reduced == _sympy_rref(rows, ncols)
    assert all(reduced[p][p] == ONE for p in reduced)
    assert _gauss_jordan([sparse[i] for i in order]) == reduced


# Golden elimination results on fixed matrices.


def test_kernel_basis_golden():
    half, third = Fraction(1, 2), Fraction(1, 3)
    a = Matrix.from_rows([[1, 2, 3, 4], [half, 1, 3 * half, 2], [0, 1, -1, third]], REAL)
    assert a.kernel_basis() == [
        Matrix.column([-5, 1, 1, 0], REAL),
        Matrix.column([-10 * third, -third, 0, 1], REAL),
    ]
    g = GaussianRational
    i = g(0, 1)
    c = Matrix.from_rows([[1, i, 2], [i, -1, 2 * i], [g(1, 1), g(-1, 1), g(2, 2)]], COMPLEX)
    assert c.kernel_basis() == [
        Matrix.column([-i, 1, 0], COMPLEX),
        Matrix.column([-2, 0, 1], COMPLEX),
    ]


def test_inverse_golden():
    g, f = GaussianRational, Fraction
    i = g(0, 1)
    m = Matrix.from_rows([[2, i, 0], [g(1, -1), f(1, 2), 3], [0, -i, g(1, 2)]], COMPLEX)
    assert m.inverse() == Matrix.from_rows(
        [
            [g(f(21, 29), f(11, 58)), g(f(-1, 29), f(-12, 29)), g(f(15, 29), f(6, 29))],
            [g(f(-11, 29), f(13, 29)), g(f(24, 29), f(-2, 29)), g(f(-12, 29), f(30, 29))],
            [g(f(-7, 29), f(3, 29)), g(f(10, 29), f(4, 29)), g(f(-5, 29), f(-2, 29))],
        ],
        COMPLEX,
    )
    assert m.det() == GaussianRational(2, 5)


def test_solve_right_golden():
    a = Matrix.from_rows([[1, 2, 0], [0, 1, Fraction(1, 3)]], REAL)
    rhs = Matrix.from_rows([[1, 0], [Fraction(2, 5), -1]], REAL)
    expected = Matrix.from_rows([[Fraction(1, 5), 2], [Fraction(2, 5), -1], [0, 0]], REAL)
    assert a.solve_right(rhs) == expected  # free variable x3 set to 0


# --- characteristic polynomials -----------------------------------------------


def test_char_poly_swap():
    m = Matrix.from_rows([[0, 1], [1, 0]], REAL)
    assert char_poly(m) == sympy_poly(T**2 - 1)


def test_char_poly_jordan():
    lam = GaussianRational(Fraction(2), Fraction(1))
    j = Matrix.from_rows([[lam, 1], [0, lam]], COMPLEX)
    assert char_poly(j) == sympy_poly((T - sym(lam)) ** 2)


def test_char_poly_rotation_block():
    # det(tI - [[a, b], [-b, a]]) = t^2 - 2at + (a^2 + b^2), roots a +- ib
    a, b = Fraction(1), Fraction(2)
    m = Matrix.from_rows([[a, b], [-b, a]], REAL)
    expected = sympy_poly((T - sym(a)) ** 2 + sym(b) ** 2)
    assert char_poly(m) == expected
    assert expected.evaluate(GaussianRational(a, b)) == 0
    assert expected.evaluate(GaussianRational(a, -b)) == 0


def test_char_poly_matches_faddeev_leverrier():
    rng = random.Random(6)
    for n in (1, 2, 3, 4, 5):
        for field in (REAL, COMPLEX):
            m = rand_matrix(rng, n, field=field, lim=3)
            assert char_poly(m) == faddeev_leverrier(m)


_PATTERNS = ("dense", "sparse", "block upper", "block lower", "strictly upper", "strictly lower", "zero lines")


@st.composite
def _patterned_matrices(draw):
    """An n x n matrix, n from 0 to 8, with mixed denominators and a zero pattern.

    Block- and strictly triangular patterns and zero rows or columns make the
    recurrence meet a zero row R or a zero vector A^j C, and stop early; in a
    sparse matrix R A^j C can vanish while a later R A^(j+1) C does not.
    """
    n = draw(st.integers(0, 8))
    field = draw(st.sampled_from([REAL, COMPLEX]))
    pattern = draw(st.sampled_from(_PATTERNS))
    part = st.one_of(_rationals(), st.builds(Fraction, st.integers(-50, 50), st.integers(1, 10**6)))
    entry = part.map(GaussianRational) if field == REAL else st.builds(GaussianRational, part, part)
    split = draw(st.integers(0, n))
    lines = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))
    zero = {
        "dense": lambda i, j: False,
        "sparse": lambda i, j: draw(st.integers(0, 2)) > 0,
        "block upper": lambda i, j: i >= split > j,
        "block lower": lambda i, j: j >= split > i,
        "strictly upper": lambda i, j: i >= j,
        "strictly lower": lambda i, j: i <= j,
        "zero lines": lambda i, j: i in lines or j in lines,
    }[pattern]
    ents = [ZERO if zero(i, j) else draw(entry) for i in range(n) for j in range(n)]
    return Matrix(n, n, ents, field)


@settings(max_examples=200, deadline=None)
@given(_patterned_matrices())
# R C = 0 but R A C = 1 at the last step: the recurrence must not stop there
@example(Matrix.from_rows([[0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0], [1, 0, 0, 0]], REAL))
def test_char_poly_matches_faddeev_leverrier_on_sparse_patterns(m):
    assert char_poly(m) == faddeev_leverrier(m)


def _apply_poly(p, m):
    """p(m) by Horner's rule."""
    acc = Matrix.zeros(m.rows, m.rows, m.field)
    for c in reversed(p.coeffs):
        acc = acc @ m + Matrix.identity(m.rows, m.field) * c
    return acc


def test_cayley_hamilton():
    rng = random.Random(7)
    for n in (2, 3, 4, 5):
        m = rand_matrix(rng, n, field=COMPLEX, lim=3)
        assert _apply_poly(char_poly(m), m).is_zero


# --- assorted helpers -----------------------------------------------------------


def test_hstack_and_submatrix():
    a = Matrix.from_rows([[1, 2], [3, 4]], REAL)
    b = Matrix.from_rows([[5], [6]], REAL)
    h = hstack([a, b])
    assert h.cols == 3 and h[0, 2] == 5
    assert h.submatrix(0, 2, 0, 2) == a


def test_vstack_and_real_imag_parts():
    a = Matrix.from_rows([[1, GaussianRational(2, 3)]], COMPLEX)
    b = Matrix.from_rows([[GaussianRational(0, -1), Fraction(1, 2)]], COMPLEX)
    v = vstack([a, b])
    assert (v.rows, v.cols, v.field) == (2, 2, COMPLEX)
    assert v.submatrix(1, 2, 0, 2) == b
    assert v.real_part() == Matrix.from_rows([[1, 2], [0, Fraction(1, 2)]], REAL)
    assert v.imag_part() == Matrix.from_rows([[0, 3], [-1, 0]], REAL)
    assert v.real_part().field == v.imag_part().field == REAL


def test_solve_right_particular_solution():
    rng = random.Random(8)
    for _ in range(10):
        a = rand_matrix(rng, 2, 4)
        if a.rank() < 2:
            continue
        rhs = Matrix.identity(2, REAL)
        x = a.solve_right(rhs)
        assert a @ x == rhs


def test_block_assembly():
    i2 = Matrix.identity(2, REAL)
    z2 = Matrix.zeros(2, 2, REAL)
    m = Matrix.from_blocks([[z2, i2], [i2, z2]])
    assert m == Matrix.trailing_identity(4, REAL) or m[0, 2] == 1
    assert m.rows == 4 and m.cols == 4


# --- the stored integer form ---------------------------------------------------


def _integer_form_parts():
    return st.one_of(
        st.just(Fraction(0)),
        _rationals(),
        st.sampled_from([Fraction(10**40), Fraction(-(10**40), 7), Fraction(1, 1000003), Fraction(-3)]),
    )


@st.composite
def _integer_form_matrices(draw, rows, cols, field):
    """A rows x cols matrix over ``field`` with zeros, huge and fine entries,
    and sometimes an all-zero row."""
    part = _integer_form_parts()
    if field == REAL:
        entry = part.map(GaussianRational)
    else:
        entry = st.one_of(part.map(GaussianRational), st.builds(GaussianRational, part, part))
    ents = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, rows - 1))
        ents[i * cols : (i + 1) * cols] = [ZERO] * cols
    return ents


def _assert_integer_form(m, rows, cols, ents, field):
    """m is canonical, and is the matrix of the reference entries ``ents``."""
    d, re, im = m._d, m._re, m._im
    assert type(d) is int and d > 0
    assert all(type(x) is int for x in re + im)
    assert len(re) == rows * cols and len(im) in (0, rows * cols)
    assert gcd(d, *re, *im) == 1
    assert (not im) == all(not e.im for e in ents)
    assert (m.rows, m.cols, m.field) == (rows, cols, field)
    assert type(m.entries) is tuple and all(type(e) is GaussianRational for e in m.entries)
    assert m.entries == tuple(ents)
    built = Matrix(rows, cols, ents, field)
    assert built == m and hash(built) == hash(m)


def _side_by_side(*mats):
    """The entries of the matrices placed side by side, row-major."""
    return [e for i in range(mats[0].rows) for x in mats for e in x.row_list(i)]


def _sympy_matrix(m):
    def q(f):
        return sympy.Rational(f.numerator, f.denominator)

    return sympy.Matrix(m.rows, m.cols, [q(e.re) + sympy.I * q(e.im) for e in m.entries])


def _from_sympy(s, field):
    def f(x):
        return Fraction(int(x.p), int(x.q))

    ents = [GaussianRational(f(sympy.re(x)), f(sympy.im(x))) for x in s]
    return Matrix(s.rows, s.cols, ents, field)


@st.composite
def _integer_form_cases(draw):
    n, m, p = (draw(st.integers(0, 4)) for _ in range(3))
    field = draw(st.sampled_from([REAL, COMPLEX]))
    mats = {
        name: Matrix(r, c, draw(_integer_form_matrices(r, c, field)), field)
        for name, r, c in (("a", n, m), ("b", n, m), ("c", m, p), ("s", n, n), ("w", n, p), ("v", p, m))
    }
    scalar = GaussianRational(draw(_integer_form_parts()), draw(_integer_form_parts()))
    r0, r1 = sorted(draw(st.integers(0, n)) for _ in range(2))
    c0, c1 = sorted(draw(st.integers(0, m)) for _ in range(2))
    return mats, scalar, (r0, r1, c0, c1)


@settings(max_examples=150, deadline=None)
@given(_integer_form_cases())
@example(({"a": Matrix.from_rows([[10**40, 0], [0, Fraction(1, 1000003)]], REAL),
           "b": Matrix.zeros(2, 2, REAL), "c": Matrix.identity(2, REAL),
           "s": Matrix.from_rows([[Fraction(1, 1000003), 10**40], [0, 0]], REAL),
           "w": Matrix.zeros(2, 2, REAL), "v": Matrix.identity(2, REAL)},
          GaussianRational(0, 2), (0, 1, 1, 2)))
def test_integer_form_matches_the_entrywise_reference(case):
    mats, c, (r0, r1, c0, c1) = case
    a, b, cm, s, w, v = (mats[k] for k in "abcswv")
    n, m, p, field = a.rows, a.cols, cm.cols, a.field
    for x in mats.values():
        _assert_integer_form(x, x.rows, x.cols, x.entries, field)
    pairs = list(zip(a.entries, b.entries))
    _assert_integer_form(a @ cm, n, p, _reference_product(a, cm), field)
    _assert_integer_form(a + b, n, m, [x + y for x, y in pairs], field)
    _assert_integer_form(a - b, n, m, [x - y for x, y in pairs], field)
    _assert_integer_form(a * c, n, m, [c * x for x in a.entries], COMPLEX if c.im else field)
    _assert_integer_form(a.conj_transpose(), m, n, [a[i, j].conjugate() for j in range(m) for i in range(n)], field)
    sub = [a[i, j] for i in range(r0, r1) for j in range(c0, c1)]
    _assert_integer_form(a.submatrix(r0, r1, c0, c1), r1 - r0, c1 - c0, sub, field)
    _assert_integer_form(hstack([a, w]), n, m + p, _side_by_side(a, w), field)
    _assert_integer_form(vstack([a, v]), n + p, m, list(a.entries + v.entries), field)
    if n and m:
        blocks = Matrix.from_blocks([[a, b], [b, a]])
        _assert_integer_form(blocks, 2 * n, 2 * m, _side_by_side(a, b) + _side_by_side(b, a), field)
    if _sympy_matrix(s).det() != 0:
        inv = s.inverse()
        _assert_integer_form(inv, n, n, _from_sympy(_sympy_matrix(s).inv(), field).entries, field)
    else:
        with pytest.raises(SingularMatrix):
            s.inverse()
    basis = a.kernel_basis()
    expected = [_from_sympy(x, field) for x in _sympy_matrix(a).nullspace()]
    assert len(basis) == len(expected)
    for got, want in zip(basis, expected):
        _assert_integer_form(got, m, 1, want.entries, field)


def test_integer_form_of_a_real_matrix_times_a_nonreal_scalar():
    a = Matrix.from_rows([[10**40, 0], [0, Fraction(1, 1000003)]], REAL)
    out = a * GaussianRational(0, Fraction(1, 2))
    _assert_integer_form(out, 2, 2, [GaussianRational(0, 10**40 // 2), ZERO, ZERO, GaussianRational(0, Fraction(1, 2000006))], COMPLEX)
    assert out._d == 2000006 and out._re == [0, 0, 0, 0]
    _assert_integer_form(a * GaussianRational(Fraction(1, 2)), 2, 2, [c * Fraction(1, 2) for c in a.entries], REAL)


def test_repeated_eliminations_leave_no_blocks_behind():
    # f(*generator) builds its argument tuple by resizing a 10-slot tuple, so
    # the tuple it frees lands on the free list of another size: between full
    # garbage collections, calls like lcm(*(... for ...)) grew the
    # interpreter's tuple free lists by one tuple each, up to their caps
    import gc
    import sys

    from krein.decompose import selfadjoint_commutant_basis
    from krein.spaces import signature
    from krein.witnesses import build_witness

    pair = build_witness("complex-a-upper", 2, {}).pair
    h = pair.space.h

    def work():
        selfadjoint_commutant_basis(pair)  # kernels and common integer forms
        signature(h)  # the Hermitian congruence down to 1x1
        h.inverse()  # a particular solution

    gc.collect()
    gc.disable()
    try:
        work()
        before = sys.getallocatedblocks()
        for _ in range(20):
            work()
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert grown < 20  # about 520 blocks with the starred generators
