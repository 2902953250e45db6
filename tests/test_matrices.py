import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krein.exceptions import DimensionMismatch, FieldMismatch, SingularMatrix
from krein.matrices import (
    COMPLEX,
    REAL,
    Matrix,
    apply_poly,
    char_poly,
    hstack,
    kernel_of_sparse_rows,
    vstack,
)
from krein.polynomials import Polynomial
from krein.scalars import ONE, ZERO, GaussianRational
from krein.witnesses import chain_witness


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
    assert char_poly(m) == Polynomial([-1, 0, 1])  # t^2 - 1


def test_char_poly_jordan():
    lam = GaussianRational(Fraction(2), Fraction(1))
    j = Matrix.from_rows([[lam, 1], [0, lam]], COMPLEX)
    assert char_poly(j) == Polynomial([-lam, 1]) ** 2


def test_char_poly_rotation_block():
    # det(tI - [[a, b], [-b, a]]) = t^2 - 2at + (a^2 + b^2), roots a +- ib
    a, b = Fraction(1), Fraction(2)
    m = Matrix.from_rows([[a, b], [-b, a]], REAL)
    expected = Polynomial([a * a + b * b, -2 * a, 1])
    assert char_poly(m) == expected
    assert expected.evaluate(GaussianRational(a, b)) == 0
    assert expected.evaluate(GaussianRational(a, -b)) == 0


def test_char_poly_matches_faddeev_leverrier():
    rng = random.Random(6)
    for n in (1, 2, 3, 4, 5):
        for field in (REAL, COMPLEX):
            m = rand_matrix(rng, n, field=field, lim=3)
            assert char_poly(m) == faddeev_leverrier(m)


def test_cayley_hamilton():
    rng = random.Random(7)
    for n in (2, 3, 4, 5):
        m = rand_matrix(rng, n, field=COMPLEX, lim=3)
        assert apply_poly(char_poly(m), m).is_zero


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
