import random
from fractions import Fraction

import pytest

from krein.exceptions import DimensionMismatch, SingularMatrix
from krein.matrices import (
    COMPLEX,
    REAL,
    Matrix,
    apply_poly,
    char_poly,
    faddeev_leverrier,
    hstack,
    kernel_of_sparse_rows,
    vstack,
)
from krein.polynomials import Polynomial
from krein.scalars import GaussianRational
from krein.witnesses import chain_witness


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


def test_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        Matrix.zeros(2, 3, REAL) @ Matrix.zeros(2, 2, REAL)


def test_real_field_gate_rejects_complex_entries():
    from krein.exceptions import FieldMismatch

    with pytest.raises(FieldMismatch):
        Matrix.from_rows([[GaussianRational(0, 1)]], REAL)
    with pytest.raises(FieldMismatch):
        Matrix.identity(2, REAL) @ Matrix.identity(2, COMPLEX)


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


def test_sparse_kernel_matches_dense():
    rng = random.Random(5)
    for _ in range(15):
        m = rand_matrix(rng, rng.randint(2, 5), rng.randint(2, 6))
        rows = []
        for i in range(m.rows):
            rows.append({j: m[i, j] for j in range(m.cols) if m[i, j]})
        sparse = kernel_of_sparse_rows(rows, m.cols)
        assert len(sparse) == len(m.kernel_basis())
        for vec in sparse:
            v = Matrix.column([vec.get(j, 0) for j in range(m.cols)], m.field)
            assert (m @ v).is_zero


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
