from fractions import Fraction

import pytest

from krein.exceptions import ParameterError
from krein.matrices import COMPLEX, REAL, Matrix, char_poly
from krein.scalars import GaussianRational, parse_scalar
from krein.spaces import SubspaceBasis, is_h_normal, is_neutral
from krein.witnesses import (
    ALL_FAMILIES,
    admissible_ks,
    build_witness,
    chain_matrix,
    chain_witness,
    default_r_params,
    rotation_block,
    witness_complex_a_upper,
    witness_complex_b,
    witness_real_c_even,
    witness_real_c_odd,
    witness_real_d,
    witness_real_e,
)
from test_polynomials import T, sym, sympy_poly


def conj_poly(alpha, beta):
    """(t - a)^2 + b^2, the real quadratic with roots a +- ib, in sympy."""
    return (T - sym(alpha)) ** 2 + sym(beta) ** 2


# --- the chain and its witness --------------------------------------------------


def test_chain_matrix_small():
    assert chain_matrix(1).matrix == Matrix.from_rows([[1]], REAL)
    assert chain_matrix(2).matrix == Matrix.from_rows([[-1, 1], [0, -1]], REAL)
    assert chain_matrix(3).matrix == Matrix.from_rows(
        [[1, 1, 0], [0, 1, 1], [0, 0, 1]], REAL
    )
    assert chain_matrix(4).sign == -1 and chain_matrix(5).sign == 1


def test_chain_witness_seeds():
    assert chain_witness(1) == Matrix.from_rows([[1]], REAL)
    assert chain_witness(2) == Matrix.from_rows([[Fraction(1, 2), 1], [-1, 0]], REAL)


def test_chain_witness_m3_derived_value():
    # one growth step from the 1x1 seed; the identity check below is the oracle
    assert chain_witness(3) == Matrix.from_rows(
        [[0, 0, -1], [-1, 1, 0], [-1, 0, 0]], REAL
    )


@pytest.mark.parametrize("m", range(1, 13))
def test_chain_witness_identity_and_structure(m):
    w = chain_witness(m)
    c = chain_matrix(m).matrix
    assert w == c @ w.conj_transpose()
    assert w @ w.conj_transpose().inverse() == c
    assert w.det()  # nonsingular
    for i in range(m):
        for j in range(m):
            if i + j == m - 1:
                assert w[i, j] in (1, -1)
            elif i + j > m - 1:
                assert not w[i, j]


@pytest.mark.parametrize("m", range(1, 13))
def test_chain_has_one_dimensional_eigenvector_space(m):
    cm = chain_matrix(m)
    shifted = cm.matrix - Matrix.identity(m, REAL) * cm.sign
    assert len(shifted.kernel_basis()) == 1


# --- generic family properties ---------------------------------------------------


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_families_h_normal_and_signature(family):
    for k in admissible_ks(family, 6):
        w = build_witness(family, k, {})
        assert is_h_normal(w.pair)
        assert w.pair.space.signature == w.expected_signature
        assert w.pair.n == w.expected_n


def test_family_spectra_match_declared_multisets():
    lam = parse_scalar("1i")
    for k in (1, 2, 3):
        w = build_witness("complex-a-lower", k, {"lambda": lam})
        assert char_poly(w.pair.n_op) == sympy_poly((T - sym(lam)) ** (2 * k))
        w = build_witness("complex-a-upper", k, {"lambda": lam})
        assert char_poly(w.pair.n_op) == sympy_poly((T - sym(lam)) ** (4 * k))
        w = build_witness("complex-b", k, {"l1": parse_scalar("0"), "l2": parse_scalar("1")})
        assert char_poly(w.pair.n_op) == sympy_poly(T**k * (T - 1) ** k)
    for k in (2, 4):
        w = witness_real_c_even(k, 0, 1)
        assert char_poly(w.pair.n_op) == sympy_poly(conj_poly(0, 1) ** k)
        w = witness_real_d(k, 5, 0, 1)
        assert char_poly(w.pair.n_op) == sympy_poly(conj_poly(0, 1) ** (k // 2) * (T - 5) ** k)
        w = witness_real_e(k, 0, 1, 1, 1)
        assert char_poly(w.pair.n_op) == sympy_poly(conj_poly(0, 1) ** (k // 2) * conj_poly(1, 1) ** (k // 2))
    for k in (1, 3, 5):
        w = witness_real_c_odd(k, 2, 3)
        assert char_poly(w.pair.n_op) == sympy_poly(conj_poly(2, 3) ** k)


# --- upper-bound family ------------------------------------------------------------


def test_default_r_parameters_are_pythagorean():
    assert default_r_params(2) == (Fraction(4, 5), Fraction(3, 5))
    rs = default_r_params(6)
    assert len(set(rs)) == 6
    assert all(0 < r < 1 for r in rs)
    assert list(rs) == sorted(rs, reverse=True)


def test_upper_family_unit_identity():
    for k in (1, 2, 3, 4, 5, 6):
        w = witness_complex_a_upper(k, 0)
        n1 = w.pair.n_op.submatrix(k, 2 * k, 3 * k, 4 * k)
        n2 = w.pair.n_op.submatrix(2 * k, 3 * k, 3 * k, 4 * k)
        assert n1.conj_transpose() @ n1 + n2.conj_transpose() @ n2 == Matrix.identity(
            k, COMPLEX
        )


def test_upper_family_k1_blocks():
    w = witness_complex_a_upper(1, 0)
    assert w.pair.n_op[1, 3] == Fraction(4, 5)
    assert w.pair.n_op[2, 3] == Fraction(3, 5)
    assert w.spec.r_params == (Fraction(4, 5),)


@pytest.mark.parametrize(
    "bad_r",
    [
        [Fraction(4, 5), Fraction(4, 5)],        # not distinct
        [Fraction(4, 5), Fraction(3, 2)],        # outside (0, 1)
        [Fraction(4, 5), Fraction(1, 2)],        # sqrt(3)/2 irrational
    ],
)
def test_upper_family_rejects_bad_r(bad_r):
    with pytest.raises(ParameterError):
        witness_complex_a_upper(2, 0, bad_r)


# --- two-eigenvalue family -----------------------------------------------------


def test_b_family_rejects_equal_eigenvalues():
    with pytest.raises(ParameterError):
        witness_complex_b(2, 1, 1)


def test_b_family_k1_golden_layout():
    w = witness_complex_b(1, 0, 1)
    assert w.pair.n_op == Matrix.diagonal([0, 1], COMPLEX)
    assert w.pair.space.h == Matrix.from_rows([[0, 1], [1, 0]], COMPLEX)


def test_b_family_second_eigenspan_is_neutral():
    w = witness_complex_b(2, 0, 1)
    n = w.pair.n_op
    kernel = (n - Matrix.identity(4, COMPLEX)).kernel_basis()
    assert len(kernel) == 2
    span = SubspaceBasis(kernel, 4)
    assert is_neutral(span, w.pair.space)


# --- real families ------------------------------------------------------------


def test_c_even_golden_layout():
    w = witness_real_c_even(2, 0, 1)
    assert w.pair.n_op == Matrix.from_rows(
        [[0, 1, 1, 0], [-1, 0, 0, 1], [0, 0, 0, 1], [0, 0, -1, 0]], REAL
    )
    assert w.pair.space.h == Matrix.from_rows(
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], REAL
    )


def test_c_even_parameter_gates():
    with pytest.raises(ParameterError):
        witness_real_c_even(3, 0, 1)
    with pytest.raises(ParameterError):
        witness_real_c_even(2, 0, 0)


def test_c_odd_k1_is_single_rotation_block():
    w = witness_real_c_odd(1, 0, 1)
    assert w.pair.n_op == rotation_block(0, 1)
    assert w.pair.space.h == Matrix.trailing_identity(2, REAL)


def test_c_odd_golden_layout_k3():
    w = witness_real_c_odd(3, 0, 1)
    assert w.pair.n_op == Matrix.from_rows(
        [
            [0, 1, 1, 1, 0, 0],
            [-1, 0, 1, 1, 0, 0],
            [0, 0, 0, 1, 1, 1],
            [0, 0, -1, 0, 1, 1],
            [0, 0, 0, 0, 0, -1],
            [0, 0, 0, 0, 1, 0],
        ],
        REAL,
    )
    assert w.pair.space.h == Matrix.from_rows(
        [
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
        ],
        REAL,
    )


def test_c_odd_is_selfadjoint_for_its_gram():
    from krein.spaces import h_adjoint

    for k in (1, 3, 5):
        w = witness_real_c_odd(k, 0, 1)
        assert h_adjoint(w.pair.n_op, w.pair.space) == w.pair.n_op


def test_c_odd_eigenvector_pattern():
    # complex eigenvectors for a + ib are forced into (z1, i z1, 0, ..., 0)
    w = witness_real_c_odd(3, 0, 1)
    n = w.pair.n_op.complexified()
    lam = GaussianRational(0, 1)
    kernel = (n - Matrix.identity(6, COMPLEX) * lam).kernel_basis()
    assert len(kernel) == 1
    v = kernel[0]
    assert v[1, 0] == v[0, 0] * GaussianRational(0, 1)
    assert all(not v[i, 0] for i in range(2, 6))


def test_c_odd_parameter_gates():
    with pytest.raises(ParameterError):
        witness_real_c_odd(2, 0, 1)


def test_d_family_neutral_real_eigenspan():
    w = witness_real_d(2, 5, 0, 1)
    kernel = (w.pair.n_op - Matrix.identity(4, REAL) * GaussianRational(5)).kernel_basis()
    assert len(kernel) == 2
    assert is_neutral(SubspaceBasis(kernel, 4, REAL), w.pair.space)


def test_d_family_parameter_gates():
    with pytest.raises(ParameterError):
        witness_real_d(3, 5, 0, 1)


def test_e_family_parameter_gates():
    with pytest.raises(ParameterError):
        witness_real_e(3, 0, 1, 1, 1)
    with pytest.raises(ParameterError):
        witness_real_e(2, 0, 1, 0, 1)
    with pytest.raises(ParameterError):
        witness_real_e(2, 0, -1, 1, 1)


@pytest.mark.parametrize(
    "family, k, name",
    [
        ("real-c-even", 2, "alpha"),
        ("real-c-odd", 1, "alpha"),
        ("real-c-odd", 1, "beta"),
        ("real-d", 2, "lambda"),
        ("real-e", 2, "alpha1"),
        ("real-e", 2, "beta2"),
    ],
)
def test_real_families_take_real_gaussian_parameters(family, k, name):
    # a real GaussianRational builds the same witness as its Fraction, and a
    # non-real one is a parameter error
    assert build_witness(family, k, {name: GaussianRational(2)}) == build_witness(family, k, {name: Fraction(2)})
    with pytest.raises(ParameterError, match=f"{name} must be real"):
        build_witness(family, k, {name: GaussianRational(2, 1)})


def test_lower_witness_golden_layout_k1():
    w = build_witness("complex-a-lower", 1, {})
    assert w.pair.n_op == Matrix.from_rows([[0, 1], [0, 0]], COMPLEX)
    assert w.pair.space.h == Matrix.from_rows([[0, 1], [1, 0]], COMPLEX)
