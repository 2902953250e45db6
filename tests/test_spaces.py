import random
import sys
from fractions import Fraction
from operator import ne

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import GLUED_PAIRS
from test_decompose import _hidden, _unimodular_congruences, _units

from krein.classify import reduce_conjugate_pair, reduce_single_eigenvalue
from krein.exceptions import NotHermitian, NotSingleEigenvalue, SingularH, WrongSpectrum
import krein.matrices
from krein.matrices import COMPLEX, REAL, Matrix, _hermitian_inertia, char_poly, hstack
from krein.polynomials import poly_roots
from krein.scalars import I_UNIT, ONE, ZERO, GaussianRational, parse_scalar
import krein.spaces
from krein.spaces import (
    IndefiniteSpace,
    MatrixPair,
    SubspaceBasis,
    direct_sum,
    h_adjoint,
    h_orthogonal_complement,
    is_h_normal,
    is_neutral,
    is_nondegenerate,
    one_class_spectrum,
    signature,
)
from krein.witnesses import (
    ALL_FAMILIES,
    admissible_ks,
    build_witness,
    witness_complex_a_lower,
    witness_complex_a_upper,
    witness_complex_b,
    witness_real_c_even,
    witness_real_c_odd,
    witness_real_d,
)


def rand_rational(rng, lim=3):
    return Fraction(rng.randint(-lim, lim), rng.randint(1, lim))


def rand_matrix(rng, n, field=COMPLEX):
    ents = [
        GaussianRational(rand_rational(rng), rand_rational(rng) if field == COMPLEX else 0)
        for _ in range(n * n)
    ]
    return Matrix(n, n, ents, field)


def rand_hermitian_space(rng, n, field=COMPLEX):
    while True:
        a = rand_matrix(rng, n, field)
        h = a + a.conj_transpose()
        if h.det():
            return IndefiniteSpace(h)


def rand_nonsingular(rng, n, field=COMPLEX):
    while True:
        t = rand_matrix(rng, n, field)
        if t.det():
            return t


def split_h(k, field=COMPLEX):
    z = Matrix.zeros(k, k, field)
    i = Matrix.identity(k, field)
    return Matrix.from_blocks([[z, i], [i, z]])


def indefinite_product(x, y, space):
    """[x, y] = (Hx, y) = y* H x, conjugate-linear in y."""
    return (y.conj_transpose() @ space.h @ x).scalar()


# --- signature ----------------------------------------------------------------


def test_signature_diag():
    assert signature(Matrix.diagonal([1, -1], REAL)) == (1, 1)


def test_signature_split_form():
    for k in (1, 2, 3, 4):
        assert signature(split_h(k)) == (k, k)


def test_signature_four_block_form():
    # the 4k x 4k permutation Gram matrix of the upper-bound family
    for k in (1, 2, 3):
        h = witness_complex_a_upper(k, 0).pair.space.h
        assert signature(h) == (k, 3 * k)


def test_signature_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        signature(Matrix.from_rows([[0, 1], [0, 0]], REAL))


def test_signature_rejects_singular():
    with pytest.raises(SingularH):
        signature(Matrix.zeros(2, 2, REAL))


def test_signature_sylvester_invariance():
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randint(1, 5)
        space = rand_hermitian_space(rng, n)
        t = rand_nonsingular(rng, n)
        assert signature(t.conj_transpose() @ space.h @ t) == space.signature


def congruence_inertia(h):
    """Inertia (v_minus, v_plus) by Hermitian congruence reduction: diagonal
    pivots and, when every remaining diagonal entry vanishes, an antidiagonal
    2x2 pivot. An oracle for signature, independent of char_poly."""
    a = h.to_lists()
    active = list(range(h.rows))
    neg = pos = 0
    while active:
        piv = next((i for i in active if a[i][i]), None)
        if piv is not None:
            if a[piv][piv].re < 0:  # Hermitian diagonal is real
                neg += 1
            else:
                pos += 1
            inv = ONE / a[piv][piv]
            active.remove(piv)
            for r in active:
                f = a[r][piv] * inv
                if f:
                    for c in active:
                        a[r][c] = a[r][c] - f * a[piv][c]
            continue
        pair = next(((i, j) for i in active for j in active if j > i and a[i][j]), None)
        if pair is None:
            raise SingularH("Gram matrix is singular")
        i, j = pair
        v, vbar = a[i][j], a[j][i]
        neg += 1
        pos += 1
        active.remove(i)
        active.remove(j)
        for r in active:
            fi = a[r][j] / v
            fj = a[r][i] / vbar
            if fi or fj:
                for c in active:
                    a[r][c] = a[r][c] - fi * a[i][c] - fj * a[j][c]
    return neg, pos


def _inertia_or_singular(inertia, h):
    try:
        return inertia(h)
    except SingularH:
        return "singular"


_KINDS = ("general", "zero diagonal", "singular")


@st.composite
def _hermitian_matrices(draw):
    """(H, kind): a Hermitian H = A + A*, n from 1 to 8, with huge and fine
    entries among small ones. A zero-diagonal H needs the antidiagonal pivots
    of the congruence reduction; a singular one repeats a row and column, or
    zeroes one."""
    n = draw(st.integers(1, 8))
    field = draw(st.sampled_from([REAL, COMPLEX]))
    kind = draw(st.sampled_from(_KINDS))
    part = st.one_of(
        st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
        st.sampled_from([Fraction(10**400), Fraction(-(10**400), 7), Fraction(1, 1000003), Fraction(-2, 1000003)]),
    )
    entry = part.map(GaussianRational) if field == REAL else st.builds(GaussianRational, part, part)
    a = Matrix(n, n, [draw(entry) for _ in range(n * n)], field)
    h = a + a.conj_transpose()
    if kind == "zero diagonal":
        h = Matrix(n, n, [ZERO if i == j else h[i, j] for i in range(n) for j in range(n)], field)
    elif kind == "singular":
        # line s becomes a copy of line t, or zero when s == t
        s, t = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        m = [t if i == s else i for i in range(n)]
        ents = [ZERO if s == t and s in (i, j) else h[m[i], m[j]] for i in range(n) for j in range(n)]
        h = Matrix(n, n, ents, field)
    return h, kind


@settings(max_examples=150, deadline=None)
@given(_hermitian_matrices())
def test_signature_matches_congruence_reduction(case):
    h, kind = case
    assert h.is_hermitian()
    expected = _inertia_or_singular(congruence_inertia, h)
    assert _inertia_or_singular(signature, h) == expected
    if kind == "singular":
        assert expected == "singular"


def descartes_inertia(h):
    """Inertia (v_minus, v_plus) by Descartes' rule of signs on the
    characteristic polynomial, which has only real roots for a Hermitian H:
    v_plus is the number of sign changes of its coefficients. An oracle for
    signature, independent of any congruence."""
    coeffs = char_poly(h).coeffs
    if not coeffs[0]:
        raise SingularH("Gram matrix is singular")
    signs = [c.re > 0 for c in coeffs if c]
    v_plus = sum(map(ne, signs, signs[1:]))
    return h.rows - v_plus, v_plus


@settings(max_examples=150, deadline=None)
@given(_hermitian_matrices())
def test_signature_matches_descartes_rule(case):
    h, _ = case
    assert _inertia_or_singular(signature, h) == _inertia_or_singular(descartes_inertia, h)


@settings(max_examples=150, deadline=None)
@given(_hermitian_matrices())
def test_hermitian_inertia_counts_the_null_space(case):
    h, kind = case
    v_minus, v_zero, v_plus = _hermitian_inertia(h.rows, h._re, h._im)
    assert v_minus + v_zero + v_plus == h.rows
    assert v_zero == h.rows - h.rank()
    if kind == "singular":
        assert v_zero > 0
    else:
        assert v_zero or (v_minus, v_plus) == descartes_inertia(h)


def test_zero_diagonal_with_imaginary_entries_adds_i_times_a_line(monkeypatch):
    # every a_ij is pure imaginary, so row_i += row_j would leave a_ii = 0:
    # the congruence must use c = i. H = iA for a real antisymmetric A with
    # Pfaffian 1*6 - 2*5 + 3*4 = 8, so H is nonsingular with eigenvalues +-mu
    a = [[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]]
    h = Matrix.from_rows([[GaussianRational(0, x) for x in row] for row in a], COMPLEX)
    assert h.is_hermitian()
    calls = []
    real_add_line = krein.matrices._add_line

    def recording(ar, ai, k, j, u, v):
        calls.append((u, v))
        return real_add_line(ar, ai, k, j, u, v)

    monkeypatch.setattr(krein.matrices, "_add_line", recording)
    assert _hermitian_inertia(4, h._re, h._im) == (2, 0, 2)
    assert calls and calls[0] == (0, 1)
    assert signature(h) == congruence_inertia(h) == (2, 2)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_signature_of_a_zero_diagonal_matrix_with_huge_entries(field):
    # H = B D (J - I) D + E with B = 10^400, J the all-ones matrix, D a diagonal
    # of signs and E a small Hermitian perturbation with zero diagonal. J - I
    # has eigenvalues 23 (once) and -1 (23 times), and ||E|| < 100 << B, so by
    # Weyl's inequality H has the inertia of J - I.
    n, big = 24, 10**400
    rng = random.Random(24)
    sign = [rng.choice([1, -1]) for _ in range(n)]
    ents = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3) if field == COMPLEX else 0)
            ents[i][j] = big * sign[i] * sign[j] + e
            ents[j][i] = ents[i][j].conjugate()
    assert signature(Matrix.from_rows(ents, field)) == (n - 1, 1)


def test_witness_families_keep_their_signature():
    for family in ALL_FAMILIES:
        for k in admissible_ks(family, 4):
            w = build_witness(family, k, {})
            h = w.pair.space.h
            assert signature(h) == w.expected_signature == descartes_inertia(h), (family, k)


def test_rank_v():
    sp = IndefiniteSpace(Matrix.diagonal([1, 1, -1], REAL))
    assert sp.rank_v == 1 and sp.v_minus == 1 and sp.v_plus == 2


# --- adjoint -------------------------------------------------------------------


def test_h_adjoint_with_euclidean_gram_is_star():
    rng = random.Random(1)
    space = IndefiniteSpace(Matrix.identity(3, COMPLEX))
    a = rand_matrix(rng, 3)
    assert h_adjoint(a, space) == a.conj_transpose()


def test_h_adjoint_two_by_two_frozen():
    # H^-1 A* H computed by hand for A = [[0,1],[0,0]], H = diag(1,-1)
    a = Matrix.from_rows([[0, 1], [0, 0]], COMPLEX)
    space = IndefiniteSpace(Matrix.diagonal([1, -1], COMPLEX))
    assert h_adjoint(a, space) == Matrix.from_rows([[0, 0], [-1, 0]], COMPLEX)


def test_h_adjoint_of_lower_witness_block():
    lam = parse_scalar("2+1i")
    n = Matrix.from_rows([[lam, 1], [0, lam]], COMPLEX)
    space = IndefiniteSpace(split_h(1))
    adj = h_adjoint(n, space)
    lam_bar = lam.conjugate()
    assert adj == Matrix.from_rows([[lam_bar, 1], [0, lam_bar]], COMPLEX)
    # consistency oracle: [N^[*] x, y] = [x, N y] on all basis pairs
    for i in range(2):
        for j in range(2):
            x = Matrix.unit_column(2, i, COMPLEX)
            y = Matrix.unit_column(2, j, COMPLEX)
            assert indefinite_product(adj @ x, y, space) == indefinite_product(
                x, n @ y, space
            )


def test_h_adjoint_involution_and_antihomomorphism():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(1, 6)
        space = rand_hermitian_space(rng, n)
        a = rand_matrix(rng, n)
        b = rand_matrix(rng, n)
        assert h_adjoint(h_adjoint(a, space), space) == a
        assert h_adjoint(a @ b, space) == h_adjoint(b, space) @ h_adjoint(a, space)


def test_h_adjoint_defining_identity_random():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        space = rand_hermitian_space(rng, n)
        a = rand_matrix(rng, n)
        adj = h_adjoint(a, space)
        for i in range(n):
            for j in range(n):
                x = Matrix.unit_column(n, i, COMPLEX)
                y = Matrix.unit_column(n, j, COMPLEX)
                assert indefinite_product(adj @ x, y, space) == indefinite_product(
                    x, a @ y, space
                )


# --- normality / unitarity ------------------------------------------------------------


def test_euclidean_normal_matrix_is_h_normal():
    m = Matrix.from_rows([[0, 1], [-1, 0]], COMPLEX)  # skew, hence normal
    pair = MatrixPair.from_matrices(m, Matrix.identity(2, COMPLEX))
    assert is_h_normal(pair)


def test_lower_witness_is_h_normal_at_lambda_zero():
    assert is_h_normal(witness_complex_a_lower(1, 0).pair)


def test_is_h_unitary():
    # U U^[*] = I
    space = IndefiniteSpace(split_h(1))
    ident = Matrix.identity(2, COMPLEX)
    for u in (ident, Matrix.diagonal([2, Fraction(1, 2)], COMPLEX)):
        assert u @ h_adjoint(u, space) == ident
    euclid = IndefiniteSpace(Matrix.identity(2, COMPLEX))
    u = Matrix.diagonal([2, 2], COMPLEX)
    assert u @ h_adjoint(u, euclid) != ident


# --- products and subspaces ---------------------------------------------------------


def test_indefinite_product_examples():
    euclid = IndefiniteSpace(Matrix.identity(2, COMPLEX))
    e1 = Matrix.unit_column(2, 0, COMPLEX)
    e2 = Matrix.unit_column(2, 1, COMPLEX)
    assert indefinite_product(e1, e1, euclid) == 1
    swap = IndefiniteSpace(split_h(1))
    assert indefinite_product(e1, e2, swap) == 1
    assert indefinite_product(e1, e1, swap) == 0


def test_product_is_conjugate_linear_in_second_argument():
    space = IndefiniteSpace(split_h(1))
    e1 = Matrix.unit_column(2, 0, COMPLEX)
    e2 = Matrix.unit_column(2, 1, COMPLEX)
    c = parse_scalar("1+2i")
    assert indefinite_product(e1, e2 * c, space) == c.conjugate() * indefinite_product(
        e1, e2, space
    )


def test_core_of_lower_witness_is_neutral():
    w = witness_complex_a_lower(3, 0)
    space = w.pair.space
    for i in range(3):
        for j in range(3):
            assert (
                indefinite_product(
                    Matrix.unit_column(6, i, COMPLEX),
                    Matrix.unit_column(6, j, COMPLEX),
                    space,
                )
                == 0
            )


def test_neutral_and_nondegenerate():
    swap = IndefiniteSpace(split_h(1))
    e1 = Matrix.unit_column(2, 0, COMPLEX)
    s = SubspaceBasis([e1], 2)
    assert is_neutral(s, swap)
    assert not is_nondegenerate(s, swap)
    euclid = IndefiniteSpace(Matrix.identity(2, COMPLEX))
    assert not is_neutral(s, euclid)
    diag = SubspaceBasis([Matrix.column([1, 1], COMPLEX)], 2)
    assert is_nondegenerate(diag, swap)  # [x, x] = 2
    full = SubspaceBasis([e1, Matrix.unit_column(2, 1, COMPLEX)], 2)
    assert is_nondegenerate(full, swap)


def test_complement_examples():
    swap = IndefiniteSpace(split_h(1))
    e1 = Matrix.unit_column(2, 0, COMPLEX)
    full = SubspaceBasis([e1, Matrix.unit_column(2, 1, COMPLEX)], 2)
    assert h_orthogonal_complement(full, swap).dim == 0
    comp = h_orthogonal_complement(SubspaceBasis([e1], 2), swap)
    assert comp.dim == 1
    v = comp.vectors[0]
    assert v[0, 0] and not v[1, 0]  # the complement of span{e1} is span{e1}


def test_nondegenerate_complement_reconstructs_space():
    rng = random.Random(4)
    trials = 0
    while trials < 30:
        n = rng.randint(2, 6)
        space = rand_hermitian_space(rng, n)
        d = rng.randint(1, n - 1)
        vecs = []
        for _ in range(d):
            v = Matrix.column(
                [GaussianRational(rand_rational(rng), rand_rational(rng)) for _ in range(n)],
                COMPLEX,
            )
            cand = vecs + [v]
            if hstack(cand).rank() == len(cand):
                vecs.append(v)
        if len(vecs) < d:
            continue
        sub = SubspaceBasis(vecs, n)
        if not is_nondegenerate(sub, space):
            continue
        trials += 1
        comp = h_orthogonal_complement(sub, space)
        assert sub.dim + comp.dim == n
        assert hstack([sub.matrix, comp.matrix]).rank() == n


def test_complement_dimension_always_complements():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 6)
        space = rand_hermitian_space(rng, n)
        v = Matrix.column([GaussianRational(rand_rational(rng)) for _ in range(n)], COMPLEX)
        if v.is_zero:
            continue
        sub = SubspaceBasis([v], n)
        comp = h_orthogonal_complement(sub, space)
        assert sub.dim + comp.dim == n
        if is_neutral(sub, space):
            # neutral subspaces sit inside their own complement
            assert hstack([comp.matrix, v]).rank() == comp.dim


def test_direct_sum_shapes():
    a = witness_complex_a_lower(1, 0).pair
    b = witness_complex_a_lower(1, 1).pair
    g = direct_sum(a, b)
    assert g.n == 4
    assert g.space.signature == (2, 2)
    assert is_h_normal(g)


# --- the exact spectrum ---------------------------------------------------------


def _one_class(spec, field):
    """One eigenvalue, or over R one exact conjugate pair."""
    return len(spec) == 1 or (
        field == REAL and len(spec) == 2 and all(r.is_exact for r in spec)
        and spec[0].value == spec[1].value.conjugate()
    )


def _assert_spectrum_is_the_roots(pair):
    # the spectrum of a fresh pair, then the poly_roots route on another one
    fresh = MatrixPair(pair.n_op, pair.space)
    spec = fresh.spectrum
    roots = tuple(poly_roots(pair.char_poly))
    assert spec == roots
    assert [repr(r.value) for r in spec] == [repr(r.value) for r in roots]
    assert bool(one_class_spectrum(pair)) == _one_class(roots, pair.field)


def _spectrum_pairs():
    witnesses = [build_witness(f, k, {}).pair for f in ALL_FAMILIES for k in admissible_ks(f, 5)]
    return witnesses + [make() for make in GLUED_PAIRS]


def test_spectrum_equals_the_roots_of_the_characteristic_polynomial():
    rng = random.Random(20261019)
    for pair in _spectrum_pairs():
        _assert_spectrum_is_the_roots(pair)
        for _ in range(5):
            n = pair.n
            shears = [
                (i, j + (j >= i), rng.choice(_units(pair.field)))
                for i, j in ((rng.randrange(n), rng.randrange(n - 1)) for _ in range(2 * n))
            ]
            _assert_spectrum_is_the_roots(_hidden(pair, shears))


def _pair_of(rows, field):
    n_op = Matrix.from_rows(rows, field)
    return MatrixPair.from_matrices(n_op, Matrix.identity(n_op.rows, field))


_BIG = GaussianRational(10**400, Fraction(1, 3))


@pytest.mark.parametrize(
    "rows,field,certified",
    [
        # tr M^2 = 0 for M = N - 0 I, yet M is not nilpotent
        ([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, I_UNIT, 0], [0, 0, 0, -I_UNIT]], COMPLEX, False),
        # eigenvalues +-i sqrt 2, each twice: beta^2 = 2 is no rational square
        ([[0, -2, 0, 0], [1, 0, 0, 0], [0, 0, 0, -2], [0, 0, 1, 0]], REAL, False),
        # two real eigenvalues, 1 and 3 (with a Jordan block at 1)
        ([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]], REAL, False),
        # eigenvalues 1 +- 2i of multiplicity 2, with a Jordan chain
        ([[1, -2, 1, 0], [2, 1, 0, 1], [0, 0, 1, -2], [0, 0, 2, 1]], REAL, True),
        # one Jordan block at 10^400 + i/3, and the same with a last entry moved by 1
        ([[_BIG, 1, 0], [0, _BIG, 1], [0, 0, _BIG]], COMPLEX, True),
        ([[_BIG, 1, 0], [0, _BIG, 1], [0, 0, _BIG + 1]], COMPLEX, False),
    ],
)
def test_near_misses_take_the_characteristic_polynomial(rows, field, certified):
    pair = _pair_of(rows, field)
    assert bool(one_class_spectrum(pair)) == certified
    _assert_spectrum_is_the_roots(pair)


def test_two_class_spectra_are_rejected_by_trace_sums(monkeypatch):
    # tr C^2 = 0 fails before any product; real-d's beta^2 = 1/4 is a square,
    # so it pays the one product C^2 before tr Q^2 fails
    pairs = [
        (build_witness(family, k, {}).pair, products)
        for family, products in (("complex-b", 0), ("real-e", 0), ("real-d", 1))
        for k in admissible_ks(family, 5)
    ]
    calls = []
    matmul = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: calls.append(a.rows) or matmul(a, b))
    for pair, products in pairs:
        calls.clear()
        assert one_class_spectrum(pair) == ()
        assert len(calls) == products


def test_reductions_never_compute_a_characteristic_polynomial(monkeypatch):
    def forbidden(*args):
        raise AssertionError("characteristic polynomial or root finding in a reduction")

    # krein.classify is also the name of the function that krein re-exports
    for module in (krein.spaces, sys.modules["krein.classify"]):
        monkeypatch.setattr(module, "char_poly", forbidden)
        monkeypatch.setattr(module, "poly_roots", forbidden)
    for k in (1, 2, 3):
        reduce_single_eigenvalue(witness_complex_a_lower(k, GaussianRational(1, 2)).pair, GaussianRational(1, 2))
        reduce_single_eigenvalue(witness_complex_a_upper(k, 0).pair, 0)
    reduce_conjugate_pair(witness_real_c_even(2, 0, 1).pair, 0, 1)
    reduce_conjugate_pair(witness_real_c_odd(3, Fraction(1, 2), 2).pair, Fraction(1, 2), 2)
    # the rejections, including spectra that are not one class
    with pytest.raises(NotSingleEigenvalue):
        reduce_single_eigenvalue(witness_complex_b(2, 0, 1).pair, 0)
    with pytest.raises(WrongSpectrum):
        reduce_conjugate_pair(witness_real_d(2, 5, 0, 1).pair, 0, 1)
    with pytest.raises(WrongSpectrum):
        reduce_conjugate_pair(witness_real_c_even(2, 0, 1).pair, 0, 2)
    with pytest.raises(WrongSpectrum):
        reduce_conjugate_pair(_pair_of([[0, 2], [10**800, 0]], REAL), 0, 1)


@settings(max_examples=25, deadline=None)
@given(_unimodular_congruences())
def test_spectrum_survives_a_unimodular_congruence(pairs):
    pair, hidden = pairs
    assert hidden.spectrum == pair.spectrum
    assert bool(one_class_spectrum(hidden)) == bool(one_class_spectrum(pair))
    _assert_spectrum_is_the_roots(hidden)
