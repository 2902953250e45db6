import importlib
import random
import re
from fractions import Fraction
from math import isqrt, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krein.classify import (
    OUT_OF_SCOPE,
    _real_span_of_complex,
    bound_window,
    classify,
    joint_eigenspace,
    joint_eigenspace_real,
    reduce_conjugate_pair,
    reduce_single_eigenvalue,
)
from krein.exceptions import (
    KreinError,
    NotHNormal,
    NotSingleEigenvalue,
    ParameterError,
    S0NotNeutral,
    WrongSpectrum,
)
from krein.matrices import COMPLEX, REAL, Matrix, _hermitian_inertia, hstack, vstack
from krein.polynomials import poly_roots
from krein.scalars import GaussianRational, parse_scalar
import krein.spaces
from krein.spaces import MatrixPair, direct_sum, h_adjoint, is_h_normal
from krein.witnesses import (
    ALL_FAMILIES,
    admissible_ks,
    build_witness,
    rotation_block,
    witness_complex_a_lower,
    witness_complex_a_upper,
    witness_complex_b,
    witness_real_c_even,
    witness_real_c_odd,
)
from test_decompose import _hidden, _hidden_copies
from test_polynomials import T, sym, sympy_poly


# --- the single-eigenvalue target -----------------------------------------------


@pytest.mark.parametrize(
    "lam",
    [
        GaussianRational(0),
        GaussianRational(Fraction(-3, 7)),
        GaussianRational(0, 1),
        GaussianRational(Fraction(2, 5), Fraction(-7, 3)),
        GaussianRational(10**20, Fraction(1, 1000003)),
    ],
)
def test_reductions_accept_exactly_their_eigenvalue(lam):
    # the spectrum check of reduce_single_eigenvalue passes for lam on every
    # single-eigenvalue pair, and for no other value, also 10^-30 away
    others = [lam + 1, lam + GaussianRational(0, 1), lam + GaussianRational(Fraction(1, 10**30))]
    pairs = [(witness_complex_a_lower(k, lam).pair, (k, 0, k)) for k in (1, 2, 3, 4)]
    pairs.append((witness_complex_a_upper(1, lam).pair, (1, 2, 1)))
    for pair, dims in pairs:
        assert reduce_single_eigenvalue(pair, lam).block_dims == dims
        for mu in others:
            with pytest.raises(NotSingleEigenvalue, match=re.escape(f"{{{mu!r}}} alone")):
                reduce_single_eigenvalue(pair, mu)
    # a 1 x 1 definite pair passes the spectrum check and stops at S0
    one = MatrixPair.from_matrices(Matrix.diagonal([lam], COMPLEX), Matrix.identity(1, COMPLEX))
    with pytest.raises(S0NotNeutral):
        reduce_single_eigenvalue(one, lam)
    # two eigenvalues: neither is accepted
    two = witness_complex_b(2, lam, lam + 1).pair
    for mu in (lam, lam + 1):
        with pytest.raises(NotSingleEigenvalue):
            reduce_single_eigenvalue(two, mu)


# --- bound windows ------------------------------------------------------------


@pytest.mark.parametrize(
    "case,k,expected",
    [
        ("ComplexA", 1, (2, 4)),
        ("ComplexA", 3, (6, 12)),
        ("ComplexB", 3, (6, 6)),
        ("RealA", 2, (4, 8)),
        ("RealB", 2, (4, 4)),
        ("RealC", 1, (2, 2)),
        ("RealC", 2, (4, 8)),
        ("RealC", 3, (6, 8)),
        ("RealC", 5, (10, 18)),
        ("RealD", 2, (4, 4)),
        ("RealE", 4, (8, 8)),
    ],
)
def test_bound_window_table(case, k, expected):
    assert bound_window(case, k) == expected


def test_bound_window_floor_arithmetic():
    # 10 * floor(k/2) - 2, checked longhand
    for k in range(2, 9):
        assert bound_window("RealC", k) == (2 * k, 10 * (k // 2) - 2)


def test_bound_window_parity_gate():
    for case in ("RealD", "RealE"):
        with pytest.raises(ParameterError):
            bound_window(case, 3)


def test_bound_window_needs_theorem_case():
    with pytest.raises(ParameterError):
        bound_window(OUT_OF_SCOPE, 2)
    with pytest.raises(ParameterError):
        bound_window("ComplexA", 0)


def test_bound_window_monotone_with_fixed_lower_edge():
    for case in ("ComplexA", "ComplexB", "RealA", "RealB"):
        prev = bound_window(case, 1)
        for k in range(2, 8):
            cur = bound_window(case, k)
            assert cur[0] == 2 * k
            assert cur[0] >= prev[0] and cur[1] >= prev[1]
            prev = cur
    prev = bound_window("RealC", 2)
    for k in range(3, 9):
        cur = bound_window("RealC", k)
        assert cur[0] == 2 * k
        assert cur[0] >= prev[0] and cur[1] >= prev[1]
        prev = cur


# --- classification ------------------------------------------------------------


def test_classify_all_witnesses_match_declared_case():
    for family in ALL_FAMILIES:
        for k in admissible_ks(family, 6):
            w = build_witness(family, k, {})
            report = classify(w.pair)
            assert report.case_label == w.expected_case
            assert report.bound_ok is True
            assert report.exact
            assert report.k == k
            assert report.n == w.expected_n


def test_classify_requires_h_normal():
    pair = MatrixPair.from_matrices(
        Matrix.from_rows([[0, 1], [0, 0]], COMPLEX), Matrix.identity(2, COMPLEX)
    )
    with pytest.raises(NotHNormal):
        classify(pair)


def test_classify_three_eigenvalues_out_of_scope():
    pair = MatrixPair.from_matrices(
        Matrix.diagonal([1, 2, 3], COMPLEX), Matrix.diagonal([1, 1, -1], COMPLEX)
    )
    report = classify(pair)
    assert report.case_label == OUT_OF_SCOPE
    assert report.bound_window is None and report.bound_ok is None
    assert any("decomposable" in note for note in report.notes)


def test_classify_rank_zero_out_of_scope():
    pair = MatrixPair.from_matrices(
        Matrix.diagonal([1, 2], COMPLEX), Matrix.identity(2, COMPLEX)
    )
    report = classify(pair)
    assert report.case_label == OUT_OF_SCOPE
    assert report.k == 0


def test_classify_real_patterns():
    # two real eigenvalues
    pair = MatrixPair.from_matrices(
        Matrix.block_diagonal(
            [Matrix.from_rows([[1, 1], [0, 1]], REAL), Matrix.diagonal([2, 2], REAL)]
        ),
        Matrix.from_blocks(
            [
                [Matrix.zeros(2, 2, REAL), Matrix.identity(2, REAL)],
                [Matrix.identity(2, REAL), Matrix.zeros(2, 2, REAL)],
            ]
        ),
    )
    report = classify(pair)
    assert report.case_label == "RealB"
    assert report.bound_ok is True


def test_classify_bound_violation_detected():
    # glue three two-eigenvalue witnesses: k grows but n outgrows the window
    g = direct_sum(
        direct_sum(witness_complex_b(1, 0, 1).pair, witness_complex_b(2, 0, 1).pair),
        witness_complex_b(2, 0, 1).pair,
    )
    report = classify(g)
    assert report.case_label == "ComplexB"
    assert report.bound_ok is True  # n = 10 = 2k with k = 5
    g2 = direct_sum(witness_complex_b(1, 0, 1).pair, witness_complex_a_lower(2, 0).pair)
    report2 = classify(g2)
    # eigenvalues {0, 1}: matches the two-eigenvalue case but n=6 > 2k=... k=3 -> 6 ok;
    # push it out of the window with one more scalar-only block
    g3 = direct_sum(g2, witness_complex_b(1, 0, 1).pair)
    report3 = classify(g3)
    assert report3.case_label == "ComplexB"
    assert report3.n == 8 and report3.k == 4
    assert report3.bound_ok is True
    # a genuinely violating configuration: pad with a neutral-free direct summand
    euclid = MatrixPair.from_matrices(
        Matrix.diagonal([0, 1, 1], REAL), Matrix.diagonal([1, 1, -1], REAL)
    )
    rep = classify(euclid)
    assert rep.case_label == "RealB"
    assert rep.bound_ok is False  # n = 3 odd, cannot equal 2k = 2


def test_classify_counts_close_real_eigenvalues_exactly():
    # four distinct real eigenvalues +-sqrt(2) and the roots of t^2 + e t - 2 - e,
    # within 1e-20 of them: the numeric roots come out as two near-real
    # conjugate pairs, which must not be read as the RealE pattern
    e = Fraction(1, 10**20)
    n_op = Matrix.block_diagonal(
        [Matrix.from_rows([[1, 1], [1, -1]], REAL), Matrix.from_rows([[1, 1], [1, -1 - e]], REAL)]
    )
    report = classify(MatrixPair.from_matrices(n_op, Matrix.diagonal([1, 1, -1, -1], REAL)))
    assert report.case_label == OUT_OF_SCOPE and report.k == 2
    assert len(report.eigenvalues) == 4 and not report.exact
    assert all(r.value.imag == 0.0 and r.multiplicity == 1 for r in report.eigenvalues)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 10**1000).filter(lambda m: isqrt(m) ** 2 != m),
    st.sampled_from([1, -1]),
    st.fractions(max_denominator=10**6).filter(lambda q: abs(q) < 10**6),
)
@example(2 * 10**800, 1, Fraction(0))
@example(2, -1, Fraction(1, 3))
def test_real_eigenvalue_counts_need_no_float(m, sign, q):
    # N = [[0, 1], [c, 0]] is H-selfadjoint for H = [[0, 1], [1, 0]], with
    # eigenvalues +-sqrt(c): two irrational real ones for c > 0, one
    # irrational conjugate pair for c < 0, far past the float range for most m
    c = sign * m
    n_op = Matrix.from_rows([[0, 1], [c, 0]], REAL)
    report = classify(MatrixPair.from_matrices(n_op, Matrix.from_rows([[0, 1], [1, 0]], REAL)))
    assert (report.n, report.k) == (2, 1)
    assert report.case_label == ("RealB" if c > 0 else "RealC") and report.bound_ok
    roots = poly_roots(sympy_poly((T - sym(q)) * (T**2 - c)))
    assert sum(r.is_real for r in roots) == 1 + 2 * (c > 0)
    assert all(r.value is None or r.value.imag == 0.0 for r in roots if r.is_real and not r.is_exact)


def test_classify_odd_k_conjugate_patterns_are_out_of_scope():
    # one real eigenvalue + one conjugate pair over a rank-1 space
    n_op = Matrix.block_diagonal([rotation_block(0, 1), Matrix.diagonal([5], REAL)])
    h = Matrix.diagonal([1, 1, -1], REAL)
    report = classify(MatrixPair.from_matrices(n_op, h))
    assert report.k == 1
    assert report.case_label == OUT_OF_SCOPE
    assert any("even rank" in note for note in report.notes)


def test_classify_report_serializes():
    report = classify(witness_real_c_even(2, 0, 1).pair)
    doc = report.to_json_dict()
    assert doc["case"] == "RealC"
    assert doc["bound_window"] == [4, 8]
    assert all(e["exact"] for e in doc["eigenvalues"])


# --- joint eigenspaces -----------------------------------------------------------


def test_joint_eigenspace_lower_family():
    for k in (1, 2, 3):
        lam = parse_scalar("1+1i")
        w = witness_complex_a_lower(k, lam)
        js = joint_eigenspace(w.pair, lam)
        assert js.s0_basis.dim == k
        assert js.is_neutral_s0


def test_joint_eigenspace_upper_family():
    for k in (1, 2, 3):
        w = witness_complex_a_upper(k, 0)
        js = joint_eigenspace(w.pair, 0)
        assert js.s0_basis.dim == k
        assert js.is_neutral_s0


def test_joint_eigenspace_scalar_operator_is_whole_space():
    pair = MatrixPair.from_matrices(
        Matrix.diagonal([3, 3], COMPLEX), Matrix.diagonal([1, -1], COMPLEX)
    )
    js = joint_eigenspace(pair, 3)
    assert js.s0_basis.dim == 2
    assert not js.is_neutral_s0


def test_joint_eigenspace_real_on_witnesses():
    js = joint_eigenspace_real(witness_real_c_even(2, 0, 1).pair, 0, 1)
    assert (js.s0_basis.dim, js.s0_prime_dim, js.s0_doubleprime_dim) == (2, 1, 0)
    js = joint_eigenspace_real(witness_real_c_odd(3, 0, 1).pair, 0, 1)
    assert (js.s0_basis.dim, js.s0_prime_dim, js.s0_doubleprime_dim) == (2, 0, 1)
    for k in (2, 4, 6):
        js = joint_eigenspace_real(witness_real_c_even(k, 1, 2).pair, 1, 2)
        assert js.s0_basis.dim == 2


def test_joint_eigenspace_real_rotation_with_euclidean_gram():
    pair = MatrixPair.from_matrices(rotation_block(0, 1), Matrix.identity(2, REAL))
    js = joint_eigenspace_real(pair, 0, 1)
    assert js.s0_basis.dim == 2
    assert (js.s0_prime_dim, js.s0_doubleprime_dim) == (1, 0)
    assert not js.is_neutral_s0


# --- corner reductions -----------------------------------------------------------


def _check_round_trip(pair, red):
    t = red.transform
    assert t.inverse() @ pair.n_op @ t == red.reduced_n
    assert t.conj_transpose() @ pair.space.h @ t == red.reduced_h
    # recover the originals exactly
    tinv = t.inverse()
    assert t @ red.reduced_n @ tinv == pair.n_op
    assert tinv.conj_transpose() @ red.reduced_h @ tinv == pair.space.h


def test_reduce_lower_family_gives_trivial_middle():
    for k in (1, 2, 3):
        lam = parse_scalar("1i")
        w = witness_complex_a_lower(k, lam)
        red = reduce_single_eigenvalue(w.pair, lam)
        assert red.block_dims == (k, 0, k)
        _check_round_trip(w.pair, red)
        # with an empty middle the reduced pair IS the two-block layout
        assert red.reduced_n.submatrix(0, k, 0, k) == Matrix.identity(k, COMPLEX) * lam
        assert red.reduced_h == w.pair.space.h


def test_reduce_upper_family_blocks():
    for k in (1, 2, 3):
        w = witness_complex_a_upper(k, 0)
        red = reduce_single_eigenvalue(w.pair, 0)
        assert red.block_dims == (k, 2 * k, k)
        _check_round_trip(w.pair, red)


def test_reduce_two_by_two():
    lam = parse_scalar("2-1i")
    pair = MatrixPair.from_matrices(
        Matrix.from_rows([[lam, 1], [0, lam]], COMPLEX),
        Matrix.from_rows([[0, 1], [1, 0]], COMPLEX),
    )
    red = reduce_single_eigenvalue(pair, lam)
    assert red.block_dims == (1, 0, 1)


def test_reduce_rejects_multi_eigenvalue():
    w = witness_complex_b(2, 0, 1)
    with pytest.raises(NotSingleEigenvalue):
        reduce_single_eigenvalue(w.pair, 0)


def test_reductions_reject_a_pair_that_is_not_h_normal():
    # each spectrum is the one the reduction expects; only H-normality fails
    identity = Matrix.identity(2, REAL)
    nilpotent = MatrixPair.from_matrices(Matrix.from_rows([[0, 1], [0, 0]], REAL), identity)
    with pytest.raises(NotHNormal):
        reduce_single_eigenvalue(nilpotent, 0)
    rotation = MatrixPair.from_matrices(Matrix.from_rows([[1, -2], [1, -1]], REAL), identity)
    with pytest.raises(NotHNormal):
        reduce_conjugate_pair(rotation, 0, 1)


def test_reduce_rejects_non_neutral_core():
    pair = MatrixPair.from_matrices(
        Matrix.diagonal([3, 3], COMPLEX), Matrix.diagonal([1, -1], COMPLEX)
    )
    with pytest.raises(S0NotNeutral):
        reduce_single_eigenvalue(pair, 3)


def test_reduce_conjugate_pair_even_family():
    w = witness_real_c_even(2, 0, 1)
    red = reduce_conjugate_pair(w.pair, 0, 1)
    assert red.block_dims == (2, 0, 2)
    _check_round_trip(w.pair, red)
    assert red.reduced_n.submatrix(0, 2, 0, 2) == rotation_block(0, 1)
    # p = 1: the dual corner is another rotation block
    assert red.reduced_n.submatrix(2, 4, 2, 4) == rotation_block(0, 1)


def test_reduce_conjugate_pair_odd_family():
    w = witness_real_c_odd(3, 0, 1)
    red = reduce_conjugate_pair(w.pair, 0, 1)
    assert red.block_dims == (2, 2, 2)
    _check_round_trip(w.pair, red)
    # q = 1: the dual corner is the transposed rotation block
    assert red.reduced_n.submatrix(4, 6, 4, 6) == rotation_block(0, 1).conj_transpose()


def test_reduce_conjugate_pair_larger_even_family():
    w = witness_real_c_even(4, 1, 2)
    red = reduce_conjugate_pair(w.pair, 1, 2)
    assert red.block_dims == (2, 4, 2)
    _check_round_trip(w.pair, red)


def test_reduce_conjugate_pair_rejects_wrong_spectrum():
    w = witness_real_c_even(2, 0, 1)
    with pytest.raises(WrongSpectrum):
        reduce_conjugate_pair(w.pair, 0, 2)


def test_reduce_conjugate_pair_rejects_non_neutral():
    pair = MatrixPair.from_matrices(rotation_block(0, 1), Matrix.identity(2, REAL))
    with pytest.raises(S0NotNeutral):
        reduce_conjugate_pair(pair, 0, 1)


def test_classify_and_reduce_compute_the_h_adjoint_once_per_pair(monkeypatch):
    import krein.spaces
    from krein.spaces import is_h_normal

    calls = []
    real_h_adjoint = krein.spaces.h_adjoint

    def counting(a, space):
        calls.append(a)
        return real_h_adjoint(a, space)

    monkeypatch.setattr(krein.spaces, "h_adjoint", counting)
    for w, reduce in (
        (witness_complex_a_upper(2, 1), lambda p: reduce_single_eigenvalue(p, 1)),
        (witness_real_c_odd(3, 0, 1), lambda p: reduce_conjugate_pair(p, 0, 1)),
    ):
        pair = MatrixPair.from_matrices(w.pair.n_op, w.pair.space.h)
        calls.clear()
        assert is_h_normal(pair)
        classify(pair)
        reduce(pair)
        # the one call takes the centred operator C = n d N - tr(d N) I
        n, scale = pair.n, pair.n * pair.n_op._d
        centred = pair.n_op * scale - Matrix.identity(n, pair.field) * (pair.n_op.trace() * pair.n_op._d)
        assert calls == [centred]
        assert pair.adjoint == real_h_adjoint(pair.n_op, pair.space)


def test_a_singular_corner_transform_is_reported_as_a_construction_bug(monkeypatch):
    classify_module = importlib.import_module("krein.classify")  # krein.classify is the function

    # a transform with n columns whose last column repeats the first
    def singular_hstack(mats):
        t = hstack(mats)
        return hstack([t.submatrix(0, t.rows, 0, t.cols - 1), t.submatrix(0, t.rows, 0, 1)])

    monkeypatch.setattr(classify_module, "hstack", singular_hstack)
    with pytest.raises(KreinError, match=r"^corner transform failed to span the space \(construction bug\)$"):
        reduce_single_eigenvalue(witness_complex_a_lower(2, 1).pair, 1)


def test_a_corner_transform_with_an_extra_column_is_reported_as_a_construction_bug(monkeypatch):
    classify_module = importlib.import_module("krein.classify")

    def widened_hstack(mats):
        t = hstack(mats)
        return hstack([t, t.submatrix(0, t.rows, 0, 1)])

    monkeypatch.setattr(classify_module, "hstack", widened_hstack)
    with pytest.raises(KreinError, match=r"^corner transform failed to span the space \(construction bug\)$"):
        reduce_single_eigenvalue(witness_complex_a_upper(1, 0).pair, 0)


def test_a_misordered_corner_transform_is_reported_as_a_construction_bug(monkeypatch):
    classify_module = importlib.import_module("krein.classify")

    # the transform with its first two columns swapped: still nonsingular,
    # but its reduced Gram matrix no longer has the corner shape
    def swapped_hstack(mats):
        t = hstack(mats)
        cols = [t.submatrix(0, t.rows, j, j + 1) for j in range(t.cols)]
        cols[0], cols[1] = cols[1], cols[0]
        return hstack(cols)

    monkeypatch.setattr(classify_module, "hstack", swapped_hstack)
    with pytest.raises(KreinError, match=r"^reduced Gram matrix misses the corner shape \(construction bug\)$"):
        reduce_single_eigenvalue(witness_complex_a_lower(2, 1).pair, 1)


# --- the corner reductions against the explicit inverse ---------------------------

CORNER_FAMILIES = ("complex-a-lower", "complex-a-upper", "real-c-even", "real-c-odd")


def _corner_witnesses(kmax):
    # c-odd k = 1 is left out: its joint eigenspace is the whole plane, not neutral
    ks = {f: [k for k in admissible_ks(f, kmax) if (f, k) != ("real-c-odd", 1)] for f in CORNER_FAMILIES}
    return [build_witness(f, k, {}) for f in CORNER_FAMILIES for k in ks[f]]


def _reduce_witness_pair(w, pair):
    """The corner reduction of ``pair``, a pair congruent to the witness ``w``."""
    params = w.spec.eigen_params
    if pair.field == COMPLEX:
        return reduce_single_eigenvalue(pair, params[0])
    return reduce_conjugate_pair(pair, params[0].re, params[1].re)


def _gaussian_hidden_copies(pair, count):
    """``count`` copies of a complex pair, each hidden by 2n shears
    I + c e_i e_j^T with c = a + bi, |a| <= 2 and 1 <= |b| <= 2, drawn from
    one ``random.Random`` stream."""
    rng = random.Random(20261020)
    n = pair.n
    for _ in range(count):
        shears = [
            (i, j + (j >= i), GaussianRational(rng.randint(-2, 2), rng.choice((-2, -1, 1, 2))))
            for i, j in ((rng.randrange(n), rng.randrange(n - 1)) for _ in range(2 * n))
        ]
        yield _hidden(pair, shears)


def test_corner_reductions_match_the_explicit_inverse():
    # T^-1 N T read off the Gram identity is the product with the inverse of
    # T; over C, Gaussian-integer shears make the centred operator complex
    for w in _corner_witnesses(4):
        hidden = list(_hidden_copies(w.pair, 3))
        if w.pair.field == COMPLEX:
            gaussian = list(_gaussian_hidden_copies(w.pair, 2))
            assert all(pair.centred._im for pair in gaussian)
            hidden += gaussian
        for pair in [w.pair, *hidden]:
            red = _reduce_witness_pair(w, pair)
            t = red.transform
            assert red.reduced_n == t.inverse() @ pair.n_op @ t
            assert red.reduced_h == t.conj_transpose() @ pair.space.h @ t


def test_corner_reductions_invert_no_n_by_n_matrix(monkeypatch):
    cases = [(w, pair) for w in _corner_witnesses(4) for pair in [w.pair, *_hidden_copies(w.pair, 1)]]
    for _, pair in cases:
        pair.adjoint  # H^-1 is n x n; the adjoint is computed once, before any reduction
    sizes = []
    real_inverse = Matrix.inverse

    def recording_inverse(m):
        sizes.append(m.rows)
        return real_inverse(m)

    monkeypatch.setattr(Matrix, "inverse", recording_inverse)
    for w, pair in cases:
        sizes.clear()
        red = _reduce_witness_pair(w, pair)
        assert pair.n not in sizes
        assert sizes == [red.block_dims[1]]  # the middle block G alone


def test_reduced_gram_matrices_carry_the_inertia_of_h():
    # Sylvester's law: the inertia set on R_H = T* H T is the one its own
    # congruence reduction gives
    for w in _corner_witnesses(4):
        for pair in [w.pair, *_hidden_copies(w.pair, 3)]:
            rh = _reduce_witness_pair(w, pair).reduced_h
            assert rh._inertia == _hermitian_inertia(rh.rows, rh._re, rh._im)
            assert rh._inertia == (pair.space.v_minus, 0, pair.space.v_plus)


def test_the_reduced_pair_runs_no_second_congruence_reduction(monkeypatch):
    calls = []
    real_inertia = krein.spaces._hermitian_inertia

    def counting_inertia(*args):
        calls.append(args[0])
        return real_inertia(*args)

    monkeypatch.setattr(krein.spaces, "_hermitian_inertia", counting_inertia)
    for w in _corner_witnesses(4):
        for pair in [w.pair, *_hidden_copies(w.pair, 1)]:
            red = _reduce_witness_pair(w, pair)
            calls.clear()
            reduced = MatrixPair.from_matrices(red.reduced_n, red.reduced_h)
            assert calls == []
            assert reduced.space.signature == pair.space.signature


# --- corner reductions under congruences that are not unimodular ------------------


@st.composite
def _rational_congruences(draw):
    """A corner witness of rank k <= 3 and an invertible rational S, the
    product of a diagonal scaling with no unit determinant and of shears
    I + c e_i e_j^T with small rational c."""
    w = draw(st.sampled_from(_corner_witnesses(3)))
    n, field = w.pair.n, w.pair.field
    small = st.fractions(-3, 3, max_denominator=4).filter(bool)
    scale = draw(st.lists(small, min_size=n, max_size=n).filter(lambda d: abs(prod(d)) != 1))
    s = Matrix.diagonal(scale, field)
    for _ in range(draw(st.integers(1, n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 2))
        j += j >= i
        ents = [1 if a == b else (draw(small) if (a, b) == (i, j) else 0) for a in range(n) for b in range(n)]
        s = s @ Matrix(n, n, ents, field)
    return w, s


@settings(max_examples=20, deadline=None)
@given(_rational_congruences())
def test_corner_reductions_survive_rational_congruence(case):
    w, s = case
    plain = w.pair
    pair = MatrixPair.from_matrices(s.inverse() @ plain.n_op @ s, s.conj_transpose() @ plain.space.h @ s)
    report, expected = classify(pair), classify(plain)
    assert (report.case_label, report.bound_window, report.bound_ok) == (
        expected.case_label, expected.bound_window, expected.bound_ok,
    )
    red, ref = _reduce_witness_pair(w, pair), _reduce_witness_pair(w, plain)
    assert red.block_dims == ref.block_dims
    n, d = pair.n, red.block_dims[0]
    for r0, r1 in ((0, d), (n - d, n)):
        assert red.reduced_n.submatrix(r0, r1, r0, r1) == ref.reduced_n.submatrix(r0, r1, r0, r1)
    t = red.transform
    assert t.rank() == n
    assert t @ red.reduced_n == pair.n_op @ t
    assert t.conj_transpose() @ pair.space.h @ t == red.reduced_h


# --- the centred operator: everything is invariant under N -> N + mu I ----------


def _uncentred_joint_kernel(pair, lam, adjoint_value):
    """ker(N - lam I) intersected with ker(N^[*] - adjoint_value I) over C,
    from the uncentred operator and its own H-adjoint."""
    ident = Matrix.identity(pair.n, COMPLEX)
    n_op, adj = pair.n_op.complexified(), h_adjoint(pair.n_op, pair.space).complexified()
    return vstack([n_op - ident * lam, adj - ident * adjoint_value]).kernel_basis()


_L1, _L2 = GaussianRational(1, 1), GaussianRational(Fraction(-1, 2), 2)

# (family, pair, eigenvalues): the corner witnesses, and sums of two a
# witnesses with nonreal eigenvalues, where conj(delta) != delta at an eigenvalue
_SHIFT_PAIRS = [(w.spec.family, w.pair, w.spec.eigen_params) for w in _corner_witnesses(4)] + [
    ("sum", direct_sum(witness_complex_a_lower(1, _L1).pair, witness_complex_a_lower(2, _L2).pair), (_L1, _L2)),
    ("sum", direct_sum(witness_complex_a_upper(1, _L2).pair, witness_complex_a_lower(1, _L1).pair), (_L2, _L1)),
]


@st.composite
def _shifted_congruences(draw):
    """A pair of ``_SHIFT_PAIRS`` hidden by shears I + c e_i e_j^T with c a
    small rational or, over C, Gaussian rational, and a shift mu of the
    pair's field."""
    family, plain, params = draw(st.sampled_from(_SHIFT_PAIRS))
    n, field = plain.n, plain.field
    small = st.fractions(-2, 2, max_denominator=3)
    scalar = small if field == REAL else st.builds(GaussianRational, small, small)
    s = Matrix.identity(n, field)
    for _ in range(draw(st.integers(1, n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 2))
        j += j >= i
        ents = [1 if a == b else (draw(scalar) if (a, b) == (i, j) else 0) for a in range(n) for b in range(n)]
        s = s @ Matrix(n, n, ents, field)
    pair = MatrixPair.from_matrices(s.inverse() @ plain.n_op @ s, s.conj_transpose() @ plain.space.h @ s)
    mu = draw(st.fractions(-5, 5, max_denominator=7) if field == REAL else st.builds(
        GaussianRational, st.fractions(-5, 5, max_denominator=7), st.fractions(-5, 5, max_denominator=7)
    ))
    return family, pair, params, mu


@settings(max_examples=40, deadline=None)
@given(_shifted_congruences())
def test_the_pair_computations_are_invariant_under_a_shift(case):
    family, pair, params, mu = case
    n, field = pair.n, pair.field
    ident = Matrix.identity(n, field)
    shifted = MatrixPair(pair.n_op + ident * mu, pair.space)
    assert is_h_normal(shifted) and is_h_normal(pair)
    # the two 2x2 pairs that are not H-normal stay rejected under the shift
    plane = Matrix.identity(2, field)
    for rows in ([[0, 1], [0, 0]], [[1, -2], [1, -1]]):
        n_op = Matrix.from_rows(rows, field)
        assert not is_h_normal(MatrixPair.from_matrices(n_op, plane))
        assert not is_h_normal(MatrixPair.from_matrices(n_op + plane * mu, plane))
    for p in (pair, shifted):
        assert p.adjoint == h_adjoint(p.n_op, p.space)
    # the joint eigenspaces at the eigenvalues and at a value that is not one
    if field == COMPLEX:
        for z in (*params, params[0] + GaussianRational(1, 1)):
            ref = joint_eigenspace(pair, z)
            assert list(ref.s0_basis.vectors) == _uncentred_joint_kernel(pair, z, z.conjugate())
            assert bool(ref.s0_basis.dim) == (z in params)
            moved = joint_eigenspace(shifted, z + mu)
            assert moved.s0_basis.vectors == ref.s0_basis.vectors
            assert moved.is_neutral_s0 == ref.is_neutral_s0
        if family == "sum":
            return
        red, moved = reduce_single_eigenvalue(pair, params[0]), reduce_single_eigenvalue(shifted, params[0] + mu)
    else:
        alpha, beta = params[0].re, params[1].re
        for a in (alpha, alpha + 1):
            ref = joint_eigenspace_real(pair, a, beta)
            z = GaussianRational(a, beta)
            prime, dprime = _uncentred_joint_kernel(pair, z, z.conjugate()), _uncentred_joint_kernel(pair, z, z)
            assert (ref.s0_prime_dim, ref.s0_doubleprime_dim) == (len(prime), len(dprime))
            assert ref.s0_basis.vectors == _real_span_of_complex(prime + dprime, n).vectors
            moved = joint_eigenspace_real(shifted, a + mu, beta)
            assert moved.s0_basis.vectors == ref.s0_basis.vectors
            assert (moved.s0_prime_dim, moved.s0_doubleprime_dim) == (ref.s0_prime_dim, ref.s0_doubleprime_dim)
        red, moved = reduce_conjugate_pair(pair, alpha, beta), reduce_conjugate_pair(shifted, alpha + mu, beta)
    assert (moved.transform, moved.reduced_h, moved.block_dims) == (red.transform, red.reduced_h, red.block_dims)
    assert moved.reduced_n == red.reduced_n + ident * mu
