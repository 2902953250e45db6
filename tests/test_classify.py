import importlib
import re
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krein.classify import (
    OUT_OF_SCOPE,
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
from krein.matrices import COMPLEX, REAL, Matrix, hstack
from krein.polynomials import poly_roots
from krein.scalars import GaussianRational, parse_scalar
from krein.spaces import MatrixPair, direct_sum
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
        assert calls == [pair.n_op]
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
