import json
import random
from contextlib import contextmanager
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_acceptance import GLUED_PAIRS

from krein.classify import joint_eigenspace_real
from krein.decompose import (
    Certificate,
    _trace_form,
    certify_family,
    commutant_basis,
    search_decomposition,
    selfadjoint_commutant_basis,
    verify_certificate,
)
from krein.exceptions import ParameterError
from krein.matrices import COMPLEX, REAL, Matrix, hstack, kernel_of_sparse_rows
from krein.pairdoc import parse_document, serialize_pair
from krein.polynomials import poly_roots
from krein.scalars import I_UNIT, ZERO, GaussianRational, format_scalar, integer_form
from krein.spaces import (
    MatrixPair,
    SubspaceBasis,
    direct_sum,
    h_adjoint,
    is_neutral,
    is_nondegenerate,
)
from krein.witnesses import (
    ALL_FAMILIES,
    admissible_ks,
    build_witness,
    chain_matrix,
    witness_complex_a_lower,
    witness_complex_a_upper,
    witness_complex_b,
    witness_real_c_even,
    witness_real_c_odd,
    witness_real_d,
    witness_real_e,
)

SEED = 20240813


def _in_span(target: Matrix, basis: list[Matrix]) -> bool:
    cols = [Matrix.column(list(b.entries), b.field) for b in basis]
    stacked = hstack(cols)
    extended = hstack(cols + [Matrix.column(list(target.entries), target.field)])
    return stacked.rank() == extended.rank()


# --- commutants -----------------------------------------------------------------


def test_commutant_of_scalar_operator_is_everything():
    pair = MatrixPair.from_matrices(
        Matrix.diagonal([7, 7], COMPLEX), Matrix.identity(2, COMPLEX)
    )
    assert len(commutant_basis(pair)) == 4


def test_commutant_of_distinct_diagonal_is_diagonal():
    pair = MatrixPair.from_matrices(
        Matrix.diagonal([1, 2], COMPLEX), Matrix.identity(2, COMPLEX)
    )
    basis = commutant_basis(pair)
    assert len(basis) == 2
    for b in basis:
        assert not b[0, 1] and not b[1, 0]


def test_commutant_contains_identity_and_operator():
    w = witness_complex_a_lower(2, 0)
    basis = commutant_basis(w.pair)
    adj = h_adjoint(w.pair.n_op, w.pair.space)
    for b in basis:
        assert b @ w.pair.n_op == w.pair.n_op @ b
        assert b @ adj == adj @ b
    assert _in_span(Matrix.identity(4, COMPLEX), basis)
    assert _in_span(w.pair.n_op, basis)


def test_selfadjoint_commutant_hermitian_dimension():
    pair = MatrixPair.from_matrices(
        Matrix.diagonal([7, 7], COMPLEX), Matrix.identity(2, COMPLEX)
    )
    basis = selfadjoint_commutant_basis(pair)
    assert len(basis) == 4  # real dimension of 2x2 Hermitian matrices
    for b in basis:
        assert b == h_adjoint(b, pair.space)


def test_selfadjoint_commutant_contains_identity():
    for family in ALL_FAMILIES:
        w = build_witness(family, admissible_ks(family, 2)[0], {})
        basis = selfadjoint_commutant_basis(w.pair)
        assert _in_span(Matrix.identity(w.pair.n, w.pair.field), basis)


def test_glued_pair_selfadjoint_commutant_contains_block_projections():
    a = witness_complex_b(1, 0, 1).pair
    b = witness_complex_b(1, 2, 3).pair
    g = direct_sum(a, b)
    basis = selfadjoint_commutant_basis(g)
    proj = Matrix.block_diagonal(
        [Matrix.identity(2, COMPLEX), Matrix.zeros(2, 2, COMPLEX)]
    )
    assert _in_span(proj, basis)
    assert _in_span(Matrix.identity(4, COMPLEX) - proj, basis)


# --- reference oracle for the commutant ----------------------------------------


def _reference_sylvester_rows(a, n):
    """Sparse GaussianRational rows of X A - A X = 0 in the n^2 unknowns X_ij."""
    rows = []
    for i in range(n):
        for j in range(n):
            row = {}
            for l in range(n):
                for key, v in ((i * n + l, a[l, j]), (l * n + j, -a[i, l])):
                    if v:
                        nv = row.get(key, ZERO) + v
                        if nv:
                            row[key] = nv
                        else:
                            del row[key]
            if row:
                rows.append(row)
    return rows


def reference_commutant(mats, n, field):
    """{X : X A = A X for every A in mats}, with boxed scalars throughout: the
    Sylvester rows as GaussianRationals, their kernel from
    ``kernel_of_sparse_rows`` and each basis matrix from its entries."""
    rows = [row for a in mats for row in _reference_sylvester_rows(a, n)]
    out = []
    for v in kernel_of_sparse_rows(rows, n * n):
        ents = [ZERO] * (n * n)
        for idx, val in v.items():
            ents[idx] = val
        out.append(Matrix(n, n, ents, field))
    return out


_EXTREME = [Fraction(10**40), Fraction(-(10**40), 7), Fraction(1, 1000003)]
_real_entries = st.sampled_from([0, 0, 1, -2] + _EXTREME)


@st.composite
def _commutant_inputs(draw):
    """A pair whose operator is zero, scalar or dense, real or Gaussian, with
    entries 10^40, -10^40/7 and 1/1000003 among small ones, and whose Gram
    matrix is I, diag(1, -1, ...) or the flip; it need not be H-normal."""
    field = draw(st.sampled_from([REAL, COMPLEX]))
    n = draw(st.integers(1, 4))
    entries = (
        _real_entries
        if field == REAL
        else st.builds(GaussianRational, _real_entries, _real_entries)
    )
    kind = draw(st.sampled_from(["zero", "scalar", "dense", "dense"]))
    if kind == "zero":
        op = Matrix.zeros(n, n, field)
    elif kind == "scalar":
        op = Matrix.identity(n, field) * draw(entries)
    else:
        op = Matrix(n, n, [draw(entries) for _ in range(n * n)], field)
    gram = draw(st.sampled_from([
        Matrix.identity(n, field),
        Matrix.diagonal([(-1) ** i for i in range(n)], field),
        Matrix.from_rows([[int(i + j == n - 1) for j in range(n)] for i in range(n)], field),
    ]))
    return MatrixPair.from_matrices(op, gram)


def _assert_commutant_matches_the_reference(pair):
    mats = [pair.n_op, pair.adjoint]
    got = commutant_basis(pair)
    assert [repr(x) for x in got] == [repr(x) for x in reference_commutant(mats, pair.n, pair.field)]
    for x in got:
        for a in mats:
            assert x @ a == a @ x


@settings(max_examples=60, deadline=None)
@given(_commutant_inputs())
def test_commutant_matches_the_boxed_reference(pair):
    _assert_commutant_matches_the_reference(pair)


def test_commutant_of_witnesses_and_glued_sums_matches_the_boxed_reference():
    for pair in _reference_pairs():
        _assert_commutant_matches_the_reference(pair)


def test_commutant_systems_do_no_scalar_arithmetic(monkeypatch):
    # the commutant, its selfadjoint part and the certificates before any draw
    # run on the integer form of each matrix: no GaussianRational is added,
    # subtracted or multiplied
    pairs = [build_witness(family, k, {}).pair for family in ALL_FAMILIES for k in admissible_ks(family, 3)]

    def boxed(*args):
        raise AssertionError("GaussianRational arithmetic")

    for name in ("__add__", "__sub__", "__mul__"):
        monkeypatch.setattr(GaussianRational, name, boxed)
    for pair in pairs:
        assert commutant_basis(pair)
        assert selfadjoint_commutant_basis(pair)
        assert search_decomposition(pair).status == "indecomposable"


# --- reference oracle for the selfadjoint commutant ------------------------------


def reference_real_span_solutions(basis, defect):
    """{X in span(basis) : defect(X) = 0} the direct way: every generator B
    and i B goes through the real-linear ``defect``, each entry of the result
    gives a real and an imaginary row, and each kernel vector is summed back
    with ``Matrix`` arithmetic."""
    gens = []
    for b in basis:
        gens.append(b)
        if b.field == COMPLEX:
            gens.append(b * I_UNIT)
    if not gens:
        return []
    rows = []
    for at_pos in zip(*(defect(g).entries for g in gens)):
        rows.append({i: GaussianRational(e.re) for i, e in enumerate(at_pos) if e.re})
        rows.append({i: GaussianRational(e.im) for i, e in enumerate(at_pos) if e.im})
    n, field = gens[0].rows, gens[0].field
    out = []
    for v in kernel_of_sparse_rows(rows, len(gens)):
        x = Matrix.zeros(n, n, field)
        for i, c in v.items():
            x = x + gens[i] * c
        out.append(x)
    return out


def reference_selfadjoint_basis(pair):
    """The selfadjoint commutant from the two-product defect HX - X*H."""
    h = pair.space.h
    return reference_real_span_solutions(commutant_basis(pair), lambda x: h @ x - x.conj_transpose() @ h)


def _n1_pair(pair, k):
    """(N1, I) for the block N1 = N[k:2k, 3k:4k] of a 4k x 4k pair: a Hermitian X
    that commutes with N1 commutes with N1* too, so its selfadjoint commutant
    is the Hermitian commutant of N1."""
    return MatrixPair.from_matrices(pair.n_op.submatrix(k, 2 * k, 3 * k, 4 * k), Matrix.identity(k, pair.field))


def _reference_pairs():
    for family in ALL_FAMILIES:
        for k in admissible_ks(family, 3):
            yield build_witness(family, k, {}).pair
    for make in GLUED_PAIRS:
        yield make()


def test_selfadjoint_basis_matches_the_two_product_reference():
    for pair in _reference_pairs():
        got = [repr(x) for x in selfadjoint_commutant_basis(pair)]
        assert got == [repr(x) for x in reference_selfadjoint_basis(pair)], pair


def _reference_a_upper_layout(pair, k):
    """Block by block: H is the 4k permutation Gram matrix, and N has lam I
    on the block diagonal, I at block (0, 1) and zeros below the diagonal
    and at blocks (0, 2), (0, 3) and (1, 2)."""
    nmat, h = pair.n_op, pair.space.h
    ident, zero = Matrix.identity(k, pair.field), Matrix.zeros(k, k, pair.field)

    def block(m, r, c):
        return m.submatrix(r * k, (r + 1) * k, c * k, (c + 1) * k)

    h_ok = all(block(h, r, c) == (ident if (r, c) in ((0, 3), (1, 1), (2, 2), (3, 0)) else zero)
               for r in range(4) for c in range(4))
    n_ok = all(block(nmat, r, r) == ident * nmat[0, 0] for r in range(4)) and block(nmat, 0, 1) == ident
    zeros = [(r, c) for r in range(4) for c in range(r)] + [(0, 2), (0, 3), (1, 2)]
    return h_ok and n_ok and all(block(nmat, r, c) == zero for r, c in zeros)


def test_projection_scalar_evidence_matches_the_reference():
    # the a-upper argument (witness_complex_a_upper): in the 4k layout N1 is
    # nonsingular and only real scalars are Hermitian and commute with it
    checked = 0
    layouts = 0
    for pair in _reference_pairs():
        if pair.n % 4:
            continue
        k = pair.n // 4
        n1_pair = _n1_pair(pair, k)
        got = selfadjoint_commutant_basis(n1_pair)
        assert [repr(x) for x in got] == [repr(x) for x in reference_selfadjoint_basis(n1_pair)]
        if _reference_a_upper_layout(pair, k):
            ident = Matrix.identity(k, pair.field)
            assert n1_pair.n_op.rank() == k
            assert len(got) == 1 and got[0] == ident * got[0][0, 0]
            assert verify_certificate(pair, search_decomposition(pair).certificate)
            layouts += 1
        checked += 1
    assert checked >= 6
    assert layouts == 3  # the a-upper witnesses k = 1, 2, 3


_SMALL_PAIRS = [
    lambda: witness_complex_a_lower(1, 0).pair,
    lambda: witness_complex_a_upper(1, GaussianRational(1, 2)).pair,
    lambda: witness_complex_b(2, 0, 1).pair,
    lambda: witness_real_c_even(2, 0, 1).pair,
    lambda: witness_real_c_odd(1, Fraction(1, 2), 1).pair,
    lambda: direct_sum(witness_complex_b(1, 0, 1).pair, witness_complex_b(1, 2, 3).pair),
    lambda: direct_sum(witness_real_c_odd(1, 0, 1).pair, witness_real_c_odd(1, 0, 2).pair),
]


def _hidden(pair, shears):
    """The pair hidden by (N, H) -> (T^-1 N T, T* H T), for T the product of
    the shears I + c e_i e_j^T over the (i, j, c) in ``shears``, so det T is 1."""
    n, field = pair.n, pair.field
    t = Matrix.identity(n, field)
    for i, j, c in shears:
        ents = [1 if a == b else (c if (a, b) == (i, j) else 0) for a in range(n) for b in range(n)]
        t = t @ Matrix(n, n, ents, field)
    return MatrixPair.from_matrices(t.inverse() @ pair.n_op @ t, t.conj_transpose() @ pair.space.h @ t)


def _units(field):
    return [1, -1] + ([I_UNIT, -I_UNIT] if field == COMPLEX else [])


@st.composite
def _unimodular_congruences(draw):
    """A small pair and the pair hidden by shears with c = +-1 (or +-i over C)."""
    pair = draw(st.sampled_from(_SMALL_PAIRS))()
    n = pair.n
    shears = []
    for _ in range(draw(st.integers(1, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 2))
        shears.append((i, j + (j >= i), draw(st.sampled_from(_units(pair.field)))))
    return pair, _hidden(pair, shears)


@settings(max_examples=25, deadline=None)
@given(_unimodular_congruences())
def test_selfadjoint_basis_matches_the_reference_under_congruence(pairs):
    _, pair = pairs
    assert [repr(x) for x in selfadjoint_commutant_basis(pair)] == [
        repr(x) for x in reference_selfadjoint_basis(pair)
    ]


# --- certificates ------------------------------------------------------------------


_QUOTIENT = "selfadjoint_quotient_field"

# a certificate of each kind that the family rules and the scalar-commutant
# rule issued, with the evidence they recorded, and the pair they certified
_REMOVED_KINDS = [
    (lambda: witness_complex_b(1, 0, 1).pair, Certificate("neutral_eigenspan", {
        "primary": "0", "secondary": "1", "primary_geometric_dim": 1, "secondary_eigenspace_dim": 1,
        "secondary_semisimple": True, "eigenspan_dim": 1, "eigenspan_gram_zero": True, "spectrum": ["0", "1"],
    })),
    (lambda: witness_complex_a_lower(1, 0).pair, Certificate("jordan_chain_unique", {
        "k": 1, "eigenvalue": "0", "corner_layout_ok": True, "chain_factor_ok": True, "chain_eigenvector_dim": 1,
    })),
    (lambda: witness_complex_a_upper(1, 0).pair, Certificate("projection_scalar", {
        "k": 1, "layout_ok": True, "n1_nonsingular": True, "hermitian_commutant_dim": 1,
        "hermitian_commutant_scalar": True,
    })),
    (lambda: witness_real_c_odd(1, 0, 1).pair, Certificate("joint_eigenspace_two_dim", {
        "alpha": "0", "beta": "1", "s0_dim": 2, "p": 0, "q": 1, "s0_neutral": False, "spectrum_ok": True,
    })),
    (lambda: MatrixPair.from_matrices(Matrix.diagonal([5], COMPLEX), Matrix.diagonal([1], COMPLEX)),
     Certificate("scalar_selfadjoint_commutant", {"selfadjoint_commutant_dim": 1, "scalar": True})),
]


def test_certificates_of_removed_kinds_do_not_verify():
    # an older log's certificate is rejected, not raised, on the very pair it
    # certified, and that pair's own certificate verifies
    for make, old in _REMOVED_KINDS:
        pair = make()
        assert verify_certificate(pair, old) is False, old.kind
        own = search_decomposition(pair).certificate
        assert own.kind == _QUOTIENT and own.evidence["trace_form_inertia"][2] == 1
        assert verify_certificate(pair, own)


def test_scalar_certificate_for_one_dimensional_pair():
    pair = MatrixPair.from_matrices(
        Matrix.diagonal([5], COMPLEX), Matrix.diagonal([1], COMPLEX)
    )
    cert = search_decomposition(pair).certificate
    assert cert == Certificate(_QUOTIENT, {
        "selfadjoint_commutant_dim": 1, "trace_form_rank": 1, "trace_form_inertia": [0, 0, 1],
    })
    assert verify_certificate(pair, cert)


def test_scalar_certificate_on_real_witness_either_way():
    # the selfadjoint commutant is not the scalars, and the trace form on it
    # still certifies the witness
    w = witness_real_c_even(2, 0, 1)
    cert = certify_family(w)
    assert len(selfadjoint_commutant_basis(w.pair)) == cert.evidence["selfadjoint_commutant_dim"] > 1
    assert verify_certificate(w.pair, cert)


def test_no_scalar_certificate_for_decomposable_pair():
    pair = MatrixPair.from_matrices(
        Matrix.diagonal([1, 2], COMPLEX), Matrix.identity(2, COMPLEX)
    )
    assert search_decomposition(pair).certificate is None
    for fake in (
        Certificate("scalar_selfadjoint_commutant", {"selfadjoint_commutant_dim": 1, "scalar": True}),
        Certificate(_QUOTIENT, {"selfadjoint_commutant_dim": 1, "trace_form_rank": 1, "trace_form_inertia": [0, 0, 1]}),
    ):
        assert not verify_certificate(pair, fake)


def test_family_certificates_verify():
    for family in ALL_FAMILIES:
        for k in admissible_ks(family, 3):
            w = build_witness(family, k, {})
            cert = certify_family(w)
            assert cert.kind == _QUOTIENT and cert.evidence["trace_form_inertia"][2] == 1
            assert verify_certificate(w.pair, cert), (family, k)
            verdict = search_decomposition(w.pair)
            assert verdict.status == "indecomposable" and verdict.certificate == cert


def test_certificate_for_an_eigenvalue_with_a_large_denominator():
    # the squarefree factor is 1000003 t^2 - t: its root 1/1000003 has the
    # denominator of the leading coefficient, as the Gauss lemma says
    w = witness_complex_b(2, Fraction(1, 1000003), 0)
    roots = poly_roots(w.pair.char_poly)
    assert all(r.is_exact for r in roots)
    assert sorted(format_scalar(r.value) for r in roots) == ["0", "1/1000003"]
    cert = certify_family(w)
    assert verify_certificate(w.pair, cert)


def test_projection_scalar_system_solved_by_hand():
    # for the k=2 default weights the commuting-Hermitian system collapses
    # to off-diagonal 0 and equal diagonal: 4q = 3 conj(q) forces q = 0, and
    # the coupling equation forces p = s, so P is scalar
    w = witness_complex_a_upper(2, 0)
    hermitian = selfadjoint_commutant_basis(_n1_pair(w.pair, 2))
    assert hermitian == [Matrix.identity(2, COMPLEX) * hermitian[0][0, 0]]
    assert verify_certificate(w.pair, certify_family(w))
    n1 = w.pair.n_op.submatrix(2, 4, 6, 8)
    assert n1 == Matrix.from_rows(
        [[0, Fraction(3, 5)], [Fraction(4, 5), 0]], COMPLEX
    )
    # independent check: a non-scalar Hermitian candidate fails to commute
    bad = Matrix.from_rows([[1, 0], [0, 2]], COMPLEX)
    assert bad @ n1 != n1 @ bad


def test_jordan_chain_certificate_evidence():
    # the a-lower argument (witness_complex_a_lower): W W*^-1 is the chain,
    # whose eigenspace is one line
    w = witness_complex_a_lower(3, 1)
    assert verify_certificate(w.pair, certify_family(w))
    chain = chain_matrix(3)
    corner = w.pair.n_op.submatrix(0, 3, 3, 6)
    assert corner @ corner.conj_transpose().inverse() == chain.matrix.with_field(COMPLEX)
    assert len((chain.matrix - Matrix.identity(3, REAL) * chain.sign).kernel_basis()) == 1


def test_neutral_eigenspan_certificate_for_real_d():
    # the real-d argument (witness_real_d): the eigenspace of lambda = 5 is the
    # second block, and it is neutral
    w = witness_real_d(2, 5, 0, 1)
    cert = certify_family(w)
    assert cert.kind == _QUOTIENT
    assert verify_certificate(w.pair, cert)
    eigenspan = SubspaceBasis((w.pair.n_op - Matrix.identity(4, REAL) * 5).kernel_basis(), 4, REAL)
    assert eigenspan.dim == 2 and is_neutral(eigenspan, w.pair.space)


def test_neutral_eigenspan_certificates_compute_no_signature(monkeypatch):
    import krein.spaces

    calls = []
    real_signature = krein.spaces.signature

    def counting(h):
        calls.append(h)
        return real_signature(h)

    witnesses = [witness_complex_b(2, 0, 1), witness_real_d(2, 5, 0, 1), witness_real_e(2, 0, 1, 1, 1)]
    monkeypatch.setattr(krein.spaces, "signature", counting)
    for w in witnesses:
        cert = certify_family(w)
        assert cert.kind == _QUOTIENT
        assert verify_certificate(w.pair, cert)
    assert calls == []


def test_joint_eigenspace_certificates_report_dimension_two():
    # the real-c argument (witness_real_c_even): the real joint eigenspace is
    # 2-dimensional
    for w in (witness_real_c_even(2, 0, 1), witness_real_c_even(4, 0, 1),
              witness_real_c_odd(1, 0, 1), witness_real_c_odd(3, 0, 1)):
        assert joint_eigenspace_real(w.pair, 0, 1).s0_basis.dim == 2
        assert verify_certificate(w.pair, certify_family(w))


def test_tampered_evidence_is_rejected():
    w = witness_real_c_even(2, 0, 1)
    cert = certify_family(w)
    tampered = dict(cert.evidence, selfadjoint_commutant_dim=3)
    assert not verify_certificate(w.pair, Certificate(cert.kind, tampered))
    w2 = witness_complex_a_lower(2, 0)
    cert2 = certify_family(w2)
    tampered2 = dict(cert2.evidence, trace_form_rank=2)
    assert not verify_certificate(w2.pair, Certificate(cert2.kind, tampered2))
    # evidence of the wrong type, or no certificate at all, is rejected, not raised
    w3 = witness_complex_b(2, 0, 1)
    cert3 = certify_family(w3)
    for bad in (
        Certificate(cert3.kind, dict(cert3.evidence, trace_form_inertia="1 2 1")),
        Certificate(cert3.kind, None),
        Certificate(None, cert3.evidence),
        cert3.to_json_dict(),
        None,
    ):
        assert verify_certificate(w3.pair, bad) is False, bad


def test_certificate_verification_against_wrong_pair():
    cert = certify_family(witness_complex_a_lower(2, 0))
    other = witness_complex_b(2, 0, 1)
    assert not verify_certificate(other.pair, cert)


def test_the_trace_form_is_computed_once_per_pair(monkeypatch):
    import krein.decompose as decompose

    calls = []
    real = decompose.selfadjoint_commutant_basis
    monkeypatch.setattr(decompose, "selfadjoint_commutant_basis", lambda pair: calls.append(pair) or real(pair))
    w = witness_real_c_odd(3, Fraction(1, 2), 1)
    cert = certify_family(w)
    assert verify_certificate(w.pair, cert)
    verdict = search_decomposition(w.pair)
    assert verdict.certificate == cert
    assert calls == [w.pair]
    # a pair parsed back from its document is a new object: computed again
    again, _ = parse_document(serialize_pair(w.pair))
    assert again == w.pair and again is not w.pair
    assert verify_certificate(again, cert)
    assert len(calls) == 2
    # forged evidence is still rejected on a pair that keeps its trace form
    ev = cert.evidence
    neg, zero, pos = ev["trace_form_inertia"]
    for forged in (dict(ev, trace_form_rank=ev["trace_form_rank"] + 1),
                   dict(ev, trace_form_inertia=[neg, zero - 1, pos + 1])):
        for pair in (w.pair, again):
            assert not verify_certificate(pair, Certificate(cert.kind, forged)), forged
    assert len(calls) == 2


def test_callers_get_their_own_copy_of_the_evidence():
    w = witness_complex_b(2, 0, 1)
    cert = certify_family(w)
    cert.evidence["trace_form_rank"] = 0
    cert.evidence["trace_form_inertia"][2] = 2
    verdict = search_decomposition(w.pair)
    assert verdict.status == "indecomposable"
    assert verdict.trace_form == verdict.certificate.evidence
    assert verdict.trace_form is not verdict.certificate.evidence
    assert verdict.trace_form["trace_form_inertia"] is not verdict.certificate.evidence["trace_form_inertia"]
    assert verify_certificate(w.pair, certify_family(w))
    assert not verify_certificate(w.pair, cert)


# --- the searcher ---------------------------------------------------------------


def _assert_sound_witness(pair, verdict):
    sub = verdict.witness_subspace
    assert sub is not None
    assert 0 < sub.dim < pair.n
    v = sub.matrix
    adj = h_adjoint(pair.n_op, pair.space)
    assert hstack([v, pair.n_op @ v]).rank() == sub.dim
    assert hstack([v, adj @ v]).rank() == sub.dim
    assert is_nondegenerate(sub, pair.space)


def test_search_finds_diagonal_split():
    pair = MatrixPair.from_matrices(
        Matrix.diagonal([1, 2], COMPLEX), Matrix.identity(2, COMPLEX)
    )
    verdict = search_decomposition(pair)
    assert verdict.status == "decomposable"
    assert verdict.witness_subspace.dim == 1
    _assert_sound_witness(pair, verdict)


def test_search_finds_glued_witnesses():
    g = direct_sum(witness_complex_b(1, 0, 1).pair, witness_complex_b(1, 2, 3).pair)
    verdict = search_decomposition(g)
    assert verdict.status == "decomposable"
    _assert_sound_witness(g, verdict)


def test_search_never_decomposes_witnesses():
    for family in ALL_FAMILIES:
        for k in admissible_ks(family, 2):
            w = build_witness(family, k, {})
            verdict = search_decomposition(w.pair)
            assert verdict.status == "indecomposable", (family, k)


def test_search_is_deterministic():
    g = direct_sum(witness_real_d(2, 5, 0, 1).pair, witness_real_e(2, 0, 1, 1, 1).pair)
    v1 = search_decomposition(g)
    v2 = search_decomposition(g)
    assert v1.status == v2.status == "decomposable"
    assert v1.to_json_dict() == v2.to_json_dict()


def test_search_scalar_shortcut():
    pair = MatrixPair.from_matrices(
        Matrix.diagonal([5], REAL), Matrix.diagonal([1], REAL)
    )
    verdict = search_decomposition(pair)
    assert verdict.status == "indecomposable"
    assert verdict.certificate is not None
    assert verify_certificate(pair, verdict.certificate)


def test_verdict_serialization_shapes():
    pair = MatrixPair.from_matrices(
        Matrix.diagonal([1, 2], COMPLEX), Matrix.identity(2, COMPLEX)
    )
    verdict = search_decomposition(pair)
    doc = verdict.to_json_dict()
    assert doc["status"] == "decomposable"
    assert doc.keys() == {"status", "trace_form", "witness_subspace"}
    assert all(isinstance(cell, str) for col in doc["witness_subspace"] for cell in col)


def test_mutual_exclusion_on_witnesses_and_glued_sums():
    cases = []
    for family in ALL_FAMILIES:
        k = admissible_ks(family, 2)[0]
        cases.append(build_witness(family, k, {}).pair)
    cases.append(direct_sum(witness_complex_b(1, 0, 1).pair, witness_complex_b(1, 2, 3).pair))
    cases.append(direct_sum(witness_real_c_odd(1, 0, 1).pair, witness_real_c_odd(1, 0, 2).pair))
    for pair in cases:
        verdict = search_decomposition(pair)
        if verdict.status == "decomposable":
            _assert_sound_witness(pair, verdict)
            assert verdict.certificate is None
        elif verdict.status == "indecomposable":
            assert verify_certificate(pair, verdict.certificate)
            assert verdict.witness_subspace is None


def test_witnesses_never_build_a_candidate_subspace(monkeypatch):
    # the trace-form certificate decides every witness before the first
    # draw, so no candidate subspace is ever built
    import krein.decompose as decompose

    calls = []
    real_power = decompose.mat_power

    def counting_power(m, k):
        calls.append(k)
        return real_power(m, k)

    monkeypatch.setattr(decompose, "mat_power", counting_power)
    for family in ALL_FAMILIES:
        for k in admissible_ks(family, 2):
            w = build_witness(family, k, {})
            search_decomposition(w.pair)
            assert calls == [], (family, k)


def test_search_golden_verdict_on_b_sum():
    g = direct_sum(witness_complex_b(1, 0, 1).pair, witness_complex_b(1, 2, 3).pair)
    assert search_decomposition(g).to_json_dict() == {
        "status": "decomposable",
        "trace_form": {"selfadjoint_commutant_dim": 4, "trace_form_rank": 4, "trace_form_inertia": [2, 0, 2]},
        "witness_subspace": [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
    }


def test_search_golden_verdict_on_d_plus_e_sum():
    g = direct_sum(witness_real_d(2, 5, 0, 1).pair, witness_real_e(2, 0, 1, 1, 1).pair)
    units = [["1" if i == j else "0" for i in range(8)] for j in range(4, 8)]
    assert search_decomposition(g).to_json_dict() == {
        "status": "decomposable",
        "trace_form": {"selfadjoint_commutant_dim": 4, "trace_form_rank": 4, "trace_form_inertia": [2, 0, 2]},
        "witness_subspace": units,
    }


def test_search_golden_verdict_on_c_odd_sum():
    # real roots come first over every candidate: N + N^[*] has only the
    # conjugate pairs +-2i, +-4i, whose first kernel is the other summand, so
    # the split is the eigenspace of -4 of the next candidate N N^[*]
    assert search_decomposition(GLUED_PAIRS[9]()).to_json_dict() == {
        "status": "decomposable",
        "trace_form": {"selfadjoint_commutant_dim": 4, "trace_form_rank": 4, "trace_form_inertia": [2, 0, 2]},
        "witness_subspace": [["0", "0", "1", "0"], ["0", "0", "0", "1"]],
    }


def test_any_budget_or_seed_gives_the_identical_verdict():
    # the two keywords are accepted and ignored, and no verdict records them
    pairs = [make() for make in GLUED_PAIRS] + [build_witness(f, admissible_ks(f, 2)[-1], {}).pair for f in ALL_FAMILIES]
    for pair in pairs:
        base = json.dumps(search_decomposition(pair).to_json_dict(), sort_keys=True)
        assert '"budget"' not in base and '"seed"' not in base
        for budget, seed in ((0, 0), (1, None), (5000, 7)):
            assert json.dumps(search_decomposition(pair, budget=budget, seed=seed).to_json_dict(), sort_keys=True) == base


# eight distinct primes just above 10^20
_LARGE_PRIMES = [10**20 + c for c in (39, 129, 151, 193, 207, 301, 349, 361)]


def test_search_verdicts_survive_a_congruence_by_large_primes():
    # S = diag(p_1, ..., p_n) can put a product of the p_i into the common
    # denominator d of the selfadjoint basis, and then det(tI - d X) has
    # coefficients far beyond a float; the eigenvalues of X do not change
    denominators = []
    for make in GLUED_PAIRS:
        pair = make()
        s = Matrix.diagonal(_LARGE_PRIMES[: pair.n], pair.field)
        hidden = MatrixPair.from_matrices(s.inverse() @ pair.n_op @ s, s.conj_transpose() @ pair.space.h @ s)
        denominators.append(integer_form([e for b in selfadjoint_commutant_basis(hidden) for e in b.entries])[0])
        assert search_decomposition(hidden).to_json_dict() == search_decomposition(pair).to_json_dict()
    assert max(denominators) > 10**160


# Golden selfadjoint bases: the search verdicts pin these bases only indirectly.


def test_selfadjoint_commutant_golden_basis_complex_a_upper():
    pair = witness_complex_a_upper(1, GaussianRational(1, 2)).pair
    assert [repr(x) for x in selfadjoint_commutant_basis(pair)] == [
        "Matrix[4x4,complex](0 0 0 1; 0 0 0 0; 0 0 0 0; 0 0 0 0)",
        "Matrix[4x4,complex](0 3 1 0; 0 0 0 3; 0 0 0 1; 0 0 0 0)",
        "Matrix[4x4,complex](0 1/3i -1i 0; 0 0 0 -1/3i; 0 0 0 1i; 0 0 0 0)",
        "Matrix[4x4,complex](1 0 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 1)",
    ]


def test_selfadjoint_commutant_golden_basis_real_c_odd():
    pair = witness_real_c_odd(3, Fraction(1, 2), 1).pair
    assert [repr(x) for x in selfadjoint_commutant_basis(pair)] == [
        "Matrix[6x6,real](0 0 0 0 0 1; 0 0 0 0 1 0; 0 0 0 0 0 0; 0 0 0 0 0 0; 0 0 0 0 0 0; 0 0 0 0 0 0)",
        "Matrix[6x6,real](0 0 0 0 -1 0; 0 0 0 0 0 1; 0 0 0 0 0 0; 0 0 0 0 0 0; 0 0 0 0 0 0; 0 0 0 0 0 0)",
        "Matrix[6x6,real](0 0 1 0 0 0; 0 0 0 1 0 0; 0 0 0 0 0 1; 0 0 0 0 1 0; 0 0 0 0 0 0; 0 0 0 0 0 0)",
        "Matrix[6x6,real](0 0 0 -1 -2 0; 0 0 1 0 0 0; 0 0 0 0 -1 0; 0 0 0 0 0 1; 0 0 0 0 0 0; 0 0 0 0 0 0)",
        "Matrix[6x6,real](0 1 0 2 2 0; -1 0 0 0 0 0; 0 0 0 1 2 0; 0 0 -1 0 0 0; 0 0 0 0 0 -1; 0 0 0 0 1 0)",
        "Matrix[6x6,real](1 0 0 0 0 0; 0 1 0 0 0 0; 0 0 1 0 0 0; 0 0 0 1 0 0; 0 0 0 0 1 0; 0 0 0 0 0 1)",
    ]


# --- forged certificates on decomposable pairs ------------------------------------


def _forged_certificates(pair):
    """Certificates presented for a decomposable ``pair``: its own trace-form
    evidence, that evidence with every inertia of positive index 1 at its
    rank and dimension, each witness's certificate (k <= 2) and each
    certificate of a removed kind."""
    _, ev = _trace_form(pair)
    m = ev["selfadjoint_commutant_dim"]
    yield Certificate(_QUOTIENT, ev)
    for r in range(1, m + 1):
        yield Certificate(_QUOTIENT, dict(ev, trace_form_rank=r, trace_form_inertia=[r - 1, m - r, 1]))
    for family in ALL_FAMILIES:
        for k in admissible_ks(family, 2):
            yield certify_family(build_witness(family, k, {}))
    for _, old in _REMOVED_KINDS:
        yield old


def test_no_forged_certificate_verifies_on_a_decomposable_pair():
    built = 0
    for make in GLUED_PAIRS:
        pair = make()
        assert search_decomposition(pair).status == "decomposable"
        for cert in _forged_certificates(pair):
            built += 1
            assert not verify_certificate(pair, cert), (pair, cert.kind, cert.evidence)
    assert built == 212


def test_projection_scalar_needs_the_a_upper_layout():
    # with its basis permuted by (0, 2, 1, 3) this decomposable sum has
    # N[1, 3] = 1, a nonsingular 1 x 1 block N1 whose Hermitian commutant is
    # scalar, as in an a-upper witness; the trace form needs no layout
    pair = direct_sum(witness_complex_a_lower(1, 0).pair, witness_complex_a_lower(1, 1).pair)
    p = Matrix.from_rows([[1 if i == j else 0 for j in (0, 2, 1, 3)] for i in range(4)], COMPLEX)
    permuted = MatrixPair.from_matrices(p.conj_transpose() @ pair.n_op @ p, p.conj_transpose() @ pair.space.h @ p)
    n1_pair = _n1_pair(permuted, 1)
    assert n1_pair.n_op.rank() == 1 and len(selfadjoint_commutant_basis(n1_pair)) == 1
    assert _trace_form(permuted)[1]["trace_form_inertia"][2] >= 2
    _, old = _REMOVED_KINDS[2]
    assert old.kind == "projection_scalar"
    assert not verify_certificate(permuted, old)
    assert search_decomposition(permuted).status == "decomposable"


# --- the trace-form certificate -------------------------------------------------


@contextmanager
def _counted_draws():
    """The sizes n of the draws the search makes: each draw is one
    ``char_poly`` call through ``krein.decompose``."""
    import krein.decompose as decompose

    calls = []
    real = decompose.char_poly
    decompose.char_poly = lambda m: calls.append(m.rows) or real(m)
    try:
        yield calls
    finally:
        decompose.char_poly = real


def test_the_draw_counter_counts_the_draws_on_a_glued_sum():
    with _counted_draws() as draws:
        assert search_decomposition(GLUED_PAIRS[0]()).status == "decomposable"
    assert draws and set(draws) == {4}


def _assert_certified_without_draws(w, draws):
    verdict = search_decomposition(w.pair)
    assert verdict.status == "indecomposable", (w.spec, verdict.to_json_dict())
    assert verdict.certificate.kind == "selfadjoint_quotient_field"
    assert verdict.certificate.evidence == verdict.trace_form
    assert verify_certificate(w.pair, verdict.certificate)
    assert draws == []
    return verdict.certificate


def test_every_default_witness_is_certified_before_any_draw():
    kinds = set()
    with _counted_draws() as draws:
        for family in ALL_FAMILIES:
            for k in admissible_ks(family, 4):
                w = build_witness(family, k, {})
                ev = _assert_certified_without_draws(w, draws).evidence
                kinds.add((family, ev["trace_form_rank"], tuple(ev["trace_form_inertia"])))
    assert {(f, r) for f, r, _ in kinds} == {
        ("complex-a-lower", 1), ("complex-a-upper", 1), ("real-c-even", 1),
        ("complex-b", 2), ("real-c-odd", 2), ("real-d", 2), ("real-e", 2),
    }
    # positive index 1; at rank 2 the second direction is negative
    assert all(inertia[2] == 1 and inertia[0] == rank - 1 for _, rank, inertia in kinds)


_small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
_positive = st.builds(Fraction, st.integers(1, 3), st.integers(1, 3))
_gaussian = st.builds(GaussianRational, _small, _small)
_FAMILY_PARAMS = {
    "complex-a-lower": {"lambda": _gaussian},
    "complex-a-upper": {"lambda": _gaussian},
    "complex-b": {"l1": _gaussian, "l2": _gaussian},
    "real-c-even": {"alpha": _small, "beta": _positive},
    "real-c-odd": {"alpha": _small, "beta": _positive},
    "real-d": {"lambda": _small, "alpha": _small, "beta": _positive},
    "real-e": {"alpha1": _small, "beta1": _positive, "alpha2": _small, "beta2": _positive},
}


@st.composite
def _drawn_witnesses(draw):
    family = draw(st.sampled_from(ALL_FAMILIES))
    # a-upper k = 4 (n = 16) is covered at default parameters above
    k = draw(st.sampled_from(admissible_ks(family, 3 if family == "complex-a-upper" else 4)))
    params = {name: draw(values) for name, values in _FAMILY_PARAMS[family].items()}
    try:
        return build_witness(family, k, params)
    except ParameterError:
        assume(False)


@settings(max_examples=30, deadline=None)
@given(_drawn_witnesses())
def test_drawn_witnesses_are_certified_before_any_draw(w):
    with _counted_draws() as draws:
        _assert_certified_without_draws(w, draws)


def _decider_invariants(pair):
    """dim S, the trace-form rank and inertia, and the status."""
    verdict = search_decomposition(pair)
    return verdict.trace_form, verdict.status


@settings(max_examples=25, deadline=None)
@given(_unimodular_congruences())
def test_trace_form_inertia_and_status_survive_congruence(pairs):
    pair, hidden = pairs
    assert _decider_invariants(hidden) == _decider_invariants(pair)


def _hidden_copies(pair, count):
    """``count`` copies of the pair, each hidden by 2n unimodular shears drawn
    from one ``random.Random(SEED)`` stream."""
    rng = random.Random(SEED)
    n = pair.n
    for _ in range(count):
        shears = [(i, j + (j >= i), rng.choice(_units(pair.field))) for i, j in
                  ((rng.randrange(n), rng.randrange(n - 1)) for _ in range(2 * n))]
        yield _hidden(pair, shears)


def test_a_doubled_b_witness_is_decomposable_under_every_congruence():
    # the two summands have the same spectrum, so no candidate need have a
    # real eigenvalue that splits a hidden copy; a conjugate pair of
    # eigenvalues in Q(i) splits the rest
    pair = direct_sum(witness_complex_b(1, 0, 1).pair, witness_complex_b(1, 0, 1).pair)
    for hidden in _hidden_copies(pair, 30):
        verdict = search_decomposition(hidden)
        assert verdict.status == "decomposable"
        assert verdict.certificate is None
        assert verdict.trace_form["trace_form_inertia"][2] >= 2
        _assert_sound_witness(hidden, verdict)


def test_a_real_pair_split_by_a_conjugate_pair_under_every_congruence():
    # c-odd(1, 1, 1) + c-odd(1, -1, 1): on some hidden copies no candidate
    # has a real rational eigenvalue that splits, and the generalized
    # eigenspaces of a conjugate pair a +- ib, the kernel of
    # ((x - a)^2 + b^2)^m, do
    pair = direct_sum(witness_real_c_odd(1, 1, 1).pair, witness_real_c_odd(1, -1, 1).pair)
    for hidden in _hidden_copies(pair, 40):
        verdict = search_decomposition(hidden)
        assert verdict.status == "decomposable"
        _assert_sound_witness(hidden, verdict)


def test_glued_verdicts_do_not_depend_on_the_trace_form_certificate(monkeypatch):
    # with no certificate issued at all the splitter gives the same subspaces
    import krein.decompose as decompose

    verdicts = [search_decomposition(make()).to_json_dict() for make in GLUED_PAIRS]
    monkeypatch.setattr(decompose, "_certificate", lambda pair: None)
    assert [search_decomposition(make()).to_json_dict() for make in GLUED_PAIRS] == verdicts
    assert all(v["status"] == "decomposable" for v in verdicts)


def test_split_quotient_is_not_certified():
    # N = [[1, 1], [1, -1]] is symmetric with N^2 = 2: the selfadjoint
    # commutant is spanned by I and N, and tr N = 0 < tr N^2, so the trace
    # form is positive definite and the pair is decomposable over R (the
    # eigenvectors of +-sqrt 2 are orthogonal); no rational eigenvalue splits
    # it, so no subspace over Q is attached
    pair = MatrixPair.from_matrices(Matrix.from_rows([[1, 1], [1, -1]], REAL), Matrix.identity(2, REAL))
    ev = _trace_form(pair)[1]
    assert ev == {"selfadjoint_commutant_dim": 2, "trace_form_rank": 2, "trace_form_inertia": [0, 0, 2]}
    assert not verify_certificate(pair, Certificate("selfadjoint_quotient_field", ev))
    verdict = search_decomposition(pair)
    assert verdict.status == "decomposable"
    assert verdict.trace_form == ev
    assert verdict.certificate is None and verdict.witness_subspace is None


def test_forged_trace_form_evidence_is_rejected():
    w = witness_real_c_odd(3, Fraction(1, 2), 1)
    cert = search_decomposition(w.pair).certificate
    ev = cert.evidence
    assert cert.kind == "selfadjoint_quotient_field" and ev["trace_form_rank"] == 2
    assert verify_certificate(w.pair, cert)
    neg, zero, pos = ev["trace_form_inertia"]
    forged = [
        dict(ev, trace_form_rank=1),
        dict(ev, trace_form_rank=3),
        dict(ev, trace_form_inertia=[neg - 1, zero + 1, pos]),
        dict(ev, trace_form_inertia=[neg + 1, zero - 1, pos]),
        dict(ev, trace_form_inertia=[neg, zero - 1, pos + 1]),
        dict(ev, trace_form_inertia=[0, zero, pos]),
    ]
    for f in forged:
        assert not verify_certificate(w.pair, Certificate(cert.kind, f)), f
    # a glued sum's evidence with its inertia forged to positive index 1
    for make in GLUED_PAIRS:
        pair = make()
        ev = _trace_form(pair)[1]
        neg, zero, pos = ev["trace_form_inertia"]
        f = dict(ev, trace_form_inertia=[neg + pos - 1, zero, 1])
        assert not verify_certificate(pair, Certificate("selfadjoint_quotient_field", f)), (pair, f)
    # a witness's certificate presented for each glued sum
    witness_certs = [
        search_decomposition(build_witness(family, k, {}).pair).certificate
        for family in ALL_FAMILIES
        for k in admissible_ks(family, 2)
    ]
    for make in GLUED_PAIRS:
        pair = make()
        for c in witness_certs:
            assert not verify_certificate(pair, c), (pair, c)
