import random
from contextlib import contextmanager
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_acceptance import GLUED_PAIRS

from krein.decompose import (
    Certificate,
    _commutant_of,
    _evidence_joint_eigenspace_2d,
    _evidence_jordan_chain,
    _evidence_neutral_eigenspan,
    _evidence_projection_scalar,
    _evidence_selfadjoint_quotient_field,
    _real_span_solutions,
    certify_family,
    certify_scalar_commutant,
    commutant_basis,
    search_decomposition,
    selfadjoint_commutant_basis,
    verify_certificate,
)
from krein.exceptions import KreinError, ParameterError
from krein.matrices import COMPLEX, REAL, Matrix, char_poly, hstack, kernel_of_sparse_rows
from krein.polynomials import poly_gcd, poly_roots
from krein.scalars import I_UNIT, ZERO, GaussianRational, format_scalar, integer_form
from krein.spaces import (
    MatrixPair,
    direct_sum,
    h_adjoint,
    is_nondegenerate,
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
    """One or two n x n matrices: zero, scalar or dense, real or Gaussian,
    with entries 10^40, -10^40/7 and 1/1000003 among small ones."""
    field = draw(st.sampled_from([REAL, COMPLEX]))
    n = draw(st.integers(1, 4))
    entries = (
        _real_entries
        if field == REAL
        else st.builds(GaussianRational, _real_entries, _real_entries)
    )

    def matrix():
        kind = draw(st.sampled_from(["zero", "scalar", "dense", "dense"]))
        if kind == "zero":
            return Matrix.zeros(n, n, field)
        if kind == "scalar":
            return Matrix.identity(n, field) * draw(entries)
        return Matrix(n, n, [draw(entries) for _ in range(n * n)], field)

    return [matrix() for _ in range(draw(st.integers(1, 2)))], n, field


def _assert_commutant_matches_the_reference(mats, n, field):
    got = _commutant_of(mats, n, field)
    assert [repr(x) for x in got] == [repr(x) for x in reference_commutant(mats, n, field)]
    for x in got:
        for a in mats:
            assert x @ a == a @ x


@settings(max_examples=60, deadline=None)
@given(_commutant_inputs())
def test_commutant_matches_the_boxed_reference(inputs):
    _assert_commutant_matches_the_reference(*inputs)


def test_commutant_of_witnesses_and_glued_sums_matches_the_boxed_reference():
    for pair in _reference_pairs():
        _assert_commutant_matches_the_reference([pair.n_op, pair.adjoint], pair.n, pair.field)


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
        assert search_decomposition(pair, budget=20, seed=SEED).status == "indecomposable"


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


def _hermitian_commutant_of_n1(pair, k, solve):
    n1 = pair.n_op.submatrix(k, 2 * k, 3 * k, 4 * k)
    return solve(_commutant_of([n1], k, pair.field))


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
    checked = 0
    layouts = 0
    for pair in _reference_pairs():
        if pair.n % 4:
            continue
        k = pair.n // 4
        ident = Matrix.identity(k, pair.field)
        got = _hermitian_commutant_of_n1(pair, k, lambda b: _real_span_solutions(b, ident))
        ref = _hermitian_commutant_of_n1(
            pair, k, lambda b: reference_real_span_solutions(b, lambda x: x - x.conj_transpose())
        )
        assert [repr(x) for x in got] == [repr(x) for x in ref]
        n1 = pair.n_op.submatrix(k, 2 * k, 3 * k, 4 * k)
        assert _evidence_projection_scalar(pair, k) == {
            "k": k,
            "layout_ok": _reference_a_upper_layout(pair, k),
            "n1_nonsingular": n1.rank() == k,
            "hermitian_commutant_dim": len(ref),
            "hermitian_commutant_scalar": len(ref) == 1 and ref[0] == ident * ref[0][0, 0],
        }
        checked += 1
        layouts += _reference_a_upper_layout(pair, k)
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


# --- scalar-commutant certificate ------------------------------------------------


def test_scalar_certificate_for_one_dimensional_pair():
    pair = MatrixPair.from_matrices(
        Matrix.diagonal([5], COMPLEX), Matrix.diagonal([1], COMPLEX)
    )
    cert = certify_scalar_commutant(pair)
    assert cert is not None and cert.kind == "scalar_selfadjoint_commutant"
    assert verify_certificate(pair, cert)


def test_scalar_certificate_on_real_witness_either_way():
    # whichever way the commutant comes out, the family certificate carries
    # the verdict; a scalar-commutant certificate is a bonus when present
    pair = witness_real_c_even(2, 0, 1).pair
    cert = certify_scalar_commutant(pair)
    if cert is not None:
        assert verify_certificate(pair, cert)
    else:
        assert len(selfadjoint_commutant_basis(pair)) > 1


def test_no_scalar_certificate_for_decomposable_pair():
    pair = MatrixPair.from_matrices(
        Matrix.diagonal([1, 2], COMPLEX), Matrix.identity(2, COMPLEX)
    )
    assert certify_scalar_commutant(pair) is None
    fake = Certificate(
        "scalar_selfadjoint_commutant", {"selfadjoint_commutant_dim": 1, "scalar": True}
    )
    assert not verify_certificate(pair, fake)


# --- family certificates ---------------------------------------------------------


def test_family_certificates_verify():
    for family in ALL_FAMILIES:
        for k in admissible_ks(family, 3):
            w = build_witness(family, k, {})
            cert = certify_family(w)
            assert cert.kind == w.certificate_recipe
            assert verify_certificate(w.pair, cert), (family, k)


def test_certificate_for_an_eigenvalue_with_a_large_denominator():
    # the squarefree factor is 1000003 t^2 - t: its root 1/1000003 has the
    # denominator of the leading coefficient, as the Gauss lemma says
    w = witness_complex_b(2, Fraction(1, 1000003), 0)
    cert = certify_family(w)
    assert cert.evidence["spectrum"] == ["0", "1/1000003"]
    assert verify_certificate(w.pair, cert)


def test_projection_scalar_system_solved_by_hand():
    # for the k=2 default weights the commuting-Hermitian system collapses
    # to off-diagonal 0 and equal diagonal: 4q = 3 conj(q) forces q = 0, and
    # the coupling equation forces p = s, so P is scalar
    w = witness_complex_a_upper(2, 0)
    cert = certify_family(w)
    assert cert.evidence["hermitian_commutant_dim"] == 1
    assert cert.evidence["hermitian_commutant_scalar"]
    n1 = w.pair.n_op.submatrix(2, 4, 6, 8)
    assert n1 == Matrix.from_rows(
        [[0, Fraction(3, 5)], [Fraction(4, 5), 0]], COMPLEX
    )
    # independent check: a non-scalar Hermitian candidate fails to commute
    bad = Matrix.from_rows([[1, 0], [0, 2]], COMPLEX)
    assert bad @ n1 != n1 @ bad


def test_jordan_chain_certificate_evidence():
    w = witness_complex_a_lower(3, 1)
    cert = certify_family(w)
    assert cert.evidence["chain_eigenvector_dim"] == 1
    assert cert.evidence["chain_factor_ok"]


def test_neutral_eigenspan_certificate_for_real_d():
    w = witness_real_d(2, 5, 0, 1)
    cert = certify_family(w)
    assert cert.kind == "neutral_eigenspan"
    assert cert.evidence["eigenspan_gram_zero"]
    assert cert.evidence["secondary"] == "5"


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
        assert cert.kind == "neutral_eigenspan"
        assert verify_certificate(w.pair, cert)
    assert calls == []


def test_joint_eigenspace_certificates_report_dimension_two():
    for k, builder in ((2, witness_real_c_even), (4, witness_real_c_even)):
        cert = certify_family(builder(k, 0, 1))
        assert cert.evidence["s0_dim"] == 2
    for k in (1, 3):
        cert = certify_family(witness_real_c_odd(k, 0, 1))
        assert cert.evidence["s0_dim"] == 2


def test_tampered_evidence_is_rejected():
    w = witness_real_c_even(2, 0, 1)
    cert = certify_family(w)
    tampered = dict(cert.evidence)
    tampered["s0_dim"] = 3
    assert not verify_certificate(w.pair, Certificate(cert.kind, tampered))
    w2 = witness_complex_a_lower(2, 0)
    cert2 = certify_family(w2)
    tampered2 = dict(cert2.evidence)
    tampered2["chain_eigenvector_dim"] = 2
    assert not verify_certificate(w2.pair, Certificate(cert2.kind, tampered2))
    # an argument of the wrong type is rejected, not raised
    w3 = witness_complex_b(2, 0, 1)
    cert3 = certify_family(w3)
    tampered3 = dict(cert3.evidence, primary=0)
    assert not verify_certificate(w3.pair, Certificate(cert3.kind, tampered3))


def test_certificate_verification_against_wrong_pair():
    cert = certify_family(witness_complex_a_lower(2, 0))
    other = witness_complex_b(2, 0, 1)
    assert not verify_certificate(other.pair, cert)


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
    verdict = search_decomposition(pair, budget=50, seed=SEED)
    assert verdict.status == "decomposable"
    assert verdict.witness_subspace.dim == 1
    _assert_sound_witness(pair, verdict)


def test_search_finds_glued_witnesses():
    g = direct_sum(witness_complex_b(1, 0, 1).pair, witness_complex_b(1, 2, 3).pair)
    verdict = search_decomposition(g, budget=200, seed=SEED)
    assert verdict.status == "decomposable"
    _assert_sound_witness(g, verdict)


def test_search_never_decomposes_witnesses():
    for family in ALL_FAMILIES:
        for k in admissible_ks(family, 2):
            w = build_witness(family, k, {})
            verdict = search_decomposition(w.pair, budget=60, seed=SEED)
            assert verdict.status == "indecomposable", (family, k)


def test_search_is_deterministic():
    g = direct_sum(witness_real_d(2, 5, 0, 1).pair, witness_real_e(2, 0, 1, 1, 1).pair)
    v1 = search_decomposition(g, budget=100, seed=SEED)
    v2 = search_decomposition(g, budget=100, seed=SEED)
    assert v1.status == v2.status == "decomposable"
    assert v1.to_json_dict() == v2.to_json_dict()


def test_search_scalar_shortcut():
    pair = MatrixPair.from_matrices(
        Matrix.diagonal([5], REAL), Matrix.diagonal([1], REAL)
    )
    verdict = search_decomposition(pair, budget=10, seed=SEED)
    assert verdict.status == "indecomposable"
    assert verdict.certificate is not None
    assert verify_certificate(pair, verdict.certificate)


def test_verdict_serialization_shapes():
    pair = MatrixPair.from_matrices(
        Matrix.diagonal([1, 2], COMPLEX), Matrix.identity(2, COMPLEX)
    )
    verdict = search_decomposition(pair, budget=50, seed=SEED)
    doc = verdict.to_json_dict()
    assert doc["status"] == "decomposable"
    assert doc["seed"] == SEED and doc["budget"] == 50
    assert all(isinstance(cell, str) for col in doc["witness_subspace"] for cell in col)


def test_mutual_exclusion_on_witnesses_and_glued_sums():
    cases = []
    for family in ALL_FAMILIES:
        k = admissible_ks(family, 2)[0]
        cases.append(build_witness(family, k, {}).pair)
    cases.append(direct_sum(witness_complex_b(1, 0, 1).pair, witness_complex_b(1, 2, 3).pair))
    cases.append(direct_sum(witness_real_c_odd(1, 0, 1).pair, witness_real_c_odd(1, 0, 2).pair))
    for pair in cases:
        verdict = search_decomposition(pair, budget=80, seed=SEED)
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
            search_decomposition(w.pair, budget=60, seed=SEED)
            assert calls == [], (family, k)


def test_search_draws_call_no_char_poly_and_pass_squarefree_polynomials(monkeypatch):
    # each draw's characteristic polynomial comes from the integer recurrence
    # on its integer lists, and poly_roots sees only its squarefree part
    import sys

    import krein.matrices
    import krein.polynomials

    char_polys, roots_inputs = [], []
    real_char_poly, real_poly_roots = krein.matrices.char_poly, krein.polynomials.poly_roots

    def counting_char_poly(m):
        char_polys.append(m)
        return real_char_poly(m)

    def recording_poly_roots(p):
        roots_inputs.append(p)
        return real_poly_roots(p)

    pairs = [build_witness(family, k, {}).pair for family in ALL_FAMILIES for k in admissible_ks(family, 2)]
    pairs += [make() for make in GLUED_PAIRS]
    # every module binding of the two (krein.classify is shadowed by the function)
    for name in ("krein", "krein.matrices", "krein.spaces", "krein.classify", "krein.decompose"):
        monkeypatch.setattr(sys.modules[name], "char_poly", counting_char_poly)
    for name in ("krein", "krein.polynomials", "krein.classify", "krein.decompose"):
        monkeypatch.setattr(sys.modules[name], "poly_roots", recording_poly_roots)
    for pair in pairs:
        search_decomposition(pair, budget=60, seed=SEED)
    assert char_polys == []
    assert len(roots_inputs) >= len(GLUED_PAIRS)  # the witnesses make no draw
    for p in roots_inputs:
        assert poly_gcd(p, p.derivative()).degree == 0, p


def test_search_golden_verdict_on_b_sum():
    g = direct_sum(witness_complex_b(1, 0, 1).pair, witness_complex_b(1, 2, 3).pair)
    assert search_decomposition(g, seed=1729).to_json_dict() == {
        "status": "decomposable",
        "trace_form": {"selfadjoint_commutant_dim": 4, "trace_form_rank": 4, "trace_form_inertia": [2, 0, 2]},
        "budget": 200,
        "seed": 1729,
        "witness_subspace": [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
    }


def test_search_default_seed_is_1729():
    g = direct_sum(witness_complex_b(1, 0, 1).pair, witness_complex_b(1, 2, 3).pair)
    assert search_decomposition(g).to_json_dict() == search_decomposition(g, seed=1729).to_json_dict()


def test_search_golden_verdict_on_d_plus_e_sum():
    g = direct_sum(witness_real_d(2, 5, 0, 1).pair, witness_real_e(2, 0, 1, 1, 1).pair)
    units = [["1" if i == j else "0" for i in range(8)] for j in range(4, 8)]
    assert search_decomposition(g, seed=1729).to_json_dict() == {
        "status": "decomposable",
        "trace_form": {"selfadjoint_commutant_dim": 4, "trace_form_rank": 4, "trace_form_inertia": [2, 0, 2]},
        "budget": 200,
        "seed": 1729,
        "witness_subspace": units,
    }


def test_verdicts_differ_across_budget_and_seed_only_in_those_fields():
    pairs = [make() for make in GLUED_PAIRS] + [build_witness(f, admissible_ks(f, 2)[-1], {}).pair for f in ALL_FAMILIES]
    for pair in pairs:
        base = search_decomposition(pair).to_json_dict()
        for budget, seed in ((0, 0), (1, None), (5000, 7)):
            doc = search_decomposition(pair, budget=budget, seed=seed).to_json_dict()
            assert (doc.pop("budget"), doc.pop("seed")) == (budget, seed)
            assert doc == {k: v for k, v in base.items() if k not in ("budget", "seed")}


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


def test_projection_scalar_golden_evidence_a_upper_k2():
    assert _evidence_projection_scalar(witness_complex_a_upper(2, 0).pair, 2) == {
        "k": 2,
        "layout_ok": True,
        "n1_nonsingular": True,
        "hermitian_commutant_dim": 1,
        "hermitian_commutant_scalar": True,
    }


# --- forged certificates on decomposable pairs ------------------------------------


def _forged_certificates(pair):
    """Every certificate the evidence functions build on ``pair`` for any
    argument choice: each k <= n/2, each ordered pair of distinct exact
    eigenvalues (conjugates included), each eigenvalue above the real axis."""
    exact = {r.value for r in poly_roots(char_poly(pair.n_op)) if r.is_exact}
    values = sorted(
        {format_scalar(z) for z in exact} | {format_scalar(z.conjugate()) for z in exact}
    )
    ks = range(1, pair.n // 2 + 1)
    choices = [("jordan_chain_unique", _evidence_jordan_chain, (k,)) for k in ks]
    choices += [("projection_scalar", _evidence_projection_scalar, (k,)) for k in ks]
    choices += [("selfadjoint_quotient_field", _evidence_selfadjoint_quotient_field, ())]
    choices += [
        ("neutral_eigenspan", _evidence_neutral_eigenspan, (p, s))
        for p in values
        for s in values
        if p != s
    ]
    choices += [
        ("joint_eigenspace_two_dim", _evidence_joint_eigenspace_2d, (str(z.re), str(z.im)))
        for z in exact
        if z.im > 0
    ]
    for kind, evidence, args in choices:
        try:
            ev = evidence(pair, *args)
        except KreinError:
            continue  # no evidence for this argument choice, so no certificate
        yield Certificate(kind, ev)


def test_no_forged_certificate_verifies_on_a_decomposable_pair():
    built = 0
    for make in GLUED_PAIRS:
        pair = make()
        for cert in _forged_certificates(pair):
            built += 1
            assert not verify_certificate(pair, cert), (pair, cert.kind, cert.evidence)
    assert built == 146


def test_projection_scalar_needs_the_a_upper_layout():
    # with its basis permuted by (0, 2, 1, 3) this decomposable sum has
    # N[1, 3] = 1, a nonsingular 1 x 1 block N1 whose Hermitian commutant is
    # scalar; only the layout check tells it from an a-upper witness
    pair = direct_sum(witness_complex_a_lower(1, 0).pair, witness_complex_a_lower(1, 1).pair)
    p = Matrix.from_rows([[1 if i == j else 0 for j in (0, 2, 1, 3)] for i in range(4)], COMPLEX)
    permuted = MatrixPair.from_matrices(p.transpose() @ pair.n_op @ p, p.transpose() @ pair.space.h @ p)
    ev = _evidence_projection_scalar(permuted, 1)
    assert ev["n1_nonsingular"] and ev["hermitian_commutant_scalar"]
    assert not ev["layout_ok"]
    assert not verify_certificate(permuted, Certificate("projection_scalar", ev))
    assert not verify_certificate(permuted, Certificate("projection_scalar", dict(ev, layout_ok=True)))
    assert search_decomposition(permuted).status == "decomposable"


# --- the trace-form certificate -------------------------------------------------


@contextmanager
def _counted_draws():
    """The sizes n of the draws the search makes: each draw is one
    ``_samuelson_berkowitz`` call."""
    import krein.decompose as decompose

    calls = []
    real = decompose._samuelson_berkowitz
    decompose._samuelson_berkowitz = lambda *args: calls.append(args[0]) or real(*args)
    try:
        yield calls
    finally:
        decompose._samuelson_berkowitz = real


def _assert_certified_without_draws(w, draws):
    verdict = search_decomposition(w.pair, budget=200, seed=SEED)
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


def test_a_doubled_b_witness_is_decomposable_under_every_congruence():
    # the two summands have the same spectrum, so the fixed candidates need
    # not split a hidden copy; the decider must still say decomposable
    rng = random.Random(SEED)
    pair = direct_sum(witness_complex_b(1, 0, 1).pair, witness_complex_b(1, 0, 1).pair)
    n = pair.n
    split = 0
    for _ in range(30):
        shears = [(i, j + (j >= i), rng.choice(_units(COMPLEX))) for i, j in
                  ((rng.randrange(n), rng.randrange(n - 1)) for _ in range(2 * n))]
        hidden = _hidden(pair, shears)
        verdict = search_decomposition(hidden)
        assert verdict.status == "decomposable"
        assert verdict.certificate is None
        assert verdict.trace_form["trace_form_inertia"][2] >= 2
        if verdict.witness_subspace is not None:
            _assert_sound_witness(hidden, verdict)
            split += 1
    assert split > 0, split


def test_glued_verdicts_do_not_depend_on_the_trace_form_certificate(monkeypatch):
    # with the rule made to reject everything the splitter gives the same subspaces
    import krein.decompose as decompose

    verdicts = [search_decomposition(make()).to_json_dict() for make in GLUED_PAIRS]
    rule = decompose._RULES["selfadjoint_quotient_field"]
    monkeypatch.setitem(decompose._RULES, "selfadjoint_quotient_field", rule._replace(accept=lambda pair, ev: False))
    assert [search_decomposition(make()).to_json_dict() for make in GLUED_PAIRS] == verdicts
    assert all(v["status"] == "decomposable" for v in verdicts)


def test_split_quotient_is_not_certified():
    # N = [[1, 1], [1, -1]] is symmetric with N^2 = 2: the selfadjoint
    # commutant is spanned by I and N, and tr N = 0 < tr N^2, so the trace
    # form is positive definite and the pair is decomposable over R (the
    # eigenvectors of +-sqrt 2 are orthogonal); no rational eigenvalue splits
    # it, so no subspace over Q is attached
    pair = MatrixPair.from_matrices(Matrix.from_rows([[1, 1], [1, -1]], REAL), Matrix.identity(2, REAL))
    ev = _evidence_selfadjoint_quotient_field(pair)
    assert ev == {"selfadjoint_commutant_dim": 2, "trace_form_rank": 2, "trace_form_inertia": [0, 0, 2]}
    assert not verify_certificate(pair, Certificate("selfadjoint_quotient_field", ev))
    verdict = search_decomposition(pair, budget=200, seed=SEED)
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
        ev = _evidence_selfadjoint_quotient_field(pair)
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
