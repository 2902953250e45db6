from fractions import Fraction

from krein.decompose import (
    Certificate,
    _evidence_projection_scalar,
    certify_family,
    certify_scalar_commutant,
    commutant_basis,
    search_decomposition,
    selfadjoint_commutant_basis,
    verify_certificate,
)
from krein.matrices import COMPLEX, REAL, Matrix, hstack
from krein.scalars import GaussianRational
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
            assert verdict.status in ("indecomposable", "unknown"), (family, k)


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


def test_seed_env_override(monkeypatch):
    from krein.decompose import default_seed

    monkeypatch.delenv("KREIN_SEED", raising=False)
    base = default_seed()
    monkeypatch.setenv("KREIN_SEED", "99")
    assert default_seed() == 99
    monkeypatch.delenv("KREIN_SEED")
    assert default_seed() == base


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
    # a witness's selfadjoint commutant elements have one real eigenvalue of
    # multiplicity n or no rational one, so no draw yields a candidate
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


def test_search_golden_verdict_on_b_sum():
    g = direct_sum(witness_complex_b(1, 0, 1).pair, witness_complex_b(1, 2, 3).pair)
    assert search_decomposition(g, seed=1729).to_json_dict() == {
        "status": "decomposable",
        "budget": 200,
        "seed": 1729,
        "witness_subspace": [["0", "0", "1", "0"], ["0", "0", "0", "1"]],
    }


def test_search_golden_verdict_on_d_plus_e_sum():
    g = direct_sum(witness_real_d(2, 5, 0, 1).pair, witness_real_e(2, 0, 1, 1, 1).pair)
    units = [["1" if i == j else "0" for i in range(8)] for j in range(4, 8)]
    assert search_decomposition(g, seed=1729).to_json_dict() == {
        "status": "decomposable",
        "budget": 200,
        "seed": 1729,
        "witness_subspace": units,
    }


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
        "n1_nonsingular": True,
        "hermitian_commutant_dim": 1,
        "hermitian_commutant_scalar": True,
    }
