"""Acceptance suite: one test per criterion, one printed pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; all tolerances are zero (exact arithmetic).
"""

import json
import random
from fractions import Fraction

from krein.classify import (
    bound_window,
    classify,
    joint_eigenspace_real,
    reduce_conjugate_pair,
    reduce_single_eigenvalue,
)
from krein.cli import main as cli_main
from krein.decompose import (
    Certificate,
    certify_family,
    search_decomposition,
    selfadjoint_commutant_basis,
    verify_certificate,
)
from krein.matrices import COMPLEX, REAL, Matrix, char_poly, hstack
from krein.pairdoc import parse_document, parse_pair, serialize_pair
from krein.scalars import GaussianRational
from krein.spaces import (
    IndefiniteSpace,
    MatrixPair,
    SubspaceBasis,
    direct_sum,
    h_adjoint,
    h_orthogonal_complement,
    is_h_normal,
    is_nondegenerate,
    signature,
)
from krein.witnesses import (
    ALL_FAMILIES,
    admissible_ks,
    build_witness,
    chain_matrix,
    chain_witness,
    witness_complex_a_lower,
    witness_complex_a_upper,
    witness_complex_b,
    witness_real_c_even,
    witness_real_c_odd,
    witness_real_d,
    witness_real_e,
)

KMAX = 6
SEED = 1729


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


def all_witnesses(kmax=KMAX):
    for family in ALL_FAMILIES:
        for k in admissible_ks(family, kmax):
            yield build_witness(family, k, {})


def test_criterion_01_witness_h_normality_exact():
    count = 0
    for w in all_witnesses():
        assert is_h_normal(w.pair), (w.spec.family, w.spec.k)
        count += 1
    _report(1, f"H-normality exact for {count} witness pairs, all families, k <= {KMAX}")


def test_criterion_02_witness_signatures():
    for w in all_witnesses():
        k = w.spec.k
        expected = (k, 3 * k) if w.spec.family == "complex-a-upper" else (k, k)
        assert w.pair.space.signature == expected, (w.spec.family, k)
    _report(2, "signatures (k,k) for split/real families and (k,3k) for the 4k family")


def test_criterion_03_bound_strictness_witnesses():
    for w in all_witnesses():
        report = classify(w.pair)
        k = w.spec.k
        expected_n = 4 * k if w.spec.family == "complex-a-upper" else 2 * k
        assert report.n == expected_n
        assert report.case_label == w.expected_case
        assert report.bound_ok is True, (w.spec.family, k)
    _report(3, f"witnesses attain n = 2k (and 4k) with bound_ok, k <= {KMAX}")


def test_criterion_04_inductive_chain_construction():
    assert chain_witness(1) == Matrix.from_rows([[1]], REAL)
    assert chain_witness(2) == Matrix.from_rows([[Fraction(1, 2), 1], [-1, 0]], REAL)
    w3 = chain_witness(3)
    # the m=3 value is accepted via the defining identity, not as ground truth
    assert w3 == chain_matrix(3).matrix @ w3.conj_transpose()
    assert w3 == Matrix.from_rows([[0, 0, -1], [-1, 1, 0], [-1, 0, 0]], REAL)
    for m in range(1, 13):
        w = chain_witness(m)
        assert w == chain_matrix(m).matrix @ w.conj_transpose()
        assert w.det()
        for i in range(m):
            for j in range(m):
                if i + j == m - 1:
                    assert w[i, j] in (1, -1)
                elif i + j > m - 1:
                    assert not w[i, j]
    _report(4, "chain witness identity, nonsingularity and staircase shape for m <= 12")


def test_criterion_05_indecomposability_certificates():
    for w in all_witnesses():
        cert = certify_family(w)
        assert cert.kind == "selfadjoint_quotient_field"
        assert cert.evidence["trace_form_inertia"][2] == 1
        assert verify_certificate(w.pair, cert), (w.spec.family, w.spec.k)
        assert search_decomposition(w.pair).certificate == cert
        # the facts each family's own argument rests on (see its constructor)
        k = w.spec.k
        if w.spec.family in ("real-c-even", "real-c-odd"):
            assert joint_eigenspace_real(w.pair, *(p.re for p in w.spec.eigen_params)).s0_basis.dim == 2
        if w.spec.family == "complex-a-upper":
            # X Hermitian with X N1 = N1 X: the selfadjoint commutant of N1 for H = I
            n1 = w.pair.n_op.submatrix(k, 2 * k, 3 * k, 4 * k)
            assert len(selfadjoint_commutant_basis(MatrixPair.from_matrices(n1, Matrix.identity(k, COMPLEX)))) == 1
    _report(5, f"trace-form certificates produced and re-verified, k <= {KMAX}")


GLUED_PAIRS = [
    lambda: direct_sum(witness_complex_b(1, 0, 1).pair, witness_complex_b(1, 2, 3).pair),
    lambda: direct_sum(witness_complex_b(1, 0, 1).pair, witness_complex_b(2, 4, 5).pair),
    lambda: direct_sum(witness_complex_a_lower(1, 0).pair, witness_complex_a_lower(1, 1).pair),
    lambda: direct_sum(witness_complex_a_lower(1, 0).pair, witness_complex_b(1, 2, 3).pair),
    lambda: direct_sum(witness_complex_a_lower(2, 0).pair, witness_complex_b(1, 1, 2).pair),
    lambda: direct_sum(witness_complex_a_upper(1, 0).pair, witness_complex_a_lower(1, 5).pair),
    lambda: direct_sum(witness_complex_b(3, 0, 1).pair, witness_complex_b(1, 2, 3).pair),
    lambda: direct_sum(witness_real_d(2, 5, 0, 1).pair, witness_real_e(2, 0, 1, 1, 1).pair),
    lambda: direct_sum(witness_real_c_even(2, 0, 1).pair, witness_real_c_odd(1, 2, 3).pair),
    lambda: direct_sum(witness_real_c_odd(1, 0, 1).pair, witness_real_c_odd(1, 0, 2).pair),
]


def test_criterion_06_decomposition_soundness():
    for make in GLUED_PAIRS:
        pair = make()
        assert pair.n <= 12
        verdict = search_decomposition(pair)
        assert verdict.status == "decomposable"
        sub = verdict.witness_subspace
        assert 0 < sub.dim < pair.n
        v = sub.matrix
        adj = h_adjoint(pair.n_op, pair.space)
        assert hstack([v, pair.n_op @ v]).rank() == sub.dim
        assert hstack([v, adj @ v]).rank() == sub.dim
        assert is_nondegenerate(sub, pair.space)
    for w in all_witnesses(kmax=3):
        verdict = search_decomposition(w.pair)
        assert verdict.status != "decomposable", (w.spec.family, w.spec.k)
    _report(6, "10 glued sums decomposed with verified witnesses; no witness pair ever is")


def test_criterion_07_canonical_reductions():
    ident_checks = 0
    for k in (1, 2, 3):
        w = witness_complex_a_lower(k, 0)
        red = reduce_single_eigenvalue(w.pair, 0)
        assert red.block_dims == (k, 0, k)
        w = witness_complex_a_upper(k, 0)
        red = reduce_single_eigenvalue(w.pair, 0)
        assert red.block_dims == (k, 2 * k, k)
        t = red.transform
        tinv = t.inverse()
        assert t @ red.reduced_n @ tinv == w.pair.n_op
        assert tinv.conj_transpose() @ red.reduced_h @ tinv == w.pair.space.h
        ident_checks += 1
    # k = 1 is excluded: there the joint eigenspace is the whole 2-dimensional
    # space, which can never be neutral, so the corner reduction by design
    # rejects it (the pair is already in final form at n = 2)
    for k, builder in ((2, witness_real_c_even), (4, witness_real_c_even),
                       (3, witness_real_c_odd), (5, witness_real_c_odd)):
        w = builder(k, 0, 1)
        red = reduce_conjugate_pair(w.pair, 0, 1)
        d = red.block_dims[0]
        n = w.pair.n
        rh = red.reduced_h
        ident = Matrix.identity(d, REAL)
        assert rh.submatrix(0, d, n - d, n) == ident
        assert rh.submatrix(n - d, n, 0, d) == ident
        assert rh.submatrix(0, d, 0, d).is_zero
        t = red.transform
        tinv = t.inverse()
        assert t @ red.reduced_n @ tinv == w.pair.n_op
        assert tinv.conj_transpose() @ red.reduced_h @ tinv == w.pair.space.h
    _report(7, "corner reductions give (k,0,k)/(k,2k,k) and exact corner Gram shape; round trips recover inputs")


def test_criterion_08_bound_window_table():
    for k in range(1, 7):
        assert bound_window("ComplexA", k) == (2 * k, 4 * k)
        assert bound_window("RealA", k) == (2 * k, 4 * k)
        assert bound_window("ComplexB", k) == (2 * k, 2 * k)
        assert bound_window("RealB", k) == (2 * k, 2 * k)
        if k % 2 == 0:
            assert bound_window("RealD", k) == (2 * k, 2 * k)
            assert bound_window("RealE", k) == (2 * k, 2 * k)
    assert bound_window("RealC", 1) == (2, 2)
    for k in range(2, 7):
        assert bound_window("RealC", k) == (2 * k, 10 * (k // 2) - 2)
    assert bound_window("RealC", 2)[1] == 8
    _report(8, "bound windows match the case table, including the k=2 value 8")


def _rand_rational(rng, lim=3):
    return Fraction(rng.randint(-lim, lim), rng.randint(1, lim))


def _rand_matrix(rng, n, field=COMPLEX):
    ents = [
        GaussianRational(_rand_rational(rng), _rand_rational(rng) if field == COMPLEX else 0)
        for _ in range(n * n)
    ]
    return Matrix(n, n, ents, field)


def _rand_space(rng, n):
    while True:
        a = _rand_matrix(rng, n)
        h = a + a.conj_transpose()
        if h.det():
            return IndefiniteSpace(h)


def test_criterion_09_core_algebra_properties():
    rng = random.Random(SEED)
    for _ in range(100):
        n = rng.randint(1, 4)
        space = _rand_space(rng, n)
        a, b = _rand_matrix(rng, n), _rand_matrix(rng, n)
        assert h_adjoint(h_adjoint(a, space), space) == a
        assert h_adjoint(a @ b, space) == h_adjoint(b, space) @ h_adjoint(a, space)
    for _ in range(100):
        n = rng.randint(1, 5)
        space = _rand_space(rng, n)
        while True:
            t = _rand_matrix(rng, n)
            if t.det():
                break
        assert signature(t.conj_transpose() @ space.h @ t) == space.signature
    for _ in range(100):
        n = rng.randint(1, 5)
        m = _rand_matrix(rng, n)
        assert _apply_poly(char_poly(m), m).is_zero
    done = 0
    while done < 100:
        n = rng.randint(2, 6)
        space = _rand_space(rng, n)
        d = rng.randint(1, n - 1)
        vecs = []
        for _ in range(d):
            v = Matrix.column(
                [GaussianRational(_rand_rational(rng), _rand_rational(rng)) for _ in range(n)],
                COMPLEX,
            )
            cand = vecs + [v]
            if not v.is_zero and hstack(cand).rank() == len(cand):
                vecs.append(v)
        if len(vecs) < d:
            continue
        sub = SubspaceBasis(vecs, n)
        if not is_nondegenerate(sub, space):
            continue
        comp = h_orthogonal_complement(sub, space)
        assert sub.dim + comp.dim == n
        assert hstack([sub.matrix, comp.matrix]).rank() == n
        done += 1
    _report(9, "adjoint laws, Sylvester invariance, Cayley-Hamilton, complement reconstruction: 100 exact trials each")


def _apply_poly(p, m):
    """p(m) by Horner's rule."""
    acc = Matrix.zeros(m.rows, m.rows, m.field)
    for c in reversed(p.coeffs):
        acc = acc @ m + Matrix.identity(m.rows, m.field) * c
    return acc


def test_criterion_10_cli_contract(tmp_path, capsys):
    log = tmp_path / "audit.jsonl"
    rc = cli_main(["audit", "--kmax", "4", "--log", str(log)])
    capsys.readouterr()
    assert rc == 0
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(records) == 20
    for rec in records:
        assert rec["passed"]
        pair = parse_pair(json.dumps(rec["pair"]))
        assert "certificate" not in rec and rec["checks"]["certificate_verified"]
        cert = Certificate(rec["search"]["certificate"]["kind"], rec["search"]["certificate"]["evidence"])
        assert verify_certificate(pair, cert)
    for w in all_witnesses(kmax=4):
        text = serialize_pair(w.pair, {"family": w.spec.family})
        again, _ = parse_document(text)
        assert again == w.pair
        assert serialize_pair(again, {"family": w.spec.family}) == text
    _report(10, "audit --kmax 4 exits 0 with a re-verifiable JSONL log; round trips are bit-exact")
