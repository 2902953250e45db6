"""Certified indecomposability checks and a sound decomposition search.

A decomposition of a pair is a proper nondegenerate subspace invariant under
both the operator and its H-adjoint. Its H-orthogonal projection is a
selfadjoint idempotent commuting with both, so:

* if the selfadjoint commutant is exactly the real scalars, the pair is
  indecomposable (certificate ``scalar_selfadjoint_commutant``);
* conversely, the searcher samples selfadjoint commutant elements X with small
  integer coefficients. For each rational root mu of the exact characteristic
  polynomial of X, of multiplicity m < n, the generalized eigenspace
  ker (X - mu)^m is a decomposition: it is invariant because X commutes with
  both operators, and nondegenerate because an H-selfadjoint X has
  H-orthogonal generalized eigenspaces for eigenvalues lambda != conj(nu)
  (Gohberg, Lancaster and Rodman, *Indefinite Linear Algebra and Its
  Applications*, 2005). Candidates are still verified exactly before being
  reported, so ``decomposable`` verdicts are sound; exhausting the budget
  yields ``unknown``. Verdicts are deterministic given (budget, seed).

Every linear solve here (the commutant, its selfadjoint part, the real span
of complex vectors and the candidate subspaces) is an exact kernel or pivot
set read off the one sparse Gauss-Jordan core of :mod:`krein.matrices`.

Family certificates re-derive the specific argument that makes each witness
family indecomposable (unique chain eigenline, scalar commuting projection,
neutral eigenspan, two-dimensional joint eigenspace); every certificate
carries exact evidence that :func:`verify_certificate` recomputes from
scratch before the verdict is trusted.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .exceptions import CertificateCheckFailed, KreinError
from .matrices import (
    COMPLEX,
    REAL,
    Matrix,
    _gauss_jordan,
    char_poly,
    hstack,
    kernel_of_sparse_rows,
    mat_power,
)
from .polynomials import Polynomial, poly_roots
from .scalars import GaussianRational, I_UNIT, ZERO, as_scalar, format_scalar, parse_scalar
from .spaces import (
    MatrixPair,
    SubspaceBasis,
    is_neutral,
    is_nondegenerate,
)
from .witnesses import (
    CERT_JOINT_EIGENSPACE_2D,
    CERT_JORDAN_CHAIN_UNIQUE,
    CERT_NEUTRAL_EIGENSPAN,
    CERT_PROJECTION_SCALAR,
    COMPLEX_B,
    REAL_D,
    REAL_E,
    WitnessPair,
    _split_h,
    chain_matrix,
)
from .classify import joint_eigenspace_real

CERT_SCALAR_COMMUTANT = "scalar_selfadjoint_commutant"

STATUS_INDECOMPOSABLE = "indecomposable"
STATUS_DECOMPOSABLE = "decomposable"
STATUS_UNKNOWN = "unknown"

DEFAULT_BUDGET = 200
_FALLBACK_SEED = 1729


def default_seed() -> int:
    """Default search seed; the KREIN_SEED environment variable overrides it."""
    return int(os.environ.get("KREIN_SEED", _FALLBACK_SEED))


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable indecomposability evidence."""

    kind: str
    evidence: dict

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "evidence": dict(self.evidence)}


@dataclass(frozen=True)
class DecompositionVerdict:
    status: str
    certificate: Optional[Certificate]
    witness_subspace: Optional[SubspaceBasis]
    budget: int
    seed: Optional[int]

    def to_json_dict(self) -> dict:
        d: dict = {"status": self.status, "budget": self.budget, "seed": self.seed}
        if self.certificate is not None:
            d["certificate"] = self.certificate.to_json_dict()
        if self.witness_subspace is not None:
            d["witness_subspace"] = [
                [format_scalar(v[i, 0]) for i in range(v.rows)]
                for v in self.witness_subspace.vectors
            ]
        return d


# -- commutants ------------------------------------------------------------


def _sylvester_rows(a: Matrix, n: int):
    """Sparse rows of the linear system (X A - A X) = 0 in the n^2 unknowns X_ij."""
    rows = []
    acols: list[list[tuple[int, GaussianRational]]] = [
        [(i, a[i, j]) for i in range(n) if a[i, j]] for j in range(n)
    ]
    arows: list[list[tuple[int, GaussianRational]]] = [
        [(j, a[i, j]) for j in range(n) if a[i, j]] for i in range(n)
    ]
    for i in range(n):
        for j in range(n):
            row: dict[int, GaussianRational] = {}
            for l, v in acols[j]:
                key = i * n + l
                nv = row.get(key, ZERO) + v
                if nv:
                    row[key] = nv
                else:
                    row.pop(key, None)
            for l, v in arows[i]:
                key = l * n + j
                nv = row.get(key, ZERO) - v
                if nv:
                    row[key] = nv
                else:
                    row.pop(key, None)
            if row:
                rows.append(row)
    return rows


def _commutant_of(mats: Sequence[Matrix], n: int, field: str) -> list[Matrix]:
    rows = []
    for a in mats:
        rows.extend(_sylvester_rows(a, n))
    vecs = kernel_of_sparse_rows(rows, n * n)
    out = []
    for v in vecs:
        ents = [ZERO] * (n * n)
        for idx, val in v.items():
            ents[idx] = val
        out.append(Matrix(n, n, ents, field))
    return out


def commutant_basis(pair: MatrixPair) -> list[Matrix]:
    """Exact basis of {X : XN = NX and X N^[*] = N^[*] X} over the base field."""
    return _commutant_of([pair.n_op, pair.adjoint], pair.n, pair.field)


def _sparse_entries(m: Matrix) -> list[tuple[int, GaussianRational]]:
    return [(idx, val) for idx, val in enumerate(m.entries) if val]


def _combination(terms, sparse: Sequence[list], n: int, field: str) -> Matrix:
    """The n x n matrix sum c * sparse[j] over the (j, c) in ``terms``."""
    ents = [ZERO] * (n * n)
    for j, c in terms:
        for idx, val in sparse[j]:
            ents[idx] = ents[idx] + val * c
    return Matrix(n, n, ents, field)


def _real_span_solutions(
    basis: Sequence[Matrix], defect: Callable[[Matrix], Matrix]
) -> list[Matrix]:
    """Real basis of {X in span(basis) : defect(X) = 0}.

    Over the complex field the span is taken over C, as the real span of
    ``basis`` and ``i * basis``. ``defect`` must be real-linear; the system
    in the real coefficients is realified into sparse rows (real and
    imaginary part of each entry of defect(X)) and its kernel is read off
    the one Gauss-Jordan core. Each solution is rebuilt as the sparse
    combination sum c_i gens[i].
    """
    gens: list[Matrix] = []
    for b in basis:
        gens.append(b)
        if b.field == COMPLEX:
            gens.append(b * I_UNIT)
    if not gens:
        return []
    rows = []
    for at_pos in zip(*(defect(g).entries for g in gens)):  # one entry per generator
        rows.append({i: GaussianRational(e.re) for i, e in enumerate(at_pos) if e.re})
        rows.append({i: GaussianRational(e.im) for i, e in enumerate(at_pos) if e.im})
    sparse = [_sparse_entries(g) for g in gens]
    n, field = gens[0].rows, gens[0].field
    return [
        _combination(v.items(), sparse, n, field)
        for v in kernel_of_sparse_rows(rows, len(gens))
    ]


def selfadjoint_commutant_basis(pair: MatrixPair) -> list[Matrix]:
    """Real basis of the selfadjoint part {X in commutant : X^[*] = X}."""
    h = pair.space.h

    def defect(x: Matrix) -> Matrix:
        return h @ x - x.conj_transpose() @ h  # zero iff X^[*] = X

    return _real_span_solutions(commutant_basis(pair), defect)


def certify_scalar_commutant(pair: MatrixPair) -> Optional[Certificate]:
    """Certificate that the selfadjoint commutant is exactly the real scalars."""
    basis = selfadjoint_commutant_basis(pair)
    evidence = _evidence_scalar_commutant(pair, basis=basis)
    if evidence["selfadjoint_commutant_dim"] != 1 or not evidence["scalar"]:
        return None
    return Certificate(CERT_SCALAR_COMMUTANT, evidence)


def _evidence_scalar_commutant(pair: MatrixPair, basis=None) -> dict:
    if basis is None:
        basis = selfadjoint_commutant_basis(pair)
    scalar = len(basis) == 1 and basis[0] == Matrix.identity(pair.n, pair.field) * basis[0][0, 0]
    return {"selfadjoint_commutant_dim": len(basis), "scalar": bool(scalar)}


# -- family certificates -----------------------------------------------------


def _evidence_jordan_chain(pair: MatrixPair, k: int) -> dict:
    n = pair.n
    nmat, h = pair.n_op, pair.space.h
    layout_ok = n == 2 * k and h == _split_h(k, pair.field)
    lam = nmat[0, 0]
    if layout_ok:
        li = Matrix.identity(k, pair.field) * lam
        layout_ok = (
            nmat.submatrix(0, k, 0, k) == li
            and nmat.submatrix(k, n, k, n) == li
            and nmat.submatrix(k, n, 0, k).is_zero
        )
    chain = chain_matrix(k)
    cm = chain.matrix.with_field(pair.field)
    factor_ok = False
    if layout_ok:
        w = pair.n_op.submatrix(0, k, k, n)
        factor_ok = w @ w.conj_transpose().inverse() == cm
    eig_dim = len((cm - Matrix.identity(k, pair.field) * chain.sign).kernel_basis())
    return {
        "k": k,
        "eigenvalue": format_scalar(lam),
        "corner_layout_ok": bool(layout_ok),
        "chain_factor_ok": bool(factor_ok),
        "chain_eigenvector_dim": eig_dim,
    }


def _evidence_projection_scalar(pair: MatrixPair, k: int) -> dict:
    n = pair.n
    if n != 4 * k:
        raise CertificateCheckFailed("pair size does not match a 4k layout")
    n1 = pair.n_op.submatrix(k, 2 * k, 3 * k, n)
    cbasis = _commutant_of([n1], k, pair.field)
    sols = _real_span_solutions(cbasis, lambda x: x - x.conj_transpose())
    dim = len(sols)
    scalar = dim == 1 and sols[0] == Matrix.identity(k, pair.field) * sols[0][0, 0]
    return {
        "k": k,
        "n1_nonsingular": bool(n1.rank() == k),
        "hermitian_commutant_dim": dim,
        "hermitian_commutant_scalar": bool(scalar),
    }


def _real_span_of_complex(vectors: Sequence[Matrix], n: int) -> SubspaceBasis:
    """Real basis of the real span of the real and imaginary parts of ``vectors``.

    The parts are taken in order and a part is kept when it is independent
    of the parts before it: these are the pivot columns of one elimination.
    """
    parts = [v for z in vectors for v in (z.real_part(), z.imag_part())]
    rows = [{j: v[i, 0] for j, v in enumerate(parts) if v[i, 0]} for i in range(n)]
    return SubspaceBasis([parts[j] for j in sorted(_gauss_jordan(rows))], n, REAL)


def _exact_spectrum_strings(pair: MatrixPair) -> list[str]:
    roots = poly_roots(char_poly(pair.n_op))
    if not all(r.is_exact for r in roots):
        raise CertificateCheckFailed("spectrum is not exactly computable")
    return sorted(format_scalar(r.value) for r in roots)


def _evidence_neutral_eigenspan(pair: MatrixPair, primary, secondary) -> dict:
    primary, secondary = as_scalar(primary), as_scalar(secondary)
    cn = pair.n_op.complexified()
    n = pair.n
    ident = Matrix.identity(n, COMPLEX)
    g1 = len((cn - ident * primary).kernel_basis())
    sec_shift = cn - ident * secondary
    k1 = sec_shift.kernel_basis()
    k2 = (sec_shift @ sec_shift).kernel_basis()
    if pair.field == REAL and not secondary.is_real:
        span = _real_span_of_complex(k1, n)
    elif pair.field == REAL:
        span = SubspaceBasis(
            (pair.n_op - Matrix.identity(n, REAL) * secondary).kernel_basis(), n, REAL
        )
    else:
        span = SubspaceBasis(k1, n, COMPLEX)
    return {
        "primary": format_scalar(primary),
        "secondary": format_scalar(secondary),
        "primary_geometric_dim": g1,
        "secondary_eigenspace_dim": len(k1),
        "secondary_semisimple": bool(len(k1) == len(k2)),
        "eigenspan_dim": span.dim,
        "eigenspan_gram_zero": bool(is_neutral(span, pair.space)),
        "spectrum": _exact_spectrum_strings(pair),
    }


def _evidence_joint_eigenspace_2d(pair: MatrixPair, alpha, beta) -> dict:
    a_f, b_f = Fraction(alpha), Fraction(beta)
    js = joint_eigenspace_real(pair, a_f, b_f)
    n = pair.n
    quad = Polynomial([a_f * a_f + b_f * b_f, -2 * a_f, 1])
    spectrum_ok = n % 2 == 0 and char_poly(pair.n_op) == quad ** (n // 2)
    return {
        "alpha": str(a_f),
        "beta": str(b_f),
        "s0_dim": js.s0_basis.dim,
        "p": js.s0_prime_dim,
        "q": js.s0_doubleprime_dim,
        "s0_neutral": bool(js.is_neutral_s0),
        "spectrum_ok": bool(spectrum_ok),
    }


def certify_family(wpair: WitnessPair) -> Certificate:
    """Build the family-specific indecomposability certificate, checked exactly.

    Raises CertificateCheckFailed if the property the certificate rests on
    does not hold, which would indicate a construction bug.
    """
    pair = wpair.pair
    family = wpair.spec.family
    params = wpair.spec.eigen_params
    recipe = wpair.certificate_recipe
    if recipe == CERT_JORDAN_CHAIN_UNIQUE:
        ev = _evidence_jordan_chain(pair, wpair.spec.k)
        if not (ev["corner_layout_ok"] and ev["chain_factor_ok"] and ev["chain_eigenvector_dim"] == 1):
            raise CertificateCheckFailed(f"chain certificate failed: {ev}")
    elif recipe == CERT_PROJECTION_SCALAR:
        ev = _evidence_projection_scalar(pair, wpair.spec.k)
        if not (ev["hermitian_commutant_dim"] == 1 and ev["hermitian_commutant_scalar"]):
            raise CertificateCheckFailed(f"projection certificate failed: {ev}")
    elif recipe == CERT_NEUTRAL_EIGENSPAN:
        if family == COMPLEX_B:
            primary, secondary = params[0], params[1]
        elif family == REAL_D:
            lam, alpha, beta = params
            primary = GaussianRational(alpha.re, beta.re)
            secondary = lam
        elif family == REAL_E:
            a1, b1, a2, b2 = params
            primary = GaussianRational(a1.re, b1.re)
            secondary = GaussianRational(a2.re, b2.re)
        else:
            raise CertificateCheckFailed(f"no neutral-eigenspan recipe for {family}")
        ev = _evidence_neutral_eigenspan(pair, primary, secondary)
        if not (
            ev["primary_geometric_dim"] == 1
            and ev["secondary_semisimple"]
            and ev["eigenspan_gram_zero"]
            and ev["eigenspan_dim"] > 0
        ):
            raise CertificateCheckFailed(f"neutral-eigenspan certificate failed: {ev}")
    elif recipe == CERT_JOINT_EIGENSPACE_2D:
        alpha, beta = params
        ev = _evidence_joint_eigenspace_2d(pair, alpha.re, beta.re)
        if not (ev["s0_dim"] == 2 and ev["spectrum_ok"]):
            raise CertificateCheckFailed(f"joint-eigenspace certificate failed: {ev}")
    else:
        raise CertificateCheckFailed(f"unknown certificate recipe {recipe!r}")
    return Certificate(recipe, ev)


def verify_certificate(pair: MatrixPair, cert: Certificate) -> bool:
    """Re-derive a certificate's evidence from the pair and compare exactly."""
    try:
        ev = cert.evidence
        if cert.kind == CERT_SCALAR_COMMUTANT:
            recomputed = _evidence_scalar_commutant(pair)
            return recomputed == ev and recomputed["selfadjoint_commutant_dim"] == 1
        if cert.kind == CERT_JORDAN_CHAIN_UNIQUE:
            recomputed = _evidence_jordan_chain(pair, int(ev["k"]))
            return recomputed == ev and recomputed["chain_eigenvector_dim"] == 1
        if cert.kind == CERT_PROJECTION_SCALAR:
            recomputed = _evidence_projection_scalar(pair, int(ev["k"]))
            return recomputed == ev and recomputed["hermitian_commutant_dim"] == 1
        if cert.kind == CERT_NEUTRAL_EIGENSPAN:
            recomputed = _evidence_neutral_eigenspan(
                pair, parse_scalar(ev["primary"]), parse_scalar(ev["secondary"])
            )
            return (
                recomputed == ev
                and recomputed["primary_geometric_dim"] == 1
                and recomputed["secondary_semisimple"]
                and recomputed["eigenspan_gram_zero"]
            )
        if cert.kind == CERT_JOINT_EIGENSPACE_2D:
            recomputed = _evidence_joint_eigenspace_2d(
                pair, Fraction(ev["alpha"]), Fraction(ev["beta"])
            )
            return recomputed == ev and recomputed["s0_dim"] == 2 and recomputed["spectrum_ok"]
        return False
    except (KreinError, KeyError, ValueError, TypeError, ZeroDivisionError):
        return False


# -- decomposition search ------------------------------------------------------


def _rational_roots_with_mult(p: Polynomial) -> list[tuple[Fraction, int]]:
    out = []
    for r in poly_roots(p):
        if r.is_exact and r.value.is_real:
            out.append((r.value.re, r.multiplicity))
    out.sort(key=lambda t: t[0])
    return out


def _try_root_subspace(pair: MatrixPair, x: Matrix, mu: Fraction, mult: int):
    n = pair.n
    shift = x - Matrix.identity(n, pair.field) * as_scalar(mu)
    kernel = mat_power(shift, mult).kernel_basis()
    d = len(kernel)
    if not 0 < d < n:
        return None
    sub = SubspaceBasis(kernel, n, pair.field)
    v = sub.matrix
    for op in (pair.n_op, pair.adjoint):
        if hstack([v, op @ v]).rank() != d:
            return None
    if not is_nondegenerate(sub, pair.space):
        return None
    return sub


def search_decomposition(
    pair: MatrixPair, budget: int = DEFAULT_BUDGET, seed: Optional[int] = None
) -> DecompositionVerdict:
    """Look for an exact decomposition witness; sound and reproducible.

    Returns ``indecomposable`` when the scalar-commutant certificate applies.
    Otherwise each of up to ``budget`` seeded draws X offers as candidates the
    rational roots mu of ``char_poly(X)`` with multiplicity m < n, whose
    generalized eigenspaces are invariant and nondegenerate (module
    docstring). The first that passes the exact checks is returned as
    ``decomposable``; ``unknown`` once the budget is exhausted.
    """
    if seed is None:
        seed = default_seed()
    basis = selfadjoint_commutant_basis(pair)
    ev = _evidence_scalar_commutant(pair, basis=basis)
    if ev["selfadjoint_commutant_dim"] == 1 and ev["scalar"]:
        return DecompositionVerdict(
            STATUS_INDECOMPOSABLE, Certificate(CERT_SCALAR_COMMUTANT, ev), None, budget, seed
        )
    n = pair.n
    sparse = [_sparse_entries(b) for b in basis]
    m = len(basis)
    # for large commutants each draw touches a bounded number of basis
    # elements; the remaining coefficients are zero (still "small integers")
    width = m if m <= 8 else 6
    rng = random.Random(seed)
    seen: set[tuple] = set()
    for _ in range(budget):
        if width == m:
            picks = tuple(enumerate(rng.randint(-3, 3) for _ in range(m)))
        else:
            idxs = sorted(rng.sample(range(m), width))
            picks = tuple((i, rng.randint(-3, 3)) for i in idxs)
        if not any(c for _, c in picks) or picks in seen:
            continue
        seen.add(picks)
        x = _combination(((j, as_scalar(c)) for j, c in picks if c), sparse, n, pair.field)
        for mu, mult in _rational_roots_with_mult(char_poly(x)):
            if mult == n:  # ker (X - mu)^n is the whole space
                continue
            sub = _try_root_subspace(pair, x, mu, mult)
            if sub is not None:
                return DecompositionVerdict(STATUS_DECOMPOSABLE, None, sub, budget, seed)
    return DecompositionVerdict(STATUS_UNKNOWN, None, None, budget, seed)
