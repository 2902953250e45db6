"""The exact decomposability decider, its certificates and splitting subspaces.

A decomposition of a pair is a proper nondegenerate subspace invariant under
both the operator and its H-adjoint. Its H-orthogonal projection is a
selfadjoint idempotent commuting with both. One signature decides whether
there is one.

The decider. Let S be the selfadjoint commutant, the X = X^[*] that commute
with N and N^[*], and G(X, Y) = tr(XY) on S. G is real, since
conj tr(XY) = tr((XY)^[*]) = tr(YX), and I is in S with G(I, I) = n > 0. The
pair is decomposable iff the positive index of G is at least 2:

* If the pair is decomposable, its projection P gives u = 2P - I in S with
  u^2 = I and |tr u| < n, since P != 0, I. The Gram matrix
  [[n, tr u], [tr u, n]] of (I, u) is positive definite, so G has two
  positive directions.
* Conversely, a plane on which G is positive definite meets the
  G-orthogonal complement of I: some x in S has tr x = 0 and tr x^2 > 0.
  The spectrum of the H-selfadjoint x holds conj(lambda) as often as
  lambda. If it were one real lambda, tr x = 0 would give lambda = 0 and
  tr x^2 = 0; if it were one pair a +- ib with b != 0, tr x = 0 would give
  a = 0 and tr x^2 = -n b^2 < 0. So it falls into at least two classes
  closed under conjugation. The generalized eigenspaces of an
  H-selfadjoint x are H-orthogonal for eigenvalues lambda != conj(nu)
  (Gohberg, Lancaster and Rodman, *Indefinite Linear Algebra and Its
  Applications*, 2005), so the sum of those of one class is proper,
  nondegenerate and defined over the base field. It is invariant under N
  and N^[*], which commute with x.

The one certificate kind, ``selfadjoint_quotient_field``, holds dim S, and
the rank and the inertia (v_-, v_0, v_+) of the Gram matrix
G_ij = tr(S_i S_j) on the basis S_i of S; it is issued at v_+ = 1. G is
summed on the integer basis lists over the common denominator d of the
basis, which scales it by d^2, and its inertia is read off the Hermitian
congruence of :func:`krein.matrices._hermitian_inertia`. The trace form is
computed once per :class:`krein.spaces.MatrixPair` object and kept on it:
certifying, verifying and the search read it, each with its own copy of the
evidence. A certificate verifies iff it equals the pair's own, so one of any
other kind (such as the family kinds of older logs) does not.

The subspace. For a decomposable pair the search tries fixed elements x of
S, in order: N + N^[*], N N^[*], i (N - N^[*]) over C, then the basis of S.
Their spectra come from ``poly_roots(char_poly(x))``, exact in Q(i). Each
class of the argument above whose roots are exact gives a kernel: first, over
every x in order, ker (x - mu)^m for a real root mu of multiplicity m < n;
then, over the same spectra, ker ((x - a)^2 + b^2)^m for a root a + ib with
b > 0 and 2m < n. The latter is the sum of the generalized eigenspaces of
lambda and conj(lambda), defined over the base field because
(t - a)^2 + b^2 has rational coefficients; over C the eigenspace of lambda
alone is neutral, which is why the pair is taken together. Each kernel is
still checked exactly before it is reported. The search keeps no budget and
no seed: the verdict records the ones it is given and does not depend on
them. A pair on which no such x has an exact class that splits the space,
such as N = [[1, 1], [1, -1]] with H = I over R (eigenvalues +-sqrt 2), is
``decomposable`` with no subspace.

Every linear solve here (the commutant, its selfadjoint part, the real span
of complex vectors and the candidate subspaces) is an exact kernel or pivot
set read off the one sparse Gauss-Jordan core of :mod:`krein.matrices`. The
commutant systems are built as integer rows from each matrix's (d, re, im),
and their kernel vectors go back into that form, so no scalar is boxed: the
rows of X A - A X = 0 are those of d (X A - A X), with the same kernel. The
selfadjoint part is {X in commutant : HX Hermitian}: one product H B per
basis element B, integer rows from the upper triangle of the
skew-Hermitian defect, and each solution summed over the commutant basis
written over its common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .exceptions import CertificateCheckFailed
from .matrices import (
    COMPLEX,
    IntRow,
    Matrix,
    _common_integer_form,
    _hermitian_inertia,
    _integer_gauss_jordan,
    _integer_kernel,
    char_poly,
    hstack,
    mat_power,
)
from .polynomials import poly_roots
from .scalars import I_UNIT, format_scalar
from .spaces import MatrixPair, SubspaceBasis, is_nondegenerate
from .witnesses import WitnessPair

CERT_QUOTIENT_FIELD = "selfadjoint_quotient_field"

STATUS_INDECOMPOSABLE = "indecomposable"
STATUS_DECOMPOSABLE = "decomposable"

DEFAULT_BUDGET = 200
DEFAULT_SEED = 1729


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable indecomposability evidence."""

    kind: str
    evidence: dict

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "evidence": dict(self.evidence)}


@dataclass(frozen=True)
class DecompositionVerdict:
    """The decider's verdict and its trace-form evidence, with the certificate
    of an indecomposable pair or a splitting subspace of a decomposable one,
    when the search finds one. ``budget`` and ``seed`` are only recorded."""

    status: str
    trace_form: dict
    certificate: Optional[Certificate]
    witness_subspace: Optional[SubspaceBasis]
    budget: int
    seed: Optional[int]

    def to_json_dict(self) -> dict:
        d: dict = {
            "status": self.status,
            "trace_form": dict(self.trace_form),
            "budget": self.budget,
            "seed": self.seed,
        }
        if self.certificate is not None:
            d["certificate"] = self.certificate.to_json_dict()
        if self.witness_subspace is not None:
            d["witness_subspace"] = [
                [format_scalar(v[i, 0]) for i in range(v.rows)]
                for v in self.witness_subspace.vectors
            ]
        return d


# -- commutants ------------------------------------------------------------


def _sylvester_rows(a: Matrix, n: int) -> list[IntRow]:
    """Integer rows of d (X A - A X) = 0 in the n^2 unknowns X_ij, for
    A = (re + i*im) / d: row (i, j) holds A_lj at X_il (l != j), -A_il at
    X_lj (l != i) and A_jj - A_ii at X_ij."""
    parts = (a._re, a._im) if a._im else (a._re,)
    # per part of d A: the nonzero off-diagonal (l, A_lj) of each column j
    # and (l, -A_il) of each row i
    acols = [[[(l, p[l * n + j]) for l in range(n) if l != j and p[l * n + j]] for j in range(n)] for p in parts]
    arows = [[[(l, -p[i * n + l]) for l in range(n) if l != i and p[i * n + l]] for i in range(n)] for p in parts]
    rows = []
    for i in range(n):
        for j in range(n):
            row = ({}, {})
            for part, p, cols, rws in zip(row, parts, acols, arows):
                part.update((i * n + l, v) for l, v in cols[j])
                part.update((l * n + j, v) for l, v in rws[i])
                if p[j * n + j] != p[i * n + i]:
                    part[i * n + j] = p[j * n + j] - p[i * n + i]
            if row[0] or row[1]:
                rows.append(row)
    return rows


def commutant_basis(pair: MatrixPair) -> list[Matrix]:
    """Exact basis of {X : XN = NX and X N^[*] = N^[*] X} over the base field."""
    n = pair.n
    rows = [row for a in (pair.n_op, pair.adjoint) for row in _sylvester_rows(a, n)]
    out = []
    for d, vec in _integer_kernel(_integer_gauss_jordan(rows), n * n):
        re, im = [0] * (n * n), [0] * (n * n)
        for idx, (x, y) in vec.items():
            re[idx], im[idx] = x, y
        out.append(Matrix._from_ints(n, n, d, re, im, pair.field))
    return out


def _real_span_solutions(basis: Sequence[Matrix], h: Matrix) -> list[Matrix]:
    """Real basis of {X in span(basis) : hX Hermitian}, for a Hermitian h.

    Over the complex field the span is taken over C: the unknowns are the
    real c_j, c'_j of X = sum (c_j + i c'_j) B_j. With P_j = h B_j, the
    defect hX - (hX)* = sum c_j (P_j - P_j*) + c'_j i (P_j + P_j*) is
    skew-Hermitian, so it vanishes when the real and imaginary parts of its
    upper triangle do. Those are sparse integer rows (every P_j written
    over one common denominator), and their kernel is read off the one
    Gauss-Jordan core. Each solution (c_j + i c'_j) = (u_j + i u'_j) / e is
    summed as sum (u_j + i u'_j) (x + i y) over the integer basis lists
    (x + i y) / d of :func:`_integer_basis`, into one matrix over e d.
    """
    if not basis:
        return []
    n, field, m = basis[0].rows, basis[0].field, len(basis)
    cplx = field == COMPLEX
    _, pre, pim = _common_integer_form([h @ b for b in basis])
    pim = pim or [0] * len(pre)
    offsets = range(0, len(pre), n * n)
    rows = []
    for a in range(n):
        for b in range(a, n):
            above, below = a * n + b, b * n + a
            re_row: dict[int, int] = {}
            im_row: dict[int, int] = {}
            for j, o in enumerate(offsets):
                x, y, u, v = pre[o + above], pim[o + above], pre[o + below], pim[o + below]
                col = 2 * j if cplx else j
                if x != u:
                    re_row[col] = x - u
                if y + v:
                    im_row[col] = y + v
                if cplx:  # the entries of i (P + P*)
                    if v != y:
                        re_row[col + 1] = v - y
                    if x + u:
                        im_row[col + 1] = x + u
            rows += [(re_row, {}), (im_row, {})]
    d, sparse = _integer_basis(basis, n)
    out = []
    for e, sol in _integer_kernel(_integer_gauss_jordan(rows), 2 * m if cplx else m):
        xre, xim = [0] * (n * n), [0] * (n * n)
        for col, (u, _) in sol.items():
            j, imaginary = divmod(col, 2) if cplx else (col, 0)
            a, b = (0, u) if imaginary else (u, 0)
            for idx, x, y in sparse[j]:  # (a + i b) (x + i y)
                xre[idx] += a * x - b * y
                xim[idx] += a * y + b * x
        out.append(Matrix._from_ints(n, n, e * d, xre, xim, field))
    return out


def selfadjoint_commutant_basis(pair: MatrixPair) -> list[Matrix]:
    """Real basis of the selfadjoint part {X in commutant : X^[*] = X}, that is
    of the X with HX Hermitian."""
    return _real_span_solutions(commutant_basis(pair), pair.space.h)


def _integer_basis(basis: Sequence[Matrix], n: int) -> tuple[int, list[list[tuple[int, int, int]]]]:
    """(d, sparse): the basis over its common denominator d, that is
    B_j = sum (x + i y) e_idx / d over the (idx, x, y) of sparse[j]."""
    d, bre, bim = _common_integer_form(basis)
    bim = bim or [0] * len(bre)
    return d, [
        [(idx, bre[t], bim[t]) for idx, t in enumerate(range(o, o + n * n)) if bre[t] or bim[t]]
        for o in range(0, len(bre), n * n)
    ]


def _trace_form(pair: MatrixPair) -> tuple[tuple[Matrix, ...], dict]:
    """(basis of S, evidence): dim S, and the rank and inertia of the trace
    form on that basis (module docstring). Computed once per pair object and
    kept on it, like its adjoint; every call returns a fresh copy of the
    evidence."""
    if pair._trace_form is None:
        n = pair.n
        basis = tuple(selfadjoint_commutant_basis(pair))
        _, sparse = _integer_basis(basis, n)
        # d^2 tr(B_i B_j) = sum over the entries (a, b) of B_i of B_i[a, b] B_j[b, a];
        # it is real for selfadjoint B_i, B_j
        flipped = [{(idx % n) * n + idx // n: (x, y) for idx, x, y in b} for b in sparse]
        m = len(sparse)
        gram = [0] * (m * m)
        for i, bi in enumerate(sparse):
            for j in range(i, m):
                fj = flipped[j]
                gram[i * m + j] = gram[j * m + i] = sum(x * fj[idx][0] - y * fj[idx][1] for idx, x, y in bi if idx in fj)
        neg, zero, pos = _hermitian_inertia(m, gram, [])
        ev = {"selfadjoint_commutant_dim": m, "trace_form_rank": m - zero, "trace_form_inertia": [neg, zero, pos]}
        pair._trace_form = basis, ev
    basis, ev = pair._trace_form
    return basis, dict(ev, trace_form_inertia=list(ev["trace_form_inertia"]))


def _certificate(pair: MatrixPair) -> Optional[Certificate]:
    """The pair's ``selfadjoint_quotient_field`` certificate, or None when the
    trace form has positive index other than 1."""
    _, ev = _trace_form(pair)
    return Certificate(CERT_QUOTIENT_FIELD, ev) if ev["trace_form_inertia"][2] == 1 else None


def certify_family(wpair: WitnessPair) -> Certificate:
    """The indecomposability certificate of a witness, checked exactly.

    Raises CertificateCheckFailed if the trace form of the witness does not
    have positive index 1, which would indicate a construction bug.
    """
    cert = _certificate(wpair.pair)
    if cert is None:
        raise CertificateCheckFailed(f"{wpair.spec.family} witness is not certified: {_trace_form(wpair.pair)[1]}")
    return cert


def verify_certificate(pair: MatrixPair, cert: Certificate) -> bool:
    """True when ``cert`` is the pair's own certificate: kind
    ``selfadjoint_quotient_field``, evidence equal to the pair's trace-form
    evidence, and positive index 1. Any other kind or evidence gives False."""
    return isinstance(cert, Certificate) and cert == _certificate(pair)


# -- decomposition search ------------------------------------------------------


def _try_subspace(pair: MatrixPair, g: Matrix) -> Optional[SubspaceBasis]:
    """ker g, when it is proper, invariant under N and N^[*], and nondegenerate."""
    n = pair.n
    kernel = g.kernel_basis()
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


def _splitting_subspace(pair: MatrixPair, basis: Sequence[Matrix]) -> Optional[SubspaceBasis]:
    """The first kernel that passes the exact checks, with x running over
    N + N^[*], N N^[*], i (N - N^[*]) over C, then the selfadjoint basis:
    first ker (x - mu)^m for each exact real root mu of multiplicity m < n,
    then, over the same spectra, ker ((x - a)^2 + b^2)^m for each exact root
    a + ib with b > 0 and 2m < n. None if there is none."""
    n, nop, adj = pair.n, pair.n_op, pair.adjoint
    xs = [nop + adj, nop @ adj]
    if pair.field == COMPLEX:
        xs.append((nop - adj) * I_UNIT)
    one = Matrix.identity(n, pair.field)
    spectra = []
    for x in xs + list(basis):
        roots = [r for r in poly_roots(char_poly(x)) if r.is_exact]
        spectra.append((x, roots))
        for r in roots:
            if r.is_real and r.multiplicity < n:
                sub = _try_subspace(pair, mat_power(x - one * r.value, r.multiplicity))
                if sub is not None:
                    return sub
    for x, roots in spectra:
        for r in roots:
            a, b = r.value.re, r.value.im
            if b > 0 and 2 * r.multiplicity < n:
                shift = x - one * a
                sub = _try_subspace(pair, mat_power(shift @ shift + one * (b * b), r.multiplicity))
                if sub is not None:
                    return sub
    return None


def search_decomposition(
    pair: MatrixPair, budget: int = DEFAULT_BUDGET, seed: int = DEFAULT_SEED
) -> DecompositionVerdict:
    """Decide decomposability exactly, and give a splitting subspace if one is found.

    The trace form on the selfadjoint commutant decides (module docstring).
    At positive index 1 the verdict is ``indecomposable``, with its
    ``selfadjoint_quotient_field`` certificate; otherwise it is
    ``decomposable``, with the subspace of :func:`_splitting_subspace` or
    none. Every verdict records the trace-form evidence. ``budget`` and
    ``seed`` are recorded in the verdict and change nothing else.
    """
    basis, ev = _trace_form(pair)
    cert = _certificate(pair)
    if cert is not None:
        return DecompositionVerdict(STATUS_INDECOMPOSABLE, ev, cert, None, budget, seed)
    return DecompositionVerdict(STATUS_DECOMPOSABLE, ev, None, _splitting_subspace(pair, basis), budget, seed)
