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
still checked exactly before it is reported. The search is deterministic: it
has no budget and no seed. A pair on which no such x has an exact class that
splits the space, such as N = [[1, 1], [1, -1]] with H = I over R
(eigenvalues +-sqrt 2), is ``decomposable`` with no subspace.

S is one real linear system, reduced once by the sparse Gauss-Jordan core of
:mod:`krein.matrices`, like every solve here. X commutes with N iff it does
with the centred operator C = n d N - s I (``pair.centred``); for X = X^[*],
X N^[*] = N^[*] X is the H-adjoint of XN = NX; and X = X^[*] iff HX is
Hermitian. So S = {X : XC = CX, HX Hermitian}, with no H^-1, adjoint or
commutant. Re X_idx and Im X_idx are columns 2 idx and 2 idx + 1 (over R,
X_idx is column idx). The rows are the real and imaginary parts of the
Gaussian-integer rows of XC - CX, and Re (HX)_ab - Re (HX)_ba, Im (HX)_ab +
Im (HX)_ba for a <= b (a < b over R); kernel vectors go back into the integer
form (d, re, im) of a matrix, so no scalar is boxed. The interleaved columns
keep the basis canonical: S lies in the commutant A of {N, N^[*]}, so both
columns of a pivot entry of A's system are pivots, each free column belongs
to a free entry of A's, in the same order, and the kernel basis (1 at one
free column, 0 at the others) is the real basis of {X in A : HX Hermitian}
read off A's own basis. With every Re column first, the basis changes.
"""

from __future__ import annotations

from collections import defaultdict
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
    when the search finds one."""

    status: str
    trace_form: dict
    certificate: Optional[Certificate]
    witness_subspace: Optional[SubspaceBasis]

    def to_json_dict(self) -> dict:
        d: dict = {"status": self.status, "trace_form": dict(self.trace_form)}
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
    """Exact basis of the *-algebra A = {X : XN = NX, X N^[*] = N^[*] X} over
    the base field: n^2 unknowns against N and its adjoint. The decider does
    not call it, as :func:`selfadjoint_commutant_basis` solves for S directly;
    it stays as the whole algebra, whose structure a complete splitting needs,
    and as the basis from which the tests filter a reference S."""
    n = pair.n
    rows = [row for a in (pair.n_op, pair.adjoint) for row in _sylvester_rows(a, n)]
    out = []
    for d, vec in _integer_kernel(_integer_gauss_jordan(rows), n * n):
        re, im = [0] * (n * n), [0] * (n * n)
        for idx, (x, y) in vec.items():
            re[idx], im[idx] = x, y
        out.append(Matrix._from_ints(n, n, d, re, im, pair.field))
    return out


def selfadjoint_commutant_basis(pair: MatrixPair) -> list[Matrix]:
    """Real basis of S = {X : XN = NX, X^[*] = X}, the kernel of one real
    integer system in the entries of X (module docstring): the rows of
    X C = C X for the pair's centred operator C, and those of "HX is
    Hermitian". It computes no H^-1, no adjoint and no commutant."""
    n, cplx = pair.n, pair.field == COMPLEX
    rows: list[IntRow] = []
    for re, im in _sylvester_rows(pair.centred, n):
        if cplx:  # (x + iy)(u + iv) = (xu - yv) + i(xv + yu), for X_idx = u + iv
            rows.append(({2 * c: x for c, x in re.items()} | {2 * c + 1: -y for c, y in im.items()}, {}))
            rows.append(({2 * c: y for c, y in im.items()} | {2 * c + 1: x for c, x in re.items()}, {}))
        else:
            rows.append((re, im))
    h = pair.space.h
    him = h._im or [0] * (n * n)
    hrows = [[(t - o, h._re[t], him[t]) for t in range(o, o + n) if h._re[t] or him[t]] for o in range(0, n * n, n)]
    for a in range(n):
        for b in range(a if cplx else a + 1, n):
            # Re and Im of (HX)_ab - conj((HX)_ba), for (HX)_pq = sum_k H_pk X_kq
            re_row: dict[int, int] = defaultdict(int)
            im_row: dict[int, int] = defaultdict(int)
            for p, q, sign in ((a, b, 1), (b, a, -1)):
                for k, x, y in hrows[p]:
                    idx = k * n + q
                    if not cplx:
                        re_row[idx] += sign * x
                        continue
                    re_row[2 * idx] += sign * x
                    re_row[2 * idx + 1] -= sign * y
                    im_row[2 * idx] += y
                    im_row[2 * idx + 1] += x
            rows += [({c: v for c, v in part.items() if v}, {}) for part in (re_row, im_row) if any(part.values())]
    out = []
    for d, vec in _integer_kernel(_integer_gauss_jordan(rows), 2 * n * n if cplx else n * n):
        parts = [0] * (n * n), [0] * (n * n)
        for col, (x, _) in vec.items():
            idx, imaginary = divmod(col, 2) if cplx else (col, 0)
            parts[imaginary][idx] = x
        out.append(Matrix._from_ints(n, n, d, *parts, pair.field))
    return out


def _trace_form(pair: MatrixPair) -> tuple[tuple[Matrix, ...], dict]:
    """(basis of S, evidence): dim S, and the rank and inertia of the trace
    form on that basis (module docstring). Computed once per pair object and
    kept on it, like its adjoint; every call returns a fresh copy of the
    evidence."""
    if pair._trace_form is None:
        n = pair.n
        basis = tuple(selfadjoint_commutant_basis(pair))
        # B_j over the common denominator d: the (idx, x, y) of its nonzero entries (x + i y) / d
        _, bre, bim = _common_integer_form(basis)
        bim = bim or [0] * len(bre)
        sparse = [
            [(t - o, bre[t], bim[t]) for t in range(o, o + n * n) if bre[t] or bim[t]]
            for o in range(0, len(bre), n * n)
        ]
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


def search_decomposition(pair: MatrixPair, *, budget=None, seed=None) -> DecompositionVerdict:
    """Decide decomposability exactly, and give a splitting subspace if one is found.

    The trace form on the selfadjoint commutant decides (module docstring).
    At positive index 1 the verdict is ``indecomposable``, with its
    ``selfadjoint_quotient_field`` certificate; otherwise it is
    ``decomposable``, with the subspace of :func:`_splitting_subspace` or
    none. Every verdict records the trace-form evidence. ``budget`` and
    ``seed`` are ignored: ``perfbench/cases.py`` and
    ``perfbench/tests/test_tracer.py`` still pass them.
    """
    basis, ev = _trace_form(pair)
    cert = _certificate(pair)
    if cert is not None:
        return DecompositionVerdict(STATUS_INDECOMPOSABLE, ev, cert, None)
    return DecompositionVerdict(STATUS_DECOMPOSABLE, ev, None, _splitting_subspace(pair, basis))
