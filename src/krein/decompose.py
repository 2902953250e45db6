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

The evidence of the ``selfadjoint_quotient_field`` certificate is dim S, and
the rank and the inertia (v_-, v_0, v_+) of the Gram matrix
G_ij = tr(S_i S_j) on the basis S_i of S; the rule accepts v_+ = 1. G is
summed on the integer basis lists over the common denominator d of the
basis, which scales it by d^2, and its inertia is read off the Hermitian
congruence of :func:`krein.matrices._hermitian_inertia`.

The subspace. For a decomposable pair the search tries fixed elements x of
S, in order: N + N^[*], N N^[*], i (N - N^[*]) over C, then the basis of S.
For each rational root mu of the characteristic polynomial of x, of
multiplicity m < n, the generalized eigenspace ker (x - mu)^m is invariant
and nondegenerate, by the argument above with mu its own class. It is still
checked exactly before it is reported. The search keeps no budget and no
seed: the verdict records the ones it is given and does not depend on them.
A pair on which no such x has a rational root that splits the space, such
as N = [[1, 1], [1, -1]] with H = I over R (eigenvalues +-sqrt 2), is
``decomposable`` with no subspace.

The candidates run on Python ints. For the integer form (d, re, im) of x,
f = det(tI - d x) comes from the same Samuelson-Berkowitz recurrence as
:func:`krein.matrices.char_poly`. ``poly_roots`` sees only the primitive
part of w(d t), for the squarefree part w of f: its roots are the
eigenvalues mu of x, so its size, and the p-adic precision its roots need,
do not grow with d. y = d mu is an integer root of f, and its multiplicity
comes from exact synthetic division.

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

Family certificates re-derive the specific argument that makes each witness
family indecomposable. Each kind has one rule in one table (``_RULES``),
shared by certifying, verifying and the search: the evidence, rebuilt from
the arguments it records, and one acceptance condition on it, which
:func:`verify_certificate` applies to the evidence it recomputes:

* ``scalar_selfadjoint_commutant``: the selfadjoint commutant is R I.
* ``selfadjoint_quotient_field``: the trace form on the selfadjoint
  commutant has positive index 1 (above).
* ``jordan_chain_unique`` (``k``): n = 2k, H = [[0, I], [I, 0]] and
  N = [[lam I, W], [0, lam I]] with W W*^-1 the k x k chain, whose
  eigenspace is one-dimensional.
* ``projection_scalar`` (``k``): the pair has the 4k layout of
  :func:`krein.witnesses.witness_complex_a_upper` (H and every block of N
  but N1 = N[k:2k, 3k:4k] and N2 = N[2k:3k, 3k:4k]), N1 is nonsingular and
  only real scalars are Hermitian and commute with it.
* ``neutral_eigenspan`` (``primary``, ``secondary``): the spectrum is
  exactly {primary, secondary} (with conjugates over R), primary has
  geometric multiplicity 1, secondary is semisimple, and its (real)
  eigenspan is nonzero and neutral (Gohberg, Lancaster and Rodman).
* ``joint_eigenspace_two_dim`` (``alpha``, ``beta``): char_poly(N) is a power
  of (t - alpha)^2 + beta^2 and the real joint eigenspace is 2-dimensional.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .exceptions import CertificateCheckFailed, KreinError
from .matrices import (
    COMPLEX,
    REAL,
    IntRow,
    Matrix,
    _common_integer_form,
    _hermitian_inertia,
    _integer_gauss_jordan,
    _integer_kernel,
    _samuelson_berkowitz,
    char_poly,  # noqa: F401  (re-exported as krein.decompose.char_poly)
    hstack,
    mat_power,
)
from .polynomials import _integer_roots_with_mult, poly_roots
from .scalars import I_UNIT, as_scalar, format_scalar, parse_scalar
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
    WitnessPair,
    _a_upper_layout,
    _split_h,
    chain_matrix,
)
from .classify import _is_conjugate_pair_spectrum, _real_span_of_complex, joint_eigenspace_real

CERT_SCALAR_COMMUTANT = "scalar_selfadjoint_commutant"
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


def _commutant_of(mats: Sequence[Matrix], n: int, field: str) -> list[Matrix]:
    rows = [row for a in mats for row in _sylvester_rows(a, n)]
    out = []
    for d, vec in _integer_kernel(_integer_gauss_jordan(rows), n * n):
        re, im = [0] * (n * n), [0] * (n * n)
        for idx, (x, y) in vec.items():
            re[idx], im[idx] = x, y
        out.append(Matrix._from_ints(n, n, d, re, im, field))
    return out


def commutant_basis(pair: MatrixPair) -> list[Matrix]:
    """Exact basis of {X : XN = NX and X N^[*] = N^[*] X} over the base field."""
    return _commutant_of([pair.n_op, pair.adjoint], pair.n, pair.field)


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


def certify_scalar_commutant(pair: MatrixPair) -> Optional[Certificate]:
    """Certificate that the selfadjoint commutant is exactly the real scalars."""
    return _accepted(CERT_SCALAR_COMMUTANT, pair, _evidence_scalar_commutant(pair))


def _evidence_scalar_commutant(pair: MatrixPair) -> dict:
    basis = selfadjoint_commutant_basis(pair)
    scalar = len(basis) == 1 and _is_scalar(basis[0])
    return {"selfadjoint_commutant_dim": len(basis), "scalar": bool(scalar)}


def _is_scalar(m: Matrix) -> bool:
    """m is a multiple of the identity, read off its integer form."""
    step = m.rows + 1
    return all(v == (part[0] if t % step == 0 else 0) for part in (m._re, m._im) for t, v in enumerate(part))


def _integer_basis(basis: Sequence[Matrix], n: int) -> tuple[int, list[list[tuple[int, int, int]]]]:
    """(d, sparse): the basis over its common denominator d, that is
    B_j = sum (x + i y) e_idx / d over the (idx, x, y) of sparse[j]."""
    d, bre, bim = _common_integer_form(basis)
    bim = bim or [0] * len(bre)
    return d, [
        [(idx, bre[t], bim[t]) for idx, t in enumerate(range(o, o + n * n)) if bre[t] or bim[t]]
        for o in range(0, len(bre), n * n)
    ]


def _evidence_selfadjoint_quotient_field(pair: MatrixPair, basis=None) -> dict:
    """dim S, and the rank and inertia of the trace form on its basis
    (module docstring)."""
    if basis is None:
        basis = selfadjoint_commutant_basis(pair)
    n = pair.n
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
    return {
        "selfadjoint_commutant_dim": m,
        "trace_form_rank": m - zero,
        "trace_form_inertia": [neg, zero, pos],
    }


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
    nmat = pair.n_op
    n1, n2 = (nmat.submatrix(r * k, (r + 1) * k, 3 * k, n) for r in (1, 2))
    layout_ok = (nmat, pair.space.h) == _a_upper_layout(nmat[0, 0], n1, n2)
    cbasis = _commutant_of([n1], k, pair.field)
    sols = _real_span_solutions(cbasis, Matrix.identity(k, pair.field))
    dim = len(sols)
    scalar = dim == 1 and _is_scalar(sols[0])
    return {
        "k": k,
        "layout_ok": bool(layout_ok),
        "n1_nonsingular": bool(n1.rank() == k),
        "hermitian_commutant_dim": dim,
        "hermitian_commutant_scalar": bool(scalar),
    }


def _exact_spectrum_strings(pair: MatrixPair) -> list[str]:
    roots = poly_roots(pair.char_poly)
    if not all(r.is_exact for r in roots):
        raise CertificateCheckFailed("spectrum is not exactly computable")
    return sorted(format_scalar(r.value) for r in roots)


def _evidence_neutral_eigenspan(pair: MatrixPair, primary: str, secondary: str) -> dict:
    primary, secondary = parse_scalar(primary), parse_scalar(secondary)
    cn = pair.n_op.complexified()
    n = pair.n
    ident = Matrix.identity(n, COMPLEX)
    g1 = len((cn - ident * primary).kernel_basis())
    sec_shift = cn - ident * secondary
    k1 = sec_shift.kernel_basis()
    k2 = (sec_shift @ sec_shift).kernel_basis()
    span = _real_span_of_complex(k1, n) if pair.field == REAL else SubspaceBasis(k1, n, COMPLEX)
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


def _evidence_joint_eigenspace_2d(pair: MatrixPair, alpha: str, beta: str) -> dict:
    a_f, b_f = Fraction(alpha), Fraction(beta)
    js = joint_eigenspace_real(pair, a_f, b_f)
    return {
        "alpha": str(a_f),
        "beta": str(b_f),
        "s0_dim": js.s0_basis.dim,
        "p": js.s0_prime_dim,
        "q": js.s0_doubleprime_dim,
        "s0_neutral": bool(js.is_neutral_s0),
        "spectrum_ok": _is_conjugate_pair_spectrum(pair, a_f, b_f),
    }


def _spectrum_is_exactly(pair: MatrixPair, ev: dict) -> bool:
    """The evidence spectrum is {primary, secondary}, closed under conjugation over R."""
    ends = [parse_scalar(ev["primary"]), parse_scalar(ev["secondary"])]
    if pair.field == REAL:
        ends += [z.conjugate() for z in ends]
    return set(ev["spectrum"]) == {format_scalar(z) for z in ends}


class _Rule(NamedTuple):
    """``evidence(pair, **{a: ev[a] for a in args})`` rebuilds evidence ``ev``
    from the arguments it records, in their JSON form; ``accept(pair, ev)``
    is the kind's acceptance condition."""

    args: tuple[str, ...]
    evidence: Callable[..., dict]
    accept: Callable[[MatrixPair, dict], bool]


_RULES = {
    CERT_SCALAR_COMMUTANT: _Rule(
        (),
        _evidence_scalar_commutant,
        lambda pair, ev: ev["selfadjoint_commutant_dim"] == 1 and ev["scalar"],
    ),
    CERT_QUOTIENT_FIELD: _Rule(
        (),
        _evidence_selfadjoint_quotient_field,
        lambda pair, ev: ev["trace_form_inertia"][2] == 1,
    ),
    CERT_JORDAN_CHAIN_UNIQUE: _Rule(
        ("k",),
        _evidence_jordan_chain,
        lambda pair, ev: (
            ev["corner_layout_ok"] and ev["chain_factor_ok"] and ev["chain_eigenvector_dim"] == 1
        ),
    ),
    CERT_PROJECTION_SCALAR: _Rule(
        ("k",),
        _evidence_projection_scalar,
        lambda pair, ev: (
            ev["layout_ok"]
            and ev["n1_nonsingular"]
            and ev["hermitian_commutant_dim"] == 1
            and ev["hermitian_commutant_scalar"]
        ),
    ),
    CERT_NEUTRAL_EIGENSPAN: _Rule(
        ("primary", "secondary"),
        _evidence_neutral_eigenspan,
        lambda pair, ev: (
            ev["primary_geometric_dim"] == 1
            and ev["secondary_semisimple"]
            and ev["eigenspan_gram_zero"]
            and ev["eigenspan_dim"] > 0
            and _spectrum_is_exactly(pair, ev)
        ),
    ),
    CERT_JOINT_EIGENSPACE_2D: _Rule(
        ("alpha", "beta"),
        _evidence_joint_eigenspace_2d,
        lambda pair, ev: ev["s0_dim"] == 2 and ev["spectrum_ok"],
    ),
}


def _accepted(kind: str, pair: MatrixPair, ev: dict) -> Optional[Certificate]:
    """The certificate of ``kind`` on evidence ``ev`` if its rule accepts it."""
    return Certificate(kind, ev) if _RULES[kind].accept(pair, ev) else None


def certify_family(wpair: WitnessPair) -> Certificate:
    """Build the family-specific indecomposability certificate, checked exactly.

    Raises CertificateCheckFailed if the property the certificate rests on
    does not hold, which would indicate a construction bug.
    """
    kind = wpair.certificate_recipe
    if kind not in _RULES:
        raise CertificateCheckFailed(f"unknown certificate recipe {kind!r}")
    ev = _RULES[kind].evidence(wpair.pair, **wpair.certificate_args)
    cert = _accepted(kind, wpair.pair, ev)
    if cert is None:
        raise CertificateCheckFailed(f"{kind} certificate failed: {ev}")
    return cert


def verify_certificate(pair: MatrixPair, cert: Certificate) -> bool:
    """Rebuild a certificate's evidence from the arguments it records, compare
    it exactly, and apply the kind's acceptance rule to the rebuilt evidence."""
    try:
        rule = _RULES[cert.kind]
        ev = cert.evidence
        recomputed = rule.evidence(pair, **{a: ev[a] for a in rule.args})
        return recomputed == ev and bool(rule.accept(pair, recomputed))
    except (KreinError, KeyError, ValueError, TypeError, AttributeError, ZeroDivisionError):
        return False


# -- decomposition search ------------------------------------------------------


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


def _splitting_subspace(pair: MatrixPair, basis: Sequence[Matrix]) -> Optional[SubspaceBasis]:
    """The first generalized eigenspace ker (x - mu)^m, for a rational root mu
    of multiplicity m < n, that passes the exact checks, with x running over
    N + N^[*], N N^[*], i (N - N^[*]) over C, then the selfadjoint basis;
    None if there is none."""
    n, nop, adj = pair.n, pair.n_op, pair.adjoint
    xs = [nop + adj, nop @ adj]
    if pair.field == COMPLEX:
        xs.append((nop - adj) * I_UNIT)
    for x in xs + list(basis):
        d = x._d
        # a root y of det(tI - d x) is d mu for an eigenvalue mu of x
        for y, mult in _integer_roots_with_mult(_samuelson_berkowitz(n, x._re, x._im), d):
            if mult == n:  # ker (x - mu)^n is the whole space
                continue
            sub = _try_root_subspace(pair, x, Fraction(y, d), mult)
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
    basis = selfadjoint_commutant_basis(pair)
    ev = _evidence_selfadjoint_quotient_field(pair, basis)
    cert = _accepted(CERT_QUOTIENT_FIELD, pair, ev)
    if cert is not None:
        return DecompositionVerdict(STATUS_INDECOMPOSABLE, ev, cert, None, budget, seed)
    return DecompositionVerdict(STATUS_DECOMPOSABLE, ev, None, _splitting_subspace(pair, basis), budget, seed)
