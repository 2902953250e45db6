"""Eigenstructure classification and canonical corner reductions.

``classify`` buckets an H-normal pair into the indecomposable-size taxonomy
(one or two eigenvalues over C; the five real eigenvalue patterns over R),
attaches the size window f1(k) <= n <= f2(k) for the matched case, and flags
compliance. Patterns outside the taxonomy are a first-class verdict
(``OutOfTheoremScope``), not an error: for such spectra an H-normal operator
is necessarily decomposable, and the report says so in a note. The
eigenvalues are the pair's exact spectrum (``MatrixPair.spectrum``): a
spectrum of one class, the case of ComplexA, RealA and RealC, is certified
by a nilpotency, and only the other spectra take the characteristic
polynomial.

The reductions bring a pair to the block-triangular corner form

    N -> [[N', *, *], [0, N1, *], [0, 0, N'']],
    H -> [[0, 0, I], [0, H1, 0], [I, 0, 0]]

with respect to a decomposition (joint eigenspace S0, regular part, dual
copy S1), valid whenever S0 is neutral. Corner blocks come out exactly:
scalar in the single-eigenvalue case, rotation-scaling blocks (direct sums
of A and A*) in the real conjugate-pair case. The transform is built by
exact biorthogonalization: solve for a dual family W0 with U*H W0 = I, make
it neutral by the half-Gram correction W = W0 - U (G0/2), and take the
H-orthogonal complement of span(U, W) as the middle space. Pivot choices in
the underlying elimination are lowest-index, so output is deterministic.
Each reduction first checks that the spectrum is the one class it is given,
against ``MatrixPair.certified_spectrum``, so it computes no characteristic
polynomial and finds no root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exceptions import (
    FieldMismatch,
    KreinError,
    NotHNormal,
    NotSingleEigenvalue,
    ParameterError,
    S0NotNeutral,
    SingularMatrix,
    WrongSpectrum,
)
from .matrices import COMPLEX, REAL, Matrix, _integer_gauss_jordan, hstack, vstack
# char_poly and poly_roots are not called here (MatrixPair.spectrum calls
# them); perfbench/tests/test_tracer.py binds them as krein.classify names
from .matrices import char_poly  # noqa: F401
from .polynomials import Root
from .polynomials import poly_roots  # noqa: F401
from .scalars import GaussianRational, as_scalar, format_scalar
from .spaces import (
    MatrixPair,
    SubspaceBasis,
    is_h_normal,
    is_neutral,
)
from .witnesses import _check_beta, rotation_block

COMPLEX_A = "ComplexA"
COMPLEX_B = "ComplexB"
REAL_A = "RealA"
REAL_B = "RealB"
REAL_C = "RealC"
REAL_D = "RealD"
REAL_E = "RealE"
OUT_OF_SCOPE = "OutOfTheoremScope"

THEOREM_CASES = (COMPLEX_A, COMPLEX_B, REAL_A, REAL_B, REAL_C, REAL_D, REAL_E)


def bound_window(case_label: str, k: int) -> tuple[int, int]:
    """The size window (f1, f2) for an indecomposable pair of rank k."""
    if k < 1:
        raise ParameterError("bound windows are defined for rank k >= 1")
    if case_label in (COMPLEX_A, REAL_A):
        return (2 * k, 4 * k)
    if case_label in (COMPLEX_B, REAL_B):
        return (2 * k, 2 * k)
    if case_label == REAL_C:
        if k == 1:
            return (2, 2)
        return (2 * k, 10 * (k // 2) - 2)
    if case_label in (REAL_D, REAL_E):
        if k % 2:
            raise ParameterError(f"{case_label} is only possible for even k")
        return (2 * k, 2 * k)
    raise ParameterError(f"no size window for case {case_label!r}")


@dataclass(frozen=True)
class ClassificationReport:
    field: str
    n: int
    k: int
    eigenvalues: tuple[Root, ...]
    case_label: str
    bound_window: Optional[tuple[int, int]]
    bound_ok: Optional[bool]
    exact: bool
    notes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        eigs = [
            {
                "value": format_scalar(r.value) if r.is_exact else [r.value.real, r.value.imag],
                "multiplicity": r.multiplicity,
                "exact": r.is_exact,
            }
            for r in self.eigenvalues
        ]
        return {
            "field": self.field,
            "n": self.n,
            "k": self.k,
            "eigenvalues": eigs,
            "case": self.case_label,
            "bound_window": list(self.bound_window) if self.bound_window else None,
            "bound_ok": self.bound_ok,
            "exact": self.exact,
            "notes": list(self.notes),
        }


def classify(pair: MatrixPair) -> ClassificationReport:
    """Classify an H-normal pair into the indecomposable-size taxonomy."""
    if not is_h_normal(pair):
        raise NotHNormal("classification requires an H-normal pair")
    n = pair.n
    k = pair.space.rank_v
    roots = pair.spectrum
    exact = all(r.is_exact for r in roots)
    notes: list[str] = []
    if not exact:
        notes.append("spectrum partially approximate; eigenvalue counts are still exact")

    case = OUT_OF_SCOPE
    if k == 0:
        notes.append(
            "rank 0 space (definite Gram matrix): outside the indecomposable taxonomy"
        )
    elif pair.field == COMPLEX:
        if len(roots) == 1:
            case = COMPLEX_A
        elif len(roots) == 2:
            case = COMPLEX_B
    else:
        n_real = sum(1 for r in roots if (r.value.is_real if r.is_exact else not r.value.imag))
        n_conj_pairs, rem = divmod(len(roots) - n_real, 2)
        if rem:
            notes.append("nonreal eigenvalues do not pair up; spectrum looks inconsistent")
        pattern = (n_real, n_conj_pairs)
        if pattern == (1, 0):
            case = REAL_A
        elif pattern == (2, 0):
            case = REAL_B
        elif pattern == (0, 1):
            case = REAL_C
        elif pattern == (1, 1):
            if k % 2 == 0:
                case = REAL_D
            else:
                notes.append(
                    "one real eigenvalue plus one conjugate pair needs even rank; "
                    "this pattern with odd k admits no indecomposable operator"
                )
        elif pattern == (0, 2):
            if k % 2 == 0:
                case = REAL_E
            else:
                notes.append(
                    "two conjugate pairs need even rank; "
                    "this pattern with odd k admits no indecomposable operator"
                )

    window: Optional[tuple[int, int]] = None
    ok: Optional[bool] = None
    if case == OUT_OF_SCOPE:
        notes.append(
            "spectrum pattern matches no indecomposable case: "
            "every H-normal operator with this spectrum is decomposable"
        )
    else:
        window = bound_window(case, k)
        ok = window[0] <= n <= window[1]
    return ClassificationReport(
        field=pair.field,
        n=n,
        k=k,
        eigenvalues=roots,
        case_label=case,
        bound_window=window,
        bound_ok=ok,
        exact=exact,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class JointEigenstructure:
    """Basis data of the joint eigenspace S0 used by the corner reductions."""

    s0_basis: SubspaceBasis
    s0_prime_dim: int
    s0_doubleprime_dim: int
    is_neutral_s0: bool


def _joint_kernel(mats: Sequence[Matrix]) -> list[Matrix]:
    return vstack(mats).kernel_basis()


def joint_eigenspace(pair: MatrixPair, lam) -> JointEigenstructure:
    """Exact basis of ker(N - lam I) intersected with ker(N^[*] - conj(lam) I)."""
    lam = as_scalar(lam)
    n = pair.n
    ident = Matrix.identity(n, pair.field)
    a = pair.n_op - ident * lam
    b = pair.adjoint - ident * lam.conjugate()
    basis = SubspaceBasis(_joint_kernel([a, b]), n, pair.field)
    return JointEigenstructure(
        s0_basis=basis,
        s0_prime_dim=basis.dim,
        s0_doubleprime_dim=0,
        is_neutral_s0=is_neutral(basis, pair.space),
    )


def _real_span_of_complex(vectors: Sequence[Matrix], n: int) -> SubspaceBasis:
    """Real basis of the real span of the real and imaginary parts of ``vectors``.

    The parts are taken in order and a part is kept when it is independent
    of the parts before it: these are the pivot columns of one elimination.
    """
    parts = [v for z in vectors for v in (z.real_part(), z.imag_part())]
    pivots = _integer_gauss_jordan(hstack(parts)._sparse_rows()) if parts else {}
    return SubspaceBasis([parts[j] for j in sorted(pivots)], n, REAL)


def joint_eigenspace_real(pair: MatrixPair, alpha, beta) -> JointEigenstructure:
    """Real joint eigenspace for the conjugate pair alpha +- i*beta.

    Complexifies, computes joint eigenvectors z with N z = lam z and
    N^[*] z = conj(lam) z (the p family) or N^[*] z = lam z (the q family),
    and returns the real span of their real and imaginary parts, ordered as
    (x_1, y_1, x_2, y_2, ...) with the p family first.
    """
    if pair.field != REAL:
        raise FieldMismatch("joint_eigenspace_real expects a real pair")
    lam = GaussianRational(Fraction(alpha), _check_beta(beta))
    n = pair.n
    ident = Matrix.identity(n, COMPLEX)
    a_mat = pair.n_op.complexified() - ident * lam
    adj = pair.adjoint.complexified()
    prime = _joint_kernel([a_mat, adj - ident * lam.conjugate()])
    dprime = _joint_kernel([a_mat, adj - ident * lam])
    basis = _real_span_of_complex(prime + dprime, n)
    return JointEigenstructure(
        s0_basis=basis,
        s0_prime_dim=len(prime),
        s0_doubleprime_dim=len(dprime),
        is_neutral_s0=is_neutral(basis, pair.space),
    )


@dataclass(frozen=True)
class CanonicalReduction:
    transform: Matrix
    reduced_n: Matrix
    reduced_h: Matrix
    block_dims: tuple[int, int, int]


def _corner_transform(pair: MatrixPair, u_basis: SubspaceBasis) -> tuple[Matrix, Matrix, Matrix, int]:
    """(T, T^-1 N T, T* H T, d) for T = [U | V | W]: U the neutral core of
    dimension d, W a neutral dual with U*H W = I, V the H-orthogonal
    complement of span(U, W). The reduced Gram matrix is checked to have the
    corner shape."""
    h = pair.space.h
    n = pair.n
    d = u_basis.dim
    u = u_basis.matrix
    uh = u.conj_transpose() @ h
    w0 = uh.solve_right(Matrix.identity(d, pair.field))
    g0 = w0.conj_transpose() @ h @ w0
    w = w0 - u @ (g0 * Fraction(1, 2))
    rows = vstack([uh, w.conj_transpose() @ h])
    v_vecs = rows.kernel_basis()
    v = SubspaceBasis(v_vecs, n, pair.field).matrix if v_vecs else Matrix.zeros(n, 0, pair.field)
    mats = [u] + ([v] if v.cols else []) + [w]
    t = hstack(mats)
    failure = "corner transform failed to span the space (construction bug)"
    if t.cols != n:
        raise KreinError(failure)
    try:
        t_inv = t.inverse()
    except SingularMatrix:
        raise KreinError(failure) from None
    rh = t.conj_transpose() @ h @ t
    _check_corner_h(rh, d, n)
    return t, t_inv @ pair.n_op @ t, rh, d


def _check_corner_h(rh: Matrix, d: int, n: int) -> None:
    s = n - 2 * d
    ident = Matrix.identity(d, rh.field)
    checks = [
        rh.submatrix(0, d, 0, d).is_zero,
        rh.submatrix(0, d, d, d + s).is_zero,
        rh.submatrix(0, d, d + s, n) == ident,
        rh.submatrix(d, d + s, 0, d).is_zero,
        rh.submatrix(d, d + s, d + s, n).is_zero,
        rh.submatrix(d + s, n, 0, d) == ident,
        rh.submatrix(d + s, n, d, d + s).is_zero,
        rh.submatrix(d + s, n, d + s, n).is_zero,
    ]
    if not all(checks):
        raise KreinError("reduced Gram matrix misses the corner shape (construction bug)")


def _check_corner_n(rn: Matrix, d: int, n: int, top: Matrix, bottom: Matrix) -> None:
    s = n - 2 * d
    checks = [
        rn.submatrix(0, d, 0, d) == top,
        rn.submatrix(d, d + s, 0, d).is_zero,
        rn.submatrix(d + s, n, 0, d).is_zero,
        rn.submatrix(d + s, n, d, d + s).is_zero,
        rn.submatrix(d + s, n, d + s, n) == bottom,
    ]
    if not all(checks):
        raise KreinError("reduced operator misses the corner shape (construction bug)")


def reduce_single_eigenvalue(pair: MatrixPair, lam) -> CanonicalReduction:
    """Corner reduction of a single-eigenvalue H-normal pair with neutral S0."""
    lam = as_scalar(lam)
    n = pair.n
    if pair.certified_spectrum != (Root(lam, n, True),):
        raise NotSingleEigenvalue(f"operator spectrum is not {{{lam!r}}} alone")
    js = joint_eigenspace(pair, lam)
    if not js.is_neutral_s0:
        raise S0NotNeutral(
            "joint eigenspace is not neutral; pair is decomposable or out of scope"
        )
    t, rn, rh, d = _corner_transform(pair, js.s0_basis)
    scalar_block = Matrix.identity(d, pair.field) * lam
    _check_corner_n(rn, d, n, scalar_block, scalar_block)
    return CanonicalReduction(t, rn, rh, (d, n - 2 * d, d))


def reduce_conjugate_pair(pair: MatrixPair, alpha, beta) -> CanonicalReduction:
    """Corner reduction of a real pair whose spectrum is alpha +- i*beta."""
    if pair.field != REAL:
        raise FieldMismatch("the conjugate-pair reduction expects a real pair")
    a_f, b_f = Fraction(alpha), _check_beta(beta)
    n = pair.n
    conj_pair = (GaussianRational(a_f, -b_f), GaussianRational(a_f, b_f))
    if pair.certified_spectrum != tuple(Root(z, n // 2, True) for z in conj_pair):
        raise WrongSpectrum(f"operator spectrum is not {{{alpha} +- {beta}i}} alone")
    js = joint_eigenspace_real(pair, a_f, b_f)
    if not js.is_neutral_s0:
        raise S0NotNeutral(
            "joint eigenspace is not neutral; pair is decomposable or out of scope"
        )
    t, rn, rh, d = _corner_transform(pair, js.s0_basis)
    a_block = rotation_block(a_f, b_f)
    p, q = js.s0_prime_dim, js.s0_doubleprime_dim
    top = Matrix.block_diagonal([a_block] * (p + q)) if p + q else Matrix.zeros(0, 0, REAL)
    bottom_blocks = [a_block] * p + [a_block.conj_transpose()] * q
    bottom = Matrix.block_diagonal(bottom_blocks) if bottom_blocks else Matrix.zeros(0, 0, REAL)
    _check_corner_n(rn, d, n, top, bottom)
    return CanonicalReduction(t, rn, rh, (d, n - 2 * d, d))
