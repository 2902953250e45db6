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
polynomial and finds no root; then that the pair is H-normal
(``is_h_normal``, kept on the pair), raising ``NotHNormal`` if not.

The reduced Gram matrix R_H = T* H T gets its inertia without a second
congruence reduction. ``_corner_transform`` sets it only after R_H has
passed the corner check and its middle block G has been inverted. Then
det R_H = +-det G != 0, and det R_H = |det T|^2 det H, so det T != 0: T is
invertible, and R_H is congruent to H. By Sylvester's law of inertia R_H
has the inertia (v_minus, 0, v_plus) of H, which is the value set in its
memo slot; ``spaces.signature`` reads it after its own Hermitian check.
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
                "value": (
                    None if r.value is None else format_scalar(r.value) if r.is_exact else [r.value.real, r.value.imag]
                ),
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
        n_real = sum(r.is_real for r in roots)
        pattern = (n_real, (len(roots) - n_real) // 2)
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
    """Exact basis of ker(N - lam I) intersected with ker(N^[*] - conj(lam) I).

    The kernel is taken on the pair's centred operator: with
    delta = n d lam - s (``MatrixPair.centre``), it is the kernel of
    [C - delta I ; C^[*] - conj(delta) I], whose two blocks are n d times
    those of the uncentred system. The two systems have one row space, so
    they have one RREF and the same kernel basis."""
    delta = pair.centre(lam)
    ident = Matrix.identity(pair.n, pair.field)
    a = pair.centred - ident * delta
    b = pair.centred_adjoint - ident * delta.conjugate()
    basis = SubspaceBasis(_joint_kernel([a, b]), pair.n, pair.field)
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
    (x_1, y_1, x_2, y_2, ...) with the p family first. As for
    :func:`joint_eigenspace`, the kernels are those of the centred systems
    [C - delta I ; C^[*] - conj(delta) I] and [C - delta I ; C^[*] - delta I],
    with delta = n d lam - s; s is real for a real pair, so
    C^[*] - delta I = n d (N^[*] - lam I).
    """
    if pair.field != REAL:
        raise FieldMismatch("joint_eigenspace_real expects a real pair")
    delta = pair.centre(GaussianRational(Fraction(alpha), _check_beta(beta)))
    n = pair.n
    ident = Matrix.identity(n, COMPLEX)
    a_mat = pair.centred.complexified() - ident * delta
    adj = pair.centred_adjoint.complexified()
    prime = _joint_kernel([a_mat, adj - ident * delta.conjugate()])
    dprime = _joint_kernel([a_mat, adj - ident * delta])
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
    complement of span(U, W), of dimension s = n - 2d.

    The rows of K = T* H are at hand (W*H = W0*H - (G0/2) U*H), so R_H = K T,
    checked to have the corner shape [[0, 0, I], [0, G, 0], [I, 0, 0]], and by
    the Gram identity T^-1 = R_H^-1 K, where R_H^-1 =
    [[0, 0, I], [0, G^-1, 0], [I, 0, 0]] inverts only G = V*H V. The
    products run on the pair's centred operator C = n d N - s I: they give
    T^-1 C T = R_H^-1 (K (C T)), and T^-1 N T = (T^-1 C T + s I) / (n d)
    (``MatrixPair.uncentre``), in O(n^2).
    As det R_H = |det T|^2 det H with det H != 0, T is singular exactly when
    rank R_H < n: a corner-shaped R_H with invertible G proves T invertible."""
    h, n, d = pair.space.h, pair.n, u_basis.dim
    u = u_basis.matrix
    uh = u.conj_transpose() @ h
    w0 = uh.solve_right(Matrix.identity(d, pair.field))
    w0h = w0.conj_transpose() @ h
    half_g0 = (w0h @ w0) * Fraction(1, 2)
    w = w0 - u @ half_g0
    wh = w0h - half_g0 @ uh
    v_vecs = vstack([uh, wh]).kernel_basis()
    v = Matrix.from_blocks([v_vecs]) if v_vecs else Matrix.zeros(n, 0, pair.field)
    t = hstack([u, v, w])
    k = vstack([uh, v.conj_transpose() @ h, wh])
    rh = k @ t
    g_inv = _corner_h_middle_inverse(rh, d, n)
    rh._inertia = (pair.space.v_minus, 0, pair.space.v_plus)  # Sylvester's law (module docstring)
    kct = k @ (pair.centred @ t)
    rows = [kct.submatrix(n - d, n, 0, n), g_inv @ kct.submatrix(d, n - d, 0, n), kct.submatrix(0, d, 0, n)]
    return t, pair.uncentre(vstack(rows)), rh, d


def _corner_h_middle_inverse(rh: Matrix, d: int, n: int) -> Matrix:
    """G^-1 for the middle block G of a reduced Gram matrix R_H that has the
    corner shape; R_H of rank below n, or a T without n columns, means that T
    failed to span the space."""
    s = n - 2 * d
    ident = Matrix.identity(d, rh.field)
    checks = [
        rh.rows == rh.cols == n,
        rh.submatrix(0, d, 0, d).is_zero,
        rh.submatrix(0, d, d, d + s).is_zero,
        rh.submatrix(0, d, d + s, n) == ident,
        rh.submatrix(d, d + s, 0, d).is_zero,
        rh.submatrix(d, d + s, d + s, n).is_zero,
        rh.submatrix(d + s, n, 0, d) == ident,
        rh.submatrix(d + s, n, d, d + s).is_zero,
        rh.submatrix(d + s, n, d + s, n).is_zero,
    ]
    if all(checks):
        try:
            return rh.submatrix(d, d + s, d, d + s).inverse()
        except SingularMatrix:
            pass
    elif rh.cols == n and rh.rank() == n:
        raise KreinError("reduced Gram matrix misses the corner shape (construction bug)")
    raise KreinError("corner transform failed to span the space (construction bug)")


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
    if pair.certified_spectrum != (Root(lam, n, True, lam.is_real),):
        raise NotSingleEigenvalue(f"operator spectrum is not {{{lam!r}}} alone")
    if not is_h_normal(pair):
        raise NotHNormal("corner reduction requires an H-normal pair")
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
    if pair.certified_spectrum != tuple(Root(z, n // 2, True, False) for z in conj_pair):
        raise WrongSpectrum(f"operator spectrum is not {{{alpha} +- {beta}i}} alone")
    if not is_h_normal(pair):
        raise NotHNormal("corner reduction requires an H-normal pair")
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
