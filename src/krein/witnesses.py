"""Constructors for the strictness-witness families.

Each constructor returns a :class:`WitnessPair`: an H-normal pair together
with its declared classification case and size. Each constructor's
docstring says why its pair is indecomposable; :mod:`krein.decompose`
certifies every one by the trace form instead. Layout conventions follow
the displayed block forms literally and are pinned by serialization tests.

Families (all exact; n is the space dimension, k = min inertia index of H):

* ``complex_a_lower`` -- one eigenvalue, n = 2k: upper triangular two-block
  pair whose off-diagonal block is the chain witness below.
* ``complex_a_upper`` -- one eigenvalue, n = 4k: four-block pair built from a
  weighted cyclic shift and a diagonal mate chosen so that
  N1* N1 + N2* N2 = I holds exactly (Pythagorean r parameters by default).
* ``complex_b`` -- two eigenvalues, n = 2k: Jordan block plus scalar block.
* ``real_c_even`` / ``real_c_odd`` -- one conjugate eigenvalue pair, n = 2k,
  built from 2x2 rotation-scaling blocks; the odd case couples blocks with
  an all-ones 2x2 matrix and carries a central trailing-identity block in H.
* ``real_d`` -- one real eigenvalue and one conjugate pair, n = 2k (k even).
* ``real_e`` -- two conjugate pairs, n = 2k (k even).

The chain witness: for every m there is a nonsingular real matrix W with
W = C_m W*, where C_m is the bidiagonal chain with constant diagonal +1 (m
odd) or -1 (m even) and unit superdiagonal. It is grown two rows at a time
by bordering, and each step is re-verified at runtime, so the construction
is self-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exceptions import KreinError, ParameterError
from .matrices import COMPLEX, REAL, Matrix
from .scalars import GaussianRational, ZERO, as_scalar, format_scalar, rational_sqrt
from .spaces import MatrixPair, is_h_normal

# family identifiers (also used by the CLI and in document metadata)
COMPLEX_A_LOWER = "complex-a-lower"
COMPLEX_A_UPPER = "complex-a-upper"
COMPLEX_B = "complex-b"
REAL_C_EVEN = "real-c-even"
REAL_C_ODD = "real-c-odd"
REAL_D = "real-d"
REAL_E = "real-e"

ALL_FAMILIES = (
    COMPLEX_A_LOWER,
    COMPLEX_A_UPPER,
    COMPLEX_B,
    REAL_C_EVEN,
    REAL_C_ODD,
    REAL_D,
    REAL_E,
)

@dataclass(frozen=True)
class WitnessSpec:
    """Parameters selecting one witness construction."""

    family: str
    k: int
    eigen_params: tuple[GaussianRational, ...]
    r_params: Optional[tuple[Fraction, ...]] = None


@dataclass(frozen=True)
class WitnessPair:
    """An H-normal witness pair plus its declared classification data."""

    pair: MatrixPair
    spec: WitnessSpec
    expected_case: str
    expected_n: int
    expected_signature: tuple[int, int]


@dataclass(frozen=True)
class ChainMatrix:
    """Bidiagonal chain: constant diagonal +-1 (sign by parity), unit superdiagonal."""

    size: int
    sign: int
    matrix: Matrix


def chain_matrix(m: int) -> ChainMatrix:
    """The m x m chain with diagonal +1 for odd m, -1 for even m."""
    if m < 1:
        raise ParameterError("chain size must be >= 1")
    sign = 1 if m % 2 else -1
    rows = [
        [sign if i == j else (1 if j == i + 1 else 0) for j in range(m)]
        for i in range(m)
    ]
    return ChainMatrix(m, sign, Matrix.from_rows(rows, REAL))


def chain_witness(m: int) -> Matrix:
    """Nonsingular real m x m matrix W with W = C_m W* (C_m the chain above).

    Equivalently W W^{*-1} = C_m, which certifies that C_m arises as the
    similarity fingerprint of a congruence class; the chain's one-dimensional
    eigenvector space is what blocks any block-diagonal reduction. Grown by
    bordering from the 1x1 seed (1) (odd sizes) and the 2x2 seed
    [[1/2, 1], [-1, 0]] (even sizes); each growth step appends one new first
    row/column pair and is verified against the defining identity.
    """
    if m < 1:
        raise ParameterError("witness size must be >= 1")
    if m % 2:
        w = Matrix.from_rows([[1]], REAL)
    else:
        w = Matrix.from_rows([[Fraction(1, 2), 1], [-1, 0]], REAL)
    while w.rows < m:
        w = _grow_chain_witness(w)
    _check_chain_identity(w)
    return w


def _grow_chain_witness(w: Matrix) -> Matrix:
    s = w.rows
    sign = 1 if s % 2 else -1
    chain = chain_matrix(s).matrix
    # bordering data: first column of the current witness fixes the new border
    first_col = [w[i, 0] for i in range(s)]
    v = [(-c if sign == 1 else c) for c in first_col]
    a_row = [ZERO] + v[: s - 1]
    b = v[s - 1]
    c_col = chain @ Matrix.column(a_row, REAL)
    c_col = Matrix.column(
        [c_col[i, 0] + (b.conjugate() if i == s - 1 else ZERO) for i in range(s)], REAL
    )
    d = b.conjugate() if sign == 1 else -b.conjugate()
    rows = []
    rows.append([ZERO] + a_row + [b])
    for i in range(s):
        rows.append([c_col[i, 0]] + w.row_list(i) + [ZERO])
    rows.append([d] + [ZERO] * s + [ZERO])
    out = Matrix.from_rows(rows, REAL)
    _check_chain_identity(out)
    return out


def _check_chain_identity(w: Matrix) -> None:
    c = chain_matrix(w.rows).matrix
    if w != c @ w.conj_transpose():
        raise KreinError("chain witness identity failed (construction bug)")


def default_r_params(k: int) -> tuple[Fraction, ...]:
    """Pythagorean parameters 2t/(1+t^2), t = 2..k+1: distinct, in (0,1), and
    each sqrt(1 - r^2) = (t^2-1)/(t^2+1) is rational."""
    return tuple(Fraction(2 * t, 1 + t * t) for t in range(2, k + 2))


def _validate_r_params(k: int, r: Sequence[Fraction]) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    rs = tuple(Fraction(x) for x in r)
    if len(rs) != k:
        raise ParameterError(f"need exactly {k} r-values, got {len(rs)}")
    if len(set(rs)) != k:
        raise ParameterError("r-values must be pairwise distinct")
    mates = []
    for x in rs:
        if not (0 < x < 1):
            raise ParameterError(f"r-value {x} is outside (0, 1)")
        s = rational_sqrt(1 - x * x)
        if s is None:
            raise ParameterError(f"sqrt(1 - {x}^2) is irrational; pick a Pythagorean r")
        mates.append(s)
    return rs, tuple(mates)


def _finish(pair: MatrixPair, spec, case, n, sig) -> WitnessPair:
    if pair.n != n:
        raise KreinError("witness has unexpected size (construction bug)")
    if not is_h_normal(pair):
        raise KreinError("witness pair is not H-normal (construction bug)")
    return WitnessPair(pair, spec, case, n, sig)


def _split_h(k: int, field: str) -> Matrix:
    z = Matrix.zeros(k, k, field)
    i = Matrix.identity(k, field)
    return Matrix.from_blocks([[z, i], [i, z]])


def witness_complex_a_lower(k: int, lam) -> WitnessPair:
    """2k x 2k single-eigenvalue pair attaining the lower size bound n = 2k.

    N = [[lam I, W], [0, lam I]] and H = [[0, I], [I, 0]], with W the chain
    witness. It is indecomposable because C = W W*^-1 is the chain C_k,
    whose eigenspace is one line. N - lam I and N^[*] - conj(lam) I are
    [[0, W], [0, 0]] and [[0, W*], [0, 0]]: both have the neutral first block
    V1 as kernel and image. A nonzero nondegenerate invariant subspace is not
    inside V1, so it meets V1 in the images of those two maps on it, and C
    maps the second image onto the first. The summands of a decomposition
    would so split V1 into two nonzero C-invariant parts, each holding an
    eigenvector of C.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    lam = as_scalar(lam)
    w = chain_witness(k).complexified()
    li = Matrix.identity(k, COMPLEX) * lam
    n_op = Matrix.from_blocks([[li, w], [Matrix.zeros(k, k, COMPLEX), li]])
    pair = MatrixPair.from_matrices(n_op, _split_h(k, COMPLEX))
    spec = WitnessSpec(COMPLEX_A_LOWER, k, (lam,))
    return _finish(pair, spec, "ComplexA", 2 * k, (k, k))


def _cyclic_weight_matrix(r: Sequence[Fraction], field: str) -> Matrix:
    """Weighted cyclic shift with r_1..r_{k-1} on the subdiagonal and r_k in
    the top-right corner; its columns have norms r_1, ..., r_k."""
    k = len(r)
    rows = [[ZERO] * k for _ in range(k)]
    if k == 1:
        rows[0][0] = as_scalar(r[0])
    else:
        for i in range(k - 1):
            rows[i + 1][i] = as_scalar(r[i])
        rows[0][k - 1] = as_scalar(r[k - 1])
    return Matrix.from_rows(rows, field)


def witness_complex_a_upper(k: int, lam, r: Optional[Sequence[Fraction]] = None) -> WitnessPair:
    """4k x 4k single-eigenvalue pair attaining the upper size bound n = 4k.

    H = [[0, 0, 0, I], [0, I, 0, 0], [0, 0, I, 0], [I, 0, 0, 0]] and
    N = [[lam I, I, 0, 0], [0, lam I, 0, N1], [0, 0, lam I, N2],
    [0, 0, 0, lam I]], for the weighted cyclic shift N1 and the diagonal mate
    N2 (nonsingular) with N1* N1 + N2* N2 = I.

    It is indecomposable because only real scalars are Hermitian and commute
    with N1: such a matrix commutes with N1* N1 = diag(r_j^2), whose entries
    are distinct, so it is diagonal, and the cyclic shift makes its diagonal
    constant. With A = N - lam I, A A^[*] is I in block (1, 4) and zero
    elsewhere, and A^2 is N1 there. The H-orthogonal projection P of a
    decomposition commutes with both, so it keeps block 1 and blocks 1-3,
    P11 = P44 and P11 commutes with N1; P = P^[*] makes P11 = P44* Hermitian.
    So P11 is 0 or I; take 0, replacing P by I - P. Then the blocks (1, 2)
    and (1, 3) of PA = AP give P22 = 0 and P23 = 0, P = P^[*] gives P32 = 0,
    and block (1, 3) of P A^[*] = A^[*] P gives N2* P33 = 0. P has trace 0,
    so the idempotent P is 0.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    lam = as_scalar(lam)
    rs, mates = _validate_r_params(k, default_r_params(k) if r is None else r)
    n1 = _cyclic_weight_matrix(rs, COMPLEX)
    n2 = Matrix.diagonal(mates, COMPLEX)
    ik = Matrix.identity(k, COMPLEX)
    z = Matrix.zeros(k, k, COMPLEX)
    li = ik * lam
    n_op = Matrix.from_blocks([[li, ik, z, z], [z, li, z, n1], [z, z, li, n2], [z, z, z, li]])
    h = Matrix.from_blocks([[z, z, z, ik], [z, ik, z, z], [z, z, ik, z], [ik, z, z, z]])
    # the identity that makes the pair H-normal, kept as a hard runtime check
    if n1.conj_transpose() @ n1 + n2.conj_transpose() @ n2 != Matrix.identity(k, COMPLEX):
        raise KreinError("cyclic/diagonal blocks do not satisfy N1*N1 + N2*N2 = I")
    pair = MatrixPair.from_matrices(n_op, h)
    spec = WitnessSpec(COMPLEX_A_UPPER, k, (lam,), rs)
    return _finish(pair, spec, "ComplexA", 4 * k, (k, 3 * k))


def _jordan_block(k: int, lam: GaussianRational, field: str) -> Matrix:
    rows = [
        [lam if i == j else (1 if j == i + 1 else 0) for j in range(k)]
        for i in range(k)
    ]
    return Matrix.from_rows(rows, field)


def witness_complex_b(k: int, l1, l2) -> WitnessPair:
    """2k x 2k two-eigenvalue pair: Jordan block plus scalar block, n = 2k.

    It is indecomposable because the eigenspace of l2 is neutral and that
    of l1 is one line. The summands of a decomposition are N-invariant, so
    each generalized eigenspace of N is the sum of its parts in the two. That
    of l1 is one Jordan chain, so it lies in one summand. The other summand
    is then inside the generalized eigenspace of l2, the second block: it is
    the eigenspace, as N is l2 I there, and it is neutral, as the second
    diagonal block of H is 0. A neutral nondegenerate subspace is zero.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    l1, l2 = as_scalar(l1), as_scalar(l2)
    if l1 == l2:
        raise ParameterError("the two eigenvalues must differ")
    n_op = Matrix.block_diagonal(
        [_jordan_block(k, l1, COMPLEX), Matrix.identity(k, COMPLEX) * l2]
    )
    pair = MatrixPair.from_matrices(n_op, _split_h(k, COMPLEX))
    spec = WitnessSpec(COMPLEX_B, k, (l1, l2))
    return _finish(pair, spec, "ComplexB", 2 * k, (k, k))


def _real(x, name: str) -> Fraction:
    """A real parameter as a Fraction: a real GaussianRational, or anything
    ``Fraction`` takes."""
    if isinstance(x, GaussianRational):
        if not x.is_real:
            raise ParameterError(f"{name} must be real, got {format_scalar(x)}")
        return x.re
    return Fraction(x)


def rotation_block(alpha, beta) -> Matrix:
    """The 2x2 block [[a, b], [-b, a]] with eigenvalues a +- ib."""
    a, b = _real(alpha, "alpha"), _real(beta, "beta")
    return Matrix.from_rows([[a, b], [-b, a]], REAL)


def _rotation_jordan(nblocks: int, a: Matrix) -> Matrix:
    """Block bidiagonal: a on the diagonal, identity couplings above."""
    i2 = Matrix.identity(2, REAL)
    z2 = Matrix.zeros(2, 2, REAL)
    grid = [
        [a if i == j else (i2 if j == i + 1 else z2) for j in range(nblocks)]
        for i in range(nblocks)
    ]
    return Matrix.from_blocks(grid)


def _block_antidiagonal_h(nblocks: int, center_trailing: bool = False) -> Matrix:
    i2 = Matrix.identity(2, REAL)
    d2 = Matrix.trailing_identity(2, REAL)
    z2 = Matrix.zeros(2, 2, REAL)
    mid = (nblocks - 1) // 2
    grid = []
    for i in range(nblocks):
        row = []
        for j in range(nblocks):
            if i + j == nblocks - 1:
                row.append(d2 if (center_trailing and i == mid and i == j) else i2)
            else:
                row.append(z2)
        grid.append(row)
    return Matrix.from_blocks(grid)


def _check_beta(beta, name: str = "beta") -> Fraction:
    b = _real(beta, name)
    if b <= 0:
        raise ParameterError(f"{name} must be positive")
    return b


def witness_real_c_even(k: int, alpha, beta) -> WitnessPair:
    """2k x 2k real pair (k even) with the single conjugate eigenvalue pair
    alpha +- i*beta, attaining the lower bound n = 2k.

    It is indecomposable because its real joint eigenspace S0 (the real
    span of the common eigenvectors of N and N^[*] over C, see
    :func:`krein.classify.joint_eigenspace_real`) is 2-dimensional. A
    decomposition splits S0 between its two real summands. Each holds a
    common eigenvector z over C of the commuting N and N^[*], which may be
    taken with N z = (alpha + i beta) z; its real and imaginary parts are
    independent, as the eigenvalue is not real. So S0 would have dimension
    at least 4.
    """
    if k < 2 or k % 2:
        raise ParameterError("this family needs an even k >= 2")
    a_f, b = _real(alpha, "alpha"), _check_beta(beta)
    n_op = _rotation_jordan(k, rotation_block(a_f, b))
    h = _block_antidiagonal_h(k)
    pair = MatrixPair.from_matrices(n_op, h)
    spec = WitnessSpec(REAL_C_EVEN, k, (as_scalar(a_f), as_scalar(b)))
    return _finish(pair, spec, "RealC", 2 * k, (k, k))


def witness_real_c_odd(k: int, alpha, beta) -> WitnessPair:
    """2k x 2k real pair (k odd) with eigenvalues alpha +- i*beta, n = 2k.

    Layout: (k+1)/2 rotation blocks followed by their transposes, coupled by
    the all-ones 2x2 block on the superdiagonal; H is block antidiagonal with
    a central trailing-identity block. For k = 1 this degenerates to a single
    rotation block with H = the 2x2 trailing identity, and the pair is
    H-selfadjoint, hence H-normal. It is indecomposable because its real
    joint eigenspace is 2-dimensional, as for :func:`witness_real_c_even`.
    """
    if k < 1 or k % 2 == 0:
        raise ParameterError("this family needs an odd k >= 1")
    a_f, b = _real(alpha, "alpha"), _check_beta(beta)
    a = rotation_block(a_f, b)
    at = a.conj_transpose()
    x = Matrix.from_rows([[1, 1], [1, 1]], REAL)
    z2 = Matrix.zeros(2, 2, REAL)
    m = (k + 1) // 2
    grid = []
    for i in range(k):
        row = []
        for j in range(k):
            if i == j:
                row.append(a if i < m else at)
            elif j == i + 1:
                row.append(x)
            else:
                row.append(z2)
        grid.append(row)
    n_op = Matrix.from_blocks(grid)
    h = _block_antidiagonal_h(k, center_trailing=True)
    pair = MatrixPair.from_matrices(n_op, h)
    spec = WitnessSpec(REAL_C_ODD, k, (as_scalar(a_f), as_scalar(b)))
    return _finish(pair, spec, "RealC", 2 * k, (k, k))


def witness_real_d(k: int, lam, alpha, beta) -> WitnessPair:
    """2k x 2k real pair (k even): one real eigenvalue and one conjugate pair.

    It is indecomposable by the argument of :func:`witness_complex_b` over
    R: alpha + i beta has geometric multiplicity 1, so its real generalized
    eigenspace, the first block, lies in one summand, and the eigenspace of
    lambda, the second block, is neutral.
    """
    if k < 2 or k % 2:
        raise ParameterError("family d is only defined for even k")
    lam_f, a_f, b = _real(lam, "lambda"), _real(alpha, "alpha"), _check_beta(beta)
    n1 = _rotation_jordan(k // 2, rotation_block(a_f, b))
    n2 = Matrix.identity(k, REAL) * as_scalar(lam_f)
    n_op = Matrix.block_diagonal([n1, n2])
    pair = MatrixPair.from_matrices(n_op, _split_h(k, REAL))
    spec = WitnessSpec(REAL_D, k, (as_scalar(lam_f), as_scalar(a_f), as_scalar(b)))
    return _finish(pair, spec, "RealD", 2 * k, (k, k))


def witness_real_e(k: int, a1, b1, a2, b2) -> WitnessPair:
    """2k x 2k real pair (k even): two distinct conjugate eigenvalue pairs.

    It is indecomposable by the argument of :func:`witness_complex_b` over
    R: alpha1 + i beta1 has geometric multiplicity 1, so its real
    generalized eigenspace, the first block, lies in one summand, and the
    real eigenspace of alpha2 +- i beta2, the second block, is neutral.
    """
    if k < 2 or k % 2:
        raise ParameterError("family e is only defined for even k")
    bb1, bb2 = _check_beta(b1, "beta1"), _check_beta(b2, "beta2")
    aa1, aa2 = _real(a1, "alpha1"), _real(a2, "alpha2")
    if (aa1, bb1) == (aa2, bb2):
        raise ParameterError("the two conjugate eigenvalue pairs must differ")
    n1 = _rotation_jordan(k // 2, rotation_block(aa1, bb1))
    n2 = Matrix.block_diagonal([rotation_block(aa2, bb2)] * (k // 2))
    n_op = Matrix.block_diagonal([n1, n2])
    pair = MatrixPair.from_matrices(n_op, _split_h(k, REAL))
    spec = WitnessSpec(
        REAL_E,
        k,
        (as_scalar(aa1), as_scalar(bb1), as_scalar(aa2), as_scalar(bb2)),
    )
    return _finish(pair, spec, "RealE", 2 * k, (k, k))


# each family's constructor and its eigen_params in WitnessSpec order, with
# the defaults that build_witness fills in
FAMILY_PARAMS = {
    COMPLEX_A_LOWER: (witness_complex_a_lower, (("lambda", ZERO),)),
    COMPLEX_A_UPPER: (witness_complex_a_upper, (("lambda", ZERO),)),
    COMPLEX_B: (witness_complex_b, (("l1", 0), ("l2", 1))),
    REAL_C_EVEN: (witness_real_c_even, (("alpha", 0), ("beta", 1))),
    REAL_C_ODD: (witness_real_c_odd, (("alpha", 0), ("beta", 1))),
    REAL_D: (witness_real_d, (("lambda", 1), ("alpha", 0), ("beta", 1))),
    REAL_E: (witness_real_e, (("alpha1", 0), ("beta1", 1), ("alpha2", 1), ("beta2", 1))),
}


def build_witness(family: str, k: int, params: dict) -> WitnessPair:
    """Dispatch a witness construction from (family, k, named parameters)."""
    if family not in FAMILY_PARAMS:
        raise ParameterError(f"unknown witness family {family!r}")
    make, names = FAMILY_PARAMS[family]
    args = [params.get(name, default) for name, default in names]
    if family == COMPLEX_A_UPPER:
        args.append(params.get("r"))
    return make(k, *args)


def admissible_ks(family: str, kmax: int) -> list[int]:
    """Admissible k values for a family, up to kmax."""
    if family in (REAL_C_EVEN, REAL_D, REAL_E):
        return [k for k in range(2, kmax + 1, 2)]
    if family == REAL_C_ODD:
        return [k for k in range(1, kmax + 1, 2)]
    return list(range(1, kmax + 1))
