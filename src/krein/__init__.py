"""Exact computation with normal matrices in indefinite scalar product spaces.

The package builds, classifies and verifies H-normal matrix pairs {N, H}
with exact rational / Gaussian-rational arithmetic: strictness witnesses for
the indecomposable size bounds, canonical corner reductions, and certified
indecomposability checks, plus a JSON/CLI surface for audit pipelines.
"""

__version__ = "0.1.0"

from .exceptions import (
    CertificateCheckFailed,
    DimensionMismatch,
    FieldMismatch,
    KreinError,
    NotHermitian,
    NotHNormal,
    NotSingleEigenvalue,
    ParameterError,
    S0NotNeutral,
    SchemaError,
    SingularH,
    SingularMatrix,
    WrongSpectrum,
)
from .scalars import GaussianRational, Rational, format_scalar, parse_scalar
from .matrices import (
    COMPLEX,
    REAL,
    Matrix,
    char_poly,
    hstack,
)
from .polynomials import Polynomial, Root, poly_roots
from .spaces import (
    IndefiniteSpace,
    MatrixPair,
    SubspaceBasis,
    direct_sum,
    h_adjoint,
    h_orthogonal_complement,
    is_h_normal,
    is_neutral,
    is_nondegenerate,
    signature,
)
from .witnesses import (
    ALL_FAMILIES,
    ChainMatrix,
    WitnessPair,
    WitnessSpec,
    admissible_ks,
    build_witness,
    chain_matrix,
    chain_witness,
    default_r_params,
    rotation_block,
    witness_complex_a_lower,
    witness_complex_a_upper,
    witness_complex_b,
    witness_real_c_even,
    witness_real_c_odd,
    witness_real_d,
    witness_real_e,
)
from .classify import (
    CanonicalReduction,
    ClassificationReport,
    JointEigenstructure,
    bound_window,
    classify,
    joint_eigenspace,
    joint_eigenspace_real,
    reduce_conjugate_pair,
    reduce_single_eigenvalue,
)
from .decompose import (
    Certificate,
    DecompositionVerdict,
    certify_family,
    commutant_basis,
    search_decomposition,
    selfadjoint_commutant_basis,
    verify_certificate,
)
from .pairdoc import parse_document, parse_pair, pretty_format, serialize_pair
