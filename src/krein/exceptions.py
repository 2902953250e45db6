"""Exception hierarchy for the krein package."""


class KreinError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(KreinError):
    """Operands have incompatible shapes."""


class FieldMismatch(KreinError):
    """Real/complex field tags disagree, or a real matrix has complex entries."""


class NotHermitian(KreinError):
    """A matrix required to be Hermitian is not."""


class SingularMatrix(KreinError):
    """A matrix required to be nonsingular is singular."""


class SingularH(SingularMatrix):
    """The Gram matrix of an indefinite scalar product is singular."""


class ParameterError(KreinError):
    """Invalid construction parameters (parity, eigenvalue clashes, bad r-values...)."""


class NotHNormal(KreinError):
    """An operation requires an H-normal operator."""


class NotSingleEigenvalue(KreinError):
    """The reduction requires an operator with a single eigenvalue."""


class WrongSpectrum(KreinError):
    """The operator's spectrum does not match the one the operation requires."""


class S0NotNeutral(KreinError):
    """The joint eigenspace is not neutral, so the corner reduction does not apply."""


class CertificateCheckFailed(KreinError):
    """A certified property failed to hold when recomputed."""


class SchemaError(KreinError):
    """A serialized document does not conform to the interchange schema."""
