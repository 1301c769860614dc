"""Exception types shared across the package.

Every failure mode that callers are expected to distinguish gets its own
class; the command line maps them onto exit codes (usage errors -> 64,
resource/precondition failures -> 2).
"""


class WeylcountError(Exception):
    """Base class for all package-specific errors."""


class UsageError(WeylcountError):
    """Malformed invocation: bad flags, bad config values, degenerate grids."""


class ChartDegeneracyError(WeylcountError):
    """Chart parametrization is (numerically) singular at the requested point."""


class MeshQualityError(WeylcountError):
    """Mesh violates validity requirements (open, inverted, degenerate, ...)."""


class InvalidFieldError(WeylcountError):
    """Damping field is nonpositive or touches 1."""


class InsufficientSpectrumError(WeylcountError):
    """The spectral basis does not reach the requested resolution horizon."""


class SolverError(WeylcountError):
    """Eigenvalue solver failed to converge; carries the achieved residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class BranchError(WeylcountError):
    """Complex square root requested on or across its branch cut."""


class CacheError(WeylcountError):
    """Spectrum cache container is unreadable, short, overlong or corrupt."""


class DomainError(WeylcountError):
    """Scalar argument outside the mathematical domain of the formula."""
