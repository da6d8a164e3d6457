"""Exception types shared across the toolkit."""


class SGCloneError(Exception):
    """Base class for every error raised by this package."""


class CompositionError(SGCloneError, ValueError):
    """Cascade of two cloners whose copy counts do not line up."""


class ContractViolationError(SGCloneError, ValueError):
    """Noise covariance incompatible with the center state it is paired with."""


class DomainError(SGCloneError, ValueError):
    """Numeric argument outside the domain of an operation."""


class InvalidClonerError(DomainError):
    """Copy counts that do not describe a valid cloner (e.g. M < N)."""


class TruncationError(SGCloneError, ValueError):
    """Fock cutoff or default quadrature grid too small for the requested state or operator."""


class DimensionError(SGCloneError, ValueError):
    """Operands built with different Fock-space cutoffs."""
