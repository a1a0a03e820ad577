"""Exception types shared across the package."""


class LocbandError(Exception):
    """Base class for all locband errors."""


class InvalidToleranceError(LocbandError, ValueError):
    pass


class InvalidIntervalError(LocbandError, ValueError):
    pass


class UnsupportedMomentError(LocbandError, ValueError):
    pass


class QuadratureError(LocbandError, RuntimeError):
    """A quadrature routine could not certify the requested tolerance."""


class InvalidMeshError(LocbandError, ValueError):
    pass


class InvalidProbabilityError(LocbandError, ValueError):
    pass


class InvalidExponentError(LocbandError, ValueError):
    pass


class UnboundedConstantError(LocbandError, ValueError):
    pass


class ConstructionOverlapError(LocbandError, ValueError):
    pass


class CorruptDensityError(LocbandError, RuntimeError):
    """A density violated its own certified sup bound."""


class OracleUnavailableError(LocbandError, ValueError):
    pass


class DivergenceInfiniteError(LocbandError, ArithmeticError):
    """Absolute-continuity breach detected on the quadrature grid."""


class InsufficientDataError(LocbandError, ValueError):
    pass


class InvalidBandwidthError(LocbandError, ValueError):
    pass


class OffMeshError(LocbandError, ValueError):
    pass


class OutOfDomainError(LocbandError, ValueError):
    pass


class InvalidConfigurationError(LocbandError, ValueError):
    pass
