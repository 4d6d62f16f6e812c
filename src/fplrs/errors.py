"""Exception types shared across the package."""


class FplrsError(Exception):
    """Base class for all package-specific errors."""


class InvalidTriplet(FplrsError):
    """No valid cycle partition exists for the requested gluing."""


class NonUniqueGamma(FplrsError):
    """The glued cycles do not partition the edge set; the domain is malformed."""


class ArityMismatch(FplrsError):
    """An operator was applied to a vector of the wrong size."""


class KernelDimensionError(FplrsError):
    """The stationary kernel is not one-dimensional."""


class GeometryMismatch(FplrsError):
    """A domain does not satisfy the geometric precondition of an identity."""


class UnknownIdentity(FplrsError):
    """The identity name is not in the registry."""


class IndexOutOfRange(FplrsError):
    """An auxiliary-state index is outside its admissible range."""
