"""Exception types shared across the package, and the guard of its immutable classes."""


def immutable(self, name: str, *value) -> None:
    """``__setattr__`` and ``__delattr__`` of an immutable class."""
    raise AttributeError(f"{type(self).__name__} is immutable; cannot change {name!r}")


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
