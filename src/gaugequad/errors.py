"""Exception types shared across the package."""

__all__ = [
    "GaugeQuadError",
    "InvalidGauge",
    "DepthExceeded",
    "NonFiniteValue",
    "InvalidTolerance",
    "DomainError",
    "LengthMismatch",
    "IndexBelowQ",
]


class GaugeQuadError(Exception):
    """Base class for all gaugequad errors."""


class InvalidGauge(GaugeQuadError):
    """A gauge returned a non-positive or non-finite value where queried."""


class DepthExceeded(GaugeQuadError):
    """Bisection hit the depth limit before a fine partition was found.

    Signals a gauge too fine for floating point on some subinterval,
    e.g. one shrinking faster than representable spacing.
    """


class NonFiniteValue(GaugeQuadError):
    """An integrand or integrator function produced NaN or infinity."""


class InvalidTolerance(GaugeQuadError):
    """A tolerance argument was not strictly positive."""


class DomainError(GaugeQuadError):
    """An argument lies outside the function's domain."""


class LengthMismatch(GaugeQuadError):
    """An array has the wrong shape for its use.

    An index vector does not match the partition's cell count, or a user
    callable's result does not broadcast to the shape of the points it was
    called on.
    """


class IndexBelowQ(GaugeQuadError):
    """A fixed-index check was asked to use an index not above its threshold q."""
