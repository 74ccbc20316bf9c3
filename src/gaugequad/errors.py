"""Exception types shared across the package."""

__all__ = [
    "GaugeQuadError",
    "InvalidGauge",
    "DepthExceeded",
    "NonFiniteValue",
    "InvalidTolerance",
    "DomainError",
    "LengthMismatch",
    "InvalidIndex",
]


class GaugeQuadError(Exception):
    """Base class for all gaugequad errors."""


class InvalidGauge(GaugeQuadError):
    """A gauge returned a non-positive, non-finite or non-real value where
    queried."""


class DepthExceeded(GaugeQuadError):
    """Bisection hit the depth limit before a fine partition was found.

    Signals a gauge too fine for floating point on some subinterval,
    e.g. one shrinking faster than representable spacing.
    """


class NonFiniteValue(GaugeQuadError):
    """An integrand or integrator function produced NaN, infinity or a
    value that is not real."""


class InvalidTolerance(GaugeQuadError, ValueError):
    """An accuracy argument was out of range.

    gauge_integrate's tol, a family's eps and the criteria's eps must be
    finite and positive real numbers; check_criterion3's tol must be a
    finite real number >= 0.
    """


class DomainError(GaugeQuadError):
    """An argument lies outside the function's domain."""


class LengthMismatch(GaugeQuadError):
    """An array has the wrong shape for its use.

    An index vector is not 1-d with one entry per partition cell, or a
    user callable's result does not broadcast to the shape of the points
    it was called on.
    """


class InvalidIndex(GaugeQuadError, ValueError):
    """An index or selector threshold is not a positive integer, or
    check_criterion2's j_list is not a non-empty 1-d sequence.

    Indices must be finite integers >= 1 (integral floats pass); selector
    thresholds must be at least 1 and below 2**63, so they fit in int64.
    """
