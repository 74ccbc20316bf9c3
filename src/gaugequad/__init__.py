"""gaugequad: the gauge (Riemann-complete) integral on compact intervals.

Tagged partitions and gauges, delta-fine partition constructors, Riemann
sums, a spread-converging gauge integrator, the classic oscillatory
example family with its loop gauges, and empirical checkers for the
Riemann-sum convergence criteria.
"""
from .criteria import (
    CriterionReport,
    IndexSelector,
    IntegrandFamily,
    check_criterion1,
    check_criterion2,
    check_criterion3,
    variable_index_sum,
)
from .errors import (
    DepthExceeded,
    DomainError,
    GaugeQuadError,
    IndexBelowQ,
    InvalidGauge,
    InvalidTolerance,
    LengthMismatch,
    NonFiniteValue,
    WitnessNotFound,
)
from .integrator import (
    GaugeFamily,
    IntegralEstimate,
    RealFunction,
    gauge_integrate,
    riemann_sum,
    riemann_unboundedness_witness,
    smooth_gauge_family,
    sum_defect,
)
from .partition import (
    Gauge,
    Interval,
    TaggedPartition,
    cousin_partition,
    is_delta_fine,
    random_delta_fine_partition,
)

__version__ = "0.1.0"

__all__ = [
    "CriterionReport",
    "DepthExceeded",
    "DomainError",
    "Gauge",
    "GaugeFamily",
    "GaugeQuadError",
    "IndexBelowQ",
    "IndexSelector",
    "IntegralEstimate",
    "IntegrandFamily",
    "Interval",
    "InvalidGauge",
    "InvalidTolerance",
    "LengthMismatch",
    "NonFiniteValue",
    "RealFunction",
    "TaggedPartition",
    "WitnessNotFound",
    "check_criterion1",
    "check_criterion2",
    "check_criterion3",
    "cousin_partition",
    "gauge_integrate",
    "is_delta_fine",
    "random_delta_fine_partition",
    "riemann_sum",
    "riemann_unboundedness_witness",
    "smooth_gauge_family",
    "sum_defect",
    "variable_index_sum",
]
