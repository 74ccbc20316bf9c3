"""gaugequad: the gauge (Riemann-complete) integral on compact intervals.

Tagged partitions and gauges, delta-fine partition constructors, Riemann
sums, a spread-converging gauge integrator, the classic oscillatory
example family with its loop gauges, and empirical checkers for the
Riemann-sum convergence criteria.
"""
from . import criteria, errors, integrator, partition
from .criteria import *  # noqa: F403
from .errors import *  # noqa: F403
from .integrator import *  # noqa: F403
from .partition import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*criteria.__all__, *errors.__all__, *integrator.__all__, *partition.__all__]
