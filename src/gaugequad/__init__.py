"""gaugequad: the gauge (Riemann-complete) integral on compact intervals.

Tagged partitions and gauges, delta-fine partition constructors, Riemann
sums, a spread-converging gauge integrator, the classic oscillatory
example family with its loop gauges, and empirical checkers for the
Riemann-sum convergence criteria.

Threads.  `gauge_integrate`, `check_criterion1` and `check_criterion2` sum
a partition of more than 2**11 cells on one worker thread, the sum worker,
while the calling thread builds the next partition.  A build, by
`cousin_partition` and `random_delta_fine_partition` too, makes the random
draws of each bisection level of at least 2**16 cells, and its tag sort if
it has at least 2**16 cells, on one helper thread, the build helper.  It
splits each level of at least 2**17 cells between the two threads, so the
gauge is called on half of such a level's split points on the build
helper, at the same time as on the other half on the calling thread.  The
integrand, an integrand family's member_at and an index selector's
threshold may run on the sum worker, and so may `riemann_sum` and
`variable_index_sum`; a gauge runs on the calling thread and the build
helper, never on the sum worker, and a gauge family's `at` and
check_criterion2's gauge_for run only on the calling thread.  So user
callables that may run on different threads, a gauge and itself included,
must not share unsynchronised mutable state.  The caller's np.errstate
applies on both threads too, and no thread outlives a call: each is joined
before the call returns or raises.  A small run starts no thread.
"""
from . import criteria, errors, integrator, partition
from .criteria import *  # noqa: F403
from .errors import *  # noqa: F403
from .integrator import *  # noqa: F403
from .partition import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*criteria.__all__, *errors.__all__, *integrator.__all__, *partition.__all__]
