"""Per-layer spans and counts for gaugequad, recorded from outside the package.

`install` rebinds the callables that gaugequad's modules look up at call
time, wrapping each in a span named after its layer.  The package itself is
not changed.  Spans and counts stay in memory; `Tracer.summary` turns them
into the per-layer metrics once the run ends.

Layers and the spans that time them:

    partition.gauge     the delta callable each gauge family hands to Gauge
    partition.build     cousin_partition and the seeded random builder
    partition.validate  the TaggedPartition constructor
    oscillator.integrand  oscillator.f and oscillator.f_j
    integrator.solve    gauge_integrate (the eps-level driver)
    integrator.sum      riemann_sum
    criteria.check      check_criterion1 / check_criterion2
    criteria.variable_sum  variable_index_sum
    criteria.threshold  the index selector's threshold callable
"""
from __future__ import annotations

import time
from collections import Counter

#: Counts that must be equal across two traced solves of the same input.
DETERMINISTIC_COUNTS = (
    "partition.gauge_calls",
    "partition.gauge_points",
    "partition.cells_total",
    "oscillator.integrand_points",
    "integrator.levels",
    "integrator.partitions",
)


class Tracer:
    """Spans as [name, start, end, parent index] plus named counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.sums: list[float] = []
        self.cells_final = 0
        self._open: list[int] = []

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._open)

    def wrap(self, name: str, fn, points=None, on_result=None):
        """fn inside a span `name`; counts calls and, if given, points(args)."""

        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            if points is not None:
                self.counts[name + ".points"] += points(args)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def summary(self, wall_s: float) -> dict:
        """Per-layer metrics for one solve whose untimed wall time is wall_s."""
        total: Counter = Counter()
        children = [0.0] * len(self.spans)
        top = 0.0
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                children[parent] += end - start
            else:
                top += end - start
        own: Counter = Counter()
        for (name, start, end, _), child in zip(self.spans, children):
            own[name] += end - start - child

        c = self.counts
        gauge_points = c["partition.gauge.points"]
        cells_total = c["partition.cells"]
        return {
            "partition.gauge_s": total["partition.gauge"],
            "partition.gauge_calls": c["partition.gauge.calls"],
            "partition.gauge_points": gauge_points,
            "partition.build_s": total["partition.build"],
            "partition.validate_s": total["partition.validate"],
            "partition.engine_self_s": own["partition.build"],
            "partition.cells_final": self.cells_final,
            "partition.cells_total": cells_total,
            "partition.cells_per_gauge_point": cells_total / gauge_points if gauge_points else 0.0,
            "oscillator.integrand_s": total["oscillator.integrand"],
            "oscillator.integrand_points": c["oscillator.integrand.points"],
            "integrator.sum_s": total["integrator.sum"],
            "integrator.sum_self_s": own["integrator.sum"],
            "integrator.levels": c["integrator.levels"],
            "integrator.partitions": c["partition.build.calls"],
            "criteria.check_s": total["criteria.check"],
            "criteria.variable_sum_s": total["criteria.variable_sum"],
            "criteria.threshold_s": total["criteria.threshold"],
            "cli.self_s": wall_s - top,
            "calls": {k: v for k, v in c.items() if k.endswith(".calls")},
            "sum_range": max(self.sums) - min(self.sums) if self.sums else 0.0,
        }


def install(t: Tracer) -> None:
    """Wrap gaugequad's layer boundaries for tracer t.

    gaugequad's modules import these names with `from .x import name`, so
    every module binding that a caller looks up is replaced, not only the
    defining module's attribute.
    """
    import numpy as np
    from gaugequad import cli, criteria, integrator, oscillator, partition
    from gaugequad.criteria import IndexSelector
    from gaugequad.integrator import GaugeFamily
    from gaugequad.partition import Gauge

    def arg_size(i):
        return lambda args: int(np.size(args[i]))

    def traced_family(factory):
        def make(*args, **kwargs):
            family = factory(*args, **kwargs)

            def at(eps):
                if t.inside("integrator.solve"):
                    t.counts["integrator.levels"] += 1
                gauge = family.at(eps)
                return Gauge(t.wrap("partition.gauge", gauge.delta, points=arg_size(0)))

            return GaugeFamily(at)

        return make

    # cli calls the oscillator families through the module attribute, and
    # imported smooth_gauge_family by name.
    oscillator.loop_gauge_family = traced_family(oscillator.loop_gauge_family)
    oscillator.truncated_gauge_family = traced_family(oscillator.truncated_gauge_family)
    cli.smooth_gauge_family = traced_family(cli.smooth_gauge_family)

    # integrand_family() and cli both reach f and f_j as oscillator globals.
    oscillator.f = t.wrap("oscillator.integrand", oscillator.f, points=arg_size(0))
    oscillator.f_j = t.wrap("oscillator.integrand", oscillator.f_j, points=arg_size(1))

    make_selector = oscillator.index_selector

    def index_selector():
        sel = make_selector()
        return IndexSelector(t.wrap("criteria.threshold", sel.threshold, points=arg_size(0)))

    oscillator.index_selector = index_selector

    def built(final):
        def record(p):
            t.counts["partition.cells"] += len(p)
            if final:
                t.cells_final = len(p)
        return record

    cousin = t.wrap("partition.build", partition.cousin_partition, on_result=built(True))
    for module in (integrator, criteria, cli):
        module.cousin_partition = cousin
    # gauge_integrate and the criteria reach random builds through the
    # private integrator._random_partition, which criteria imports by name:
    # both bindings are patched.
    seeded = t.wrap("partition.build", integrator._random_partition, on_result=built(False))
    integrator._random_partition = seeded
    criteria._random_partition = seeded

    # TaggedPartition is bound in partition (cousin_partition) and in
    # integrator (_random_partition); one wrapper serves both so that no
    # construction is counted twice.
    validate = t.wrap("partition.validate", partition.TaggedPartition)
    partition.TaggedPartition = validate
    integrator.TaggedPartition = validate

    riemann = t.wrap("integrator.sum", integrator.riemann_sum, on_result=t.sums.append)
    integrator.riemann_sum = riemann
    criteria.riemann_sum = riemann
    criteria.variable_index_sum = t.wrap(
        "criteria.variable_sum", criteria.variable_index_sum, on_result=t.sums.append
    )

    cli.gauge_integrate = t.wrap("integrator.solve", cli.gauge_integrate)
    cli.check_criterion1 = t.wrap("criteria.check", cli.check_criterion1)
    cli.check_criterion2 = t.wrap("criteria.check", cli.check_criterion2)
