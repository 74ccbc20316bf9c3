import gaugequad

# The public names of the package, fixed: each module's __all__ adds to them.
PUBLIC = [
    "CriterionReport", "DepthExceeded", "DomainError", "Gauge", "GaugeFamily",
    "GaugeQuadError", "IndexBelowQ", "IndexSelector", "IntegralEstimate",
    "IntegrandFamily", "Interval", "InvalidGauge", "InvalidTolerance",
    "LengthMismatch", "NonFiniteValue", "RealFunction", "TaggedPartition",
    "WitnessNotFound", "check_criterion1", "check_criterion2", "check_criterion3",
    "cousin_partition", "gauge_integrate", "is_delta_fine",
    "random_delta_fine_partition", "riemann_sum", "riemann_unboundedness_witness",
    "smooth_gauge_family", "sum_defect", "variable_index_sum",
]


def test_public_names_are_fixed_and_resolve():
    assert sorted(gaugequad.__all__) == PUBLIC
    for name in gaugequad.__all__:
        assert getattr(gaugequad, name) is not None
