import ast
import pathlib

import pytest

import gaugequad

# The public names of the package, fixed: each module's __all__ adds to them.
PUBLIC = [
    "CriterionReport", "DepthExceeded", "DomainError", "Gauge", "GaugeFamily",
    "GaugeQuadError", "IndexSelector", "IntegralEstimate", "IntegrandFamily",
    "Interval", "InvalidGauge", "InvalidIndex", "InvalidTolerance",
    "LengthMismatch", "NonFiniteValue", "RealFunction", "TaggedPartition",
    "check_criterion1", "check_criterion2", "check_criterion3",
    "cousin_partition", "gauge_integrate", "is_delta_fine",
    "random_delta_fine_partition", "riemann_sum", "smooth_gauge_family",
    "sum_defect", "variable_index_sum",
]


def test_public_names_are_fixed_and_resolve():
    assert sorted(gaugequad.__all__) == PUBLIC
    for name in gaugequad.__all__:
        assert getattr(gaugequad, name) is not None


def _imported_and_used(path: pathlib.Path) -> tuple[set[str], set[str]]:
    """The names a module binds by import, and the names it reads."""
    tree = ast.parse(path.read_text())
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported, used


MODULES = sorted(
    p for p in pathlib.Path(gaugequad.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    imported, used = _imported_and_used(path)
    assert imported <= used, f"unused imports: {sorted(imported - used)}"
