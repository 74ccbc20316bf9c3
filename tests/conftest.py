import threading

import numpy as np
import pytest

from gaugequad import Gauge


def const_gauge(c: float) -> Gauge:
    return Gauge(lambda x, _c=c: np.full_like(np.asarray(x, dtype=float), _c))


def scalar_only(fn):
    """fn restricted to scalars: array arguments raise TypeError."""

    def scalar(*args):
        if any(np.ndim(a) for a in args):
            raise TypeError("scalar only")
        return fn(*args)

    return scalar


@pytest.fixture
def unit_interval():
    from gaugequad import Interval

    return Interval(0.0, 1.0)


#: Cell counts at and around the edges of the 2**16-cell summation blocks.
BLOCK_EDGES = [1, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 7]


def block_sum_reference(p, values) -> float:
    """The summation rule, written out: np.sum(lengths[i:j] * values[i:j])
    over consecutive 2**16-cell blocks, added left to right as Python floats."""
    lengths = p.points[1:] - p.points[:-1]
    total = 0.0
    for i in range(0, len(p), 1 << 16):
        j = i + (1 << 16)
        total += float(np.sum(lengths[i:j] * values[i:j]))
    return total


def partition_of_size(n: int):
    """A tagged partition of n cells with irregular lengths and tags."""
    from gaugequad import TaggedPartition

    rng = np.random.default_rng(n)
    points = np.cumsum(rng.uniform(0.5, 1.5, n + 1))
    points = (points - points[0]) / (points[-1] - points[0])  # on [0, 1]
    tags = np.minimum(points[:-1] + rng.random(n) * np.diff(points), points[1:])
    return TaggedPartition(tags, points)


def started_threads(monkeypatch) -> list[str]:
    """The names of the threads started from now on, in a list that grows
    as they start."""
    names = []
    start = threading.Thread.start

    def recording(self):
        names.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return names


def package_threads(names: list[str]) -> set[str]:
    """The package's thread kinds among names, such as "gaugequad-sum"."""
    return {name.rsplit("_", 1)[0] for name in names if name.startswith("gaugequad-")}
