"""The build pipeline's argument checks: queue IDs and pinned backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.io.generators import uniform_random_hypergraph
from repro.linegraph import PRESETS, to_two_graph
from repro.structures.biadjacency import BiAdjacency

QUEUED = sorted(
    name for name, p in PRESETS.items() if p.shape in ("queue", "pairs")
)


@pytest.fixture(scope="module")
def h():
    return BiAdjacency.from_biedgelist(
        uniform_random_hypergraph(30, 20, 4, seed=5)
    )


@pytest.mark.parametrize("algorithm", QUEUED)
@pytest.mark.parametrize("bad", [[-25], [-1], [0, 30], [30], [3, 99]])
def test_out_of_range_queue_ids_rejected(h, algorithm, bad):
    with pytest.raises(ValueError, match=r"\[0, 30\)"):
        to_two_graph(h, 2, algorithm, queue_ids=np.array(bad))


@pytest.mark.parametrize("algorithm", QUEUED)
def test_queue_ids_at_the_range_ends_accepted(h, algorithm):
    full = to_two_graph(h, 1, algorithm)
    got = to_two_graph(h, 1, algorithm, queue_ids=np.array([0, 29]))
    pairs = set(zip(full.src.tolist(), full.dst.tolist()))
    assert set(zip(got.src.tolist(), got.dst.tolist())) <= pairs


@pytest.mark.parametrize("backend", ["simulated"])
def test_threaded_rejects_other_backends(h, backend):
    with pytest.raises(ValueError, match="threaded"):
        to_two_graph(h, 2, "threaded", backend=backend, workers=2)


def test_threaded_accepts_its_own_backend(h):
    got = to_two_graph(h, 2, "threaded", backend="threaded", workers=2)
    assert got == to_two_graph(h, 2, "hashmap")


@pytest.mark.parametrize("algorithm", ["hashmap", "threaded"])
def test_non_positive_workers_rejected(h, algorithm):
    with pytest.raises(ValueError, match="workers must be positive"):
        to_two_graph(h, 2, algorithm, workers=0)
