"""Cross-validation of all six s-line construction algorithms.

Every algorithm must produce the identical canonical edge list (with
identical overlap weights) as the scipy ``BᵗB`` oracle, on hand-built and
random hypergraphs, for every s.
"""

import numpy as np
import pytest

from repro.linegraph import (
    ALGORITHMS,
    slinegraph_matrix,
    to_two_graph,
)
from repro.parallel.runtime import ParallelRuntime
from repro.structures.biadjacency import BiAdjacency

from ..conftest import PAPER_OVERLAPS, random_biedgelist

# 'matrix' and 'threaded' take no simulated runtime; they are covered by
# their own test modules
NAMES = sorted(set(ALGORITHMS) - {"matrix", "threaded"})


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_agrees_with_matrix_oracle(name, s):
    for seed in range(3):
        h = BiAdjacency.from_biedgelist(random_biedgelist(seed=seed))
        assert to_two_graph(h, s, name) == slinegraph_matrix(h, s), (seed,)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("backend", ["threaded"])
def test_backends_produce_identical_edgelists(name, backend):
    """Real execution backends return the exact EdgeList of the default."""
    h = BiAdjacency.from_biedgelist(random_biedgelist(seed=3))
    base = to_two_graph(h, 2, name)
    assert to_two_graph(h, 2, name, backend=backend, workers=2) == base


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_paper_example_weights(name, paper_h):
    el = to_two_graph(paper_h, 1, name)
    got = {
        (a, b): int(w)
        for a, b, w in zip(el.src.tolist(), el.dst.tolist(), el.weights)
    }
    assert got == {(a, b): c for a, b, c in PAPER_OVERLAPS}


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_paper_example_s_filtering(name, paper_h):
    """The Fig. 5 analogue: s = 1, 2, 3 line graphs of the running example."""
    expect = {
        1: {(a, b) for a, b, _ in PAPER_OVERLAPS},
        2: {(a, b) for a, b, c in PAPER_OVERLAPS if c >= 2},
        3: {(0, 3)},
        4: set(),
    }
    for s, pairs in expect.items():
        el = to_two_graph(paper_h, s, name)
        assert set(zip(el.src.tolist(), el.dst.tolist())) == pairs, s


@pytest.mark.parametrize("name", NAMES)
def test_s_monotonicity(name):
    """L_{s+1} ⊆ L_s — edges only disappear as s grows."""
    h = BiAdjacency.from_biedgelist(random_biedgelist(seed=11, max_size=6))
    prev = None
    for s in (1, 2, 3, 4, 5):
        el = to_two_graph(h, s, name)
        pairs = set(zip(el.src.tolist(), el.dst.tolist()))
        if prev is not None:
            assert pairs <= prev
        prev = pairs


@pytest.mark.parametrize("name", NAMES)
def test_invalid_s(name, paper_h):
    with pytest.raises(ValueError, match="s must be"):
        to_two_graph(paper_h, 0, name)


def test_unknown_algorithm(paper_h):
    with pytest.raises(ValueError, match="unknown algorithm"):
        to_two_graph(paper_h, 1, "quantum")


@pytest.mark.parametrize("name", NAMES)
def test_empty_hypergraph(name):
    h = BiAdjacency.from_biedgelist(random_biedgelist(seed=0, num_edges=0,
                                                      num_nodes=5))
    el = to_two_graph(h, 1, name)
    assert el.num_edges() == 0


@pytest.mark.parametrize("name", NAMES)
def test_large_s_empty(name, paper_h):
    el = to_two_graph(paper_h, 100, name)
    assert el.num_edges() == 0
    assert el.num_vertices() == 4  # vertex space preserved


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("partitioner", ["blocked", "cyclic"])
def test_runtime_and_partitioner_invariance(name, partitioner):
    h = BiAdjacency.from_biedgelist(random_biedgelist(seed=5))
    ref = slinegraph_matrix(h, 2)
    rt = ParallelRuntime(
        num_threads=4, partitioner=partitioner, execution_order="shuffled",
        seed=8,
    )
    assert to_two_graph(h, 2, name, runtime=rt) == ref
    assert rt.makespan > 0


def test_weights_are_overlap_sizes(paper_h):
    el = slinegraph_matrix(paper_h, 2)
    for a, b, w in zip(el.src.tolist(), el.dst.tolist(), el.weights):
        inter = np.intersect1d(paper_h.members(a), paper_h.members(b))
        assert len(inter) == w
