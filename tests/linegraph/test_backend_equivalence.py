"""Property: every execution backend computes the same answers, bit for bit.

The determinism contract (docs/PARALLEL.md) says backend choice changes
wall-clock time and nothing else: s-line graphs, CC labels, and the
simulated cost ledger must be identical whether chunk bodies run on the
serial simulated loop or a thread pool.  Hypothesis drives random
hypergraphs through both.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.hypercc import hypercc
from repro.linegraph import to_two_graph
from repro.parallel import SimulatedBackend, ThreadedBackend
from repro.parallel.runtime import ParallelRuntime
from repro.structures.biadjacency import BiAdjacency
from repro.structures.edgelist import BiEdgeList


@pytest.fixture(scope="module")
def pools():
    """One persistent pool per backend, shared across examples."""
    backends = {
        "simulated": SimulatedBackend(),
        "threaded": ThreadedBackend(2),
    }
    yield backends
    for be in backends.values():
        be.close()


@st.composite
def hypergraphs(draw, max_edges=12, max_nodes=10):
    n_e = draw(st.integers(1, max_edges))
    n_v = draw(st.integers(1, max_nodes))
    members = draw(
        st.lists(
            st.sets(st.integers(0, n_v - 1), max_size=n_v),
            min_size=n_e,
            max_size=n_e,
        )
    )
    rows = [e for e, mem in enumerate(members) for _ in mem]
    cols = [v for mem in members for v in mem]
    return BiEdgeList(rows, cols, n0=n_e, n1=n_v)


@settings(max_examples=25, deadline=None)
@given(el=hypergraphs(), s=st.integers(1, 3))
def test_slinegraph_and_cc_bit_identical(pools, el, s):
    h = BiAdjacency.from_biedgelist(el)
    graphs = {}
    edge_labels = {}
    node_labels = {}
    makespans = {}
    for name, be in pools.items():
        with ParallelRuntime(
            num_threads=4, partitioner="cyclic", grain=2, backend=be
        ) as rt:
            graphs[name] = to_two_graph(h, s, "hashmap", runtime=rt)
            elabels, nlabels = hypercc(h, runtime=rt)
            edge_labels[name] = elabels
            node_labels[name] = nlabels
            makespans[name] = rt.makespan
    assert graphs["threaded"] == graphs["simulated"]
    np.testing.assert_array_equal(
        edge_labels["threaded"], edge_labels["simulated"]
    )
    np.testing.assert_array_equal(
        node_labels["threaded"], node_labels["simulated"]
    )
    assert makespans["threaded"] == makespans["simulated"]


@settings(max_examples=15, deadline=None)
@given(
    el=hypergraphs(),
    s=st.integers(1, 3),
    kernel=st.sampled_from(("auto", "naive", "hashmap", "intersection",
                            "bitset")),
)
def test_forced_kernels_bit_identical_across_backends(pools, el, s, kernel):
    """Any kernel family, any backend: same graph, same simulated ledger."""
    h = BiAdjacency.from_biedgelist(el)
    base = to_two_graph(h, s, "hashmap")
    makespans = {}
    for name, be in pools.items():
        with ParallelRuntime(
            num_threads=4, partitioner="cyclic", grain=2, backend=be
        ) as rt:
            got = to_two_graph(h, s, "hashmap", runtime=rt, kernel=kernel)
            makespans[name] = rt.makespan
        assert got == base, (kernel, name)
    assert makespans["threaded"] == makespans["simulated"]


@settings(max_examples=10, deadline=None)
@given(el=hypergraphs(), s=st.integers(1, 3))
def test_compressed_csr_transport_bit_identical(pools, el, s):
    """Kernels fed CompressedCSR inputs decode to the exact same graph.

    Each task decodes the rows it needs from the compressed column, on
    the serial loop or a pool thread; the results must not care.
    """
    from repro.linegraph.common import finalize_edges
    from repro.linegraph.dispatch import make_count_kernel

    h = BiAdjacency.from_biedgelist(el)
    base = to_two_graph(h, s, "hashmap")
    ce, cn = h.edges.compress(), h.nodes.compress()
    eligible = np.flatnonzero(h.edge_sizes() >= s).astype(np.int64)
    n = h.num_hyperedges()
    for name, be in pools.items():
        with ParallelRuntime(
            num_threads=4, partitioner="cyclic", grain=2, backend=be
        ) as rt:
            rt.new_run()
            body = make_count_kernel("hashmap", ce, cn, s)
            parts = rt.parallel_for(rt.partition(eligible), body, pure=True)
        if parts:
            src = np.concatenate([p[0] for p in parts])
            dst = np.concatenate([p[1] for p in parts])
            cnt = np.concatenate([p[2] for p in parts])
            got = finalize_edges(src, dst, cnt, n)
        else:
            from repro.linegraph.common import empty_linegraph

            got = empty_linegraph(n)
        assert got == base, name


@settings(max_examples=10, deadline=None)
@given(el=hypergraphs())
def test_queue_algorithms_bit_identical(pools, el):
    """The queue-based constructions (Algs. 1-2) under real backends."""
    h = BiAdjacency.from_biedgelist(el)
    for algorithm in ("queue_hashmap", "queue_intersection"):
        base = None
        for name, be in pools.items():
            with ParallelRuntime(
                num_threads=4, partitioner="cyclic", grain=2, backend=be
            ) as rt:
                got = to_two_graph(h, 2, algorithm, runtime=rt)
            if base is None:
                base = got
            else:
                assert got == base, (algorithm, name)
