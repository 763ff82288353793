"""The inline build walks its items in chunks bounded by candidate volume.

With no ``runtime=`` and no ``backend=``/``workers=``, ``build_slinegraph``
cuts its items where the running ``Σ_{v∈e} deg(v)`` crosses
``CHUNK_CANDIDATES``, reduces each chunk to canonical pairs and maps the
chunks on the shared thread pool.  None of that may show in the answer:
a build forced to many chunks equals the one-chunk build and the
``matrix`` oracle array for array, with the same counters.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.linegraph.bitset as bitset_mod
import repro.linegraph.build as build_mod
from repro.io.generators import community_hypergraph, uniform_random_hypergraph
from repro.linegraph import PRESETS, build_slinegraph, slinegraph_matrix
from repro.linegraph.common import finalize_edges
from repro.obs import MetricsRegistry
from repro.structures.adjoin import AdjoinGraph
from repro.structures.biadjacency import BiAdjacency
from repro.structures.edgelist import BiEdgeList

S_VALUES = (1, 2, 3)

#: (preset, kernel) for every preset and each kernel it accepts
CASES = [
    (name, kernel)
    for name, preset in PRESETS.items()
    if preset.shape != "matrix"
    for kernel in (None, *preset.kernels)
]


def assert_same(a, b, exact_weights: bool = True) -> None:
    """Array-for-array equality of two edge lists, dtypes included."""
    assert a.num_vertices() == b.num_vertices()
    for x, y in ((a.src, b.src), (a.dst, b.dst)):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)
    assert (a.weights is None) == (b.weights is None)
    if a.weights is not None:
        assert a.weights.dtype == b.weights.dtype
        if exact_weights:
            np.testing.assert_array_equal(a.weights, b.weights)
        else:  # the sparse product sums Σ w·w in its own order
            np.testing.assert_allclose(a.weights, b.weights)


def build(h, s, name, kernel=None, weighted=False, budget=None, workers=1):
    """One inline build with the chunk budget and pool use pinned."""
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(build_mod, "CHUNK_CANDIDATES", budget)
        mp.setattr(build_mod, "default_workers", lambda: workers)
        metrics = MetricsRegistry()
        out = build_slinegraph(
            h, list(S_VALUES) if PRESETS[name].ensemble else s, name,
            kernel=kernel, weighted=weighted, metrics=metrics,
        )
    return out, metrics


def counters(metrics: MetricsRegistry) -> dict:
    """Every counter but the per-chunk task and bucket tallies."""
    return {
        (rec["name"], tuple(sorted(rec["labels"].items()))): rec["value"]
        for rec in metrics.snapshot()
        if rec["name"] not in (
            "linegraph_kernel_tasks_total", "dispatch_buckets_total"
        )
    }


@st.composite
def weighted_hypergraphs(draw, max_edges=20, max_nodes=12):
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
    cols = [v for mem in members for v in sorted(mem)]
    weights = draw(
        st.lists(
            st.floats(0.25, 4.0), min_size=len(rows), max_size=len(rows)
        )
    )
    return BiEdgeList(rows, cols, weights, n0=n_e, n1=n_v)


@settings(max_examples=15, deadline=None)
@given(
    el=weighted_hypergraphs(),
    s=st.integers(1, 3),
    budget=st.integers(1, 16),
    workers=st.sampled_from([1, 2]),
    adjoin=st.booleans(),
)
def test_many_chunks_equal_one_chunk_and_oracle(el, s, budget, workers, adjoin):
    h = BiAdjacency.from_biedgelist(el)
    graph = AdjoinGraph.from_biedgelist(el) if adjoin else h
    for name, kernel in CASES:
        if adjoin and PRESETS[name].shape not in ("queue", "pairs"):
            continue  # the range presets take either; one pass is enough
        many, m_many = build(graph, s, name, kernel, budget=budget,
                             workers=workers)
        one, m_one = build(graph, s, name, kernel, budget=1 << 62)
        assert counters(m_many) == counters(m_one), (name, kernel)
        if PRESETS[name].ensemble:
            assert sorted(many) == list(S_VALUES)
            for v in S_VALUES:
                assert_same(many[v], one[v])
                assert_same(many[v], slinegraph_matrix(h, v))
        else:
            assert_same(many, one)
            assert_same(many, slinegraph_matrix(h, s))
    if not adjoin:  # the weighted hashmap: Σ w·w summed in the same order
        many, _ = build(h, s, "hashmap", weighted=True, budget=budget,
                        workers=workers)
        one, _ = build(h, s, "hashmap", weighted=True, budget=1 << 62)
        assert_same(many, one)
        assert_same(many, slinegraph_matrix(h, s, weighted=True),
                    exact_weights=False)


def test_mixed_bitset_chunks_pack_once(monkeypatch):
    """Chunks that mix bitset and hashmap rows sort themselves, and the
    eligible rows are packed once per build, not once per chunk."""
    el = community_hypergraph(
        num_communities=400, num_nodes=120, mean_community_size=40.0,
        locality=0.8, seed=103,
    )
    h = BiAdjacency.from_biedgelist(el)
    calls = []
    real_pack = bitset_mod.pack_rows

    def counting_pack(*args, **kwargs):
        calls.append(1)
        return real_pack(*args, **kwargs)

    monkeypatch.setattr(bitset_mod, "pack_rows", counting_pack)
    for s in (2, 5):
        calls.clear()
        many, metrics = build(h, s, "hashmap", budget=4096, workers=2)
        rows = {
            rec["labels"]["kernel"]: rec["value"]
            for rec in metrics.snapshot()
            if rec["name"] == "dispatch_rows_total"
        }
        assert rows.get("bitset", 0) > 0 and rows.get("hashmap", 0) > 0
        assert len(calls) == 1
        one, _ = build(h, s, "hashmap", budget=1 << 62)
        assert_same(many, one)
        assert_same(many, slinegraph_matrix(h, s))
        calls.clear()
        forced, _ = build(h, s, "hashmap", kernel="bitset", budget=4096)
        assert len(calls) == 1
        assert_same(forced, one)


def test_cut_bounds_volume_and_keeps_order():
    items = np.arange(10, dtype=np.int64) * 3
    volume = np.cumsum([2, 2, 9, 1, 1, 1, 30, 0, 4, 4])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(build_mod, "CHUNK_CANDIDATES", 5)
        chunks = build_mod._cut(items, volume)
    # an item over the budget is a chunk of its own
    assert [c.tolist() for c in chunks] == [
        [0, 3], [6], [9, 12, 15], [18], [21, 24], [27],
    ]


def test_finalize_fast_path_matches_sorting_path():
    rng = np.random.default_rng(3)
    n = 50
    key = np.unique(rng.integers(0, n * n, 400))
    src, dst = key // n, key % n
    up = src < dst
    src, dst = src[up], dst[up]
    cnt = rng.integers(1, 9, src.size)
    fast = finalize_edges(src, dst, cnt, n)
    # the same pairs reversed and duplicated take the sorting path
    both = finalize_edges(
        np.concatenate([dst[::-1], src]), np.concatenate([src[::-1], dst]),
        np.concatenate([cnt[::-1], cnt]), n,
    )
    assert_same(fast, both)
    np.testing.assert_array_equal(fast.src, src)


def test_inline_count_peak_is_bounded():
    """On a Rand1-shaped input (50k x 50k, size 10) the walk holds one
    chunk at a time: the count peaks well under the 149 MiB the
    one-piece walk measured, with a fixed bound at about half of it."""
    el = uniform_random_hypergraph(50_000, 50_000, 10, seed=7)
    h = BiAdjacency.from_biedgelist(el)
    del el
    build(h, 2, "hashmap", budget=None)  # warm lazy imports
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(build_mod, "default_workers", lambda: 1)
        tracemalloc.start()
        try:
            out = build_slinegraph(h, 2, "hashmap")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert out.num_edges() > 0
    assert peak < 75 * 2**20, f"count peaked at {peak / 2**20:.1f} MiB"
