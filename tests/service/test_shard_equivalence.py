"""Property: the sharded engine answers bit-identically to the single engine.

The acceptance bar for sharded serving (docs/SHARDING.md): shard count
is a deployment knob, not a semantic one.  Hypothesis drives random
hypergraphs and random shard counts through both engines and compares
entire response envelopes (minus wall-clock and cache provenance) for
every s-metric op, plus the canonical cache-built edge lists array for
array.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import QueryEngine, ShardedEngine
from repro.structures.edgelist import BiEdgeList


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


def queries_for(el: BiEdgeList, s: int) -> list[dict]:
    n_e, n_v = el.num_vertices(0), el.num_vertices(1)
    qs = [
        {"op": "s_connected_components", "dataset": "d", "s": s},
        {"op": "s_connected_components", "dataset": "d", "s": s,
         "return_singletons": True},
        {"op": "is_s_connected", "dataset": "d", "s": s},
        {"op": "s_degree", "dataset": "d", "s": s, "v": 0},
        {"op": "s_neighbors", "dataset": "d", "s": s, "v": n_e - 1},
        {"op": "s_distance", "dataset": "d", "s": s, "src": 0,
         "dst": n_e - 1},
        {"op": "s_diameter", "dataset": "d", "s": s},
        {"op": "s_info", "dataset": "d", "s": s},
        {"op": "s_pagerank", "dataset": "d", "s": s},
        {"op": "s_core_number", "dataset": "d", "s": s},
    ]
    if n_v > 1:
        qs.append({"op": "s_degree", "dataset": "d", "s": s, "v": 0,
                   "over_edges": False})
    return qs


def canon(resp: dict) -> str:
    return json.dumps(
        {k: v for k, v in resp.items() if k not in ("ms", "via")},
        sort_keys=True,
    )


@settings(max_examples=25, deadline=None)
@given(el=hypergraphs(), s=st.integers(1, 3), shards=st.integers(1, 5))
def test_every_op_bit_identical(el, s, shards):
    single = QueryEngine()
    sharded = ShardedEngine(num_shards=shards)
    try:
        for eng in (single, sharded):
            eng.store.register("d", el)
        for q in queries_for(el, s):
            a = single.execute(dict(q))
            b = sharded.execute(dict(q))
            assert canon(a) == canon(b), q
    finally:
        single.close()
        sharded.close()


@settings(max_examples=15, deadline=None)
@given(
    el=hypergraphs(),
    s=st.integers(1, 3),
    shards=st.integers(1, 4),
    kernel=st.sampled_from(("auto", "naive", "hashmap", "intersection",
                            "bitset")),
)
def test_forced_kernels_bit_identical_across_shards(el, s, shards, kernel):
    """Kernel choice × shard count never changes a response envelope."""
    single = QueryEngine()
    sharded = ShardedEngine(num_shards=shards, kernel=kernel)
    try:
        for eng in (single, sharded):
            eng.store.register("d", el)
        for q in queries_for(el, s)[:4]:
            a = single.execute(dict(q))
            b = sharded.execute(dict(q))
            assert canon(a) == canon(b), (kernel, q)
    finally:
        single.close()
        sharded.close()


@settings(max_examples=15, deadline=None)
@given(el=hypergraphs(), s=st.integers(1, 3), shards=st.integers(2, 4))
def test_cache_built_linegraphs_bit_identical(el, s, shards):
    """The assembled L_s arrays — not just query answers — are identical."""
    single = QueryEngine()
    sharded = ShardedEngine(num_shards=shards)
    try:
        for eng in (single, sharded):
            eng.store.register("d", el)
            eng.execute({"op": "warm", "dataset": "d", "s_values": [s]})
        key = single.store.versioned_name("d")
        a, _ = single.cache.get_or_build(key, s, single.store.get("d"), True)
        b, _ = sharded.cache.get_or_build(key, s, sharded.store.get("d"), True)
        np.testing.assert_array_equal(a.edgelist.src, b.edgelist.src)
        np.testing.assert_array_equal(a.edgelist.dst, b.edgelist.dst)
        np.testing.assert_array_equal(a.edgelist.weights, b.edgelist.weights)
    finally:
        single.close()
        sharded.close()


@settings(max_examples=10, deadline=None)
@given(el=hypergraphs(max_edges=10, max_nodes=8), s=st.integers(1, 2))
def test_fast_paths_and_cached_paths_agree(el, s):
    """shard:route / shard:merge answers equal the same engine's cached
    answers — the fast path is an optimization, never a fork."""
    sharded = ShardedEngine(num_shards=3)
    try:
        sharded.store.register("d", el)
        cold = [
            sharded.execute(
                {"op": "s_degree", "dataset": "d", "s": s, "v": 0}
            ),
            sharded.execute(
                {"op": "s_connected_components", "dataset": "d", "s": s}
            ),
        ]
        sharded.execute({"op": "warm", "dataset": "d", "s_values": [s]})
        warm = [
            sharded.execute(
                {"op": "s_degree", "dataset": "d", "s": s, "v": 0}
            ),
            sharded.execute(
                {"op": "s_connected_components", "dataset": "d", "s": s}
            ),
        ]
        for c, w in zip(cold, warm):
            assert canon(c) == canon(w)
        assert warm[0]["via"] == "cache:hit"
    finally:
        sharded.close()


@pytest.mark.parametrize("backend", ["threaded"])
def test_sharded_over_real_backends(backend):
    """Scatter-gather over a real thread pool stays exact."""
    rng = np.random.default_rng(7)
    members = [
        sorted(set(rng.integers(0, 25, size=rng.integers(2, 6)).tolist()))
        for _ in range(30)
    ]
    rows = [e for e, mem in enumerate(members) for _ in mem]
    cols = [v for mem in members for v in mem]
    el = BiEdgeList(rows, cols, n0=30, n1=25)
    single = QueryEngine()
    sharded = ShardedEngine(num_shards=3, backend=backend, workers=2)
    try:
        for eng in (single, sharded):
            eng.store.register("d", el)
        for q in queries_for(el, 2):
            a = single.execute(dict(q))
            b = sharded.execute(dict(q))
            assert canon(a) == canon(b), q
    finally:
        single.close()
        sharded.close()
