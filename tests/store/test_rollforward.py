"""Warm-restart roll-forward: rehydrated hot entries == cold rebuilds.

``StoreHandle.hot_linegraphs`` adopts each persisted hot s-line graph at
its snapshot version and, when the WAL tail replayed batches, brings it
to the replayed version with one delta patch over the union of the
replayed batches' dirty sets.  The properties (hypothesis, random WAL
tails over all four mutation kinds, both sides, s in {1, 2, 3}, plain
and varint stores):

* every returned entry equals a cold ``s_linegraph`` at the recovered
  version, array for array and dtype for dtype;
* one patch over the union equals the per-batch patches in sequence;
* an entry the patch-vs-rebuild policy refuses (or one persisted
  without overlap weights) is omitted, never raised, and counted once
  per entry in ``store.hot_skipped_stale``;
* a torn last WAL record rolls the entry forward to the committed
  prefix and leaks no handle.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hypergraph import NWHypergraph
from repro.core.slinegraph import SLineGraph
from repro.dynamic import DynamicHypergraph, decide_patch_or_rebuild
from repro.dynamic.incremental import patch_linegraph
from repro.obs.metrics import MetricsRegistry
from repro.store import open_store, write_snapshot
from repro.store.wal import WriteAheadLog
from tests.conftest import random_biedgelist

NUM_EDGES = 80
NUM_NODES = 50
SIDES = (True, False)


def _hypergraph(seed: int) -> NWHypergraph:
    el = random_biedgelist(
        seed=seed, num_edges=NUM_EDGES, num_nodes=NUM_NODES, max_size=6
    )
    return NWHypergraph(
        el.part0, el.part1, num_edges=NUM_EDGES, num_nodes=NUM_NODES
    )


def _make_store(directory, hg, hot, compress=False):
    """A version-0 store whose manifest records ``hot`` line graphs."""
    manifest = write_snapshot(
        directory, hg, "roll", base_version=0, hot=hot, compress=compress
    )
    WriteAheadLog(directory / manifest.wal).close()


def _hot(hg, s, sides=SIDES):
    return {(s, o): hg.s_linegraph(s, over_edges=o) for o in sides}


def _assert_same_linegraph(got: SLineGraph, want: SLineGraph, context=""):
    assert (got.s, got.over_edges) == (want.s, want.over_edges), context
    assert got.num_vertices() == want.num_vertices(), context
    for a, b in (
        (got.edgelist.src, want.edgelist.src),
        (got.edgelist.dst, want.edgelist.dst),
        (got.edgelist.weights, want.edgelist.weights),
        (got.graph.indptr, want.graph.indptr),
        (got.graph.indices, want.graph.indices),
    ):
        assert a.dtype == b.dtype, context
        assert np.array_equal(a, b), context


def _should_patch(dyn, over_edges: bool) -> bool:
    if over_edges:
        dirty, n = dyn.dirty_edges(), dyn.state.num_edges()
    else:
        dirty, n = dyn.dirty_nodes(), dyn.state.num_nodes()
    return decide_patch_or_rebuild(len(dirty), n) == "patch"


@st.composite
def _mutation(draw, dyn):
    """One mutation record that is valid against ``dyn``'s current state."""
    n_e, n_v = dyn.number_of_edges(), dyn.number_of_nodes()
    kind = draw(st.sampled_from(
        ["add_edge", "remove_edge", "add_incidence", "remove_incidence"]
    ))
    live = [e for e in range(n_e) if dyn.members(e).size]
    if kind in ("remove_edge", "remove_incidence") and live:
        e = draw(st.sampled_from(live))
        if kind == "remove_edge":
            return {"op": "remove_edge", "edge": e}
        node = draw(st.sampled_from(dyn.members(e).tolist()))
        return {"op": "remove_incidence", "edge": e, "node": node}
    if kind == "add_incidence":
        # node IDs past the current range grow the hypernode space
        return {
            "op": "add_incidence",
            "edge": draw(st.integers(0, n_e - 1)),
            "node": draw(st.integers(0, n_v + 1)),
        }
    members = draw(
        st.lists(st.integers(0, n_v + 1), min_size=1, max_size=4, unique=True)
    )
    return {"op": "add_edge", "members": members}


def _write_tail(data, dyn, max_batches=4, max_ops=2):
    """Apply a drawn WAL tail of 1..``max_batches`` batches to ``dyn``."""
    for _ in range(data.draw(st.integers(1, max_batches), label="batches")):
        batch = [
            data.draw(_mutation(dyn), label="mutation")
            for _ in range(data.draw(st.integers(1, max_ops), label="ops"))
        ]
        try:
            dyn.apply(batch)
        except ValueError:
            # a record invalidated by an earlier one in the same batch
            # rejects the whole batch; nothing reaches the log
            continue


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    data=st.data(),
    seed=st.integers(0, 3),
    s=st.sampled_from([1, 2, 3]),
    compress=st.booleans(),
)
def test_rolled_forward_equals_cold_rebuild(
    tmp_path_factory, data, seed, s, compress
):
    directory = tmp_path_factory.mktemp("roll")
    hg = _hypergraph(seed)
    _make_store(directory, hg, _hot(hg, s), compress=compress)
    h1 = open_store(directory)
    try:
        _write_tail(data, h1.dynamic)
    finally:
        h1.close()

    metrics = MetricsRegistry()
    h2 = open_store(directory, metrics=metrics)
    try:
        hot = h2.hot_linegraphs()
        cold = h2.hypergraph()
        omitted = 0
        for over_edges in SIDES:
            key = (s, over_edges)
            if h2.version == 0 or _should_patch(h2.dynamic, over_edges):
                _assert_same_linegraph(
                    hot[key],
                    cold.s_linegraph(s, over_edges=over_edges),
                    f"{key} at version {h2.version}",
                )
            else:
                assert key not in hot
                omitted += 1
        assert metrics.counter("store.hot_skipped_stale").value == omitted
        assert metrics.counter("store.hot_rehydrated").value == len(hot)
    finally:
        h2.close()


@settings(max_examples=25, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 3),
    s=st.sampled_from([1, 2, 3]),
    over_edges=st.booleans(),
)
def test_union_patch_equals_sequential_patches(data, seed, s, over_edges):
    dyn = DynamicHypergraph(_hypergraph(seed))
    el0 = dyn.snapshot().s_linegraph(s, over_edges=over_edges).edgelist
    seq = el0
    for _ in range(data.draw(st.integers(1, 5), label="batches")):
        batch = [data.draw(_mutation(dyn), label="mutation")]
        res = dyn.apply(batch)
        state = dyn.state if over_edges else dyn.state.dual()
        dirty = res.dirty_edges if over_edges else res.dirty_nodes
        seq = patch_linegraph(seq, state, dirty, s)
    state = dyn.state if over_edges else dyn.state.dual()
    dirty = dyn.dirty_edges() if over_edges else dyn.dirty_nodes()
    union = patch_linegraph(el0, state, dirty, s)
    assert union.num_vertices() == seq.num_vertices()
    for a, b in (
        (union.src, seq.src),
        (union.dst, seq.dst),
        (union.weights, seq.weights),
    ):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def test_tail_past_the_threshold_omits_each_entry(tmp_path):
    hg = _hypergraph(1)
    _make_store(tmp_path, hg, {**_hot(hg, 1), **_hot(hg, 2, (True,))})
    h1 = open_store(tmp_path)
    try:
        # one batch tombstoning a fifth of the hyperedges: the dirty
        # fraction on both sides is past the policy's patch threshold
        h1.dynamic.apply(
            [{"op": "remove_edge", "edge": e} for e in range(0, NUM_EDGES, 5)]
        )
    finally:
        h1.close()

    metrics = MetricsRegistry()
    h2 = open_store(tmp_path, metrics=metrics)
    try:
        assert not _should_patch(h2.dynamic, True)
        assert not _should_patch(h2.dynamic, False)
        assert h2.hot_linegraphs() == {}
        # counted per omitted entry, not per call
        assert metrics.counter("store.hot_skipped_stale").value == 3
        assert metrics.counter("store.hot_rehydrated").value == 0
    finally:
        h2.close()


def test_weightless_hot_spec_is_omitted_not_raised(tmp_path):
    hg = _hypergraph(2)
    lg = hg.s_linegraph(2)
    el = lg.edgelist
    stripped = type(el)(el.src, el.dst, None, num_vertices=el.num_vertices())
    _make_store(
        tmp_path,
        hg,
        {(1, True): hg.s_linegraph(1), (2, True): SLineGraph(stripped, s=2)},
    )
    h1 = open_store(tmp_path)
    try:
        h1.dynamic.apply([{"op": "add_edge", "members": [0, 1, 2]}])
    finally:
        h1.close()

    metrics = MetricsRegistry()
    h2 = open_store(tmp_path, metrics=metrics)
    try:
        hot = h2.hot_linegraphs()
        assert set(hot) == {(1, True)}
        _assert_same_linegraph(hot[(1, True)], h2.hypergraph().s_linegraph(1))
        assert metrics.counter("store.hot_skipped_stale").value == 1
    finally:
        h2.close()


def test_torn_tail_rolls_forward_to_the_committed_prefix(tmp_path, open_slabs):
    hg = _hypergraph(3)
    _make_store(tmp_path, hg, _hot(hg, 2))
    wal_path = tmp_path / "wal.log"
    h1 = open_store(tmp_path)
    try:
        for i in range(3):
            h1.dynamic.apply([{"op": "add_edge", "members": [i, 20]}])
        prefix = wal_path.stat().st_size
        h1.dynamic.apply([{"op": "remove_incidence", "edge": 4,
                           "node": int(hg.edge_incidence(4)[0])}])
    finally:
        h1.close()
    raw = wal_path.read_bytes()
    assert len(raw) > prefix + 2

    for cut in sorted({prefix + 1, (prefix + len(raw)) // 2, len(raw) - 1}):
        wal_path.write_bytes(raw[:cut])
        h2 = open_store(tmp_path)
        try:
            assert h2.recovery.torn_tail
            assert h2.version == 3
            hot = h2.hot_linegraphs()
            cold = h2.hypergraph()
            assert set(hot) == {(2, True), (2, False)}
            for (s, over_edges), lg in hot.items():
                _assert_same_linegraph(
                    lg, cold.s_linegraph(s, over_edges=over_edges), cut
                )
        finally:
            h2.close()
        assert h2.dynamic._wal._fh.closed
        assert open_slabs() == []
        # the torn record was truncated away on open
        assert wal_path.stat().st_size == prefix
