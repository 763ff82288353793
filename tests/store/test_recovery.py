"""Crash recovery: WAL replay, checkpoints, and the torn-tail property.

The subsystem's acceptance property (hypothesis): for any mutation
history and ANY byte-level truncation of the WAL — the on-disk state a
``kill -9`` can leave behind — reopening the store recovers exactly the
state reached by replaying the committed prefix of batches, and a
subsequent snapshot is bit-identical to one built from scratch over that
prefix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hypergraph import NWHypergraph
from repro.dynamic.hypergraph import DynamicHypergraph
from repro.dynamic.policy import decide_patch_or_rebuild
from repro.store import (
    StoreError,
    build_store,
    open_store,
)
from repro.store.wal import WAL_MAGIC, read_wal
from tests.conftest import random_biedgelist

MAX_NODES = 16


def _build(tmp_path, seed=3):
    el = random_biedgelist(
        seed=seed, num_edges=8, num_nodes=MAX_NODES, max_size=4
    )
    build_store(tmp_path, el, name="rec", warm_s=(1,))
    return el


def _burst(i):
    """A deterministic little mutation batch, varied by index."""
    return [
        {"op": "add_edge", "members": [i % MAX_NODES, (i + 1) % MAX_NODES]},
        {"op": "add_incidence", "edge": i % 4, "node": (i * 3) % MAX_NODES},
    ]


def test_reopen_replays_the_tail(tmp_path):
    _build(tmp_path)
    h1 = open_store(tmp_path)
    for i in range(4):
        h1.dynamic.apply(_burst(i))
    state = h1.hypergraph()
    h1.close()

    h2 = open_store(tmp_path)
    try:
        assert h2.recovery.replayed_batches == 4
        assert h2.recovery.replayed_ops == 8
        assert h2.version == 4
        got = h2.hypergraph()
        assert np.array_equal(got._el.part0, state._el.part0)
        assert np.array_equal(got._el.part1, state._el.part1)
        # the replayed batches dirtied more of the 12 hyperedges than the
        # patch policy's threshold allows: the persisted s=1 entry is
        # omitted (served lazily) instead of rolled forward
        dyn = h2.dynamic
        assert decide_patch_or_rebuild(
            len(dyn.dirty_edges()), dyn.state.num_edges()
        ) == "rebuild"
        assert h2.hot_linegraphs() == {}
    finally:
        h2.close()


def test_checkpoint_folds_and_resets(tmp_path):
    _build(tmp_path)
    h1 = open_store(tmp_path)
    for i in range(3):
        h1.dynamic.apply(_burst(i))
    h1.checkpoint()
    assert h1.manifest.base_version == 3
    assert h1.manifest.slab == "data-3.slab"
    state = h1.hypergraph()
    h1.close()
    # the old slab was cleaned up, the WAL is empty
    assert not (tmp_path / "data-0.slab").exists()
    assert (tmp_path / "wal.log").read_bytes() == WAL_MAGIC

    h2 = open_store(tmp_path)
    try:
        assert h2.version == 3
        assert h2.recovery.replayed_batches == 0
        assert np.array_equal(
            h2.hypergraph()._el.part0, state._el.part0
        )
        # hot entries were recomputed by the checkpoint and are current
        hot = h2.hot_linegraphs()
        assert set(hot) == {(1, True)}
        want = h2.hypergraph().s_linegraph(1).edgelist
        assert np.array_equal(hot[(1, True)].edgelist.src, want.src)
        assert np.array_equal(hot[(1, True)].edgelist.dst, want.dst)
    finally:
        h2.close()


def test_stale_wal_records_after_checkpoint_crash(tmp_path):
    """A checkpoint that crashed before resetting the WAL is harmless."""
    _build(tmp_path)
    h1 = open_store(tmp_path)
    for i in range(3):
        h1.dynamic.apply(_burst(i))
    wal_bytes = (tmp_path / "wal.log").read_bytes()
    h1.checkpoint()
    h1.close()
    # simulate the crash window: manifest committed, WAL reset lost
    (tmp_path / "wal.log").write_bytes(wal_bytes)

    h2 = open_store(tmp_path)
    try:
        assert h2.recovery.skipped_records == 3
        assert h2.recovery.replayed_batches == 0
        assert h2.version == 3
    finally:
        h2.close()


def test_wal_append_failure_poisons_the_handle(tmp_path):
    _build(tmp_path)
    h = open_store(tmp_path)
    try:
        h.dynamic.apply(_burst(0))
        h.dynamic._wal._fh.close()  # simulate the disk going away
        with pytest.raises(StoreError, match="WAL append"):
            h.dynamic.apply(_burst(1))
        # memory was rolled forward but durability failed: read-only now
        with pytest.raises(StoreError, match="read-only"):
            h.dynamic.apply(_burst(2))
    finally:
        h.slab.close()


def _committed_prefix_state(el, wal_path):
    """Reference: replay the recoverable records onto a fresh dynamic."""
    records, _ = read_wal(wal_path)
    ref = DynamicHypergraph(
        NWHypergraph(
            el.part0,
            el.part1,
            el.weights,
            num_edges=el.num_vertices(0),
            num_nodes=el.num_vertices(1),
        )
    )
    for record in records:
        ref.apply(list(record.mutations))
    return ref.snapshot(), len(records)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 5),
    n_batches=st.integers(1, 6),
    cut_fraction=st.floats(0.0, 1.0),
)
def test_any_truncation_recovers_committed_prefix(
    tmp_path_factory, seed, n_batches, cut_fraction
):
    tmp_path = tmp_path_factory.mktemp("crash")
    el = _build(tmp_path, seed=seed)
    h = open_store(tmp_path)
    for i in range(n_batches):
        h.dynamic.apply(_burst(i + seed))
    h.close()

    # kill -9 at an arbitrary byte: truncate the WAL mid-write
    wal_path = tmp_path / "wal.log"
    raw = wal_path.read_bytes()
    cut = len(WAL_MAGIC) + int(cut_fraction * (len(raw) - len(WAL_MAGIC)))
    wal_path.write_bytes(raw[:cut])

    want, committed = _committed_prefix_state(el, wal_path)
    h2 = open_store(tmp_path)
    try:
        assert h2.recovery.replayed_batches == committed
        assert h2.version == committed
        got = h2.hypergraph()
        assert np.array_equal(got._el.part0, want._el.part0)
        assert np.array_equal(got._el.part1, want._el.part1)
        # and the recovered state checkpoint is bit-identical to a
        # snapshot written from the reference replay
        h2.checkpoint(recompute_hot=False)
        slab_a = (tmp_path / h2.manifest.slab).read_bytes()
    finally:
        h2.close()

    from repro.store import write_snapshot

    ref_dir = tmp_path_factory.mktemp("ref")
    manifest = write_snapshot(ref_dir, want, "rec", base_version=committed)
    slab_b = (ref_dir / manifest.slab).read_bytes()
    assert slab_a == slab_b


def test_failed_open_releases_slab_and_wal(tmp_path, open_slabs):
    """A WAL gap aborts open_store without leaking the mmap or the WAL
    append handle (regression: both used to stay open until GC)."""
    from repro.dynamic.log import Mutation
    from repro.store import StoreCorruptError
    from repro.store.wal import WriteAheadLog

    _build(tmp_path)
    wal = WriteAheadLog(tmp_path / "wal.log")
    # gap: base_version is 0, so replay expects version 1, not 5
    wal.append(5, [Mutation.from_dict(m) for m in _burst(0)])
    wal.close()

    with pytest.raises(StoreCorruptError, match="WAL gap"):
        open_store(tmp_path)
    assert open_slabs() == []  # the mmap was released

    # the failed open truncated nothing and closed its WAL handle: once
    # the gap is cleared the store opens normally
    (tmp_path / "wal.log").write_bytes(WAL_MAGIC)
    handle = open_store(tmp_path)
    try:
        assert handle.version == 0
    finally:
        handle.close()
