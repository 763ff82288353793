"""Serving over a store: warm restart, durable updates, hydration."""

import numpy as np
import pytest

from repro.dynamic.policy import decide_patch_or_rebuild
from repro.service import QueryEngine
from repro.store import build_store, open_store
from tests.conftest import random_biedgelist


@pytest.fixture
def store_dir(tmp_path):
    el = random_biedgelist(seed=7, num_edges=20, num_nodes=30)
    build_store(tmp_path / "store", el, name="svc", warm_s=(1, 2))
    return tmp_path / "store"


def test_register_store_hydrates_cache(store_dir):
    eng = QueryEngine()
    try:
        info = eng.register_store("svc", store_dir)
        assert info["version"] == 0
        assert {(h["s"], h["over_edges"]) for h in info["hydrated"]} == {
            (1, True),
            (2, True),
        }
        # the first query for a hydrated s is a cache hit, not a build
        resp = eng.execute({"op": "warm", "dataset": "svc", "s_values": [1, 2]})
        assert resp["result"] == {1: "hit", 2: "hit"}
    finally:
        eng.close()


def test_register_op_accepts_store_directory(store_dir):
    eng = QueryEngine()
    try:
        resp = eng.execute(
            {"op": "register", "name": "svc", "source": str(store_dir)}
        )
        assert resp["ok"] if "ok" in resp else True
        result = resp["result"]
        assert result["num_edges"] == 20
        assert result["recovery"]["replayed_batches"] == 0
        stats = eng.execute({"op": "stats", "dataset": "svc"})["result"]
        assert stats["durable"] is True
    finally:
        eng.close()


def test_updates_survive_engine_restart(store_dir):
    eng = QueryEngine()
    eng.register_store("svc", store_dir)
    for i in range(3):
        resp = eng.execute(
            {
                "op": "update",
                "dataset": "svc",
                "ops": [{"op": "add_edge", "members": [i, i + 1]}],
            }
        )
        assert resp["result"]["version"] == i + 1
    state = eng.store.get("svc")
    eng.close()

    # a brand-new engine (fresh process, morally) recovers the updates
    eng2 = QueryEngine()
    try:
        info = eng2.register_store("svc", store_dir)
        assert info["version"] == 3
        assert info["recovery"]["replayed_batches"] == 3
        # 3 new hyperedges out of 23 is past the patch policy's
        # threshold: the hot entries are omitted, not rolled forward
        dyn = eng2.store.store_handle("svc").dynamic
        assert decide_patch_or_rebuild(
            len(dyn.dirty_edges()), dyn.state.num_edges()
        ) == "rebuild"
        assert info["hydrated"] == []
        got = eng2.store.get("svc")
        assert np.array_equal(got._el.part0, state._el.part0)
        assert np.array_equal(got._el.part1, state._el.part1)
    finally:
        eng2.close()


def test_restart_serves_the_rolled_forward_entry(tmp_path):
    el = random_biedgelist(seed=11, num_edges=60, num_nodes=40, max_size=6)
    build_store(tmp_path / "store", el, name="svc", warm_s=(2,))
    batches = [
        [{"op": "add_edge", "members": [0, 1, 2]}],
        [{"op": "remove_incidence", "edge": 5,
          "node": int(el.part1[el.part0 == 5][0])}],
        [{"op": "add_incidence", "edge": 9, "node": 39}],
    ]
    eng = QueryEngine()
    eng.register_store("svc", tmp_path / "store")
    ref = QueryEngine()
    ref.store.register("svc", el)
    try:
        for ops in batches:
            for engine in (eng, ref):
                engine.execute({"op": "update", "dataset": "svc", "ops": ops})
    finally:
        eng.close()

    eng2 = QueryEngine()
    try:
        info = eng2.register_store("svc", tmp_path / "store")
        assert info["recovery"]["replayed_batches"] == 3
        assert info["hydrated"] == [{"s": 2, "over_edges": True}]
        for s, via in ((2, "cache:hit"), (3, "cache:derive")):
            query = {"op": "s_connected_components", "dataset": "svc", "s": s}
            got = eng2.execute(query)
            assert got["via"] == via
            assert got["result"] == ref.execute(query)["result"]
    finally:
        eng2.close()
        ref.close()


def test_update_with_compact_checkpoints_durably(store_dir):
    eng = QueryEngine()
    eng.register_store("svc", store_dir)
    resp = eng.execute(
        {
            "op": "update",
            "dataset": "svc",
            "ops": [{"op": "add_edge", "members": [0, 1, 2]}],
            "compact": True,
        }
    )
    assert resp["result"]["compacted"] is True
    eng.close()

    # the checkpoint moved the snapshot forward: nothing left to replay
    handle = open_store(store_dir)
    try:
        assert handle.manifest.base_version == 1
        assert handle.recovery.replayed_batches == 0
        # and the hot set was recomputed over the new state
        assert set(handle.hot_linegraphs()) == {(1, True), (2, True)}
    finally:
        handle.close()


def test_unregister_and_close_release_handles(store_dir):
    eng = QueryEngine()
    eng.register_store("svc", store_dir)
    assert eng.store.store_handle("svc") is not None
    eng.store.unregister("svc")
    assert "svc" not in eng.store
    # double-close is fine
    eng.close()
    eng.close()


def test_replace_swaps_the_store_handle(store_dir, tmp_path):
    el = random_biedgelist(seed=9, num_edges=5, num_nodes=10)
    build_store(tmp_path / "other", el, name="other")
    eng = QueryEngine()
    try:
        eng.register_store("svc", store_dir)
        with pytest.raises(ValueError, match="already registered"):
            eng.register_store("svc", tmp_path / "other")
        eng.register_store("svc", tmp_path / "other", replace=True)
        assert eng.store.get("svc").number_of_edges() == 5
    finally:
        eng.close()
