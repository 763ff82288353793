"""The v1.1 ``update`` op: dynamic datasets, cache patching, versioned keys."""

import numpy as np
import pytest

from repro.core.hypergraph import NWHypergraph
from repro.dynamic import DynamicHypergraph
from repro.service import QueryEngine, SLineGraphCache

from ..conftest import PAPER_MEMBERS


def _random_members(seed, n_edges=120, n_nodes=90):
    rng = np.random.default_rng(seed)
    return [
        sorted(set(rng.integers(0, n_nodes, size=rng.integers(2, 6)).tolist()))
        for _ in range(n_edges)
    ]


@pytest.fixture
def engine():
    eng = QueryEngine(num_threads=1)
    eng.store.register(
        "paper", NWHypergraph.from_hyperedge_lists(PAPER_MEMBERS, num_nodes=9)
    )
    return eng


class TestUpdateOp:
    def test_update_promotes_and_reports_delta(self, engine):
        resp = engine.execute(
            {
                "op": "update",
                "dataset": "paper",
                "ops": [{"op": "add_edge", "members": [0, 8]}],
            }
        )
        assert resp["ok"] is True
        body = resp["result"]
        assert body["version"] == 1
        assert body["new_edges"] == [4]
        assert engine.store.is_dynamic("paper")
        assert engine.store.versioned_name("paper") == "paper@v1"

    def test_reads_see_the_new_state(self, engine):
        engine.execute(
            {
                "op": "update",
                "dataset": "paper",
                "ops": [{"op": "add_edge", "members": [6, 8]}],
            }
        )
        stats = engine.execute({"op": "stats", "dataset": "paper"})
        assert stats["result"]["num_edges"] == len(PAPER_MEMBERS) + 1
        assert stats["result"]["version"] == 1
        # new edge 4 = {6,8} shares nothing with edge 0 = {0,1,2} but
        # reaches it through edge 3 = {0,1,2,6}
        resp = engine.execute(
            {"op": "s_distance", "dataset": "paper", "s": 1,
             "src": 4, "dst": 0}
        )
        assert resp["result"] == 2

    def test_invalid_mutation_is_structured_and_atomic(self, engine):
        resp = engine.execute(
            {
                "op": "update",
                "dataset": "paper",
                "ops": [
                    {"op": "add_edge", "members": [0, 1]},
                    {"op": "remove_edge", "edge": 99},
                ],
            }
        )
        assert resp["ok"] is False
        assert resp["error"]["code"] == "invalid_mutation"
        assert engine.store.version("paper") == 0
        assert engine.store.get("paper").number_of_edges() == len(
            PAPER_MEMBERS
        )

    def test_ops_must_be_a_nonempty_list(self, engine):
        for bad in ([], "add_edge", None):
            resp = engine.execute(
                {"op": "update", "dataset": "paper", "ops": bad}
            )
            assert resp["ok"] is False

    def test_unknown_dataset(self, engine):
        resp = engine.execute(
            {"op": "update", "dataset": "nope",
             "ops": [{"op": "remove_edge", "edge": 0}]}
        )
        assert resp["error"]["code"] == "unknown_dataset"

    def test_compact_flag(self, engine):
        resp = engine.execute(
            {
                "op": "update",
                "dataset": "paper",
                "compact": True,
                "ops": [{"op": "remove_edge", "edge": 0}],
            }
        )
        assert resp["result"]["compacted"] is True
        dyn = engine.store.get_dynamic("paper")
        assert dyn.pending_ops() == 0
        assert dyn.version == 1

    def test_register_dynamic_source(self, engine):
        dyn = DynamicHypergraph.from_hyperedge_lists(PAPER_MEMBERS)
        engine.store.register("dyn", dyn)
        assert engine.store.is_dynamic("dyn")
        res = engine.execute(
            {"op": "update", "dataset": "dyn",
             "ops": [{"op": "add_edge", "members": [1, 2]}]}
        )
        assert res["ok"] and dyn.version == 1


class TestCachePatching:
    def test_small_delta_patches_live_entries(self):
        eng = QueryEngine(num_threads=1)
        eng.store.register(
            "rnd",
            NWHypergraph.from_hyperedge_lists(
                _random_members(3), num_nodes=90
            ),
        )
        eng.execute({"op": "warm", "dataset": "rnd", "s_values": [1, 2]})
        eng.execute(
            {"op": "warm", "dataset": "rnd", "s_values": [1],
             "over_edges": False}
        )
        resp = eng.execute(
            {
                "op": "update",
                "dataset": "rnd",
                "ops": [
                    {"op": "add_edge", "members": [0, 1, 2]},
                    {"op": "remove_edge", "edge": 4},
                ],
            }
        )
        outcomes = resp["result"]["cache"]
        assert set(outcomes) == {"s=1,edges", "s=2,edges", "s=1,nodes"}
        assert all(v.startswith("patched") for v in outcomes.values())
        # old-key entries are gone; new-key entries answer and are exact
        assert eng.cache.entries_for("rnd") == []
        entries = eng.cache.entries_for("rnd@v1")
        assert len(entries) == 3
        ref_hg = eng.store.get("rnd")
        for s, over_edges, lg in entries:
            ref = NWHypergraph(
                ref_hg.row,
                ref_hg.col,
                num_edges=ref_hg.number_of_edges(),
                num_nodes=ref_hg.number_of_nodes(),
            ).s_linegraph(s, over_edges=over_edges).edgelist
            got = lg.edgelist
            assert np.array_equal(got.src, ref.src)
            assert np.array_equal(got.dst, ref.dst)
            assert np.array_equal(got.weights, ref.weights)
        hit = eng.execute(
            {"op": "s_distance", "dataset": "rnd", "s": 1,
             "src": 0, "dst": 1}
        )
        assert hit["via"] == "cache:hit"

    def test_large_delta_drops_entries(self, engine):
        engine.execute({"op": "warm", "dataset": "paper", "s_values": [1]})
        # 2 of 4 hyperedges dirty — way past the 10% patch threshold
        resp = engine.execute(
            {
                "op": "update",
                "dataset": "paper",
                "ops": [
                    {"op": "remove_edge", "edge": 0},
                    {"op": "remove_edge", "edge": 1},
                ],
            }
        )
        assert resp["result"]["cache"]["s=1,edges"] == "dropped"
        assert engine.cache.entries_for("paper") == []
        assert engine.cache.entries_for("paper@v1") == []
        # next query rebuilds under the versioned key
        rebuilt = engine.execute(
            {"op": "s_distance", "dataset": "paper", "s": 1,
             "src": 2, "dst": 3}
        )
        assert rebuilt["via"] == "cache:miss"
        assert engine.cache.entries_for("paper@v1") != []

    @pytest.mark.parametrize("tight", [False, True])
    def test_update_evicts_nothing_within_budget(self, tight):
        """L_2..L_4 cached; an update admits each patched entry and drops
        its predecessor at once, so a budget of twice the live set — or
        the live set plus its largest entry, with 10% for growth — never
        evicts."""
        hg = NWHypergraph.from_hyperedge_lists(
            _random_members(5, n_edges=400, n_nodes=120), num_nodes=120
        )
        sized = QueryEngine(
            num_threads=1, cache=SLineGraphCache(budget_bytes=None)
        )
        sized.store.register("rnd", hg)
        sized.execute({"op": "warm", "dataset": "rnd", "s_values": [2, 3, 4]})
        sizes = [k["bytes"] for k in sized.cache.snapshot()["keys"]]
        total = sum(sizes)
        if tight:
            budget = int(1.1 * (total + max(sizes)))
        else:
            budget = int(2.2 * total)
        eng = QueryEngine(
            num_threads=1, cache=SLineGraphCache(budget_bytes=budget)
        )
        eng.store.register("rnd", hg)
        eng.execute({"op": "warm", "dataset": "rnd", "s_values": [2, 3, 4]})
        assert eng.cache.current_bytes == total
        for batch in (
            [{"op": "add_edge", "members": [0, 1, 2]}],
            [{"op": "remove_edge", "edge": 7},
             {"op": "add_incidence", "edge": 9, "node": 3}],
        ):
            resp = eng.execute(
                {"op": "update", "dataset": "rnd", "ops": batch}
            )
            assert set(resp["result"]["cache"].values()) == {"patched"}
        assert eng.cache.stats.evictions == 0
        assert len(eng.cache) == 3
        eng.cache.debug_verify()

    def test_patch_metrics_emitted(self):
        eng = QueryEngine(num_threads=1)
        eng.store.register(
            "rnd",
            NWHypergraph.from_hyperedge_lists(
                _random_members(9), num_nodes=90
            ),
        )
        eng.execute({"op": "warm", "dataset": "rnd", "s_values": [1]})
        eng.execute(
            {"op": "update", "dataset": "rnd",
             "ops": [{"op": "add_edge", "members": [3, 4]}]}
        )
        snap = {
            (i["name"], tuple(sorted(i.get("labels", {}).items())))
            for i in eng.obs_metrics.snapshot()
        }
        assert (
            "dynamic_cache_patches_total",
            (("outcome", "patched"),),
        ) in snap
        assert any(n == "dynamic_patched_pairs_total" for n, _ in snap)


class TestVersionedKeys:
    def test_static_dataset_keys_under_bare_name(self, engine):
        engine.execute({"op": "warm", "dataset": "paper", "s_values": [1]})
        assert engine.cache.entries_for("paper") != []

    def test_promotion_at_v0_keeps_bare_key(self, engine):
        engine.execute({"op": "warm", "dataset": "paper", "s_values": [1]})
        engine.store.get_dynamic("paper")  # promote without updating
        assert engine.store.versioned_name("paper") == "paper"
        resp = engine.execute(
            {"op": "s_distance", "dataset": "paper", "s": 1,
             "src": 0, "dst": 2}
        )
        assert resp["via"] == "cache:hit"  # pre-promotion entry reachable

    def test_invalidate_covers_bare_and_versioned_keys(self, engine):
        engine.execute({"op": "warm", "dataset": "paper", "s_values": [1]})
        engine.execute(
            {"op": "update", "dataset": "paper",
             "ops": [{"op": "add_incidence", "edge": 0, "node": 8}]}
        )
        engine.execute({"op": "warm", "dataset": "paper", "s_values": [2]})
        assert engine.cache.entries_for("paper@v1") != []
        resp = engine.execute({"op": "invalidate", "dataset": "paper"})
        assert resp["ok"] is True
        assert engine.cache.entries_for("paper") == []
        assert engine.cache.entries_for("paper@v1") == []
