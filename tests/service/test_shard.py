"""Sharded engine: planning, routing, merging, introspection."""

import numpy as np
import pytest

from repro.graph.cc import group_components
from repro.service import QueryEngine, ShardedEngine, plan_shards
from repro.service.shard import ShardPairsKernel, _pair_labels

from ..conftest import PAPER_MEMBERS, make_biedgelist, random_biedgelist


@pytest.fixture
def paper_pair():
    """(unsharded, sharded) engines over the same registered dataset."""
    single = QueryEngine()
    sharded = ShardedEngine(num_shards=3)
    for eng in (single, sharded):
        eng.store.register(
            "paper", make_biedgelist(PAPER_MEMBERS, num_nodes=9)
        )
    yield single, sharded
    single.close()
    sharded.close()


def strip(resp):
    return {k: v for k, v in resp.items() if k not in ("ms", "via")}


class TestPlanning:
    def test_parts_partition_the_id_space(self):
        el = random_biedgelist(seed=3, num_edges=30, num_nodes=40)
        eng = QueryEngine()
        eng.store.register("d", el)
        plan = plan_shards(eng.store.get("d"), 4)
        all_ids = np.sort(np.concatenate(plan.parts))
        np.testing.assert_array_equal(all_ids, np.arange(30))
        # owner is consistent with parts
        for i, part in enumerate(plan.parts):
            assert (plan.owner[part] == i).all()
        eng.close()

    def test_loads_roughly_balanced(self):
        el = random_biedgelist(seed=4, num_edges=64, num_nodes=40)
        eng = QueryEngine()
        eng.store.register("d", el)
        plan = plan_shards(eng.store.get("d"), 4)
        loads = [card["load"] for card in plan.summary()]
        assert max(loads) <= 2.5 * max(min(loads), 1.0)
        eng.close()

    def test_more_shards_than_edges(self):
        eng = ShardedEngine(num_shards=8)
        eng.store.register("tiny", make_biedgelist([[0, 1], [1, 2]], 3))
        resp = eng.execute({"op": "s_degree", "dataset": "tiny", "s": 1, "v": 0})
        assert resp["ok"] and resp["result"] == 1
        eng.close()

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError):
            ShardedEngine(num_shards=0)
        eng = QueryEngine()
        eng.store.register("p", make_biedgelist(PAPER_MEMBERS, 9))
        with pytest.raises(ValueError):
            plan_shards(eng.store.get("p"), 0)
        eng.close()


class TestUnionFindMerge:
    """Labels merged from shard partials, and their grouping."""

    def test_labels_match_pair_reachability(self):
        # partials carry every kept pair from both endpoints' owners
        partials = [
            (np.array([0, 1, 1, 2]), np.array([1, 0, 2, 1]),
             np.array([1, 1, 1, 1])),
            (np.array([4, 5]), np.array([5, 4]), np.array([2, 2])),
        ]
        labels = _pair_labels(6, partials)
        assert labels[0] == labels[1] == labels[2]
        assert labels[4] == labels[5]
        assert labels[3] not in (labels[0], labels[4])

    def test_group_components_semantics(self):
        labels = np.array([0, 0, 2, 0, 4])
        comps = group_components(labels, return_singletons=False)
        assert [c.tolist() for c in comps] == [[0, 1, 3]]
        comps = group_components(labels, return_singletons=True)
        assert [c.tolist() for c in comps] == [[0, 1, 3], [2], [4]]


class TestRoutedOps:
    def test_miss_routes_to_owner_shard(self, paper_pair):
        single, sharded = paper_pair
        q = {"op": "s_neighbors", "dataset": "paper", "s": 1, "v": 0}
        a, b = single.execute(dict(q)), sharded.execute(dict(q))
        assert b["via"] == "shard:route"
        assert strip(a) == strip(b)

    def test_hit_falls_through_to_cache(self, paper_pair):
        _, sharded = paper_pair
        sharded.execute({"op": "warm", "dataset": "paper", "s_values": [1]})
        resp = sharded.execute(
            {"op": "s_degree", "dataset": "paper", "s": 1, "v": 0}
        )
        assert resp["via"] == "cache:hit"

    def test_materialize_always_falls_through(self, paper_pair):
        _, sharded = paper_pair
        resp = sharded.execute(
            {"op": "s_degree", "dataset": "paper", "s": 1, "v": 0,
             "materialize": "always"}
        )
        assert resp["via"] != "shard:route"
        assert resp["ok"]

    def test_out_of_range_vertex_same_error(self, paper_pair):
        # s_distance checks vertex bounds; the sharded engine must give
        # the byte-identical invalid_argument response, not a crash
        single, sharded = paper_pair
        q = {"op": "s_distance", "dataset": "paper", "s": 1,
             "src": 99, "dst": 0}
        a, b = single.execute(dict(q)), sharded.execute(dict(q))
        assert a["ok"] is False
        assert a["error"]["code"] == "invalid_argument"
        assert strip(a) == strip(b)


class TestMergedOps:
    def test_components_via_merge(self, paper_pair):
        single, sharded = paper_pair
        q = {"op": "s_connected_components", "dataset": "paper", "s": 2}
        a, b = single.execute(dict(q)), sharded.execute(dict(q))
        assert b["via"] == "shard:merge"
        assert strip(a) == strip(b)

    def test_disconnected_distance_short_circuits(self):
        # two cliques sharing nothing: DSU proves -1 without any BFS
        members = [[0, 1], [0, 1], [2, 3], [2, 3]]
        sharded = ShardedEngine(num_shards=2)
        sharded.store.register("two", make_biedgelist(members, 4))
        resp = sharded.execute(
            {"op": "s_distance", "dataset": "two", "s": 1, "src": 0, "dst": 2}
        )
        assert resp["result"] == -1 and resp["via"] == "shard:merge"
        sharded.close()

    def test_empty_graph_not_connected(self):
        sharded = ShardedEngine(num_shards=2)
        sharded.store.register("p", make_biedgelist(PAPER_MEMBERS, 9))
        resp = sharded.execute(
            {"op": "is_s_connected", "dataset": "p", "s": 99}
        )
        assert resp["result"] is False and resp["via"] == "shard:merge"
        sharded.close()


class TestKernel:
    def test_kernel_emits_both_directions(self, paper_h):
        bi = paper_h
        kernel = ShardPairsKernel(bi.edges, bi.nodes, s=1)
        out = kernel(np.arange(bi.num_hyperedges(), dtype=np.int64))
        src, dst, cnt, _ = out.value
        pairs = set(zip(src.tolist(), dst.tolist()))
        assert all((b, a) in pairs for a, b in pairs)
        assert all(a != b for a, b in pairs)
        assert (cnt >= 1).all()


class TestIntrospection:
    def test_shards_op(self, paper_pair):
        _, sharded = paper_pair
        resp = sharded.execute({"op": "shards", "dataset": "paper"})
        assert resp["ok"]
        card = resp["result"]
        assert card["num_shards"] == 3
        assert sum(c["vertices"] for c in card["shards"]) == len(PAPER_MEMBERS)

    def test_shards_op_gated_from_v1(self, paper_pair):
        _, sharded = paper_pair
        resp = sharded.execute(
            {"op": "shards", "dataset": "paper", "version": 1}
        )
        assert resp["error"]["code"] == "unknown_op"

    def test_shards_op_unknown_on_unsharded_engine(self, paper_pair):
        single, _ = paper_pair
        resp = single.execute({"op": "shards", "dataset": "paper"})
        assert resp["error"]["code"] == "unknown_op"

    def test_metrics_report_sharding(self, paper_pair):
        _, sharded = paper_pair
        sharded.execute({"op": "s_degree", "dataset": "paper", "s": 1, "v": 0})
        m = sharded.metrics()
        assert m["sharding"] == {"num_shards": 3}

    def test_cache_builds_count_as_scatters(self, paper_pair):
        _, sharded = paper_pair
        sharded.execute({"op": "s_info", "dataset": "paper", "s": 1})
        snap = sharded.obs_metrics.snapshot()
        scatters = [
            s for s in snap if s["name"] == "service_shard_scatters_total"
        ]
        assert scatters and sum(s["value"] for s in scatters) >= 1
