"""QueryEngine: op dispatch, batches on the runtime, lazy fallbacks."""

import numpy as np
import pytest

from repro.parallel.runtime import ParallelRuntime
from repro.service import QueryEngine, ShardedEngine, SLineGraphCache
from repro.service.store import HypergraphStore

from ..conftest import PAPER_MEMBERS, PAPER_OVERLAPS, make_biedgelist, random_biedgelist


@pytest.fixture
def engine():
    eng = QueryEngine()
    eng.store.register("paper", make_biedgelist(PAPER_MEMBERS, num_nodes=9))
    return eng


def ok(resp):
    assert resp["ok"], resp
    return resp["result"]


class TestSMetricOps:
    def test_s_neighbors_match_hand_derived_overlaps(self, engine):
        for s in (1, 2, 3):
            expect = sorted(
                {j for i, j, ov in PAPER_OVERLAPS if i == 0 and ov >= s}
                | {i for i, j, ov in PAPER_OVERLAPS if j == 0 and ov >= s}
            )
            got = ok(engine.execute(
                {"op": "s_neighbors", "dataset": "paper", "s": s, "v": 0}
            ))
            assert got == expect

    def test_s_distance_and_path(self, engine):
        resp = engine.execute(
            {"op": "s_distance", "dataset": "paper", "s": 2, "src": 0, "dst": 2}
        )
        assert ok(resp) == 2  # 0-1-2 via overlaps >= 2
        path = ok(engine.execute(
            {"op": "s_path", "dataset": "paper", "s": 2, "src": 0, "dst": 2}
        ))
        assert path[0] == 0 and path[-1] == 2 and len(path) == 3

    def test_component_ops(self, engine):
        comps = ok(engine.execute(
            {"op": "s_connected_components", "dataset": "paper", "s": 3}
        ))
        assert comps == [[0, 3]]
        assert ok(engine.execute(
            {"op": "is_s_connected", "dataset": "paper", "s": 1}
        )) is True
        assert ok(engine.execute(
            {"op": "s_diameter", "dataset": "paper", "s": 2}
        )) == 2

    def test_vector_valued_ops_are_json_lists(self, engine):
        for op in ("s_betweenness_centrality", "s_pagerank", "s_core_number",
                   "s_eccentricity"):
            result = ok(engine.execute({"op": op, "dataset": "paper", "s": 1}))
            assert isinstance(result, list) and len(result) == 4
            assert all(not isinstance(x, np.generic) for x in result)

    def test_scalar_centrality_query(self, engine):
        v0 = ok(engine.execute(
            {"op": "s_closeness_centrality", "dataset": "paper", "s": 1, "v": 0}
        ))
        assert isinstance(v0, float)

    def test_s_sssp_and_mis(self, engine):
        dist = ok(engine.execute(
            {"op": "s_sssp", "dataset": "paper", "s": 1, "src": 0}
        ))
        assert dist == [0, 1, 1, 1]
        mis = ok(engine.execute(
            {"op": "s_maximal_independent_set", "dataset": "paper", "s": 3}
        ))
        assert len(mis) >= 1

    def test_s_info_reports_structure(self, engine):
        info = ok(engine.execute({"op": "s_info", "dataset": "paper", "s": 3}))
        assert info["num_vertices"] == 4
        assert info["num_edges"] == 1
        assert info["num_isolated"] == 2
        assert info["bytes"] > 0

    def test_clique_side_via_over_edges_false(self, engine):
        info = ok(engine.execute(
            {"op": "s_info", "dataset": "paper", "s": 1, "over_edges": False}
        ))
        assert info["num_vertices"] == 9  # hypernode space


class TestHypergraphOps:
    def test_stats(self, engine):
        card = ok(engine.execute({"op": "stats", "dataset": "paper"}))
        assert card["num_edges"] == 4
        assert card["edge_size_dist"] == {3: 2, 4: 1, 6: 1}

    def test_toplexes(self, engine):
        tops = ok(engine.execute({"op": "toplexes", "dataset": "paper"}))
        assert tops == [1, 2, 3]

    def test_s_metrics_report(self, engine):
        reports = ok(engine.execute(
            {"op": "s_metrics", "dataset": "paper", "s_values": [1, 2]}
        ))
        assert set(reports) == {1, 2}
        assert reports[1]["num_edges"] == 6


class TestSessionOps:
    def test_register_datasets_invalidate_metrics(self, engine):
        got = ok(engine.execute(
            {"op": "register", "name": "r", "source": "rand1"}
        ))
        assert got["num_edges"] == 5000
        assert ok(engine.execute({"op": "datasets"})) == ["paper", "r"]
        engine.execute({"op": "s_info", "dataset": "paper", "s": 1})
        dropped = ok(engine.execute({"op": "invalidate"}))
        assert dropped["dropped"] >= 1
        metrics = ok(engine.execute({"op": "metrics"}))
        assert metrics["cache"]["entries"] == 0
        assert metrics["ops"]["s_info"]["count"] == 1
        assert metrics["ops"]["s_info"]["mean_ms"] >= 0.0

    def test_warm_rides_the_derive_path(self, engine):
        served = ok(engine.execute(
            {"op": "warm", "dataset": "paper", "s_values": [3, 1, 2]}
        ))
        assert served == {1: "miss", 2: "derive", 3: "derive"}


class TestErrors:
    def test_unknown_op(self, engine):
        resp = engine.execute({"op": "frobnicate"})
        assert not resp["ok"] and "unknown op" in resp["error"]["message"]
        assert resp["error"]["code"] == "unknown_op"
        # the pre-v1 free-form compat string is gone in v2
        assert "error_str" not in resp

    def test_missing_field(self, engine):
        resp = engine.execute({"op": "s_distance", "dataset": "paper", "src": 0})
        assert not resp["ok"] and "'dst'" in resp["error"]["message"]
        assert resp["error"]["code"] == "missing_field"

    def test_unknown_dataset(self, engine):
        resp = engine.execute({"op": "stats", "dataset": "nope"})
        assert not resp["ok"] and "registered" in resp["error"]["message"]
        assert resp["error"]["code"] == "unknown_dataset"

    def test_non_dict_query(self, engine):
        resp = engine.execute("not a dict")
        assert not resp["ok"]

    def test_missing_op_field(self, engine):
        resp = engine.execute({"dataset": "paper"})
        assert not resp["ok"] and "op" in resp["error"]["message"]

    def test_out_of_range_vertex(self, engine):
        resp = engine.execute(
            {"op": "s_distance", "dataset": "paper", "src": 0, "dst": 99}
        )
        assert not resp["ok"] and "out of range" in resp["error"]["message"]
        assert resp["error"]["code"] == "invalid_argument"

    @pytest.mark.parametrize("op", ["s_degree", "s_neighbors"])
    @pytest.mark.parametrize("v", [99, 3, -1])
    @pytest.mark.parametrize("path", ["cached", "lazy", "sharded"])
    @pytest.mark.parametrize("over_edges", [True, False])
    def test_point_lookup_vertex_out_of_range(self, op, v, path, over_edges):
        # 3 hyperedges over 4 hypernodes: v=3 is valid only node-side
        el = make_biedgelist([[0, 1], [1, 2], [2, 3]], num_nodes=4)
        eng = ShardedEngine(num_shards=2) if path == "sharded" else QueryEngine()
        eng.store.register("tiny", el)
        q = {"op": op, "dataset": "tiny", "s": 1, "v": v,
             "over_edges": over_edges}
        if path == "cached":
            eng.execute({"op": "warm", "dataset": "tiny", "s_values": [1],
                         "over_edges": over_edges})
        if path == "lazy":
            q["materialize"] = "never"
        resp = eng.execute(q)
        if v == 3 and not over_edges:
            # hypernode 3 shares hyperedge 2 with hypernode 2 only
            assert resp["ok"], resp
            assert resp["result"] == (1 if op == "s_degree" else [2])
            assert resp["via"] == {"cached": "cache:hit", "lazy": "lazy",
                                   "sharded": "shard:route"}[path]
            return
        assert not resp["ok"], resp
        assert resp["error"]["code"] == "invalid_argument"
        assert "out of range" in resp["error"]["message"]

    def test_errors_counted_in_metrics(self, engine):
        engine.execute({"op": "frobnicate"})
        assert engine.metrics()["ops"]["frobnicate"]["errors"] == 1


class TestBatches:
    def queries(self):
        qs = [
            {"op": "s_distance", "dataset": "paper", "s": s, "src": 0, "dst": d}
            for s in (1, 2, 3)
            for d in (1, 2, 3)
        ]
        qs.append({"op": "bogus"})
        qs.append({"op": "s_diameter", "dataset": "paper", "s": 2})
        return qs

    def test_batch_preserves_input_order(self, engine):
        qs = self.queries()
        out = engine.execute_batch(qs)
        assert len(out) == len(qs)
        serial = [engine.execute(q) for q in qs]
        for got, want in zip(out, serial):
            assert got.get("result") == want.get("result")
            assert got["ok"] == want["ok"]

    def test_batch_results_independent_of_execution_order(self, engine):
        qs = self.queries()
        baseline = [r.get("result") for r in engine.execute_batch(qs)]
        for seed in (1, 2):
            rt = ParallelRuntime(
                num_threads=4, partitioner="cyclic",
                execution_order="shuffled", seed=seed,
            )
            shuffled = engine.execute_batch(qs, runtime=rt)
            assert [r.get("result") for r in shuffled] == baseline

    def test_batch_runs_on_the_runtime_ledger(self, engine):
        rt = ParallelRuntime(num_threads=4, partitioner="cyclic")
        engine.execute_batch(self.queries(), runtime=rt)
        assert rt.ledger.total_work >= len(self.queries())

    def test_empty_batch(self, engine):
        assert engine.execute_batch([]) == []

    def test_concurrent_batches_from_threads(self, engine):
        import threading

        results: dict[int, list] = {}

        def worker(tid):
            results[tid] = engine.execute_batch(self.queries())

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        baseline = [r.get("result") for r in engine.execute_batch(self.queries())]
        for tid in range(4):
            assert [r.get("result") for r in results[tid]] == baseline


class TestLazyFallback:
    """With zero budget the traversal ops answer lazily, same results."""

    def two_engines(self):
        el = random_biedgelist(seed=11, num_edges=25, num_nodes=20, max_size=6)
        rich = QueryEngine(cache=SLineGraphCache(budget_bytes=None))
        rich.store.register("d", el)
        tight = QueryEngine(cache=SLineGraphCache(budget_bytes=0))
        tight.store.register("d", el)
        return rich, tight

    @pytest.mark.parametrize("query", [
        {"op": "s_distance", "s": 2, "src": 0, "dst": 5},
        {"op": "s_neighbors", "s": 2, "v": 3},
        {"op": "s_degree", "s": 1, "v": 7},
        {"op": "s_connected_components", "s": 2},
        {"op": "is_s_connected", "s": 1},
    ])
    def test_lazy_equals_materialized(self, query):
        rich, tight = self.two_engines()
        q = dict(query, dataset="d")
        full = rich.execute(q)
        lazy = tight.execute(q)
        assert lazy["via"] == "lazy"
        assert full["via"].startswith("cache:")
        assert lazy["result"] == full["result"]
        assert tight.cache.stats.misses == 0  # nothing was built

    def test_materialize_never_forces_lazy(self, engine):
        resp = engine.execute(
            {"op": "s_distance", "dataset": "paper", "s": 2,
             "src": 0, "dst": 2, "materialize": "never"}
        )
        assert resp["via"] == "lazy" and resp["result"] == 2

    def test_materialize_always_overrides_tight_budget(self):
        _, tight = self.two_engines()
        resp = tight.execute(
            {"op": "s_distance", "dataset": "d", "s": 2,
             "src": 0, "dst": 5, "materialize": "always"}
        )
        assert resp["via"] == "cache:bypass"

    def test_cached_graph_preferred_over_lazy(self):
        rich, tight = self.two_engines()
        del rich
        # warm s=1 into... budget 0 admits nothing, so seed a budgetless one
        eng = QueryEngine(cache=SLineGraphCache(budget_bytes=None))
        eng.store.register("d", random_biedgelist(seed=11, num_edges=25,
                                                  num_nodes=20, max_size=6))
        eng.execute({"op": "warm", "dataset": "d", "s_values": [1]})
        resp = eng.execute(
            {"op": "s_distance", "dataset": "d", "s": 1, "src": 0, "dst": 5}
        )
        assert resp["via"] == "cache:hit"
