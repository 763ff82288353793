"""Instrumentation must never change results.

Every builder and traversal accepts ``tracer=``/``metrics=``; attaching
live instruments (or none at all) must produce bit-identical outputs.
"""

from __future__ import annotations

import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hypergraph import NWHypergraph
from repro.linegraph import ALGORITHMS, to_two_graph
from repro.obs import MetricsRegistry, Tracer
from repro.parallel.runtime import ParallelRuntime
from repro.structures.biadjacency import BiAdjacency
from repro.testing import random_hypergraph

INSTRUMENTED = sorted(set(ALGORITHMS) - {"matrix", "threaded"})


def make_h(seed: int, num_edges: int = 24, num_nodes: int = 32) -> BiAdjacency:
    return BiAdjacency.from_biedgelist(
        random_hypergraph(seed=seed, num_edges=num_edges, num_nodes=num_nodes)
    )


def edge_tuple(g) -> tuple:
    return (
        g.src.tolist(),
        g.dst.tolist(),
        None if g.weights is None else g.weights.tolist(),
    )


class TestBuilderNeutrality:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_live_instruments_do_not_change_output(self, algorithm, s):
        h = make_h(seed=7)
        bare = to_two_graph(h, s=s, algorithm=algorithm)
        tracer, metrics = Tracer(), MetricsRegistry()
        traced = to_two_graph(
            h, s=s, algorithm=algorithm, tracer=tracer, metrics=metrics
        )
        assert edge_tuple(bare) == edge_tuple(traced)

    @pytest.mark.parametrize("algorithm", INSTRUMENTED)
    def test_runtime_plus_instruments_neutral(self, algorithm):
        h = make_h(seed=11)
        bare = to_two_graph(h, s=2, algorithm=algorithm)
        rt = ParallelRuntime(num_threads=4, tracer=Tracer())
        traced = to_two_graph(
            h, s=2, algorithm=algorithm, runtime=rt,
            tracer=Tracer(), metrics=MetricsRegistry(),
        )
        assert edge_tuple(bare) == edge_tuple(traced)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        s=st.integers(min_value=1, max_value=4),
    )
    def test_property_hashmap_vs_traced(self, seed, s):
        h = make_h(seed=seed)
        bare = to_two_graph(h, s=s, algorithm="hashmap")
        traced = to_two_graph(
            h, s=s, algorithm="hashmap",
            tracer=Tracer(), metrics=MetricsRegistry(),
        )
        assert edge_tuple(bare) == edge_tuple(traced)

    def test_counters_are_consistent(self):
        h = make_h(seed=5)
        metrics = MetricsRegistry()
        to_two_graph(h, s=2, algorithm="hashmap", metrics=metrics)
        values = {
            (inst["name"], dict(inst["labels"])["algorithm"]): inst["value"]
            for inst in metrics.snapshot()
            if "algorithm" in dict(inst["labels"])
        }
        cand = values[("slinegraph_candidate_pairs_total", "hashmap")]
        pruned = values[("slinegraph_pruned_pairs_total", "hashmap")]
        emitted = values[("slinegraph_emitted_pairs_total", "hashmap")]
        assert cand == pruned + emitted
        assert emitted > 0

    def test_uniform_kernel_counters(self):
        """Every build emits the linegraph_kernel_* trio per family used."""
        h = make_h(seed=5)
        metrics = MetricsRegistry()
        to_two_graph(h, s=2, algorithm="hashmap", metrics=metrics)
        by_kernel = {}
        for inst in metrics.snapshot():
            labels = dict(inst["labels"])
            if "kernel" in labels:
                by_kernel.setdefault(labels["kernel"], {})[inst["name"]] = (
                    inst["value"]
                )
        families = set(by_kernel) - {"dispatch"}
        assert families, by_kernel
        for fam in families:
            trio = by_kernel[fam]
            assert trio["linegraph_kernel_tasks_total"] > 0
            assert (
                trio["linegraph_kernel_candidates_total"]
                >= trio["linegraph_kernel_emitted_total"]
            )


class TestTraversalNeutrality:
    @pytest.mark.parametrize("representation", ["adjoin", "bipartite"])
    def test_connected_components(self, representation):
        bel = random_hypergraph(seed=9, num_edges=24, num_nodes=32)
        bare = NWHypergraph(bel.part0, bel.part1).connected_components(
            representation=representation
        )
        traced = NWHypergraph(bel.part0, bel.part1).connected_components(
            representation=representation,
            tracer=Tracer(), metrics=MetricsRegistry(),
        )
        for a, b in zip(bare, traced):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("representation", ["adjoin", "bipartite"])
    def test_bfs(self, representation):
        bel = random_hypergraph(seed=9, num_edges=24, num_nodes=32)
        bare = NWHypergraph(bel.part0, bel.part1).bfs(
            0, representation=representation
        )
        traced = NWHypergraph(bel.part0, bel.part1).bfs(
            0, representation=representation,
            tracer=Tracer(), metrics=MetricsRegistry(),
        )
        for a, b in zip(bare, traced):
            np.testing.assert_array_equal(a, b)

    def test_traversals_emit_spans_and_counters(self):
        bel = random_hypergraph(seed=9, num_edges=24, num_nodes=32)
        tracer, metrics = Tracer(), MetricsRegistry()
        hg = NWHypergraph(bel.part0, bel.part1)
        hg.connected_components(tracer=tracer, metrics=metrics)
        hg.bfs(0, tracer=tracer, metrics=metrics)
        names = {s.name for s in tracer.spans}
        assert any(n.startswith("cc.") for n in names)
        assert any(n.startswith("bfs.") for n in names)
        counters = {
            inst["name"] for inst in metrics.snapshot()
            if inst["kind"] == "counter"
        }
        assert "traversal_runs_total" in counters


class TestDeprecationShim:
    def test_over_edges_does_not_warn(self):
        bel = random_hypergraph(seed=2, num_edges=20, num_nodes=24)
        hg = NWHypergraph(bel.part0, bel.part1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hg.s_linegraph(2, over_edges=True)


class TestNoOpOverhead:
    def test_null_instruments_cost_little(self):
        """Default (null) instruments should not visibly slow builders.

        Deliberately lenient (3x) — this is a smoke test against
        accidental real work on the no-op path, not a benchmark.
        """
        h = make_h(seed=13, num_edges=60, num_nodes=80)
        for _ in range(3):  # warm caches / JIT-ish effects
            to_two_graph(h, s=2, algorithm="hashmap")

        def timed(**kw) -> float:
            best = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                to_two_graph(h, s=2, algorithm="hashmap", **kw)
                best = min(best, time.perf_counter() - t0)
            return best

        bare = timed()
        nulled = timed(tracer=None, metrics=None)
        assert nulled <= bare * 3 + 0.01
