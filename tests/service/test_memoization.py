"""NWHypergraph.s_linegraph instance memo, its s-monotone derive, and
invalidate()."""

import numpy as np
import pytest

from repro.core.hypergraph import NWHypergraph
from repro.core.slinegraph import SLineGraph
from repro.obs import MetricsRegistry, Tracer
from repro.parallel.runtime import ParallelRuntime

from ..conftest import PAPER_MEMBERS, make_biedgelist, random_biedgelist


@pytest.fixture
def hg():
    el = make_biedgelist(PAPER_MEMBERS, num_nodes=9)
    return NWHypergraph(el.part0, el.part1, num_edges=4, num_nodes=9)


class TestInstanceMemo:
    def test_repeat_calls_return_same_object(self, hg):
        assert hg.s_linegraph(2) is hg.s_linegraph(2)

    def test_distinct_parameters_get_distinct_entries(self, hg):
        lg_s2 = hg.s_linegraph(2)
        assert hg.s_linegraph(3) is not lg_s2
        assert hg.s_linegraph(2, over_edges=False) is not lg_s2
        assert hg.s_linegraph(2, algorithm="intersection") is not lg_s2
        assert hg.s_linegraph(2) is lg_s2  # originals still resident

    def test_runtime_calls_bypass_the_memo(self, hg):
        memoized = hg.s_linegraph(2)
        rt = ParallelRuntime(num_threads=2)
        timed = hg.s_linegraph(2, runtime=rt)
        assert timed is not memoized
        assert timed.edgelist == memoized.edgelist
        # and the bypass did not clobber the memo
        assert hg.s_linegraph(2) is memoized

    def test_invalidate_clears_the_memo(self, hg):
        before = hg.s_linegraph(2)
        hg.invalidate()
        after = hg.s_linegraph(2)
        assert after is not before
        assert after.edgelist == before.edgelist

    def test_dual_has_its_own_memo(self, hg):
        d = hg.dual()
        lg = d.s_linegraph(1)
        assert d.s_linegraph(1) is lg
        assert hg.s_linegraph(1) is not lg


def _random_hg(seed=5):
    el = random_biedgelist(seed=seed, num_edges=60, num_nodes=25,
                           max_size=9, min_size=2)
    return NWHypergraph(el.part0, el.part1, num_edges=60, num_nodes=25)


def _kernel_counts(reg):
    return [
        rec["value"] for rec in reg.snapshot()
        if rec["name"].startswith(("linegraph_kernel_", "dispatch_"))
    ]


class TestMemoDerive:
    @pytest.mark.parametrize("over_edges", [True, False])
    def test_derived_equals_a_fresh_count(self, over_edges):
        hg = _random_hg()
        hg.s_linegraph(2, over_edges=over_edges)
        got = hg.s_linegraph(4, over_edges=over_edges)
        want = _random_hg().s_linegraph(4, over_edges=over_edges)
        assert want.num_edges() > 0
        assert got.s == 4 and got.over_edges is over_edges
        for a, b in (
            (got.edgelist.src, want.edgelist.src),
            (got.edgelist.dst, want.edgelist.dst),
            (got.edgelist.weights, want.edgelist.weights),
            (got.graph.indptr, want.graph.indptr),
            (got.graph.indices, want.graph.indices),
            (got.graph.weights, want.graph.weights),
        ):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        assert got.num_vertices() == want.num_vertices()

    def test_derived_entry_is_memoised(self):
        hg = _random_hg()
        hg.s_linegraph(2)
        derived = hg.s_linegraph(4)
        assert hg.s_linegraph(4) is derived
        assert (4, True, "hashmap", False) in hg._slg_memo

    def test_derive_runs_no_counting(self):
        hg = _random_hg()
        hg.s_linegraph(2)
        reg, tr = MetricsRegistry(), Tracer()
        hg.s_linegraph(4, metrics=reg, tracer=tr)
        hg.s_linegraph(3, algorithm="intersection", metrics=reg, tracer=tr)
        assert all(v == 0 for v in _kernel_counts(reg))
        assert tr.spans == []
        # control: a fresh hypergraph does count
        fresh = MetricsRegistry()
        _random_hg().s_linegraph(4, metrics=fresh)
        assert sum(_kernel_counts(fresh)) > 0

    def test_derives_from_the_largest_smaller_s(self, monkeypatch):
        hg = _random_hg()
        hg.s_linegraph(1)
        mid = hg.s_linegraph(3, algorithm="intersection")
        base_s = []
        original = SLineGraph.derive

        def spy(self, s):
            base_s.append(self.s)
            return original(self, s)

        monkeypatch.setattr(SLineGraph, "derive", spy)
        hg.s_linegraph(5)
        assert base_s == [3]
        assert mid is hg.s_linegraph(3, algorithm="intersection")

    def test_unknown_algorithm_still_raises(self):
        hg = _random_hg()
        hg.s_linegraph(2)
        with pytest.raises(ValueError, match="unknown algorithm"):
            hg.s_linegraph(4, algorithm="bogus")

    def test_weighted_keys_neither_derive_nor_feed_a_derive(self):
        hg = _random_hg()
        weighted = NWHypergraph(
            hg.row, hg.col, np.linspace(0.5, 2.0, hg.row.size),
            num_edges=60, num_nodes=25,
        )
        reg = MetricsRegistry()
        weighted.s_linegraph(2, weighted=True)
        weighted.s_linegraph(4, metrics=reg)  # no unweighted base: counts
        assert sum(_kernel_counts(reg)) > 0
        reg = MetricsRegistry()
        weighted.s_linegraph(5, weighted=True, metrics=reg)  # never derives
        assert sum(_kernel_counts(reg)) > 0
        want = _random_hg().s_linegraph(4).edgelist
        assert weighted.s_linegraph(4).edgelist == want

    def test_runtime_calls_still_count(self):
        hg = _random_hg()
        hg.s_linegraph(2)
        reg, tr = MetricsRegistry(), Tracer()
        rt = ParallelRuntime(num_threads=2)
        timed = hg.s_linegraph(4, runtime=rt, metrics=reg, tracer=tr)
        assert rt.makespan > 0
        assert sum(_kernel_counts(reg)) > 0
        assert tr.spans
        assert (4, True, "hashmap", False) not in hg._slg_memo
        assert timed.edgelist == hg.s_linegraph(4).edgelist

    def test_invalidate_drops_derived_entries(self):
        hg = _random_hg()
        hg.s_linegraph(2)
        derived = hg.s_linegraph(4)
        hg.invalidate()
        assert hg._slg_memo == {}
        rebuilt = hg.s_linegraph(4)
        assert rebuilt is not derived
        assert rebuilt.edgelist == derived.edgelist

    def test_refresh_treats_derived_entries_like_built_ones(self):
        hg = _random_hg()
        hg.s_linegraph(2)
        hg.s_linegraph(4)
        out = hg.refresh_linegraphs([3], threshold=0.5)
        assert out == {
            (2, True, "hashmap", False): "patch",
            (4, True, "hashmap", False): "patch",
        }
        assert hg.s_linegraph(4).edgelist == _random_hg().s_linegraph(4).edgelist
        out = hg.refresh_linegraphs(range(60), threshold=0.1)
        assert set(out.values()) == {"rebuild"}
        assert hg._slg_memo == {}
