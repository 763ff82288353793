"""Connected-components tests: three engines vs networkx and each other."""

import networkx as nx
import numpy as np
import pytest

from repro.graph.cc import (
    cc_afforest,
    cc_label_propagation,
    cc_shiloach_vishkin,
    compress_labels,
    connected_components,
    group_components,
)
from repro.parallel.runtime import ParallelRuntime
from repro.structures.csr import CSR

ENGINES = ["label_propagation", "shiloach_vishkin", "afforest"]


def to_csr(G: nx.Graph, n: int) -> CSR:
    if G.number_of_edges() == 0:
        return CSR.empty(n, num_targets=n)
    src = np.array([u for u, v in G.edges()] + [v for u, v in G.edges()])
    dst = np.array([v for u, v in G.edges()] + [u for u, v in G.edges()])
    return CSR.from_coo(src, dst, num_sources=n, num_targets=n)


def partition_of(labels: np.ndarray) -> set[frozenset]:
    groups: dict[int, set] = {}
    for v, lab in enumerate(labels.tolist()):
        groups.setdefault(lab, set()).add(v)
    return {frozenset(g) for g in groups.values()}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_matches_networkx(engine, seed):
    G = nx.gnm_random_graph(100, 130, seed=seed)  # sparse -> many comps
    labels = connected_components(to_csr(G, 100), engine)
    assert partition_of(labels) == {
        frozenset(c) for c in nx.connected_components(G)
    }


@pytest.mark.parametrize("engine", ENGINES)
def test_canonical_min_labels(engine):
    G = nx.gnm_random_graph(60, 50, seed=9)
    labels = connected_components(to_csr(G, 60), engine)
    for v, lab in enumerate(labels.tolist()):
        assert lab <= v  # label is the min ID in the component
        assert labels[lab] == lab


def test_engines_agree_exactly():
    G = nx.gnm_random_graph(120, 150, seed=4)
    g = to_csr(G, 120)
    results = [connected_components(g, e) for e in ENGINES]
    assert all(np.array_equal(results[0], r) for r in results[1:])


@pytest.mark.parametrize("engine", ENGINES)
def test_no_edges(engine):
    labels = connected_components(CSR.empty(5, num_targets=5), engine)
    assert labels.tolist() == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("engine", ENGINES)
def test_single_component(engine):
    G = nx.cycle_graph(30)
    labels = connected_components(to_csr(G, 30), engine)
    assert np.all(labels == 0)


def test_unknown_engine():
    with pytest.raises(ValueError, match="unknown CC"):
        connected_components(CSR.empty(1), "quantum")


@pytest.mark.parametrize("engine", ENGINES)
def test_runtime_does_not_change_labels(engine):
    G = nx.gnm_random_graph(80, 100, seed=2)
    g = to_csr(G, 80)
    ref = connected_components(g, engine)
    rt = ParallelRuntime(num_threads=8, execution_order="shuffled", seed=1)
    got = connected_components(g, engine, runtime=rt)
    assert np.array_equal(ref, got)


def test_afforest_skips_giant_component_work():
    """Afforest's phase 3 should process far fewer vertices than n when a
    giant component dominates."""
    G = nx.connected_watts_strogatz_graph(500, 6, 0.1, seed=1)
    g = to_csr(G, 500)
    rt = ParallelRuntime(num_threads=1)
    cc_afforest(g, runtime=rt)
    finish = [p for p in rt.ledger.phases if p.name == "afforest_finish"]
    sample = [p for p in rt.ledger.phases if p.name.startswith("afforest_sample")]
    assert sample, "sampling phases missing"
    # giant component found by sampling -> finish phase empty or tiny
    finish_work = sum(p.total_work for p in finish)
    assert finish_work < g.num_edges() / 4


def test_compress_labels():
    out = compress_labels(np.array([7, 7, 3, 9, 3]))
    assert out.tolist() == [1, 1, 0, 2, 0]


def test_lp_equals_afforest_on_two_cliques():
    G = nx.disjoint_union(nx.complete_graph(10), nx.complete_graph(10))
    g = to_csr(G, 20)
    assert np.array_equal(cc_label_propagation(g), cc_afforest(g))
    assert np.array_equal(cc_label_propagation(g), cc_shiloach_vishkin(g))


def test_group_components_any_labeling():
    """Groups follow smallest member, not label value; members ascend."""
    labels = np.array([9, 3, 9, 3, 1, 7, 9])
    comps = group_components(labels)
    assert [c.tolist() for c in comps] == [[0, 2, 6], [1, 3]]
    assert all(c.dtype == np.int64 for c in comps)
    comps = group_components(labels, return_singletons=True)
    assert [c.tolist() for c in comps] == [[0, 2, 6], [1, 3], [4], [5]]
    assert group_components(np.empty(0, dtype=np.int64), True) == []
