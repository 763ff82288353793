"""Bidirectional s-distance / s-path search against networkx.

``SLineGraph.s_distance`` and ``s_path`` stop where a search from each
end meets the other.  These cases pin the meeting rule on line graphs
whose pairs sit well past two neighbourhoods apart, on disconnected and
isolated vertices, and on the determinism of the returned path.
"""

import networkx as nx
import numpy as np
import pytest

from repro.core.hypergraph import NWHypergraph
from repro.core.slinegraph import SLineGraph
from repro.graph.bfs import bfs_bidirectional
from repro.structures.csr import CSR

from ..conftest import random_biedgelist


def chain_members(length: int, width: int, rng) -> list[list[int]]:
    """Hyperedges overlapping only their neighbours: long s-walks."""
    members = []
    for i in range(length):
        base = list(range(i * width, i * width + 2 * width))
        keep = rng.permutation(base)[: width + int(rng.integers(0, width))]
        members.append(sorted(set(keep.tolist()) | {i * width + width}))
    return members


def line_graphs():
    rng = np.random.default_rng(3)
    out = []
    for seed in range(4):
        el = random_biedgelist(seed=seed, num_edges=40, num_nodes=60,
                               max_size=4)
        hg = NWHypergraph(el.part0, el.part1, num_edges=40, num_nodes=60)
        out += [hg.s_linegraph(1), hg.s_linegraph(2)]
    for width in (1, 2, 3):
        members = chain_members(30, width, rng)
        # splice two chains together at a few rungs: many equal-length
        # routes, so ties have to be broken the same way every time
        members += [members[i] + members[i + 9] for i in (2, 11, 17)]
        # and a few hyperedges disjoint from everything (isolated)
        top = 1 + max(v for m in members for v in m)
        members += [[top + k] for k in range(3)]
        hg = NWHypergraph.from_hyperedge_lists(members)
        out += [hg.s_linegraph(1), hg.s_linegraph(2)]
    return out


CASES = line_graphs()


@pytest.fixture(params=range(len(CASES)))
def case(request):
    lg = CASES[request.param]
    return lg, lg.to_networkx()


def test_distances_match_networkx(case):
    lg, G = case
    lengths = dict(nx.all_pairs_shortest_path_length(G))
    for src in range(lg.num_vertices()):
        for dst in range(lg.num_vertices()):
            assert lg.s_distance(src, dst) == lengths[src].get(dst, -1)


def test_paths_are_shortest_walks(case):
    lg, G = case
    lengths = dict(nx.all_pairs_shortest_path_length(G))
    for src in range(lg.num_vertices()):
        for dst in range(lg.num_vertices()):
            path = lg.s_path(src, dst)
            want = lengths[src].get(dst)
            if want is None:
                assert path == []
                continue
            assert len(path) == want + 1 == lg.s_distance(src, dst) + 1
            assert path[0] == src and path[-1] == dst
            for a, b in zip(path, path[1:]):
                assert G.has_edge(a, b)


def test_long_distances_are_exercised():
    """The chains put pairs far past the two-neighbourhood meeting point."""
    far = 0
    for lg in CASES:
        G = lg.to_networkx()
        for src, row in nx.all_pairs_shortest_path_length(G):
            far += sum(1 for d in row.values() if d >= 3)
    assert far > 1000


def test_disconnected_isolated_and_self():
    lg = NWHypergraph.from_hyperedge_lists(
        [[0, 1], [1, 2], [5, 6], [6, 7], [9]]
    ).s_linegraph(1)
    assert lg.s_distance(0, 3) == -1 and lg.s_path(0, 3) == []
    assert lg.s_distance(4, 0) == -1 and lg.s_path(0, 4) == []
    assert lg.s_distance(4, 4) == 0 and lg.s_path(4, 4) == [4]
    assert lg.s_distance(2, 2) == 0 and lg.s_path(2, 2) == [2]
    assert lg.s_path(0, 1) == [0, 1] and lg.s_path(3, 2) == [3, 2]
    with pytest.raises(ValueError):
        lg.s_distance(0, 5)
    with pytest.raises(ValueError):
        lg.s_path(-1, 0)


def test_repeated_calls_return_identical_paths(case):
    lg, _ = case
    twin = SLineGraph(lg.edgelist, lg.s, lg.over_edges)
    n = lg.num_vertices()
    for src in range(0, n, 3):
        for dst in range(0, n, 2):
            first = lg.s_path(src, dst)
            assert lg.s_path(src, dst) == first
            assert twin.s_path(src, dst) == first


@pytest.mark.parametrize("n", [2, 5, 6, 17])
def test_even_and_odd_cycles(n):
    G = nx.cycle_graph(n)
    src = np.array([u for u, v in G.edges()] + [v for u, v in G.edges()])
    dst = np.array([v for u, v in G.edges()] + [u for u, v in G.edges()])
    g = CSR.from_coo(src, dst, num_sources=n, num_targets=n)
    for a in range(n):
        for b in range(n):
            path = bfs_bidirectional(g, a, b)
            assert len(path) == nx.shortest_path_length(G, a, b) + 1
            assert all(G.has_edge(u, v) for u, v in zip(path, path[1:]))
