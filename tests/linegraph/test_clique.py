"""Clique-expansion / s-clique graph tests."""

import networkx as nx
import numpy as np
import pytest

from repro.linegraph import (
    PRESETS,
    clique_expansion,
    scliquegraph,
    slinegraph_matrix,
)
from repro.structures.biadjacency import BiAdjacency

from ..conftest import PAPER_MEMBERS, random_biedgelist


def test_identity_clique_expansion_is_1_line_of_dual(random_h):
    """Paper §II-D / §III-B.4: clique expansion == 1-line graph of H*."""
    assert clique_expansion(random_h) == slinegraph_matrix(random_h.dual(), 1)


def test_sclique_is_sline_of_dual(random_h):
    for s in (1, 2, 3):
        assert scliquegraph(random_h, s) == slinegraph_matrix(
            random_h.dual(), s
        )


def test_paper_example_clique_edges(paper_h):
    """Hand check: clique expansion = union of per-hyperedge cliques."""
    el = clique_expansion(paper_h)
    pairs = set(zip(el.src.tolist(), el.dst.tolist()))
    expect = set()
    for mem in PAPER_MEMBERS:
        for i, a in enumerate(mem):
            for b in mem[i + 1:]:
                expect.add((min(a, b), max(a, b)))
    assert pairs == expect


def test_paper_example_coocurrence_weights(paper_h):
    el = clique_expansion(paper_h)
    w = {
        (a, b): int(c)
        for a, b, c in zip(el.src.tolist(), el.dst.tolist(), el.weights)
    }
    # nodes 1,2 co-occur in e0, e1, e3
    assert w[(1, 2)] == 3
    assert w[(0, 1)] == 2
    assert w[(2, 3)] == 2
    assert w[(4, 5)] == 1


def test_blowup_size_quadratic_in_edge_size():
    """The §III-B.3 drawback: one size-k hyperedge -> k(k-1)/2 graph edges."""
    k = 30
    h = BiAdjacency.from_arrays([0] * k, list(range(k)))
    el = clique_expansion(h)
    assert el.num_edges() == k * (k - 1) // 2


def test_alternative_algorithm_backend(random_h):
    ref = clique_expansion(random_h)
    alt = clique_expansion(random_h, algorithm="queue_intersection")
    assert alt == ref


@pytest.mark.parametrize("name", sorted(PRESETS) + ["auto"])
def test_every_preset_builds_the_sline_of_the_dual(random_h, name):
    """Any preset name selects the builder; all agree with the oracle."""
    expect = {s: slinegraph_matrix(random_h.dual(), s) for s in (1, 2, 3)}
    if name in PRESETS and PRESETS[name].ensemble:
        assert scliquegraph(random_h, [1, 2, 3], algorithm=name) == expect
        return
    for s in (1, 2, 3):
        assert scliquegraph(random_h, s, algorithm=name) == expect[s]
    assert clique_expansion(random_h, algorithm=name) == expect[1]


def test_unknown_algorithm_rejected(random_h):
    with pytest.raises(ValueError, match="unknown algorithm"):
        scliquegraph(random_h, 1, algorithm="turbo")


def test_clique_expansion_connectivity_matches_hypergraph(random_h):
    """Node connectivity is preserved by clique expansion (info that IS
    retained, unlike inclusion structure)."""
    el = clique_expansion(random_h)
    G = nx.Graph()
    G.add_nodes_from(range(random_h.num_hypernodes()))
    G.add_edges_from(zip(el.src.tolist(), el.dst.tolist()))
    from repro.algorithms.hypercc import hypercc

    _, node_labels = hypercc(random_h)
    expect = {
        frozenset(c) for c in nx.connected_components(G)
    }
    groups: dict[int, set] = {}
    for v, lab in enumerate(node_labels.tolist()):
        groups.setdefault(lab, set()).add(v)
    assert {frozenset(g) for g in groups.values()} == expect
