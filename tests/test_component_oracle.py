"""s-connected components against an oracle that shares no code with them.

The oracle builds L_s by brute force — every pair of hyperedges, their
``frozenset`` overlap — and takes its components from networkx.  Every
way the library answers the query must agree with it, singletons on
and off: ``SLineGraph``, the engine's lazy path, the sharded engine's
merge path and ``LabeledHypergraph``.
"""

from __future__ import annotations

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hypergraph import NWHypergraph
from repro.core.labeled import LabeledHypergraph
from repro.service import QueryEngine, ShardedEngine

from .conftest import make_biedgelist

NUM_NODES = 12

hypergraphs = st.lists(
    st.frozensets(st.integers(0, NUM_NODES - 1), max_size=6), max_size=14
)


def oracle_components(members, s, singletons):
    """Components of the brute-force L_s: ascending members, ordered by
    smallest member, singletons only when asked for."""
    g = nx.Graph()
    g.add_nodes_from(range(len(members)))
    for i, j in itertools.combinations(range(len(members)), 2):
        if len(members[i] & members[j]) >= s:
            g.add_edge(i, j)
    comps = [
        sorted(c)
        for c in nx.connected_components(g)
        if len(c) > 1 or singletons
    ]
    return sorted(comps)


@pytest.fixture(scope="module")
def engines():
    single, sharded = QueryEngine(), ShardedEngine(num_shards=3)
    yield single, sharded
    single.close()
    sharded.close()


def check_all_paths(engines, members, name):
    single, sharded = engines
    el = make_biedgelist([sorted(mem) for mem in members], NUM_NODES)
    single.store.register(name, el)
    sharded.store.register(name, el)
    hg = NWHypergraph.from_hyperedge_lists(
        [sorted(mem) for mem in members], num_nodes=NUM_NODES
    )
    labeled = LabeledHypergraph(
        {e: sorted(mem) for e, mem in enumerate(members)}
    )
    for s in (1, 2, 3):
        for singletons in (False, True):
            expect = oracle_components(members, s, singletons)
            comps = hg.s_linegraph(s).s_connected_components(
                return_singletons=singletons
            )
            assert [c.tolist() for c in comps] == expect
            assert labeled.s_connected_components(s, singletons) == expect
            query = {
                "op": "s_connected_components", "dataset": name, "s": s,
                "return_singletons": singletons,
            }
            lazy = single.execute({**query, "materialize": "never"})
            assert lazy["via"] == "lazy"
            assert lazy["result"] == expect
            merged = sharded.execute(query)
            assert merged["via"] == "shard:merge"
            assert merged["result"] == expect


_names = itertools.count()


@settings(max_examples=40, deadline=None)
@given(members=hypergraphs)
def test_components_match_brute_force_oracle(engines, members):
    check_all_paths(engines, members, f"h{next(_names)}")


@pytest.mark.parametrize(
    "members",
    [
        [],
        [frozenset()],
        [frozenset({0, 1}), frozenset({2, 3}), frozenset({4})],
    ],
    ids=["no-hyperedges", "one-empty-hyperedge", "disjoint"],
)
def test_edgeless_line_graphs(engines, members):
    check_all_paths(engines, members, f"edgeless{next(_names)}")
