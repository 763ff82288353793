"""The CSR row splice equals a from-scratch build, by value.

Property tests (hypothesis): chains of mixed mutation batches — edges
and incidences added and removed, new hypernodes included — are folded
into a cached ``L_s`` by :func:`~repro.dynamic.incremental
.patch_slinegraph`, on both sides (hyperedges, and hypernodes through
the overlay's dual view).  After every batch the spliced ``graph`` must
equal the symmetric CSR of a fresh build array for array (``indptr``,
``indices``, ``weights``, dtypes included); its ``edgelist`` view must
equal the canonical list :func:`~repro.linegraph.common.finalize_edges`
emits, and each ``derive(s')`` must equal a fresh build at ``s'``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.slinegraph import SLineGraph
from repro.dynamic import DynamicHypergraph, patch_slinegraph
from repro.linegraph import to_two_graph

MAX_NODES = 12
#: add_incidence may name hypernodes past the initial space
NODE_SPACE = MAX_NODES + 3

member_lists = st.lists(
    st.integers(0, MAX_NODES - 1), min_size=1, max_size=5, unique=True
)

#: (kind, edge selector, node selector, members for add_edge)
record = st.tuples(
    st.integers(0, 3),
    st.integers(0, 10_000),
    st.integers(0, 10_000),
    st.lists(st.integers(0, NODE_SPACE - 1), min_size=1, max_size=4,
             unique=True),
)


def interpret(shadow: list[set], kind, a, b, members) -> dict:
    """One applicable wire record; ``shadow`` tracks the batch so far."""
    live = [e for e, m in enumerate(shadow) if m]
    if kind == 1 and live:
        e = live[a % len(live)]
        shadow[e] = set()
        return {"op": "remove_edge", "edge": e}
    if kind == 2 and shadow:
        e, v = a % len(shadow), b % NODE_SPACE
        shadow[e].add(v)
        return {"op": "add_incidence", "edge": e, "node": v}
    if kind == 3 and live:
        e = live[a % len(live)]
        v = sorted(shadow[e])[b % len(shadow[e])]
        shadow[e].discard(v)
        return {"op": "remove_incidence", "edge": e, "node": v}
    shadow.append(set(members))
    return {"op": "add_edge", "members": members}


def fresh(dyn, s: int, over_edges: bool) -> SLineGraph:
    """``L_s`` of the current state, counted from scratch."""
    bi = dyn.snapshot().biadjacency
    return SLineGraph(
        to_two_graph(bi if over_edges else bi.dual(), s), s, over_edges
    )


def assert_same_csr(got, want, context) -> None:
    for name in ("indptr", "indices", "weights"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, (name, context)
        assert np.array_equal(a, b), (name, context)
    assert got.num_targets() == want.num_targets(), context


@settings(max_examples=60, deadline=None)
@given(
    st.lists(member_lists, min_size=2, max_size=12),
    st.lists(st.lists(record, min_size=1, max_size=6), min_size=1,
             max_size=4),
    st.integers(1, 3),
    st.booleans(),
)
def test_splice_equals_rebuild_over_batch_chains(
    members, chain, s, over_edges
):
    dyn = DynamicHypergraph.from_hyperedge_lists(members, num_nodes=MAX_NODES)
    shadow = [set(m) for m in members]
    lg = fresh(dyn, s, over_edges)
    for step, descriptors in enumerate(chain):
        res = dyn.apply([interpret(shadow, *d) for d in descriptors])
        lg = patch_slinegraph(
            lg,
            dyn.state if over_edges else dyn.state.dual(),
            res.dirty_edges if over_edges else res.dirty_nodes,
            threshold=1.0,  # always splice
        )
        assert lg is not None
        ref = fresh(dyn, s, over_edges)
        assert_same_csr(lg.graph, ref.graph, (step, s, over_edges))
        bi = dyn.snapshot().biadjacency
        assert lg.edgelist == to_two_graph(bi if over_edges else bi.dual(), s)
    for s2 in range(s, 4):
        assert_same_csr(
            lg.derive(s2).graph, fresh(dyn, s2, over_edges).graph, s2
        )


@settings(max_examples=40, deadline=None)
@given(st.lists(member_lists, min_size=2, max_size=15), st.integers(1, 3))
def test_edgelist_view_and_derive_match_fresh_builds(members, s):
    dyn = DynamicHypergraph.from_hyperedge_lists(members, num_nodes=MAX_NODES)
    bi = dyn.snapshot().biadjacency
    lg = fresh(dyn, s, True)
    view = lg.edgelist
    want = to_two_graph(bi, s)
    assert view == want
    assert view.src.dtype == view.dst.dtype == np.int64
    assert view.weights.dtype == np.float64
    assert lg.num_edges() == len(want)
    for s2 in range(s, 5):
        assert_same_csr(lg.derive(s2).graph, fresh(dyn, s2, True).graph, s2)
