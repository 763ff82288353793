"""The row-splice patch equals re-canonicalizing the whole patched list.

Property tests (hypothesis): ``patch_linegraph`` keeps the clean rows
of the symmetric CSR in place and splices the recounted pairs in
(:func:`~repro.dynamic.incremental.splice_rows`); the upper view of the
result must equal :func:`finalize_edges` over the concatenation — the
re-sorting formulation — array for array, dtypes included, for random
mutation batches whose dirty hyperedges overlap each other (so the
recount holds dirty–dirty pairs in both orientations).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.slinegraph import SLineGraph
from repro.dynamic import DynamicHypergraph, patch_linegraph
from repro.dynamic.incremental import delta_pair_counts, splice_rows
from repro.linegraph.common import finalize_edges
from repro.structures.edgelist import EdgeList

MAX_NODES = 30

member_lists = st.lists(
    st.integers(0, MAX_NODES - 1), min_size=1, max_size=6, unique=True
)


def resorted(old: EdgeList, state, dirty, s: int) -> EdgeList:
    """The patch as one ``finalize_edges`` over old-clean + recounted."""
    d = np.asarray(sorted(dirty), dtype=np.int64)
    clean = ~(np.isin(old.src, d) | np.isin(old.dst, d))
    src, dst, counts, _ = delta_pair_counts(state, d)
    live = counts >= s
    return finalize_edges(
        np.concatenate([old.src[clean], src[live]]),
        np.concatenate([old.dst[clean], dst[live]]),
        np.concatenate([old.weights[clean].astype(np.int64), counts[live]]),
        int(state.num_edges()),
    )


def assert_identical(got: EdgeList, want: EdgeList) -> None:
    assert got.num_vertices() == want.num_vertices()
    for a, b in ((got.src, want.src), (got.dst, want.dst)):
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)
    assert got.weights.dtype == want.weights.dtype == np.float64
    assert np.array_equal(got.weights, want.weights)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(member_lists, min_size=2, max_size=25),
    st.lists(member_lists, min_size=0, max_size=5),
    st.sets(st.integers(0, 24), max_size=4),
    st.integers(1, 3),
    st.booleans(),
)
def test_patch_equals_finalize_over_concatenation(
    members, added, removed, s, over_edges
):
    dyn = DynamicHypergraph.from_hyperedge_lists(members, num_nodes=MAX_NODES)
    old = dyn.snapshot().s_linegraph(s, over_edges=over_edges).edgelist
    batch = [{"op": "add_edge", "members": m} for m in added]
    batch += [
        {"op": "remove_edge", "edge": e} for e in sorted(removed)
        if e < len(members)
    ]
    if not batch:
        batch = [{"op": "add_edge", "members": members[0]}]
    res = dyn.apply(batch)
    state = dyn.state if over_edges else dyn.state.dual()
    dirty = res.dirty_edges if over_edges else res.dirty_nodes
    got = patch_linegraph(old, state, dirty, s)
    assert_identical(got, resorted(old, state, dirty, s))
    # and the patch is the from-scratch graph of the new state
    ref = dyn.snapshot().s_linegraph(s, over_edges=over_edges).edgelist
    assert np.array_equal(got.src, ref.src)
    assert np.array_equal(got.dst, ref.dst)
    assert np.array_equal(got.weights, ref.weights)


@st.composite
def synthetic_deltas(draw):
    """A canonical old list, a dirty set and a raw recount against it."""
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = int(rng.integers(0, 4 * n))
    old = finalize_edges(
        rng.integers(0, n, m), rng.integers(0, n, m),
        rng.integers(1, 9, m), n,
    )
    dirty = np.unique(rng.integers(0, n, int(rng.integers(1, 12))))
    # recounted pairs: a dirty source, any partner; dirty–dirty pairs are
    # emitted in both orientations with the same count, as the counting
    # step does
    k = int(rng.integers(0, 6 * n))
    src = rng.choice(dirty, k)
    dst = rng.integers(0, n, k)
    both = np.isin(dst, dirty) & (rng.random(k) < 0.5)
    src, dst = (
        np.concatenate([src, dst[both]]), np.concatenate([dst, src[both]])
    )
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    counts = (lo * 7 + hi * 3) % 5 + 1  # a function of the pair
    return old, dirty, src, dst, counts.astype(np.int64), n


@settings(max_examples=150, deadline=None)
@given(synthetic_deltas())
def test_merge_equals_finalize_on_synthetic_deltas(case):
    old, dirty, src, dst, counts, n = case
    clean = ~(np.isin(old.src, dirty) | np.isin(old.dst, dirty))
    graph = splice_rows(
        SLineGraph(old, 1).graph, dirty, finalize_edges(src, dst, counts, n)
    )
    got = SLineGraph.from_csr(graph, 1).edgelist
    want = finalize_edges(
        np.concatenate([old.src[clean], src]),
        np.concatenate([old.dst[clean], dst]),
        np.concatenate([old.weights[clean].astype(np.int64), counts]),
        n,
    )
    assert_identical(got, want)
