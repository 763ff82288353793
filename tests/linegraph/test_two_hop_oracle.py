"""The two-hop overlap walk against a brute-force ``frozenset`` oracle.

The oracle shares no code with ``repro.linegraph`` or scipy: it
intersects Python sets pairwise.  It checks
:func:`~repro.linegraph.common.two_hop_pair_counts` for both
``upper_only`` values, on ids in any order and any subset, over the
bipartite input, its dual and the adjoin graph — on shapes that stress
the upper-slice start: empty hyperedges, singletons, identical
hyperedges and degree-1 members.  ``work`` is checked against the
paper's traversal count written out literally, every builder × kernel
against the oracle's line graph, and both key widths across the
``n² = 2³²`` boundary.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linegraph import ALGORITHMS, to_two_graph
from repro.linegraph.common import two_hop_pair_counts, two_hop_pair_weighted
from repro.linegraph.dispatch import KERNEL_NAMES
from repro.structures.adjoin import AdjoinGraph
from repro.structures.biadjacency import BiAdjacency
from repro.structures.csr import CSR
from repro.structures.edgelist import BiEdgeList

from ..conftest import make_biedgelist

NUM_NODES = 8


def oracle_pairs(sets, ids, upper_only):
    """``(e, f, |e ∩ f|)`` for every requested e and overlapping f."""
    out = []
    for e in sorted(ids):
        for f, members in enumerate(sets):
            if upper_only and f <= e:
                continue
            overlap = len(sets[e] & members)
            if overlap:
                out.append((e, f, overlap))
    return out


def oracle_work(sets, ids, upper_only):
    """``members + Σ deg(v)``, degree-1 members excluded when upper."""
    degree: dict[int, int] = {}
    for members in sets:
        for v in members:
            degree[v] = degree.get(v, 0) + 1
    work = 0
    for e in ids:
        for v in sets[e]:
            work += 1
            if degree[v] > 1 or not upper_only:
                work += degree[v]
    return work


def dual_sets(sets, num_nodes):
    return [
        frozenset(e for e, members in enumerate(sets) if v in members)
        for v in range(num_nodes)
    ]


def walk(edges, nodes, ids, upper_only):
    src, dst, cnt, work = two_hop_pair_counts(
        edges, nodes, np.asarray(ids, dtype=np.int64),
        upper_only=upper_only,
    )
    for col in (src, dst, cnt):
        assert col.dtype == np.int64
    return list(zip(src.tolist(), dst.tolist(), cnt.tolist())), work


def check_walk(edges, nodes, sets, ids, upper_only):
    got, work = walk(edges, nodes, ids, upper_only)
    assert got == oracle_pairs(sets, ids, upper_only)
    assert work == oracle_work(sets, ids, upper_only)


node_sets = st.lists(st.integers(0, NUM_NODES - 1), max_size=5, unique=True)


@st.composite
def awkward_hypergraphs(draw):
    """Random hyperedges plus copies, singletons and empties, shuffled.

    Members ``NUM_NODES + k`` are private to one hyperedge (degree 1).
    """
    members = draw(st.lists(node_sets, min_size=1, max_size=9))
    for m in list(members):
        if draw(st.booleans()):
            members.append(list(m))
    members += [[draw(st.integers(0, NUM_NODES - 1))]] * draw(
        st.integers(0, 2)
    )
    members += [[]] * draw(st.integers(0, 2))
    order = draw(st.permutations(range(len(members))))
    members = [members[i] for i in order]
    return [
        [*m, NUM_NODES + k] if draw(st.booleans()) else m
        for k, m in enumerate(members)
    ]


@st.composite
def hypergraph_and_ids(draw):
    members = draw(awkward_hypergraphs())
    everything = list(range(len(members)))
    ids = draw(
        st.one_of(
            st.permutations(everything),
            st.lists(st.sampled_from(everything), unique=True),
        )
    )
    return members, ids


def build(members):
    num_nodes = NUM_NODES + len(members)
    el = make_biedgelist(members, num_nodes=num_nodes)
    return el, [frozenset(m) for m in members], num_nodes


class TestWalk:
    @settings(max_examples=150, deadline=None)
    @given(case=hypergraph_and_ids(), upper_only=st.booleans())
    def test_biadjacency(self, case, upper_only):
        members, ids = case
        el, sets, _ = build(members)
        h = BiAdjacency.from_biedgelist(el)
        check_walk(h.edges, h.nodes, sets, ids, upper_only)

    @settings(max_examples=100, deadline=None)
    @given(case=hypergraph_and_ids(), upper_only=st.booleans())
    def test_adjoin(self, case, upper_only):
        members, ids = case
        el, sets, _ = build(members)
        g = AdjoinGraph.from_biedgelist(el).graph
        check_walk(g, g, sets, ids, upper_only)

    @settings(max_examples=100, deadline=None)
    @given(
        members=awkward_hypergraphs(),
        upper_only=st.booleans(),
        data=st.data(),
    )
    def test_dual(self, members, upper_only, data):
        el, sets, num_nodes = build(members)
        h = BiAdjacency.from_biedgelist(el).dual()
        ids = data.draw(st.permutations(range(num_nodes)))
        check_walk(
            h.edges, h.nodes, dual_sets(sets, num_nodes), ids, upper_only
        )


def oracle_linegraph(sets, s):
    return [
        (e, f, float(k))
        for e, f, k in oracle_pairs(sets, range(len(sets)), True)
        if k >= s
    ]


def builder_kernels():
    for algorithm in sorted(ALGORITHMS):
        if algorithm in ("matrix", "naive"):
            yield algorithm, None
        elif algorithm == "queue_intersection":
            yield algorithm, "intersection"
        else:
            for kernel in KERNEL_NAMES:
                yield algorithm, kernel


@settings(max_examples=25, deadline=None)
@given(members=awkward_hypergraphs())
def test_every_builder_and_kernel(members):
    el, sets, _ = build(members)
    h = BiAdjacency.from_biedgelist(el)
    for s in (1, 2, 3):
        want = oracle_linegraph(sets, s)
        for algorithm, kernel in builder_kernels():
            g = to_two_graph(h, s, algorithm=algorithm, kernel=kernel)
            got = list(
                zip(g.src.tolist(), g.dst.tolist(), g.weights.tolist())
            )
            assert got == want, (algorithm, kernel, s)


def top_heavy(num_hyperedges, shift=0):
    """``num_hyperedges`` rows, all empty but a few at the top IDs.

    The occupied rows sit at ``n - 1 - k`` so their packed keys
    ``e·n + f`` reach ``n² - 1`` — the largest key either width holds.
    """
    tail = [[0, 1, 2], [1, 2, 3], [0, 1, 2], [3], [2, 3, 4, 5], [1, 2]]
    members = [[] for _ in range(num_hyperedges)]
    for k, m in enumerate(tail):
        members[num_hyperedges - 1 - k - shift] = m
    return members


class TestKeyWidths:
    @pytest.mark.parametrize("num_hyperedges", [65_536, 65_537, 70_000])
    def test_top_ids_match_oracle(self, num_hyperedges):
        # 65,536 packs keys as uint32 right up to 2**32 - 1; the larger
        # two no longer fit and take the int64 keys
        members = top_heavy(num_hyperedges)
        el = make_biedgelist(members, num_nodes=6)
        h = BiAdjacency.from_biedgelist(el)
        sets = [frozenset(m) for m in members]
        ids = [e for e, m in enumerate(members) if m]
        for upper_only in (True, False):
            check_walk(h.edges, h.nodes, sets, ids, upper_only)

    def test_widths_agree(self):
        narrow = top_heavy(65_536)
        wide = top_heavy(65_537, shift=1)  # same rows, same IDs
        results = []
        for members in (narrow, wide):
            el = make_biedgelist(members, num_nodes=6)
            weights = np.linspace(0.1, 1.7, el.part0.size)
            h = BiAdjacency.from_biedgelist(BiEdgeList(
                el.part0, el.part1, weights, n0=len(members), n1=6
            ))
            ids = np.flatnonzero(h.edge_sizes())
            for upper_only in (True, False):
                results.append(walk(h.edges, h.nodes, ids, upper_only))
            src, dst, cnt, wgt = two_hop_pair_weighted(h.edges, h.nodes, ids)
            results.append((src.tolist(), dst.tolist(), cnt.tolist(),
                            wgt.tolist()))
        assert results[:3] == results[3:]


def reference_walk(edges, nodes, ids, upper_only):
    """The literal walk: every member's whole row, then ``cand > e``."""
    counts: dict[tuple[int, int], int] = {}
    for e in ids:
        for v in edges[e].tolist():
            for f in nodes[v].tolist():
                if f > e or not upper_only:
                    counts[(e, f)] = counts.get((e, f), 0) + 1
    return sorted((e, f, k) for (e, f), k in counts.items())


class TestPreconditions:
    def test_unsorted_node_rows_raise(self):
        # e0 = e1 = {0, 1}, e2 = {1}; the node rows list them descending
        edges = CSR(np.array([0, 2, 4, 5]), np.array([0, 1, 0, 1, 1]),
                    np.ones(5))
        nodes = CSR(np.array([0, 2, 5]), np.array([1, 0, 2, 1, 0]),
                    np.ones(5))
        assert not nodes.has_sorted_rows
        ids = np.arange(3, dtype=np.int64)
        with pytest.raises(ValueError, match="sorted rows"):
            two_hop_pair_counts(edges, nodes, ids)
        with pytest.raises(ValueError, match="sorted rows"):
            two_hop_pair_weighted(edges, nodes, ids)
        # whole rows are walked without bisection and need no order
        assert walk(edges, nodes, ids, False) == (
            reference_walk(edges, nodes, ids.tolist(), False), 18
        )

    @pytest.mark.parametrize("upper_only", [True, False])
    def test_repeated_incidence_matches_reference(self, upper_only):
        # hyperedge 1 lists hypernode 2 twice; hypernode 2's row holds
        # hyperedge 1 twice, so its row is sorted but not strictly
        edges = CSR(
            np.array([0, 2, 5, 7, 8]),
            np.array([0, 2, 1, 2, 2, 0, 1, 2]),
            num_targets=3,
        )
        nodes = CSR(
            np.array([0, 2, 4, 8]),
            np.array([0, 2, 1, 2, 0, 1, 1, 3]),
            num_targets=4,
        )
        h = BiAdjacency(edges, nodes)
        ids = np.array([3, 0, 2, 1], dtype=np.int64)
        got, _ = walk(h.edges, h.nodes, ids, upper_only)
        assert got == reference_walk(
            h.edges, h.nodes, ids.tolist(), upper_only
        )
