"""Bitset overlap kernel: dense AND+popcount must equal hashmap counting.

The bitset family is a *performance* alternative, never a semantic one —
every (src, dst, overlap) triple it emits must match the two-hop hashmap
reference on any incidence structure, s threshold, and orientation.
"""

from __future__ import annotations

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linegraph.bitset import (
    BitsetOverlapKernel,
    bitset_overlap_counts,
    bitset_rows,
    pack_rows,
    popcount_bytes,
)
from repro.linegraph.common import two_hop_pair_counts
from repro.structures.biadjacency import BiAdjacency
from repro.structures.csr import CSR
from repro.structures.edgelist import BiEdgeList
from repro.testing import random_hypergraph


@st.composite
def hypergraphs(draw, max_edges=14, max_nodes=12):
    n_e = draw(st.integers(1, max_edges))
    n_v = draw(st.integers(1, max_nodes))
    members = draw(
        st.lists(
            st.sets(st.integers(0, n_v - 1), max_size=n_v),
            min_size=n_e,
            max_size=n_e,
        )
    )
    rows = [e for e, mem in enumerate(members) for _ in mem]
    cols = [v for mem in members for v in mem]
    return BiEdgeList(rows, cols, n0=n_e, n1=n_v)


def reference_pairs(h, ids, s, upper_only):
    src, dst, cnt, _ = two_hop_pair_counts(
        h.edges, h.nodes, ids, upper_only=upper_only
    )
    keep = cnt >= s
    if not upper_only:
        keep &= src != dst
    return set(zip(src[keep].tolist(), dst[keep].tolist(),
                   cnt[keep].tolist()))


def bitset_pairs(h, ids, s, upper_only):
    src, dst, cnt, stats, work = bitset_rows(
        h.edges, ids, s, upper_only=upper_only
    )
    assert work > 0 or ids.size == 0
    assert "bitset" in stats
    return set(zip(src.tolist(), dst.tolist(), cnt.tolist()))


class TestPacking:
    def test_popcount_bytes(self):
        arr = np.arange(256, dtype=np.uint8).reshape(256, 1)
        expected = np.array([bin(i).count("1") for i in range(256)])
        np.testing.assert_array_equal(popcount_bytes(arr), expected)

    def test_pack_rows_bit_layout(self):
        h = BiAdjacency.from_biedgelist(
            random_hypergraph(seed=1, num_edges=10, num_nodes=70)
        )
        ids = np.arange(10, dtype=np.int64)
        packed = pack_rows(h.edges, ids, h.edges.num_targets())
        # words per row: ceil(70/64) = 2 -> 16 bytes
        assert packed.shape == (10, 16)
        for i in range(10):
            members = h.edges.indices[
                h.edges.indptr[i]:h.edges.indptr[i + 1]
            ]
            bits = np.unpackbits(packed[i], bitorder="little")
            np.testing.assert_array_equal(
                np.flatnonzero(bits), np.sort(members)
            )

    def test_pack_rows_sets_bits_without_a_dense_matrix(self):
        """4,000 rows over 8,000 targets: the dense ``uint8`` row matrix
        alone would be 30.5 MiB; packing straight into the 3.8 MiB of
        words must stay well under half of that, byte for byte equal to
        ``np.packbits`` over the dense matrix."""
        rng = np.random.default_rng(0)
        n_rows, n_v = 4000, 8000
        sizes = rng.integers(1, 60, n_rows)
        indices = np.concatenate(
            [np.sort(rng.choice(n_v, k, replace=False)) for k in sizes]
        )
        csr = CSR(
            np.concatenate([[0], np.cumsum(sizes)]), indices,
            num_targets=n_v,
        )
        ids = np.arange(n_rows, dtype=np.int64)
        tracemalloc.start()
        try:
            packed = pack_rows(csr, ids, n_v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 18 * 2**20
        dense = np.zeros((n_rows, n_v), dtype=np.uint8)
        dense[np.repeat(ids, sizes), indices] = 1
        want = np.packbits(dense, axis=1, bitorder="little")
        assert packed.shape == (n_rows, 1000) == want.shape
        assert packed.dtype == np.uint8 and packed.flags.c_contiguous
        np.testing.assert_array_equal(packed, want)

    def test_overlap_counts_small(self):
        h = BiAdjacency.from_biedgelist(
            BiEdgeList([0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 5],
                       n0=3, n1=70)
        )
        ids = np.arange(3, dtype=np.int64)
        packed = pack_rows(h.edges, ids, 70)
        counts = bitset_overlap_counts(packed[0], packed)
        np.testing.assert_array_equal(counts, [3, 2, 0])


class TestEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(el=hypergraphs(), s=st.integers(1, 4),
           upper_only=st.booleans())
    def test_matches_hashmap_reference(self, el, s, upper_only):
        h = BiAdjacency.from_biedgelist(el)
        sizes = h.edge_sizes()
        ids = np.flatnonzero(sizes >= s).astype(np.int64)
        assert bitset_pairs(h, ids, s, upper_only) == reference_pairs(
            h, ids, s, upper_only
        )

    def test_chunk_split_invariant(self):
        """Row results don't depend on how the frontier was chunked."""
        h = BiAdjacency.from_biedgelist(
            random_hypergraph(seed=5, num_edges=40, num_nodes=30)
        )
        ids = np.arange(40, dtype=np.int64)
        whole = bitset_pairs(h, ids, 2, True)
        split = set()
        for part in np.array_split(ids, 7):
            split |= bitset_pairs(h, part, 2, True)
        assert whole == split


class TestKernel:
    def test_pickle_round_trip(self):
        h = BiAdjacency.from_biedgelist(
            random_hypergraph(seed=2, num_edges=20, num_nodes=25)
        )
        k = BitsetOverlapKernel(h.edges, 2)
        k2 = pickle.loads(pickle.dumps(k))
        ids = np.arange(20, dtype=np.int64)
        a = k(ids)
        b = k2(ids)
        np.testing.assert_array_equal(a.value[0], b.value[0])
        np.testing.assert_array_equal(a.value[2], b.value[2])
        assert a.work == b.work > 0

    def test_stats_channel(self):
        h = BiAdjacency.from_biedgelist(
            random_hypergraph(seed=2, num_edges=20, num_nodes=25)
        )
        res = BitsetOverlapKernel(h.edges, 1)(np.arange(20, dtype=np.int64))
        src, dst, cnt, stats = res.value
        trio = stats["bitset"]
        assert trio["tasks"] == 1
        assert trio["rows"] > 0
        assert trio["candidates"] >= trio["emitted"] == src.size

    def test_empty_chunk(self):
        h = BiAdjacency.from_biedgelist(
            random_hypergraph(seed=2, num_edges=20, num_nodes=25)
        )
        res = BitsetOverlapKernel(h.edges, 2)(np.empty(0, dtype=np.int64))
        assert res.value[0].size == 0
