"""``CSR.from_undirected`` equals the symmetrize-and-lexsort path.

Property tests (hypothesis): on canonical upper-triangle lists — the
form every s-line construction emits — the sort-free build must equal
``CSR.from_edgelist(el.symmetrize(), num_targets=n)`` array for array,
dtypes included; any other list must take that very path.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.linegraph.common import finalize_edges
from repro.structures.csr import CSR
from repro.structures.edgelist import EdgeList


def reference(el: EdgeList) -> CSR:
    return CSR.from_edgelist(el.symmetrize(), num_targets=el.num_vertices())


def assert_identical(got: CSR, want: CSR) -> None:
    assert got.indptr.dtype == want.indptr.dtype == np.int64
    assert got.indices.dtype == want.indices.dtype == np.int64
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.num_targets() == want.num_targets()
    assert got.has_sorted_rows and want.has_sorted_rows
    if want.weights is None:
        assert got.weights is None
    else:
        assert got.weights is not None
        assert got.weights.dtype == want.weights.dtype == np.float64
        assert np.array_equal(got.weights, want.weights)


@st.composite
def canonical_lists(draw, max_vertices: int = 3000):
    n = draw(st.integers(0, max_vertices))
    m = draw(st.integers(0, 400)) if n > 1 else 0
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, max(n, 1), m)
    dst = rng.integers(0, max(n, 1), m)
    counts = rng.integers(1, 9, m)
    el = finalize_edges(src, dst, counts, n)
    if draw(st.booleans()):
        el = EdgeList(el.src, el.dst, None, num_vertices=n)
    return el


def build(el: EdgeList) -> tuple[CSR, int]:
    """``from_undirected(el)`` and how often it fell back to ``from_coo``."""
    with mock.patch.object(CSR, "from_coo", wraps=CSR.from_coo) as spy:
        got = CSR.from_undirected(el)
    return got, spy.call_count


@settings(max_examples=150, deadline=None)
@given(canonical_lists())
def test_canonical_lists_match_reference(el):
    got, fallbacks = build(el)
    assert fallbacks == 0
    assert_identical(got, reference(el))


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize(
    "src, dst, n",
    [
        ([], [], 0),  # empty index space
        ([], [], 7),  # isolated vertices only
        ([2], [5], 9),  # a single edge among isolated vertices
        ([0, 0, 1, 3], [1, 3, 2, 4], 6),
    ],
    ids=["empty", "isolated", "single-edge", "small"],
)
def test_edge_cases_match_reference(src, dst, n, weighted):
    w = np.arange(1, len(src) + 1, dtype=np.float64) if weighted else None
    el = EdgeList(src, dst, w, num_vertices=n)
    got, fallbacks = build(el)
    assert fallbacks == 0
    assert_identical(got, reference(el))


def _shuffled(el: EdgeList, rng) -> EdgeList:
    order = rng.permutation(len(el))
    return el.sorted_by(order)


def _duplicated(el: EdgeList, rng) -> EdgeList:
    k = int(rng.integers(0, len(el)))
    order = np.insert(np.arange(len(el)), k, k)
    return el.sorted_by(order)


def _flipped(el: EdgeList, rng) -> EdgeList:
    k = int(rng.integers(0, len(el)))
    src, dst = el.src.copy(), el.dst.copy()
    src[k], dst[k] = dst[k], src[k]
    return EdgeList(src, dst, el.weights, num_vertices=el.num_vertices())


def _self_loop(el: EdgeList, rng) -> EdgeList:
    k = int(rng.integers(0, len(el)))
    src = el.src.copy()
    src[k] = el.dst[k]
    return EdgeList(src, el.dst, el.weights, num_vertices=el.num_vertices())


@settings(max_examples=120, deadline=None)
@given(
    canonical_lists(max_vertices=200),
    st.sampled_from([_shuffled, _duplicated, _flipped, _self_loop]),
    st.integers(0, 2**32 - 1),
)
def test_non_canonical_lists_take_the_from_coo_path(el, spoil, seed):
    assume(len(el) >= 2)
    bad = spoil(el, np.random.default_rng(seed))
    assume(bad != el)  # a shuffle may draw the identity permutation
    got, fallbacks = build(bad)
    assert fallbacks == 1
    assert_identical(got, reference(bad))
