"""Vectorized traversal primitives shared by every graph algorithm.

The fundamental operation of frontier-based algorithms is "gather the
neighbor lists of this set of vertices".  Doing that with a Python loop per
vertex would dominate runtime; :func:`gather_neighbors` performs it as a
single fancy-indexing expression (the standard cumsum/repeat multi-slice
trick), so BFS/CC/SSSP process whole frontiers per NumPy call.
"""

from __future__ import annotations

import numpy as np

from repro.structures.csr import CSR

__all__ = ["gather_neighbors", "multi_slice", "frontier_edge_count"]


def multi_slice(
    data: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Concatenate ``data[starts[i] : starts[i] + counts[i]]`` for all *i*.

    Fully vectorized: builds the flat gather index with one ``arange``,
    one ``cumsum``, and a single ``repeat``.  For output position ``k``
    inside slice ``i`` the index is ``k + (starts[i] - cum[i-1])`` — the
    per-slice shift from running-output offset to data offset — so one
    repeated shift replaces the two repeats of the classic formulation
    (measurably faster: the repeat is the dominant cost at two-hop
    expansion sizes).  The ``arange`` is added into the repeated shift
    in place, so the index costs two output-sized arrays, not three.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=data.dtype)
    cum = np.cumsum(counts)
    index = np.repeat(starts - cum + counts, counts)
    index += np.arange(total, dtype=np.int64)
    return data[index]


def gather_neighbors(
    graph: CSR, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All neighbors of ``vertices``, with their source vertex repeated.

    Returns ``(sources, targets)`` — the COO rows of the sub-adjacency
    induced by the given source set, in row order.  ``sources[k]`` is the
    frontier vertex whose list produced ``targets[k]``.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    starts = graph.indptr[vertices]
    counts = graph.indptr[vertices + 1] - starts
    targets = multi_slice(graph.indices, starts, counts)
    sources = np.repeat(vertices, counts)
    return sources, targets


def frontier_edge_count(graph: CSR, vertices: np.ndarray) -> int:
    """Total out-degree of a frontier (direction-optimizing heuristic input)."""
    vertices = np.asarray(vertices, dtype=np.int64)
    return int((graph.indptr[vertices + 1] - graph.indptr[vertices]).sum())
