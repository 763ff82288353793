"""Construction kernels — the bodies the presets run.

The counting bodies of the hashmap and intersection families live in
:mod:`repro.linegraph.dispatch` (one body per family, selected per
bucket or forced with ``kernel=``); this module holds the rest: the
weighted hashmap body, Algorithm 2's pair-gather and pair-intersect
phases, and the all-pairs naive oracle.

These module-level kernel classes hold their incidence CSRs and
parameters as instance attributes, so one object serves both execution
backends and names its inputs in one place.

Every kernel is **pure**: it only reads its inputs and returns freshly
allocated arrays, which is what lets
:meth:`~repro.parallel.runtime.ParallelRuntime.parallel_for` route it to
a real pool with ``pure=True``.  Candidate-pair statistics travel inside
the returned value — a list mutation would race under real threads.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.runtime import TaskResult

from .common import (
    batch_intersect_counts,
    intersect_count_sorted,
    kernel_stats,
    two_hop_pair_counts,
    two_hop_pair_weighted,
)

__all__ = [
    "NaivePairsKernel",
    "PairGatherKernel",
    "PairIntersectKernel",
    "WeightedHashmapKernel",
]


def _row_sizes(csr, ids: np.ndarray) -> np.ndarray:
    """Row lengths (= hyperedge sizes) for ``ids`` without a full diff."""
    return csr.indptr[ids + 1] - csr.indptr[ids]


class WeightedHashmapKernel:
    """Hashmap counting that also sums the weighted overlaps.

    Returns ``TaskResult((src, dst, weighted, stats), work)``: pairs are
    kept on the set overlap ``|e ∩ f| >= s`` and carry
    ``Σ_{v ∈ e∩f} w(e,v)·w(f,v)``.  ``stats`` is a
    :func:`~repro.linegraph.common.kernel_stats` dict under ``hashmap``.
    """

    __slots__ = ("edges", "nodes", "s")

    def __init__(self, edges, nodes, s: int) -> None:
        self.edges = edges
        self.nodes = nodes
        self.s = int(s)

    def __call__(self, chunk: np.ndarray) -> TaskResult:
        edges, nodes = self.edges, self.nodes
        src, dst, cnt, wgt = two_hop_pair_weighted(edges, nodes, chunk)
        keep = cnt >= self.s
        stats = kernel_stats(
            "hashmap",
            rows=int(chunk.size),
            candidates=int(cnt.size),
            emitted=int(keep.sum()),
        )
        return TaskResult(
            (src[keep], dst[keep], wgt[keep], stats),
            float(int(cnt.sum()) + chunk.size),
        )


class PairGatherKernel:
    """Algorithm 2 phase 1: enqueue candidate pairs from the two-hop walk."""

    __slots__ = ("edges", "nodes", "s")

    def __init__(self, edges, nodes, s: int) -> None:
        self.edges = edges
        self.nodes = nodes
        self.s = int(s)

    def __call__(self, chunk: np.ndarray) -> TaskResult:
        edges, nodes = self.edges, self.nodes
        src, dst, _, work = two_hop_pair_counts(edges, nodes, chunk)
        keep = _row_sizes(edges, dst) >= self.s  # candidate-side pruning
        pairs = np.stack([src[keep], dst[keep]], axis=1)
        # phase 1 examines candidates; emission happens in phase 2 —
        # merging both phases' stats reproduces the builder totals
        stats = kernel_stats(
            "intersection",
            rows=int(chunk.size),
            candidates=int(src.size),
        )
        return TaskResult((pairs, stats), float(work + chunk.size))


class PairIntersectKernel:
    """Algorithm 2 phase 2: per-pair sorted-merge set intersection.

    Unlike the other kernels its chunks are *pair arrays* (the drained
    queue's rows), not hyperedge IDs — each row is consumed exactly once,
    so the pairs travel with the task while the member CSR stays shared.
    """

    __slots__ = ("edges", "s")

    def __init__(self, edges, s: int) -> None:
        self.edges = edges
        self.s = int(s)

    def __call__(self, pairs: np.ndarray) -> TaskResult:
        edges = self.edges
        counts = batch_intersect_counts(edges, pairs)
        work = (
            int(
                np.minimum(
                    _row_sizes(edges, pairs[:, 0]),
                    _row_sizes(edges, pairs[:, 1]),
                ).sum()
            )
            if pairs.size
            else 0
        )
        keep = counts >= self.s
        stats = kernel_stats(
            "intersection", emitted=int(keep.sum())
        )
        return TaskResult(
            (pairs[keep, 0], pairs[keep, 1], counts[keep], stats),
            float(work + pairs.shape[0]),
        )


class NaivePairsKernel:
    """All-pairs oracle body: intersect every ``f > e`` (paper §III-C.3)."""

    __slots__ = ("edges", "s", "n")

    def __init__(self, edges, s: int, n: int) -> None:
        self.edges = edges
        self.s = int(s)
        self.n = int(n)

    def __call__(self, block: np.ndarray) -> TaskResult:
        edges = self.edges
        sizes = np.diff(edges.indptr)  # oracle-scale inputs; O(n) is fine
        src: list[int] = []
        dst: list[int] = []
        cnt: list[int] = []
        examined = 0
        work = 0
        for e in block.tolist():
            if sizes[e] < self.s:
                continue
            mem_e = edges[e]
            for f in range(e + 1, self.n):
                if sizes[f] < self.s:
                    continue
                examined += 1
                work += int(min(sizes[e], sizes[f]))
                c = intersect_count_sorted(mem_e, edges[f])
                if c >= self.s:
                    src.append(e)
                    dst.append(f)
                    cnt.append(c)
        stats = kernel_stats(
            "naive",
            rows=int(block.size),
            candidates=examined,
            emitted=len(src),
        )
        return TaskResult(
            (np.array(src), np.array(dst), np.array(cnt), stats),
            float(work + block.size),
        )
