"""Bitset-adjacency s-overlap kernel — the dense complement (ROADMAP 3).

The hashmap and intersection families pay per *incidence*: the two-hop
expansion of a hyperedge ``e`` touches the entries after ``e`` in each
member's row — about half of ``Σ_{v∈e} deg(v)`` — then sorts them.  On
skewed inputs — a few huge hyperedges over well-connected hypernodes —
that expansion explodes quadratically while the vertex universe stays
small.  That regime is where the classic
dense representation wins (the heuristic-kernel-selection argument of
the high-order line-graph paper, PAPERS.md): pack each incidence row
into a bit vector of ``⌈n_v/64⌉`` uint64 words, and ``|e ∩ f|`` becomes
a bitwise AND plus a popcount — ``n_v/64`` word operations per pair,
branchless, no sorting, no hashing.

Packing sets each member's bit straight into the packed bytes
(``np.bitwise_or.at``), never a dense row matrix.  The AND runs
on the uint64 view of the packed rows, so the inner loop moves 8 bytes
per operation, and ``np.bitwise_count`` (numpy >= 2.0) pops each AND-ed
word in place before one row reduction.

:class:`BitsetOverlapKernel` is shaped exactly like the other kernel
bodies (:mod:`repro.linegraph.kernels`): pure, holds its inputs as
attributes, returns ``TaskResult((src, dst, overlap, stats), work)`` —
so it runs unchanged on the simulated and threaded backends and plugs
into the degree-bucketed dispatcher (:mod:`repro.linegraph.dispatch`).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.parallel.runtime import TaskResult

from .common import kernel_stats

__all__ = [
    "BitsetOverlapKernel",
    "EligiblePacking",
    "bitset_overlap_counts",
    "pack_rows",
    "popcount_bytes",
]

#: pad packed rows to whole uint64 words so the AND runs 8 bytes at a time
_WORD_BYTES = 8


def pack_rows(csr, ids: np.ndarray, num_targets: int) -> np.ndarray:
    """Pack the incidence rows ``ids`` into a bitset matrix.

    Returns ``uint8[len(ids), W8]`` with ``W8 = ⌈num_targets/8⌉`` rounded
    up to a multiple of 8 (so the matrix reinterprets as uint64 words).
    Bit ``v`` of row ``k`` is set iff target ``v`` is a member of row
    ``ids[k]``.
    """
    ids = np.asarray(ids, dtype=np.int64)
    width = ((int(num_targets) + 63) // 64) * _WORD_BYTES
    if ids.size == 0:
        return np.zeros((0, width), dtype=np.uint8)
    starts = csr.indptr[ids]
    counts = csr.indptr[ids + 1] - starts
    from repro.graph.traversal import multi_slice

    members = multi_slice(csr.indices, starts, counts)
    # bit v of row k lives in byte k·W8 + v//8 at position v % 8
    byte = np.repeat(np.arange(ids.size, dtype=np.int64) * width, counts)
    byte += members >> 3
    bits = np.left_shift(1, members & 7).astype(np.uint8)
    packed = np.zeros((ids.size, width), dtype=np.uint8)
    np.bitwise_or.at(packed.reshape(-1), byte, bits)
    return packed


def popcount_bytes(packed: np.ndarray) -> np.ndarray:
    """Row-wise popcount of a packed uint8 matrix."""
    return np.bitwise_count(packed).sum(axis=1, dtype=np.int64)


def bitset_overlap_counts(
    row: np.ndarray, others: np.ndarray
) -> np.ndarray:
    """``|row ∩ others[k]|`` for every packed row ``k``.

    ``row`` is one packed bitset (uint8), ``others`` a packed matrix of
    the same width.  The AND and the popcount both run on the uint64
    reinterpretation.
    """
    if others.size == 0:
        return np.zeros(others.shape[0], dtype=np.int64)
    a = row.view(np.uint64)
    b = others.reshape(others.shape[0], -1).view(np.uint64)
    return np.bitwise_count(b & a[None, :]).sum(axis=1, dtype=np.int64)


class EligiblePacking:
    """The packed eligible rows (size ≥ s) of one build, packed once.

    The dense sweep compares each of its rows against every eligible
    row, so every chunk needs the same packed matrix.  One build's
    kernels share this holder across chunks and threads: the first
    chunk with a bitset row packs, the rest reuse it.
    """

    __slots__ = ("_lock", "_packed")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._packed: tuple[np.ndarray, np.ndarray] | None = None

    def __reduce__(self):
        return (EligiblePacking, ())

    def get(self, edges, s: int) -> tuple[np.ndarray, np.ndarray]:
        """``(eligible ids, their packed rows)`` of ``edges`` at ``s``."""
        with self._lock:
            if self._packed is None:
                self._packed = _pack_eligible(edges, s)
            return self._packed


def _pack_eligible(edges, s: int) -> tuple[np.ndarray, np.ndarray]:
    eligible = np.flatnonzero(np.diff(edges.indptr) >= s).astype(np.int64)
    return eligible, pack_rows(edges, eligible, edges.num_targets())


class BitsetOverlapKernel:
    """Dense s-overlap body: packed-bitset AND + popcount per pair.

    For each row ``e`` of its chunk the kernel compares against *every*
    eligible row (size ≥ s) — the dense all-candidates sweep, chosen by
    the dispatcher only where the two-hop expansion would cost more than
    ``n_eligible · n_v/64`` word operations.  ``upper_only`` keeps
    ``f > e`` partners (the builders' triangle convention); ``False``
    keeps every ``f ≠ e`` (the shard kernels' row-ownership convention).

    Same result tuple as :class:`~repro.linegraph.dispatch.AdaptiveKernel`
    — ``(src, dst, overlap, stats)`` — and exact
    overlap counts, so outputs are bit-identical after
    :func:`~repro.linegraph.common.finalize_edges`.
    """

    __slots__ = ("edges", "s", "upper_only", "packing")

    def __init__(self, edges, s: int, upper_only: bool = True) -> None:
        self.edges = edges
        self.s = int(s)
        self.upper_only = bool(upper_only)
        self.packing = EligiblePacking()

    def __call__(self, chunk: np.ndarray) -> TaskResult:
        src, dst, cnt, stats, work = bitset_rows(
            self.edges, chunk, self.s, upper_only=self.upper_only,
            packing=self.packing,
        )
        return TaskResult((src, dst, cnt, stats), work)


def bitset_rows(
    edges,
    chunk: np.ndarray,
    s: int,
    upper_only: bool = True,
    packing: EligiblePacking | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict, float]:
    """The dense sweep body, reusable by the dispatcher's bucket runner.

    Returns ``(src, dst, overlap, stats, work)`` with ``work`` counted
    in examined pairs (the ledger currency the other kernels use).
    ``packing`` shares the packed eligible rows across the calls of one
    build; without it each call packs its own.
    """
    chunk = np.asarray(chunk, dtype=np.int64)
    live = chunk[edges.indptr[chunk + 1] - edges.indptr[chunk] >= s]
    empty = np.empty(0, dtype=np.int64)
    if live.size == 0:
        stats = kernel_stats("bitset", rows=int(chunk.size))
        return empty, empty, empty, stats, float(chunk.size)
    eligible, packed_all = (
        _pack_eligible(edges, s) if packing is None
        else packing.get(edges, s)
    )
    # chunk rows are a subset of the eligible rows: reuse their packing
    pos = np.searchsorted(eligible, live)
    out_src: list[np.ndarray] = []
    out_dst: list[np.ndarray] = []
    out_cnt: list[np.ndarray] = []
    examined = 0
    for k, e in zip(pos.tolist(), live.tolist()):
        counts = bitset_overlap_counts(packed_all[k], packed_all)
        if upper_only:
            keep = (counts >= s) & (eligible > e)
            examined += int((eligible > e).sum())
        else:
            keep = (counts >= s) & (eligible != e)
            examined += int(eligible.size - 1)
        hits = np.flatnonzero(keep)
        if hits.size:
            out_src.append(np.full(hits.size, e, dtype=np.int64))
            out_dst.append(eligible[hits])
            out_cnt.append(counts[hits])
    if out_src:
        src = np.concatenate(out_src)
        dst = np.concatenate(out_dst)
        cnt = np.concatenate(out_cnt)
    else:
        src, dst, cnt = empty, empty, empty
    stats = kernel_stats(
        "bitset",
        rows=int(chunk.size),
        candidates=examined,
        emitted=int(src.size),
    )
    return src, dst, cnt, stats, float(examined + chunk.size)
