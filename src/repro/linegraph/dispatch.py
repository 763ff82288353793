"""Degree-bucketed adaptive kernel dispatch (ROADMAP 3).

The construction algorithms used to commit to one kernel family for the
whole graph.  But kernel economics are a *per-row* question: a low-degree
hyperedge is cheapest under two-hop hashmap counting, a huge hyperedge
over well-connected hypernodes is cheapest under the dense bitset sweep
(:mod:`repro.linegraph.bitset`), and a toy graph isn't worth any
machinery at all.  This module implements the heuristic-kernel-selection
idea of the high-order line-graph paper (PAPERS.md) at chunk granularity:
:class:`AdaptiveKernel` partitions each frontier chunk into degree /
candidate-density buckets (:func:`bucketize`) and runs the chosen body
per bucket — naive, hashmap, intersection, or bitset — concatenating the
exact per-pair overlaps.

Every body computes the same exact overlap counts, so the dispatcher's
output is **bit-identical** to any fixed kernel after
:func:`~repro.linegraph.common.finalize_edges` — the backend-equivalence
property suite holds it to account.  Bucketing decisions depend only on
the incidence structure, ``s``, and the policy (never on the execution
backend, thread count, or timing), so results and the simulated cost
ledger stay deterministic.

The choice is observable: the kernel's returned stats carry one entry
per family actually used (``linegraph_kernel_*_total{kernel=...}``
counters via :func:`~repro.linegraph.common.emit_kernel_counters`), and
builders add ``dispatch_rows_total{kernel=...}`` /
``dispatch_buckets_total{kernel=...}`` from the same stats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel.runtime import TaskResult

from .bitset import BitsetOverlapKernel, EligiblePacking, bitset_rows
from .common import (
    batch_intersect_counts,
    kernel_stats,
    merge_kernel_stats,
    two_hop_pair_counts,
)

__all__ = [
    "AdaptiveKernel",
    "DispatchPolicy",
    "KERNEL_NAMES",
    "bucketize",
    "make_count_kernel",
]

#: the kernel-selection surface exposed on builders / CLI / service
KERNEL_NAMES = ("auto", "naive", "hashmap", "intersection", "bitset")


@dataclass(frozen=True)
class DispatchPolicy:
    """Knobs of the per-bucket kernel choice (all deterministic).

    ``naive_max_edges``
        Graphs with at most this many hyperedge rows skip all machinery:
        the whole chunk goes to the all-pairs naive body.
    ``bitset_advantage``
        A row goes to the dense bitset sweep when its estimated two-hop
        expansion exceeds ``bitset_advantage ×`` the dense sweep cost
        (``num_rows × ⌈n_v/64⌉`` word operations).
    ``bitset_min_expansion``
        Absolute expansion floor below which bitset is never considered
        (packing has fixed costs a small row can't amortize).
    ``bitset_max_bytes``
        Memory guard: the packed eligible-row matrix
        (``num_rows × ⌈n_v/8⌉`` bytes) must fit under this bound.
    ``intersect_min_s``
        When set, non-bitset rows with ``s ≥ intersect_min_s`` use the
        explicit set-intersection body.  Default ``None``: in this
        vectorized implementation the hashmap count *is* the candidate
        gather, so intersection never wins on time — the knob exists for
        experiments and for forcing the family via ``kernel=``.
    """

    naive_max_edges: int = 8
    bitset_advantage: float = 1.5
    bitset_min_expansion: int = 4096
    bitset_max_bytes: int = 64 * 1024 * 1024
    intersect_min_s: int | None = None


_DEFAULT_POLICY = DispatchPolicy()


def bucketize(
    edges,
    nodes,
    chunk: np.ndarray,
    s: int,
    policy: DispatchPolicy = _DEFAULT_POLICY,
    expansion: np.ndarray | None = None,
) -> list[tuple[str, np.ndarray]]:
    """Partition one chunk's rows into (kernel name, row ids) buckets.

    Rows below the ``s`` size threshold are dropped (no kernel can emit
    from them).  Buckets come back in fixed order (naive, bitset,
    intersection, hashmap) with only non-empty entries, and the
    assignment depends solely on incidence structure + ``s`` + policy —
    never on backend or timing — so dispatch is reproducible.
    ``expansion``, when given, holds each hyperedge's ``Σ_{v∈e} deg(v)``
    by ID (the inline build computes it for its chunk cuts); otherwise
    the chunk's rows are summed here.
    """
    chunk = np.asarray(chunk, dtype=np.int64)
    sizes = edges.indptr[chunk + 1] - edges.indptr[chunk]
    live = chunk[sizes >= s]
    if live.size == 0:
        return []
    n_rows = edges.num_vertices()
    if n_rows <= policy.naive_max_edges:
        return [("naive", live)]
    n_v = edges.num_targets()
    words = (n_v + 63) // 64
    dense_cost = float(n_rows) * words
    packed_bytes = float(n_rows) * words * 8
    # estimated two-hop expansion per row: Σ_{v∈e} deg(v)
    if expansion is not None:
        expansion = expansion[live]
    else:
        starts = edges.indptr[live]
        counts = edges.indptr[live + 1] - starts
        from repro.graph.traversal import multi_slice

        members = multi_slice(edges.indices, starts, counts)
        m_deg = nodes.indptr[members + 1] - nodes.indptr[members]
        deg_cum = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(m_deg))
        )
        bounds = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(counts))
        )
        expansion = deg_cum[bounds[1:]] - deg_cum[bounds[:-1]]
    to_bitset = (
        (expansion >= policy.bitset_min_expansion)
        & (expansion >= policy.bitset_advantage * dense_cost)
        if packed_bytes <= policy.bitset_max_bytes
        else np.zeros(live.size, dtype=bool)
    )
    out: list[tuple[str, np.ndarray]] = []
    if to_bitset.any():
        out.append(("bitset", live[to_bitset]))
    rest = live[~to_bitset]
    if rest.size:
        if (
            policy.intersect_min_s is not None
            and s >= policy.intersect_min_s
        ):
            out.append(("intersection", rest))
        else:
            out.append(("hashmap", rest))
    return out


# -- per-bucket bodies (operate on opened CSRs, return uniform tuples) ------


def _hashmap_rows(edges, nodes, ids, s, upper_only):
    src, dst, cnt, work = two_hop_pair_counts(
        edges, nodes, ids, upper_only=upper_only
    )
    keep = cnt >= s
    if not upper_only:
        keep &= src != dst
    stats = kernel_stats(
        "hashmap",
        rows=int(ids.size),
        candidates=int(cnt.size),
        emitted=int(keep.sum()),
    )
    return src[keep], dst[keep], cnt[keep], stats, float(work + ids.size)


def _intersection_rows(edges, nodes, ids, s, upper_only):
    src_c, dst_c, _, walk_work = two_hop_pair_counts(
        edges, nodes, ids, upper_only=upper_only
    )
    candidates = int(src_c.size)
    keep = edges.indptr[dst_c + 1] - edges.indptr[dst_c] >= s
    if not upper_only:
        keep &= src_c != dst_c
    src_c, dst_c = src_c[keep], dst_c[keep]
    counts = batch_intersect_counts(
        edges, np.stack([src_c, dst_c], axis=1)
    )
    work = float(walk_work + ids.size)
    if src_c.size:
        sizes_a = edges.indptr[src_c + 1] - edges.indptr[src_c]
        sizes_b = edges.indptr[dst_c + 1] - edges.indptr[dst_c]
        work += float(np.minimum(sizes_a, sizes_b).sum())
    hit = counts >= s
    stats = kernel_stats(
        "intersection",
        rows=int(ids.size),
        candidates=candidates,
        emitted=int(hit.sum()),
    )
    return src_c[hit], dst_c[hit], counts[hit], stats, work


def _naive_rows(edges, ids, s, upper_only):
    sizes = np.diff(edges.indptr)
    eligible = np.flatnonzero(sizes >= s).astype(np.int64)
    out_src: list[np.ndarray] = []
    out_dst: list[np.ndarray] = []
    out_cnt: list[np.ndarray] = []
    examined = 0
    work = float(ids.size)
    for e in np.asarray(ids, dtype=np.int64).tolist():
        partners = (
            eligible[eligible > e] if upper_only else eligible[eligible != e]
        )
        if partners.size == 0:
            continue
        examined += int(partners.size)
        pairs = np.stack(
            [np.full(partners.size, e, dtype=np.int64), partners], axis=1
        )
        counts = batch_intersect_counts(edges, pairs)
        work += float(np.minimum(sizes[e], sizes[partners]).sum())
        hit = counts >= s
        if hit.any():
            out_src.append(pairs[hit, 0])
            out_dst.append(pairs[hit, 1])
            out_cnt.append(counts[hit])
    empty = np.empty(0, dtype=np.int64)
    src = np.concatenate(out_src) if out_src else empty
    dst = np.concatenate(out_dst) if out_dst else empty
    cnt = np.concatenate(out_cnt) if out_cnt else empty
    stats = kernel_stats(
        "naive",
        rows=int(np.asarray(ids).size),
        candidates=examined,
        emitted=int(src.size),
    )
    return src, dst, cnt, stats, work


def adaptive_rows(
    edges,
    nodes,
    chunk: np.ndarray,
    s: int,
    upper_only: bool = True,
    policy: DispatchPolicy = _DEFAULT_POLICY,
    force: str | None = None,
    packing: EligiblePacking | None = None,
    expansion: np.ndarray | None = None,
):
    """Bucket a chunk and run the chosen body per bucket.

    Returns the uniform ``(src, dst, overlap, stats, work)`` tuple; the
    stats dict gains one entry per family used plus, unless ``force``
    pins one family (no bucketing then runs), a ``"dispatch"`` entry
    whose ``tasks`` counts buckets (so the bucket table is
    reconstructible from counters alone).  ``packing`` is handed to the
    bitset bucket (see :func:`~repro.linegraph.bitset.bitset_rows`);
    ``expansion`` to :func:`bucketize`.
    """
    chunk = np.asarray(chunk, dtype=np.int64)
    forced = force is not None and force != "auto"
    if forced:
        sizes = edges.indptr[chunk + 1] - edges.indptr[chunk]
        buckets = [(force, chunk[sizes >= s])]
    else:
        buckets = bucketize(edges, nodes, chunk, s, policy, expansion)
    out_src: list[np.ndarray] = []
    out_dst: list[np.ndarray] = []
    out_cnt: list[np.ndarray] = []
    stats_parts: list[dict] = []
    # bucketing reads every row of the chunk once; a forced family skips it
    work = 0.0 if forced else float(chunk.size)
    for name, ids in buckets:
        if name == "bitset":
            src, dst, cnt, stats, w = bitset_rows(
                edges, ids, s, upper_only=upper_only, packing=packing
            )
        elif name == "intersection":
            src, dst, cnt, stats, w = _intersection_rows(
                edges, nodes, ids, s, upper_only
            )
        elif name == "naive":
            src, dst, cnt, stats, w = _naive_rows(edges, ids, s, upper_only)
        elif name == "hashmap":
            src, dst, cnt, stats, w = _hashmap_rows(
                edges, nodes, ids, s, upper_only
            )
        else:
            raise ValueError(f"unknown kernel bucket {name!r}")
        out_src.append(src)
        out_dst.append(dst)
        out_cnt.append(cnt)
        stats_parts.append(stats)
        work += w
    empty = np.empty(0, dtype=np.int64)
    src = np.concatenate(out_src) if out_src else empty
    dst = np.concatenate(out_dst) if out_dst else empty
    cnt = np.concatenate(out_cnt) if out_cnt else empty
    stats = merge_kernel_stats(stats_parts)
    if not forced:
        stats.update(kernel_stats(
            "dispatch", rows=int(chunk.size), tasks=len(buckets)
        ))
    return src, dst, cnt, stats, work


class AdaptiveKernel:
    """Picklable chunk body running the degree-bucketed dispatch.

    Returns ``TaskResult((src, dst, overlap, stats), work)`` — the shape
    of every construction kernel — on every execution backend.
    ``force`` pins one family for the whole chunk — how
    ``kernel="hashmap"``/``"intersection"``/``"naive"`` are served.
    """

    __slots__ = (
        "edges", "nodes", "s", "upper_only", "policy", "force", "packing",
        "expansion",
    )

    def __init__(
        self,
        edges,
        nodes,
        s: int,
        upper_only: bool = True,
        policy: DispatchPolicy = _DEFAULT_POLICY,
        force: str | None = None,
        expansion: np.ndarray | None = None,
    ) -> None:
        self.edges = edges
        self.nodes = nodes
        self.s = int(s)
        self.upper_only = bool(upper_only)
        self.policy = policy
        self.force = force
        self.packing = EligiblePacking()
        self.expansion = expansion

    def __call__(self, chunk: np.ndarray) -> TaskResult:
        src, dst, cnt, stats, work = adaptive_rows(
            self.edges,
            self.nodes,
            chunk,
            self.s,
            upper_only=self.upper_only,
            policy=self.policy,
            force=self.force,
            packing=self.packing,
            expansion=self.expansion,
        )
        return TaskResult((src, dst, cnt, stats), work)


def make_count_kernel(
    kernel: str | None,
    edges,
    nodes,
    s: int,
    weighted: bool = False,
    expansion: np.ndarray | None = None,
):
    """Build the counting body for one builder run.

    ``kernel`` is one of :data:`KERNEL_NAMES` (``None`` → ``"auto"``,
    the dispatcher); the unweighted bodies drop rows with fewer than
    ``s`` members themselves (Alg. 1 line 6).  Weighted constructions
    always use the hashmap body (the only family that accumulates the
    ``Σ w·w`` products), which expects degree-pruned chunks.
    ``expansion`` (per-hyperedge ``Σ deg(v)``, see :func:`bucketize`)
    reaches the dispatcher only.  A
    :class:`~repro.structures.compressed.CompressedCSR` input is decoded
    once here, so every task reads plain CSRs.
    """
    from repro.structures.compressed import CompressedCSR

    from .kernels import WeightedHashmapKernel

    edges, nodes = (
        x.to_csr() if isinstance(x, CompressedCSR) else x
        for x in (edges, nodes)
    )
    name = kernel or "auto"
    if name not in KERNEL_NAMES:
        raise ValueError(
            f"unknown kernel {name!r}; choose from {sorted(KERNEL_NAMES)}"
        )
    if weighted:
        if name not in ("auto", "hashmap"):
            raise ValueError(
                "weighted constructions require the hashmap kernel"
            )
        return WeightedHashmapKernel(edges, nodes, s)
    if name == "bitset":
        return BitsetOverlapKernel(edges, s)
    return AdaptiveKernel(
        edges, nodes, s, force=None if name == "auto" else name,
        expansion=expansion,
    )
