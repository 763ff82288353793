"""Shared pieces of the s-line graph construction algorithms.

Every construction algorithm in this package produces the same artifact: an
undirected edge list over the **hyperedge ID space** where ``{e, f}`` is an
edge iff ``|e ∩ f| ≥ s`` (paper §II-D), stored once with ``e < f`` and
carrying the overlap size as the edge weight.  ``finalize_edges``
canonicalizes to that form so algorithms can be compared bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.structures.csr import CSR
from repro.structures.edgelist import EdgeList

__all__ = [
    "batch_intersect_counts",
    "canonical_pairs",
    "empty_linegraph",
    "emit_kernel_counters",
    "filter_overlaps",
    "finalize_edges",
    "intersect_count_sorted",
    "kernel_stats",
    "merge_kernel_stats",
    "pair_counters",
    "total_candidates",
    "two_hop_pair_counts",
    "two_hop_pair_weighted",
    "upper_bounds",
    "linegraph_csr",
    "resolve_incidence",
    "resolve_runtime",
]


def resolve_runtime(runtime, backend=None, workers=None):
    """Turn a builder's ``runtime``/``backend``/``workers`` args into a runtime.

    Builders accept either an explicit
    :class:`~repro.parallel.runtime.ParallelRuntime` *or* a backend spec
    (``'simulated'``/``'threaded'``, optionally with a
    worker count), from which a runtime is constructed on the spot.
    Returns ``(runtime_or_None, owned)``; when ``owned`` the caller must
    ``close()`` the runtime after the build (it holds a live pool).
    """
    if backend is None and workers is None:
        return runtime, False
    if runtime is not None:
        raise ValueError("pass either runtime= or backend=/workers=, not both")
    from repro.parallel.backends import default_workers
    from repro.parallel.runtime import ParallelRuntime

    w = default_workers() if workers is None else int(workers)
    if w <= 0:
        raise ValueError("workers must be positive")
    return (
        ParallelRuntime(
            num_threads=w,
            partitioner="cyclic",
            backend=backend or "simulated",
            workers=w,
        ),
        True,
    )


def pair_counters(metrics, algorithm: str):
    """The construction-counter trio for one algorithm run.

    Returns ``(candidates, pruned, emitted)`` counters labeled with the
    algorithm name: *candidates* is how many hyperedge pairs the
    heuristic examined, *pruned* how many it rejected (degree filter or
    overlap below ``s``), *emitted* how many s-line edges it produced
    (before canonical dedup).  These are the quantities the line-graph
    paper's heuristic comparisons are stated in — with a shared
    :class:`~repro.obs.metrics.MetricsRegistry` the algorithms become
    directly comparable on live runs.  ``metrics=None`` yields no-ops.
    """
    from repro.obs.metrics import as_metrics

    m = as_metrics(metrics)
    return (
        m.counter("slinegraph_candidate_pairs_total", algorithm=algorithm),
        m.counter("slinegraph_pruned_pairs_total", algorithm=algorithm),
        m.counter("slinegraph_emitted_pairs_total", algorithm=algorithm),
    )


def kernel_stats(
    kernel: str,
    rows: int = 0,
    candidates: int = 0,
    emitted: int = 0,
    tasks: int = 1,
) -> dict:
    """Per-kernel-family statistics for one task's work.

    Every construction kernel returns one of these (keyed by family
    name) as the final element of its result tuple, so the numbers
    travel *inside* the task result instead of being mutated into
    shared counters (which would race under real threads).
    The builders merge them (:func:`merge_kernel_stats`) and emit the
    uniform ``linegraph_kernel_*_total{kernel=...}`` counters
    (:func:`emit_kernel_counters`) once per build.
    """
    return {
        kernel: {
            "tasks": int(tasks),
            "rows": int(rows),
            "candidates": int(candidates),
            "emitted": int(emitted),
        }
    }


def merge_kernel_stats(parts) -> dict:
    """Sum a sequence of :func:`kernel_stats` dicts per kernel family."""
    out: dict = {}
    for part in parts:
        for name, counts in part.items():
            slot = out.setdefault(
                name, {"tasks": 0, "rows": 0, "candidates": 0, "emitted": 0}
            )
            for k, v in counts.items():
                slot[k] = slot.get(k, 0) + int(v)
    return out


def total_candidates(stats: dict) -> int:
    """Candidate pairs examined, summed across kernel families."""
    return sum(c.get("candidates", 0) for c in stats.values())


def emit_kernel_counters(metrics, stats: dict) -> None:
    """Emit the uniform per-kernel counter trio from merged stats.

    ``linegraph_kernel_{tasks,candidates,emitted}_total`` labeled by
    kernel family — the same three numbers for every family (hashmap,
    intersection, bitset, naive, pair_gather, pair_intersect, shard),
    whether the work ran inline, on a builder, or under shards.
    """
    from repro.obs.metrics import as_metrics

    m = as_metrics(metrics)
    for name, counts in stats.items():
        m.counter("linegraph_kernel_tasks_total", kernel=name).inc(
            counts.get("tasks", 0)
        )
        m.counter("linegraph_kernel_candidates_total", kernel=name).inc(
            counts.get("candidates", 0)
        )
        m.counter("linegraph_kernel_emitted_total", kernel=name).inc(
            counts.get("emitted", 0)
        )
    if "dispatch" in stats:
        # bucket-table counters: how many rows each family was chosen for
        # and how many buckets ran in total (the "dispatch" pseudo-family
        # records chunk totals in rows/tasks)
        for name, counts in stats.items():
            if name == "dispatch":
                continue
            m.counter("dispatch_rows_total", kernel=name).inc(
                counts.get("rows", 0)
            )
            m.counter("dispatch_buckets_total", kernel=name).inc(
                counts.get("tasks", 0)
            )


def resolve_incidence(h) -> tuple[CSR, CSR, int, np.ndarray]:
    """Normalize a hypergraph representation for line-graph construction.

    Accepts either a :class:`~repro.structures.biadjacency.BiAdjacency`
    (two index sets) or an :class:`~repro.structures.adjoin.AdjoinGraph`
    (one consolidated index set) — the representation independence that
    motivates the paper's queue-based algorithms.  Returns
    ``(edge_incidence, node_incidence, num_hyperedges, edge_sizes)``; for
    an adjoin graph both incidence roles are played by the single CSR and
    hyperedge IDs are the low range ``[0, nrealedges)``.
    """
    from repro.structures.adjoin import AdjoinGraph
    from repro.structures.biadjacency import BiAdjacency

    if isinstance(h, BiAdjacency):
        return h.edges, h.nodes, h.num_hyperedges(), h.edge_sizes()
    if isinstance(h, AdjoinGraph):
        g = h.graph
        return g, g, h.nrealedges, g.degrees()[: h.nrealedges]
    raise TypeError(
        f"expected BiAdjacency or AdjoinGraph, got {type(h).__name__}"
    )


def _is_canonical(src: np.ndarray, dst: np.ndarray, n: int) -> bool:
    """``src < dst`` everywhere and the keys ``src·n + dst`` strictly
    ascending: the form :func:`finalize_edges` emits."""
    if src.size == 0:
        return True
    if not (src < dst).all():
        return False
    key = src * n + dst
    return bool((key[1:] > key[:-1]).all())


def canonical_pairs(
    src: np.ndarray,
    dst: np.ndarray,
    counts: np.ndarray | None,
    num_hyperedges: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``(src, dst, counts)`` with ``src < dst``, sorted, deduplicated.

    Self-pairs are dropped.  Duplicates must agree on their count (they
    always do — overlap is a function of the pair), so first-wins dedup
    is safe.  Input already in that form — what the upper-half kernels
    emit — is returned as it is after one vectorised check, with no sort.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if _is_canonical(src, dst, num_hyperedges):
        return src, dst, counts
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    counts = None if counts is None else np.asarray(counts)[keep]
    if lo.size:
        key = lo * num_hyperedges + hi
        uniq, first = np.unique(key, return_index=True)
        lo, hi = uniq // num_hyperedges, uniq % num_hyperedges
        counts = None if counts is None else counts[first]
    return lo, hi, counts


def finalize_edges(
    src: np.ndarray,
    dst: np.ndarray,
    counts: np.ndarray | None,
    num_hyperedges: int,
) -> EdgeList:
    """Canonical s-line edge list: ``src < dst``, sorted, deduplicated.

    ``counts`` (overlap sizes) become weights; see
    :func:`canonical_pairs` for the rules.
    """
    lo, hi, w = canonical_pairs(src, dst, counts, num_hyperedges)
    w = None if w is None else np.asarray(w, np.float64)
    return EdgeList(lo, hi, w, num_vertices=num_hyperedges)


def empty_linegraph(num_hyperedges: int) -> EdgeList:
    """The canonical empty s-line graph (weighted, zero edges)."""
    zero = np.empty(0, dtype=np.int64)
    return finalize_edges(zero, zero, zero, num_hyperedges)


def filter_overlaps(el: EdgeList, s: int) -> EdgeList:
    """Derive ``L_s`` from a canonical ``L_{s'}`` edge list with ``s' <= s``.

    Every construction algorithm records the overlap size ``|e ∩ f|`` as
    the edge weight (:func:`finalize_edges`), and the s-line graphs are
    monotone in s: ``L_s ⊆ L_{s'}`` whenever ``s' <= s``, with identical
    overlap weights on the surviving pairs.  So the expensive counting pass
    never has to rerun — thresholding the weighted edge list is enough.
    The edge-list form of :meth:`repro.core.slinegraph.SLineGraph.derive`,
    which thresholds the CSR the serving cache holds.

    Raises ``ValueError`` if ``el`` carries no overlap weights (a weighted
    ``Σ w·w`` construction, or a hand-built list, cannot be thresholded).
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if el.weights is None:
        raise ValueError(
            "filter_overlaps requires overlap counts as edge weights"
        )
    keep = el.weights >= s
    return EdgeList(
        el.src[keep],
        el.dst[keep],
        el.weights[keep],
        num_vertices=el.num_vertices(),
    )


def intersect_count_sorted(a: np.ndarray, b: np.ndarray) -> int:
    """|a ∩ b| for two *sorted unique* int arrays (searchsorted merge).

    The inner kernel of the set-intersection algorithms ([17], Algorithm 2).
    """
    if a.size > b.size:
        a, b = b, a
    if a.size == 0:
        return 0
    pos = np.searchsorted(b, a)
    pos[pos == b.size] = b.size - 1
    return int(np.count_nonzero(b[pos] == a))


def batch_intersect_counts(
    members: CSR, pairs: np.ndarray
) -> np.ndarray:
    """``|members[a] ∩ members[b]|`` for every row ``(a, b)`` of ``pairs``.

    The batched form of :func:`intersect_count_sorted`: all pairs of one
    chunk are intersected with two sorted-key-array passes instead of a
    Python loop per pair.  Keys pack ``(pair_index, node)`` so collisions
    across pairs are impossible; ``np.intersect1d`` on the two key arrays
    yields exactly the common members, and a ``bincount`` over the pair
    index recovers per-pair counts.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.size == 0:
        return np.empty(0, dtype=np.int64)
    from repro.graph.traversal import multi_slice

    n_v = members.num_targets()
    idx = np.arange(pairs.shape[0], dtype=np.int64)

    def keyed(side: np.ndarray) -> np.ndarray:
        starts = members.indptr[side]
        counts = members.indptr[side + 1] - starts
        vals = multi_slice(members.indices, starts, counts)
        owner = np.repeat(idx, counts)
        return owner * n_v + vals

    common = np.intersect1d(
        keyed(pairs[:, 0]), keyed(pairs[:, 1]), assume_unique=True
    )
    return np.bincount(common // n_v, minlength=pairs.shape[0]).astype(np.int64)


def upper_bounds(
    indices: np.ndarray, lo: np.ndarray, hi: np.ndarray, key: np.ndarray
) -> np.ndarray:
    """Per sorted slice ``indices[lo[i]:hi[i]]``, the first position > key[i].

    One lockstep bisection over all slices at once: each round halves
    every still-open ``[lo, hi)`` window with one gather and compare, and
    closed windows drop out of the active set, so the cost is
    ``Σ log(hi - lo)`` element steps — no pass over ``indices`` itself.
    Equal entries stay on the left, which is ``searchsorted(side='right')``
    per slice and so holds on rows with repeated values too.
    """
    lo = lo.copy()
    hi = hi.copy()
    live = np.flatnonzero(lo < hi)
    while live.size:
        lo_l, hi_l = lo[live], hi[live]
        mid = (lo_l + hi_l) >> 1
        right = indices[mid] <= key[live]
        lo_l = np.where(right, mid + 1, lo_l)
        hi_l = np.where(right, hi_l, mid)
        lo[live] = lo_l
        hi[live] = hi_l
        live = live[lo_l < hi_l]
    return lo


def _two_hop_slices(
    edges: CSR, nodes: CSR, hyperedge_ids: np.ndarray, upper_only: bool
):
    """Hop 1 and the hop-2 slice bounds of a two-hop walk from ``ids``.

    Returns ``(starts, sizes, e_for_member, lo, m_sizes, work)``: hop 1
    visits ``edges.indices[starts[i]:starts[i]+sizes[i]]`` for id *i*;
    member *k* (owned by hyperedge ``e_for_member[k]``) contributes the
    hop-2 candidates ``nodes.indices[lo[k]:lo[k]+m_sizes[k]]``.  Under
    ``upper_only`` that slice starts after e's own slot — at the first
    entry ``> e`` of the member's sorted row — so only the ``f > e`` half
    (line 10's ``i < j``) is ever gathered; degree-1 members (whose row
    is ``[e]``) contribute nothing.  ``work`` is the paper's traversal
    count, ``members + Σ deg(v)`` over members of degree > 1 (every
    member when ``upper_only`` is off), taken from the degrees alone.
    """
    if upper_only and not nodes.has_sorted_rows:
        raise ValueError(
            "the upper-half two-hop walk needs a node CSR with sorted rows"
        )
    from repro.graph.traversal import multi_slice

    starts = edges.indptr[hyperedge_ids]
    sizes = edges.indptr[hyperedge_ids + 1] - starts
    members = multi_slice(edges.indices, starts, sizes)
    e_for_member = np.repeat(hyperedge_ids, sizes)
    m_starts = nodes.indptr[members]
    m_ends = nodes.indptr[members + 1]
    degrees = m_ends - m_starts
    if upper_only:
        lo = upper_bounds(nodes.indices, m_starts, m_ends, e_for_member)
        traversed = int(degrees[degrees > 1].sum())
    else:
        lo = m_starts
        traversed = int(degrees.sum())
    return (
        starts, sizes, e_for_member, lo, m_ends - lo,
        members.size + traversed,
    )


def _pair_keys(
    e_for_member: np.ndarray, m_sizes: np.ndarray, cand: np.ndarray, n: int
) -> np.ndarray:
    """Pack ``e * n + f`` per candidate: ``uint32`` when every key fits.

    ``e * n`` is formed once per member and repeated in the key dtype,
    then the candidates are added in place — no int64 source column.
    """
    dtype = np.uint32 if n * n <= 2**32 else np.int64
    key = np.repeat((e_for_member * n).astype(dtype), m_sizes)
    np.add(key, cand, out=key, casting="unsafe")
    return key


def _split_keys(key: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unpack :func:`_pair_keys` into int64 ``(src, dst)`` columns."""
    src = key // key.dtype.type(n)
    dst = key - src * key.dtype.type(n)
    return src.astype(np.int64), dst.astype(np.int64)


def two_hop_pair_counts(
    edges: CSR,
    nodes: CSR,
    hyperedge_ids: np.ndarray,
    *,
    upper_only: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Vectorized two-hop expansion with per-pair multiplicity counts.

    For every hyperedge *e* in ``hyperedge_ids``, walks e → member
    hypernode → co-incident hyperedge *f* and counts how often each ``(e,
    f)`` pair appears — which is exactly ``|e ∩ f|``.  This is the hashmap
    algorithm's counting step, done with one in-place sort of packed
    ``e·n + f`` keys (``uint32`` when ``n² ≤ 2³²``) and one run-length
    pass instead of a per-edge hash table.

    Returns ``(src, dst, overlap, work)``, sorted by ``(src, dst)``, where
    ``work`` is the number of two-hop traversals the paper's kernel
    performs (``members + Σ deg(v)``; see :func:`_two_hop_slices`).
    ``upper_only`` keeps only ``f > e`` pairs (line 10's ``i < j``), and
    applies it *during* the gather: each member's hop-2 slice starts
    after e's slot in its sorted row, so the discarded half is never
    materialised.  That needs ``nodes.has_sorted_rows``; an unsorted node
    CSR raises ``ValueError``.  ``upper_only=False`` walks whole rows,
    diagonal self-pairs included (`s_traversal` relies on them).
    """
    hyperedge_ids = np.asarray(hyperedge_ids, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    if hyperedge_ids.size == 0:
        return empty, empty, empty, 0
    from repro.graph.traversal import multi_slice

    _, _, e_for_member, lo, m_sizes, work = _two_hop_slices(
        edges, nodes, hyperedge_ids, upper_only
    )
    cand = multi_slice(nodes.indices, lo, m_sizes)
    if cand.size == 0:
        return empty, empty, empty, work
    n = edges.num_vertices()
    key = _pair_keys(e_for_member, m_sizes, cand, n)
    del cand  # drop each stage's input once the next one is built
    key.sort()
    head = np.empty(key.size, dtype=bool)
    head[0] = True
    np.not_equal(key[1:], key[:-1], out=head[1:])
    first = np.flatnonzero(head)
    del head
    counts = np.diff(first, append=key.size)
    key = key[first]
    del first
    src, dst = _split_keys(key, n)
    return src, dst, counts, work


def two_hop_pair_weighted(
    edges: CSR,
    nodes: CSR,
    hyperedge_ids: np.ndarray,
    *,
    upper_only: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Like :func:`two_hop_pair_counts`, plus *weighted* overlaps.

    The weighted overlap of ``(e, f)`` is ``Σ_{v ∈ e∩f} w(e,v)·w(f,v)`` —
    the entries of the weighted ``BᵗB`` product — useful when incidences
    carry intensities (e.g. author contribution shares).  Requires both
    incidence CSRs to be weighted (as ``BiAdjacency.from_biedgelist``
    produces); raises ``ValueError`` otherwise.  It walks the same
    slices, so candidates arrive e-major then by ascending member, and
    each pair's products are summed in that order.

    Returns ``(src, dst, count, weighted)``.
    """
    if edges.weights is None or nodes.weights is None:
        raise ValueError("weighted overlap requires weighted incidences")
    hyperedge_ids = np.asarray(hyperedge_ids, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    if hyperedge_ids.size == 0:
        return empty, empty, empty, np.empty(0, dtype=np.float64)
    from repro.graph.traversal import multi_slice

    starts, sizes, e_for_member, lo, m_sizes, _ = _two_hop_slices(
        edges, nodes, hyperedge_ids, upper_only
    )
    cand = multi_slice(nodes.indices, lo, m_sizes)
    if cand.size == 0:
        return empty, empty, empty, np.empty(0, dtype=np.float64)
    w_first = multi_slice(edges.weights, starts, sizes)
    w_prod = np.repeat(w_first, m_sizes) * multi_slice(
        nodes.weights, lo, m_sizes
    )
    n = edges.num_vertices()
    uniq, inverse, counts = np.unique(
        _pair_keys(e_for_member, m_sizes, cand, n),
        return_inverse=True,
        return_counts=True,
    )
    weighted = np.bincount(inverse, weights=w_prod, minlength=uniq.size)
    src, dst = _split_keys(uniq, n)
    return src, dst, counts.astype(np.int64), weighted


def linegraph_csr(el: EdgeList) -> CSR:
    """Symmetrize an s-line edge list into a CSR graph ready for metrics."""
    return CSR.from_undirected(el)
