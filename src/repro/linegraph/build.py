"""One s-line build pipeline over a table of presets (paper §III-C.3).

The paper's s-line constructions (Fig. 9) are one family.  Each member
emits ``{e, f}`` when ``|e ∩ f| ≥ s`` and differs from the others in two
things only: how the work is iterated, and which body counts each
overlap (hashmap [18] or set intersection [17]).  So there is one driver,
:func:`build_slinegraph`, and each named algorithm is one row of
:data:`PRESETS`.  Every build runs the same steps: resolve the incidence,
pick the frontier, build the runtime, map a pure kernel over the CSRs
with ``parallel_for``, concatenate, count, then finalize
(or, for the ensemble, filter once per ``s``).

The three iteration shapes:

``range``
    The contiguous hyperedge range ``[0, n_e)``, degree-pruned up front
    to ``|e| ≥ s`` (hashmap, intersection, the ensemble, and the
    threaded preset).  The naive oracle walks every ID unpruned.

``queue`` — **Algorithm 1**, single-phase queue-based hashmap
    Instead of a fixed ``for e in [0, n_e)`` loop, all candidate
    hyperedge IDs are first *enqueued* into per-thread work queues
    (Alg. 1 line 2) and then processed from the merged queue — so the
    IDs may be original, permuted by relabel-by-degree, or
    adjoin-consolidated; the iteration structure no longer assumes a
    contiguous ``[0, n_e)`` space.  Per item the counting step is the
    hashmap algorithm's, with the line-6 degree filter inside the
    kernel; enqueuing is linear in the number of hyperedges, so
    asymptotic complexity is unchanged.  Line 15 concatenates the
    per-thread edge lists (a prefix sum, then a parallel copy).

``pairs`` — **Algorithm 2**, two-phase queue-based set intersection
    Phase 1 (lines 1–6) walks every eligible hyperedge's two-hop
    neighborhood and enqueues each candidate pair ``(e_i, e_j)``,
    ``i < j``, into per-thread queues, then merges them.  Phase 2
    (lines 9–13) drains the pair queue; per pair, a sorted-merge set
    intersection of the two member lists decides ``|e_i ∩ e_j| ≥ s``.
    Because phase 2 iterates over *pairs* — a single flat loop — the
    workload granularity is much finer than the three-nested-loop
    one-phase algorithms, which is the load-balancing advantage
    §III-C.3 argues for.  Phase 2's chunks are the drained pair rows
    themselves (consumed once, so they travel with the tasks while the
    member CSR stays shared).

Both queue shapes work on either representation (``BiAdjacency`` or
``AdjoinGraph``) and accept ``queue_ids``: each ID is enqueued once, and
the result does not depend on their order, because line 10's ``i < j``
comparison covers each unordered pair exactly once either way.  The
``matrix`` row is the scipy ``BᵗB`` oracle: one sparse product, no
runtime, no instruments.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.obs.tracer import as_tracer
from repro.parallel.backends import default_workers, inline_pool
from repro.parallel.runtime import ParallelRuntime, TaskResult
from repro.parallel.workqueue import ThreadLocalQueues
from repro.structures.edgelist import EdgeList

from .common import (
    canonical_pairs,
    emit_kernel_counters,
    finalize_edges,
    merge_kernel_stats,
    pair_counters,
    resolve_incidence,
    resolve_runtime,
    total_candidates,
)
from .dispatch import KERNEL_NAMES, make_count_kernel
from .kernels import NaivePairsKernel, PairGatherKernel, PairIntersectKernel
from .vectorized import slinegraph_matrix

__all__ = [
    "ALGORITHMS",
    "PRESETS",
    "Preset",
    "build_slinegraph",
    "slinegraph_ensemble",
    "slinegraph_hashmap",
    "slinegraph_intersection",
    "slinegraph_naive",
    "slinegraph_queue_hashmap",
    "slinegraph_queue_intersection",
    "slinegraph_threaded",
    "to_two_graph",
]


@dataclass(frozen=True)
class Preset:
    """One named construction: its iteration, its body, what it reports.

    ``shape`` is ``range``, ``queue``, ``pairs`` or ``matrix``.
    ``label`` names the ``slinegraph_*_pairs_total{algorithm=...}``
    counters and the spans ``slinegraph.<label>`` and ``<label>.<step>``
    for each of ``steps``, in order; ``phases`` are the simulated
    ledger's phase names, in order.  ``kernel`` is the default counting
    body (``None``: the shape's own oracle or pair bodies) and
    ``kernels`` the accepted ``kernel=`` values.  ``backend`` pins the
    execution backend a build runs on when no runtime is passed.
    ``ensemble`` builds every requested ``s`` from one count.
    """

    shape: str
    label: str
    steps: tuple[str, ...] = ()
    phases: tuple[str, ...] = ()
    kernel: str | None = "auto"
    kernels: tuple[str, ...] = KERNEL_NAMES
    backend: str | None = None
    ensemble: bool = False


_HASHMAP = Preset(
    "range", "hashmap", ("count", "finalize"), ("hashmap_count",)
)

#: every construction, by name; ``to_two_graph`` accepts these and ``auto``
PRESETS: dict[str, Preset] = {
    "naive": Preset(
        "range", "naive", ("pairs", "finalize"), ("naive_pairs",),
        kernel=None, kernels=(),
    ),
    "intersection": Preset(
        "range", "intersection", ("candidates", "finalize"),
        ("intersection",), kernel="intersection",
    ),
    "hashmap": _HASHMAP,
    "queue_hashmap": Preset(
        "queue", "queue_hashmap", ("enqueue", "count", "finalize"),
        ("enqueue_ids", "queue_hashmap", "merge_offsets",
         "merge_results_copy"),
    ),
    "queue_intersection": Preset(
        "pairs", "queue_intersection",
        ("enqueue_pairs", "intersect", "finalize"),
        ("enqueue_pairs", "merge_pair_queue_offsets",
         "merge_pair_queue_copy", "intersect_pairs"),
        kernel="intersection", kernels=("auto", "intersection"),
    ),
    "matrix": Preset("matrix", "matrix", kernel=None, kernels=()),
    # hashmap counting on a cyclic thread pool, sized by ``workers``
    "threaded": replace(_HASHMAP, backend="threaded"),
    "ensemble": Preset(
        "range", "ensemble", ("count", "filter"), ("ensemble_count",),
        ensemble=True,
    ),
}

#: the single-s constructions (everything but the ensemble)
ALGORITHMS: dict[str, Preset] = {
    name: p for name, p in PRESETS.items() if not p.ensemble
}


def _preset(algorithm: str, h) -> Preset:
    """Look ``algorithm`` up; ``auto`` is Algorithm 1 on adjoin inputs."""
    if algorithm == "auto":
        from repro.structures.adjoin import AdjoinGraph

        algorithm = (
            "queue_hashmap" if isinstance(h, AdjoinGraph) else "hashmap"
        )
    try:
        return PRESETS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from "
            f"{sorted(PRESETS) + ['auto']}"
        ) from None


def _queue_ids(queue_ids, n: int) -> np.ndarray:
    """The IDs to enqueue: all of ``[0, n)``, or ``queue_ids`` checked.

    Alg. 1 line 2 enqueues each hyperedge exactly once; a duplicated ID
    inside one counting chunk would double its pair multiplicities.
    """
    if queue_ids is None:
        return np.arange(n, dtype=np.int64)
    ids = np.unique(np.asarray(queue_ids, dtype=np.int64))
    if ids.size and (ids[0] < 0 or ids[-1] >= n):
        raise ValueError(
            f"queue_ids must lie in [0, {n}); got IDs from {ids[0]} "
            f"to {ids[-1]}"
        )
    return ids


#: the candidate volume of one inline chunk: Σ_{v∈e} deg(v) over its rows
#: (the two-hop expansion estimate the dispatcher buckets by), or
#: Σ (|e| + |f|) over its pair rows
CHUNK_CANDIDATES = 1 << 20


def _row_volume(edges, nodes, ids: np.ndarray) -> np.ndarray:
    """Σ_{v∈e} deg(v) of each hyperedge of ``ids``."""
    from repro.graph.traversal import multi_slice

    starts = edges.indptr[ids]
    counts = edges.indptr[ids + 1] - starts
    members = multi_slice(edges.indices, starts, counts)
    cum = np.zeros(members.size + 1, dtype=np.int64)
    np.cumsum(
        nodes.indptr[members + 1] - nodes.indptr[members], out=cum[1:]
    )
    ends = np.cumsum(counts)
    return cum[ends] - cum[ends - counts]


def _pair_volume(edges, pairs: np.ndarray) -> np.ndarray:
    """Running Σ (|e| + |f|) through each pair row ``(e, f)``."""
    sizes = edges.indptr[pairs + 1] - edges.indptr[pairs]
    return np.cumsum(sizes.sum(axis=1))


def _cut(items: np.ndarray, volume: np.ndarray) -> list[np.ndarray]:
    """Split ``items`` into runs whose volume stays within the budget.

    ``volume`` is the running total through each item; an item bigger
    than the budget is a chunk of its own.  Chunks keep the item order.
    """
    bounds = [0]
    while bounds[-1] < volume.size:
        start = bounds[-1]
        base = int(volume[start - 1]) if start else 0
        end = int(np.searchsorted(volume, base + CHUNK_CANDIDATES, "right"))
        bounds.append(max(end, start + 1))
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _map_inline(body, items: np.ndarray, volume, n: int) -> list:
    """The inline walk: ``items`` in chunks bounded by candidate volume.

    Each chunk's count is reduced to canonical ``(src, dst, overlap)``
    (:func:`canonical_pairs`) inside its task, so only the reduced chunks
    outlive it; the items are ascending, so the chunks concatenate in
    order to a canonical list.  More than one chunk runs on the shared
    thread pool when the process may use more than one CPU.
    ``volume=None`` walks the items in one call.
    """
    chunks = [items] if volume is None else _cut(items, volume) or [items]

    def run(chunk):
        value = body(chunk).value
        if len(value) != 4:  # gathered pair rows are already canonical
            return value
        src, dst, cnt, stats = value
        return (*canonical_pairs(src, dst, cnt, n), stats)

    if len(chunks) > 1 and default_workers() > 1:
        return inline_pool().map(run, chunks)
    return [run(chunk) for chunk in chunks]


def _map(runtime, make_body, shared: tuple, items: np.ndarray, phase: str):
    """One pure kernel phase over ``items`` (IDs, or pair rows).

    Inline (no runtime) the items are walked in volume-bounded chunks
    (:func:`_map_inline`), and a two-CSR body is built with each
    hyperedge's ``Σ deg(v)`` as its ``expansion``; the all-pairs oracle,
    which gathers no
    two-hop candidates, runs in one call.  On a runtime the items are
    partitioned (pair rows by row index, each task carrying its own
    rows) and every task reads the same ``shared`` inputs.
    """
    if runtime is None:
        edges = shared[0]
        n = edges.num_vertices()
        if items.ndim == 2:
            body, volume = make_body(*shared), _pair_volume(edges, items)
        elif len(shared) == 2:
            # the dispatcher buckets by the same per-row estimate, so it
            # travels to the body instead of being recounted per chunk
            rows = _row_volume(edges, shared[1], items)
            expansion = np.zeros(n, dtype=np.int64)
            expansion[items] = rows
            body = make_body(*shared, expansion=expansion)
            volume = np.cumsum(rows)
        else:
            body, volume = make_body(*shared), None
        return _map_inline(body, items, volume, n)
    chunks = runtime.partition(items if items.ndim == 1 else items.shape[0])
    if items.ndim == 2:
        chunks = [items[idx] for idx in chunks]
    return runtime.parallel_for(
        chunks, make_body(*shared), phase=phase, pure=True
    )


def _columns(parts: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate the chunks' ``(src, dst, overlap)`` columns.

    One column at a time, dropping each chunk's copy of it as soon as
    it is joined, so the peak is the result plus one column; ``parts``
    is emptied.
    """
    cols = [[p[k] for p in parts] for k in range(3)]
    parts.clear()
    out = []
    for col in cols:
        if not col:
            out.append(np.empty(0, dtype=np.int64))
        else:
            out.append(col[0] if len(col) == 1 else np.concatenate(col))
        col.clear()
    return out[0], out[1], out[2]


def _enqueue_cost(chunk: np.ndarray) -> TaskResult:
    return TaskResult(chunk, float(chunk.size))


def _copy_cost(chunk: np.ndarray) -> TaskResult:
    return TaskResult(None, float(chunk.size))


def _merge_queues(parts, num_threads: int, width: int) -> np.ndarray:
    """Push part ``i`` to thread ``i % num_threads``'s queue, then merge.

    The round-robin placement mirrors the simulated static placement;
    the merge order is fixed, so the drained queue is deterministic.
    """
    local = ThreadLocalQueues(num_threads, width=width)
    for i, part in enumerate(parts):
        local.push(i % num_threads, part)
    return local.merge()


def _charge_merge(runtime, items: int, phases: tuple[str, ...]) -> None:
    """Concatenating per-thread buffers: a serial prefix sum over the
    thread counts, then a parallel block copy (the C++ concatenation)."""
    if runtime is not None:
        runtime.serial_phase(float(runtime.num_threads), phase=phases[0])
        runtime.parallel_for(
            runtime.partition(items), _copy_cost, phase=phases[1]
        )


def build_slinegraph(
    h,
    s,
    algorithm: str = "hashmap",
    *,
    runtime: ParallelRuntime | None = None,
    queue_ids: np.ndarray | None = None,
    tracer=None,
    metrics=None,
    backend=None,
    workers: int | None = None,
    kernel: str | None = None,
    weighted: bool = False,
):
    """Build the s-line graph of ``h`` with the :data:`PRESETS` row named
    ``algorithm``; for the ensemble, ``s`` is a sequence and the result
    is ``{s: L_s(H)}``.

    ``h`` is a ``BiAdjacency`` or ``AdjoinGraph``.  ``queue_ids`` (the
    queue shapes only) are hyperedge IDs in ``[0, n_e)``; out-of-range
    IDs raise ``ValueError``.  ``backend``/``workers`` build a throwaway
    runtime on that execution backend in place of ``runtime``.
    ``kernel`` overrides the row's counting body with one of its
    ``kernels``.  ``weighted=True`` (hashmap and matrix) emits the
    weighted overlap ``Σ w(e,v)·w(f,v)`` as the edge weight; the ``s``
    threshold stays on the set overlap.  Every choice of representation,
    runtime, backend and kernel yields the identical canonical graph.
    """
    preset = _preset(algorithm, h)
    if kernel is not None and kernel not in preset.kernels:
        raise ValueError(
            f"kernel={kernel!r} does not apply to {algorithm!r}; it takes "
            f"{list(preset.kernels) or 'none (an oracle)'}"
        )
    if weighted and preset.label not in ("hashmap", "matrix"):
        raise ValueError(
            "weighted construction supports algorithm='hashmap' or "
            f"'matrix', not {algorithm!r}"
        )
    s_values = [s]
    if preset.ensemble:
        if isinstance(s, (int, np.integer)):
            raise ValueError(f"{algorithm!r} takes a sequence of s values")
        s_values = sorted({int(v) for v in s})
        if not s_values:
            return {}
        s = s_values[0]
    if s < 1:
        raise ValueError("s must be >= 1")
    if preset.shape == "matrix":
        return slinegraph_matrix(h, s, weighted=weighted)
    if preset.backend is not None:
        if backend not in (None, preset.backend):
            raise ValueError(
                f"{algorithm!r} runs on the {preset.backend!r} backend, "
                f"not {backend!r}"
            )
        if runtime is None:
            backend = preset.backend

    tr = as_tracer(tracer)
    c_cand, c_pruned, c_emit = pair_counters(metrics, preset.label)
    edges, nodes, n, sizes = resolve_incidence(h)
    if preset.shape != "range":
        queue_ids = _queue_ids(queue_ids, n)
    runtime, owned = resolve_runtime(runtime, backend, workers)
    nt = runtime.num_threads if runtime is not None else 1
    name = kernel or preset.kernel

    def count_body(e, nd, expansion=None):
        return make_count_kernel(
            name, e, nd, s, weighted=weighted, expansion=expansion
        )

    step = [f"{preset.label}.{x}" for x in preset.steps]
    attrs = (
        {"s_min": s, "num_s": len(s_values)}
        if preset.ensemble else {"s": s, "weighted": weighted}
    )
    stats_parts: list[dict] = []
    try:
        with tr.span(f"slinegraph.{preset.label}", **attrs) as span:
            if runtime is not None:
                runtime.new_run()
            if preset.shape == "range" and name is None:
                # the all-pairs oracle tests every ID against every other
                with tr.span(step[0]):
                    parts = _map(
                        runtime, lambda e: NaivePairsKernel(e, s, n),
                        (edges,), np.arange(n, dtype=np.int64),
                        preset.phases[0],
                    )
            elif preset.shape == "range":
                eligible = np.flatnonzero(sizes >= s).astype(np.int64)
                with tr.span(step[0]):
                    parts = _map(
                        runtime, count_body, (edges, nodes), eligible,
                        preset.phases[0],
                    )
            elif preset.shape == "queue":
                with tr.span(step[0]):  # Alg. 1 line 2
                    if runtime is not None:
                        queue_ids = _merge_queues(
                            runtime.parallel_for(
                                runtime.partition(queue_ids),
                                _enqueue_cost,
                                phase=preset.phases[0],
                            ),
                            nt, 1,
                        )
                with tr.span(step[1]):  # lines 5–14
                    parts = _map(
                        runtime, count_body, (edges, nodes), queue_ids,
                        preset.phases[1],
                    )
                _charge_merge(  # line 15
                    runtime, sum(p[0].size for p in parts),
                    preset.phases[2:4],
                )
            else:  # pairs
                with tr.span(step[0]):  # phase 1, lines 1–6
                    gathered = _map(
                        runtime,
                        lambda e, nd, expansion=None: PairGatherKernel(
                            e, nd, s
                        ),
                        (edges, nodes),
                        queue_ids[sizes[queue_ids] >= s],
                        preset.phases[0],
                    )
                    pairs = _merge_queues(
                        [g[0] for g in gathered], nt, 2
                    )
                    _charge_merge(
                        runtime, pairs.shape[0], preset.phases[1:3]
                    )
                    stats_parts = [g[1] for g in gathered]
                with tr.span(step[1]):  # phase 2, lines 9–13
                    parts = _map(
                        runtime, lambda e: PairIntersectKernel(e, s),
                        (edges,), pairs, preset.phases[3],
                    )

            stats = merge_kernel_stats(stats_parts + [p[3] for p in parts])
            src, dst, cnt = _columns(parts)
            candidates = total_candidates(stats)
            c_cand.inc(candidates)
            c_pruned.inc(candidates - src.size)
            c_emit.inc(src.size)
            emit_kernel_counters(metrics, stats)
            span.set(
                candidates=candidates,
                emitted=int(src.size),
                kernels=",".join(sorted(k for k in stats if k != "dispatch")),
            )
            with tr.span(step[-1]):
                if not preset.ensemble:
                    return finalize_edges(src, dst, cnt, n)
                out: dict[int, EdgeList] = {}
                for v in s_values:
                    keep = cnt >= v
                    out[v] = finalize_edges(src[keep], dst[keep], cnt[keep], n)
                return out
    finally:
        if owned:
            runtime.close()


def to_two_graph(
    h,
    s: int = 1,
    algorithm: str = "hashmap",
    runtime: ParallelRuntime | None = None,
    queue_ids: np.ndarray | None = None,
    tracer=None,
    metrics=None,
    backend=None,
    workers: int | None = None,
    kernel: str | None = None,
):
    """Construct the s-line ("two-graph") edge list of a hypergraph.

    Paper-style entry point (Listing 2's ``to_two_graph_hashmap_cyclic``
    family) over :data:`ALGORITHMS`.  ``'auto'`` picks the configuration
    the Fig. 9 measurements favor: hashmap counting on the bipartite
    representation, its queue-based variant (Algorithm 1) for adjoin
    inputs.  The queue-based algorithms additionally accept
    ``queue_ids``; the matrix oracle ignores ``runtime`` (one sparse
    product).

    ``tracer``/``metrics`` (:mod:`repro.obs`, no-op when ``None``) reach
    every instrumented algorithm; the ``matrix`` oracle is uninstrumented
    and ignores them.  ``backend``/``workers`` select a real execution
    backend (``'threaded'``) when no ``runtime`` is passed —
    results are bit-identical either way (see docs/PARALLEL.md);
    ``threaded`` accepts only its own backend.

    ``kernel`` selects the counting body (one of
    :data:`~repro.linegraph.dispatch.KERNEL_NAMES`; ``None`` → each
    preset's default, which for the hashmap-family presets is the
    degree-bucketed adaptive dispatcher — see docs/KERNELS.md).  The
    ``naive`` and ``matrix`` oracles reject it.
    """
    return build_slinegraph(
        h, s, algorithm, runtime=runtime, queue_ids=queue_ids,
        tracer=tracer, metrics=metrics, backend=backend, workers=workers,
        kernel=kernel,
    )


def slinegraph_naive(
    h, s: int = 1, runtime: ParallelRuntime | None = None,
    tracer=None, metrics=None, backend=None, workers: int | None = None,
) -> EdgeList:
    """All-pairs oracle: O(n_e²) intersections, never dispatched."""
    return build_slinegraph(
        h, s, "naive", runtime=runtime, tracer=tracer, metrics=metrics,
        backend=backend, workers=workers,
    )


def slinegraph_intersection(
    h, s: int = 1, runtime: ParallelRuntime | None = None,
    tracer=None, metrics=None, backend=None, workers: int | None = None,
    kernel: str | None = None,
) -> EdgeList:
    """Candidate gather + per-pair set intersection over ``[0, n_e)`` [17]."""
    return build_slinegraph(
        h, s, "intersection", runtime=runtime, tracer=tracer,
        metrics=metrics, backend=backend, workers=workers, kernel=kernel,
    )


def slinegraph_hashmap(
    h, s: int = 1, runtime: ParallelRuntime | None = None,
    weighted: bool = False, tracer=None, metrics=None, backend=None,
    workers: int | None = None, kernel: str | None = None,
) -> EdgeList:
    """Hashmap counting over ``[0, n_e)`` [18]; Fig. 9's baseline."""
    return build_slinegraph(
        h, s, "hashmap", runtime=runtime, weighted=weighted, tracer=tracer,
        metrics=metrics, backend=backend, workers=workers, kernel=kernel,
    )


def slinegraph_queue_hashmap(
    h, s: int = 1, runtime: ParallelRuntime | None = None,
    queue_ids: np.ndarray | None = None, tracer=None, metrics=None,
    backend=None, workers: int | None = None, kernel: str | None = None,
) -> EdgeList:
    """Algorithm 1: single-phase queue-based hashmap construction."""
    return build_slinegraph(
        h, s, "queue_hashmap", runtime=runtime, queue_ids=queue_ids,
        tracer=tracer, metrics=metrics, backend=backend, workers=workers,
        kernel=kernel,
    )


def slinegraph_queue_intersection(
    h, s: int = 1, runtime: ParallelRuntime | None = None,
    queue_ids: np.ndarray | None = None, tracer=None, metrics=None,
    backend=None, workers: int | None = None, kernel: str | None = None,
) -> EdgeList:
    """Algorithm 2: two-phase queue-based set-intersection construction."""
    return build_slinegraph(
        h, s, "queue_intersection", runtime=runtime, queue_ids=queue_ids,
        tracer=tracer, metrics=metrics, backend=backend, workers=workers,
        kernel=kernel,
    )


def slinegraph_threaded(
    h, s: int = 1, num_workers: int | None = None,
    runtime: ParallelRuntime | None = None, tracer=None, metrics=None,
    kernel: str | None = None,
) -> EdgeList:
    """Hashmap counting on a cyclic pool of ``num_workers`` threads."""
    return build_slinegraph(
        h, s, "threaded", runtime=runtime, workers=num_workers,
        tracer=tracer, metrics=metrics, kernel=kernel,
    )


def slinegraph_ensemble(
    h, s_values, runtime: ParallelRuntime | None = None,
    tracer=None, metrics=None, backend=None, workers: int | None = None,
    kernel: str | None = None,
) -> dict[int, EdgeList]:
    """``{s: L_s(H)}`` for every ``s`` in ``s_values`` from one count [18].

    Counting is pruned at ``min(s_values)``, and the pair counters are
    stated at that threshold — the one counting pass that runs.
    """
    return build_slinegraph(
        h, s_values, "ensemble", runtime=runtime, tracer=tracer,
        metrics=metrics, backend=backend, workers=workers, kernel=kernel,
    )
