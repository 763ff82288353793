"""Hashmap-counting s-line construction — Liu et al. [18] (non-queue).

For each hyperedge *e* (outer parallel loop over the contiguous range
``[0, n_e)``), count, in a per-thread hash map, how many shared hypernodes
each co-incident hyperedge *f > e* has with *e*; emit ``{e, f}`` when the
count reaches *s*.  Degree-based pruning skips hyperedges with fewer than
*s* members.

The Python kernel replaces the per-edge hash map with one vectorized
multiplicity count over the chunk's packed two-hop keys
(:func:`~repro.linegraph.common.two_hop_pair_counts`) — the same
arithmetic, one sort of packed keys instead of millions of hash probes,
and the ``f > e`` test applied while gathering: each member's row is
read only after e's own slot.  The
body lives in :class:`~repro.linegraph.kernels.HashmapCountKernel`, a
picklable pure kernel, so the same construction runs unchanged on the
simulated, threaded, and process backends.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.runtime import ParallelRuntime
from repro.structures.edgelist import EdgeList

from repro.obs.tracer import as_tracer

from .common import (
    emit_kernel_counters,
    empty_linegraph,
    finalize_edges,
    merge_kernel_stats,
    pair_counters,
    resolve_incidence,
    resolve_runtime,
    total_candidates,
)

__all__ = ["slinegraph_hashmap"]


def slinegraph_hashmap(
    h,
    s: int = 1,
    runtime: ParallelRuntime | None = None,
    weighted: bool = False,
    tracer=None,
    metrics=None,
    backend=None,
    workers: int | None = None,
    kernel: str | None = None,
) -> EdgeList:
    """Hashmap-based counting construction over the full hyperedge range.

    This is the fastest non-queue algorithm in the paper's Fig. 9 and the
    normalization baseline of that figure.  Accepts ``BiAdjacency`` or
    ``AdjoinGraph``.

    ``weighted=True`` emits the weighted overlap ``Σ w(e,v)·w(f,v)`` as the
    edge weight (requires weighted incidences); the ``s`` threshold always
    applies to the *set* overlap ``|e ∩ f|`` per the paper's definition.

    ``backend``/``workers`` build a throwaway runtime on that execution
    backend (see :mod:`repro.parallel.backends`); alternatively pass a
    ``runtime`` already configured with one.

    ``kernel`` selects the counting body (one of
    :data:`~repro.linegraph.dispatch.KERNEL_NAMES`); the default
    ``"auto"`` is the degree-bucketed adaptive dispatcher — every choice
    yields bit-identical graphs.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    from .dispatch import make_count_kernel

    tr = as_tracer(tracer)
    c_cand, c_pruned, c_emit = pair_counters(metrics, "hashmap")
    edges, nodes, n, sizes = resolve_incidence(h)
    eligible = np.flatnonzero(sizes >= s).astype(np.int64)
    runtime, owned = resolve_runtime(runtime, backend, workers)

    try:
        with tr.span("slinegraph.hashmap", s=s, weighted=weighted) as span:
            with tr.span("hashmap.count"):
                if runtime is None:
                    body = make_count_kernel(
                        kernel, edges, nodes, s, weighted=weighted
                    )
                    parts = [body(eligible).value]
                else:
                    runtime.new_run()
                    with runtime.share(edges, nodes) as (se, sn):
                        body = make_count_kernel(
                            kernel, se, sn, s, weighted=weighted
                        )
                        parts = runtime.parallel_for(
                            runtime.partition(eligible),
                            body,
                            phase="hashmap_count",
                            pure=True,
                        )
            if not parts:
                return empty_linegraph(n)
            src = np.concatenate([p[0] for p in parts])
            dst = np.concatenate([p[1] for p in parts])
            cnt = np.concatenate([p[2] for p in parts])
            stats = merge_kernel_stats([p[3] for p in parts])
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
            with tr.span("hashmap.finalize"):
                return finalize_edges(src, dst, cnt, n)
    finally:
        if owned:
            runtime.close()
