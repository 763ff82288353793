"""Toplex computation — maximal hyperedges (paper Algorithm 3).

A *toplex* is a hyperedge contained in no other hyperedge.  Two
implementations:

* :func:`toplexes_algorithm3` — a faithful transcription of the paper's
  Algorithm 3 (grow a tentative toplex set, testing containment both ways
  and evicting subsumed members);
* :func:`toplexes` — a vectorized containment test that only looks where
  a superset can be.  A superset of ``e`` must contain e's **rarest**
  member ``r`` (the member of least degree), so its candidates are the
  hyperedges incident on ``r`` that are large enough to dominate ``e``;
  a hyperedge with a degree-1 member has no candidate at all and is
  maximal without a test.  Each surviving candidate ``f`` is checked by
  looking e's other members up in f's sorted row, the next-rarest first
  so most non-supersets fall after one lookup.  These are the
  degree-pruning heuristics of the high-order line-graph work (Liu et
  al., arXiv 2010.11448) with ``s = |e|`` per row.

Both return the same set.  Duplicate hyperedges: exactly one copy (the
lowest ID) is reported, matching Algorithm 3's ``i < j`` guard.
"""

from __future__ import annotations

import numpy as np

from repro.graph.traversal import multi_slice
from repro.linegraph.common import resolve_incidence
from repro.parallel.runtime import ParallelRuntime, TaskResult

__all__ = ["toplexes", "toplexes_algorithm3"]


def _dominated_rows(
    edges, nodes, node_deg: np.ndarray, sizes: np.ndarray,
    keys: np.ndarray, n_t: int, chunk: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Hyperedges of ``chunk`` that some other hyperedge dominates.

    ``keys`` holds ``f * n_t + v`` for every incidence ``(f, v)`` in edge
    order — globally sorted because the rows are.  Returns the dominated
    IDs (ascending) and the number of member lookups made.
    """
    chunk = chunk[sizes[chunk] > 0]
    size = sizes[chunk]
    members = multi_slice(edges.indices, edges.indptr[chunk], size)
    row = np.repeat(np.arange(chunk.size, dtype=np.int64), size)
    # each row's members rarest first
    members = members[np.lexsort((node_deg[members], row))]
    start = np.cumsum(size) - size
    # a degree-1 member is in no other hyperedge: the row is maximal
    open_rows = np.flatnonzero(node_deg[members[start]] > 1)
    rarest = members[start[open_rows]]
    counts = nodes.indptr[rarest + 1] - nodes.indptr[rarest]
    f = multi_slice(nodes.indices, nodes.indptr[rarest], counts)
    pair = np.repeat(open_rows, counts)
    e = chunk[pair]
    bigger = (sizes[f] > sizes[e]) | ((sizes[f] == sizes[e]) & (f < e))
    pair, f = pair[bigger], f[bigger]
    # f holds the rarest member; probe the next rarest for every pair,
    # then the remaining members for the pairs that pass
    n_test = size[pair] - 1
    first = n_test > 0
    alive = ~first  # a singleton {r} is inside every f on r
    alive[first] = _holds(keys, f[first], members[start[pair[first]] + 1], n_t)
    rest = np.flatnonzero(alive & first)
    n_rest = n_test[rest] - 1
    probe = multi_slice(members, start[pair[rest]] + 2, n_rest)
    found = _holds(keys, np.repeat(f[rest], n_rest), probe, n_t)
    misses = np.bincount(
        np.repeat(np.arange(rest.size), n_rest)[~found], minlength=rest.size
    )
    alive[rest[misses > 0]] = False
    work = int(first.sum()) + int(probe.size)
    return np.unique(chunk[pair[alive]]), work


def _holds(
    keys: np.ndarray, f: np.ndarray, v: np.ndarray, n_t: int
) -> np.ndarray:
    """Whether hyperedge ``f[k]`` has member ``v[k]``, for every ``k``."""
    if keys.size == 0 or f.size == 0:
        return np.zeros(f.size, dtype=bool)
    probe = f * n_t + v
    pos = np.searchsorted(keys, probe)
    return keys[np.minimum(pos, keys.size - 1)] == probe


def toplexes(
    h,
    runtime: ParallelRuntime | None = None,
    tracer=None,
    metrics=None,
) -> np.ndarray:
    """IDs of all maximal hyperedges, ascending (vectorized containment).

    ``h`` may be a ``BiAdjacency`` or an ``AdjoinGraph``.  A hyperedge *e*
    is dominated iff some *f* has ``e ⊆ f`` and either ``|f| > |e|``
    (proper superset) or ``|f| = |e|`` with ``f < e`` (duplicate; the
    smallest ID survives).  Only the hyperedges on e's rarest member are
    tested (see the module docstring).  ``runtime`` chunks the test over
    hyperedge IDs (phase ``toplex_containment``, work = members looked
    up).  ``tracer``/``metrics`` hook into :mod:`repro.obs` (span
    ``toplexes`` + dominated-count counter).
    """
    from repro.obs import as_metrics, as_tracer

    tr = as_tracer(tracer)
    m = as_metrics(metrics)
    edges, nodes, n_e, sizes = resolve_incidence(h)
    edges = edges.sort_rows()
    n_t = max(edges.num_targets(), 1)
    end = int(edges.indptr[n_e])
    keys = (
        np.repeat(np.arange(n_e, dtype=np.int64), sizes) * n_t
        + edges.indices[:end]
    )
    node_deg = np.diff(nodes.indptr)
    ids = np.arange(n_e, dtype=np.int64)

    def body(chunk: np.ndarray) -> TaskResult:
        dominated, work = _dominated_rows(
            edges, nodes, node_deg, sizes, keys, n_t, chunk
        )
        return TaskResult(dominated, float(work + chunk.size))

    with tr.span("toplexes", edges=int(n_e)):
        if runtime is None:
            parts = [body(ids).value]
        else:
            runtime.new_run()
            parts = runtime.parallel_for(
                runtime.partition(ids), body, phase="toplex_containment"
            )
    dominated = (
        np.unique(np.concatenate(parts)) if parts else np.empty(0, np.int64)
    )
    m.counter("toplex_dominated_total").inc(int(dominated.size))
    keep = np.ones(n_e, dtype=bool)
    keep[dominated] = False
    # empty hyperedges are contained in every hyperedge; Algorithm 3 treats
    # the empty set as dominated whenever any non-empty hyperedge exists
    if n_e and sizes.max(initial=0) > 0:
        empty_ids = np.flatnonzero(sizes == 0)
        keep[empty_ids] = False
        # ...unless *all* hyperedges are empty, in which case the first
        # empty hyperedge is the unique toplex (duplicate rule)
    elif n_e:
        keep[:] = False
        keep[0] = True
    return np.flatnonzero(keep).astype(np.int64)


def toplexes_algorithm3(h) -> np.ndarray:
    """Literal Algorithm 3 (quadratic reference implementation).

    Maintains the tentative toplex set ``Ě``; each hyperedge is tested for
    containment against the current members, evicting any it subsumes.
    Kept small and readable as the ground truth for :func:`toplexes`.
    """
    edges, _, n_e, sizes = resolve_incidence(h)
    members = [frozenset(edges[e].tolist()) for e in range(n_e)]
    toplex: list[int] = []
    for i in range(n_e):
        flag = True
        survivors: list[int] = []
        for j in toplex:
            if not flag:
                survivors.append(j)
                continue
            if members[i] <= members[j]:
                flag = False
                survivors.append(j)
            elif members[j] < members[i]:
                continue  # evict j: strictly contained in i
            elif members[j] == members[i]:  # pragma: no cover - unreachable
                flag = False
                survivors.append(j)
            else:
                survivors.append(j)
        toplex = survivors
        if flag:
            toplex.append(i)
    return np.array(sorted(toplex), dtype=np.int64)
