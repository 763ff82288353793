"""Incremental s-line graph maintenance — patch, don't rebuild.

An s-line edge ``{e, f}`` depends only on the member sets of ``e`` and
``f``, so after a mutation batch only pairs with at least one *dirty*
endpoint can change.  That is exactly the situation the paper's
queue-based construction algorithms (Algorithms 1–2) were built for: the
iteration space is whatever IDs are enqueued, not a fixed ``[0, n_e)``
range.  Seeding the queue with the delta frontier — the dirty hyperedges
plus the neighbors they reach through shared vertices — computes the
changed overlap counts without touching the rest of the graph.

The recounted pairs are spliced into the rows of the cached symmetric
CSR (:func:`splice_rows`); two equivalent recounts feed it:

* :func:`delta_pair_counts` — the overlay path.  Runs the queue-hashmap
  counting step (two-hop walk + packed-key multiplicity count) directly
  over an :class:`~repro.dynamic.overlay.OverlayState`, so no CSR of the
  mutated state is ever materialized.  :func:`patch_slinegraph` — what
  the service's ``update`` op, warm-restart roll-forward and
  :class:`IncrementalSLineGraph` use — runs it.
* :func:`builder_delta` — the frozen-CSR path.  Literally calls the
  stock queue-based builders (``queue_hashmap`` / ``queue_intersection``)
  with ``queue_ids`` set to the delta frontier, for callers that already
  hold a rebuilt :class:`~repro.structures.biadjacency.BiAdjacency`
  (``NWHypergraph.refresh_linegraphs``).

Both canonicalize their pairs with
:func:`repro.linegraph.common.finalize_edges`, so patched graphs remain
bit-identical to from-scratch rebuilds — the property the test suite
enforces — and keep riding the cache's s-monotone derive path.
:func:`patch_linegraph` and :func:`patch_with_builder` are the two
paths' edge-list faces, for callers holding a list.
"""

from __future__ import annotations

import numpy as np

from repro.core.slinegraph import SLineGraph
from repro.linegraph.common import finalize_edges, upper_bounds
from repro.structures.csr import CSR
from repro.structures.edgelist import EdgeList

from .policy import DEFAULT_PATCH_THRESHOLD, decide_patch_or_rebuild

__all__ = [
    "IncrementalSLineGraph",
    "builder_delta",
    "delta_frontier",
    "delta_pair_counts",
    "patch_linegraph",
    "patch_slinegraph",
    "patch_with_builder",
    "splice_rows",
]

_EMPTY = np.empty(0, dtype=np.int64)


def _dirty_array(dirty_ids) -> np.ndarray:
    arr = np.unique(np.asarray(list(dirty_ids), dtype=np.int64))
    if arr.size and arr[0] < 0:
        raise ValueError("dirty IDs must be non-negative")
    return arr


def delta_pair_counts(
    state, dirty_ids
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Overlap counts for every pair with a dirty endpoint (current state).

    ``state`` is anything exposing ``members(e)`` / ``memberships(v)`` /
    ``num_edges()`` over sorted unique arrays — an
    :class:`~repro.dynamic.overlay.OverlayState`, its dual, or a
    :class:`~repro.structures.biadjacency.BiAdjacency` via
    :func:`_adapt`.  Returns ``(src, dst, overlap, work)`` with ``src``
    dirty, ``dst`` any co-incident ID, both orientations present for
    dirty–dirty pairs (canonicalization happens in
    :func:`~repro.linegraph.common.finalize_edges`, whose first-wins
    dedup is safe because overlap is a function of the pair).  ``work``
    is the two-hop traversal count — the quantity the patch-vs-rebuild
    policy is calibrated against.
    """
    dirty = _dirty_array(dirty_ids)
    if dirty.size == 0:
        return _EMPTY, _EMPTY, _EMPTY, 0
    member_arrays = [state.members(int(e)) for e in dirty]
    sizes = np.fromiter(
        (a.size for a in member_arrays), count=dirty.size, dtype=np.int64
    )
    if int(sizes.sum()) == 0:
        return _EMPTY, _EMPTY, _EMPTY, 0
    members = np.concatenate(member_arrays)
    e_for_member = np.repeat(dirty, sizes)
    # resolve each distinct member's incident-edge list exactly once
    uniq_members, inverse = np.unique(members, return_inverse=True)
    incident = [state.memberships(int(v)) for v in uniq_members]
    inc_sizes = np.fromiter(
        (a.size for a in incident), count=uniq_members.size, dtype=np.int64
    )
    m_sizes = inc_sizes[inverse]
    cand = (
        np.concatenate([incident[i] for i in inverse])
        if members.size
        else _EMPTY
    )
    e_for_cand = np.repeat(e_for_member, m_sizes)
    work = int(cand.size + members.size)
    keep = cand != e_for_cand
    cand, e_for_cand = cand[keep], e_for_cand[keep]
    if cand.size == 0:
        return _EMPTY, _EMPTY, _EMPTY, work
    n = int(state.num_edges())
    key = e_for_cand * n + cand
    uniq, counts = np.unique(key, return_counts=True)
    return uniq // n, uniq % n, counts.astype(np.int64), work


def delta_frontier(state, dirty_ids) -> np.ndarray:
    """The queue seed: dirty IDs plus all IDs they share a vertex with.

    This is the frontier of Algorithms 1–2 restricted to the delta — the
    smallest ``queue_ids`` set for which the stock queue-based builders
    (whose pair enumeration keeps only ``f > e``) cover every pair with a
    dirty endpoint.
    """
    dirty = _dirty_array(dirty_ids)
    src, dst, _, _ = delta_pair_counts(state, dirty)
    return np.union1d(dirty, np.union1d(src, dst))


def splice_rows(graph: CSR, dirty_ids, delta: EdgeList) -> CSR:
    """``graph`` with the rows of ``dirty`` replaced by ``delta``'s pairs.

    ``graph`` is a symmetric s-line CSR (sorted rows, overlap counts as
    weights) and ``delta`` the canonical recounted pairs
    (:func:`~repro.linegraph.common.finalize_edges`) over the current
    vertex space, each with an endpoint in ``dirty_ids``.  The splice
    grows ``indptr`` for new IDs, drops every dirty row and every entry
    whose column is dirty (found by bisecting each neighbour's row, not
    by a pass over all entries; the compaction is skipped when nothing
    drops), then mirrors the delta and inserts it at per-row
    binary-searched positions with one ``np.insert`` per array.  No pair that survives
    is re-sorted, so the cost is O(nnz) copying plus the delta.
    """
    n = delta.num_vertices()
    n0 = graph.num_vertices()
    if n < n0:
        raise ValueError(
            "hyperedge space shrank; dynamic updates tombstone IDs, they "
            "never renumber"
        )
    dirty = _dirty_array(dirty_ids)
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    if n > n0:
        indptr = np.concatenate(
            [indptr, np.full(n - n0, indptr[-1], dtype=indptr.dtype)]
        )
    rows = dirty[dirty < n0]
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    if total:
        # every entry (r, c) of a dirty row r has its mirror (c, r) in row
        # c, at the last position <= r of that sorted row
        ends = np.cumsum(counts)
        at = np.repeat(starts - ends + counts, counts)
        at += np.arange(total, dtype=np.int64)
        cols = indices[at]
        mirror = upper_bounds(
            indices, indptr[cols], indptr[cols + 1], np.repeat(rows, counts)
        ) - 1
        keep = np.ones(indices.size, dtype=bool)
        keep[at] = False
        keep[mirror] = False
        survivors = np.zeros(indices.size + 1, dtype=np.int64)
        np.cumsum(keep, out=survivors[1:])
        indptr = survivors[indptr]
        indices = indices[keep]
        weights = weights[keep]
    if len(delta):
        src = np.concatenate([delta.src, delta.dst])
        dst = np.concatenate([delta.dst, delta.src])
        w = np.concatenate([delta.weights, delta.weights])
        order = np.lexsort((dst, src))
        src, dst, w = src[order], dst[order], w[order]
        at = upper_bounds(indices, indptr[src], indptr[src + 1], dst)
        indices = np.insert(indices, at, dst)
        weights = np.insert(weights, at, w)
        grown = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=grown[1:])
        indptr = indptr + grown
    return CSR.adopt(indptr, indices, weights, num_targets=n)


def _patch_graph(graph: CSR, state, dirty_ids, s: int, tracer, metrics):
    """Recount the dirty pairs against ``state`` and splice them in."""
    from repro.obs.metrics import as_metrics
    from repro.obs.tracer import as_tracer

    if s < 1:
        raise ValueError("s must be >= 1")
    if graph.weights is None:
        raise ValueError(
            "patching requires overlap counts as edge weights on the old "
            "s-line graph"
        )
    dirty = _dirty_array(dirty_ids)
    n = int(state.num_edges())
    tr = as_tracer(tracer)
    m = as_metrics(metrics)
    with tr.span("dynamic.patch", s=s, dirty=int(dirty.size)) as span:
        src, dst, counts, work = delta_pair_counts(state, dirty)
        live = counts >= s
        delta = finalize_edges(src[live], dst[live], counts[live], n)
        out = splice_rows(graph, dirty, delta)
        span.set(
            dropped=(graph.num_edges() - out.num_edges()) // 2 + len(delta),
            emitted=int(live.sum()),
            work=work,
        )
        m.counter("dynamic_patched_pairs_total").inc(int(live.sum()))
        m.counter("dynamic_patch_work_total").inc(work)
    return out


def patch_linegraph(
    old_el: EdgeList,
    state,
    dirty_ids,
    s: int,
    *,
    tracer=None,
    metrics=None,
) -> EdgeList:
    """Patch a canonical s-line edge list against the current state.

    The edge-list face of :func:`patch_slinegraph`: ``old_el`` is
    indexed into its symmetric CSR, the dirty pairs are recounted with
    the queue-hashmap counting step and spliced in (:func:`splice_rows`),
    and the upper view of the result is returned.  ``old_el`` must be
    canonical and carry overlap counts as weights (every unweighted
    construction algorithm emits both) — patching a weight-less list
    would silently break the cache's s-monotone derive path, so it
    raises instead.
    """
    graph = _patch_graph(
        SLineGraph(old_el, s).graph, state, dirty_ids, s, tracer, metrics
    )
    return SLineGraph.from_csr(graph, s).edgelist


def patch_slinegraph(
    old: SLineGraph,
    state,
    dirty_ids,
    *,
    threshold: float = DEFAULT_PATCH_THRESHOLD,
    tracer=None,
    metrics=None,
) -> SLineGraph | None:
    """Decide and splice: the patched ``L_s``, or ``None``.

    The one decide → recount → :func:`splice_rows` step every
    maintainer shares (the service's ``update`` op, warm-restart
    roll-forward, :class:`IncrementalSLineGraph`).  ``state`` is the
    side's overlay view (``dyn.state`` or ``dyn.state.dual()``) and
    ``dirty_ids`` the IDs of that side touched since ``old`` was
    current — one batch's delta or the union of many, since a pair with
    no dirty endpoint keeps its member sets and so its overlap.
    ``None`` means the caller must not patch: the policy
    (:func:`~repro.dynamic.policy.decide_patch_or_rebuild`) prefers a
    rebuild, or ``old`` carries no overlap weights.
    """
    if decide_patch_or_rebuild(
        len(dirty_ids), state.num_edges(), threshold
    ) != "patch":
        return None
    try:
        graph = _patch_graph(
            old.graph, state, dirty_ids, old.s, tracer, metrics
        )
    except ValueError:
        return None
    return SLineGraph.from_csr(graph, old.s, old.over_edges)


def builder_delta(
    h,
    dirty_ids,
    s: int,
    *,
    algorithm: str = "queue_hashmap",
    runtime=None,
    tracer=None,
    metrics=None,
) -> EdgeList:
    """The recounted pairs with a dirty endpoint, by a stock queue builder.

    ``h`` is a ``BiAdjacency`` or ``AdjoinGraph`` of the *post-mutation*
    state.  The builder is seeded with the delta frontier
    (:func:`delta_frontier` computed on ``h``); of its canonical output
    only the pairs touching a dirty ID are kept — the clean–clean pairs
    it also covers are unchanged in the old graph.
    """
    from repro.linegraph import PRESETS, to_two_graph
    from repro.linegraph.common import resolve_incidence

    queued = sorted(
        name for name, p in PRESETS.items() if p.shape in ("queue", "pairs")
    )
    if algorithm not in queued:
        raise ValueError(f"patching supports {queued}, not {algorithm!r}")
    dirty = _dirty_array(dirty_ids)
    edges, nodes, n_e, _ = resolve_incidence(h)
    frontier = delta_frontier(_csr_adapter(edges, nodes, n_e), dirty)
    delta = to_two_graph(
        h, s, algorithm, runtime=runtime, queue_ids=frontier,
        tracer=tracer, metrics=metrics,
    )
    is_dirty = np.zeros(n_e, dtype=bool)
    is_dirty[dirty[dirty < n_e]] = True
    touched = is_dirty[delta.src] | is_dirty[delta.dst]
    return EdgeList(
        delta.src[touched],
        delta.dst[touched],
        delta.weights[touched],
        num_vertices=n_e,
    )


def patch_with_builder(
    old_el: EdgeList,
    h,
    dirty_ids,
    s: int,
    *,
    algorithm: str = "queue_hashmap",
    runtime=None,
    tracer=None,
    metrics=None,
) -> EdgeList:
    """Patch using the stock queue-based builders on a frozen representation.

    The edge-list face of the frozen-CSR path: :func:`builder_delta`
    spliced into ``old_el``'s symmetric CSR (:func:`splice_rows`), the
    upper view returned.  ``old_el`` must carry overlap counts.
    """
    if old_el.weights is None:
        raise ValueError(
            "patching requires overlap counts as edge weights on the old "
            "s-line edge list"
        )
    delta = builder_delta(
        h, dirty_ids, s, algorithm=algorithm, runtime=runtime,
        tracer=tracer, metrics=metrics,
    )
    graph = splice_rows(SLineGraph(old_el, s).graph, dirty_ids, delta)
    return SLineGraph.from_csr(graph, s).edgelist


class _csr_adapter:
    """Expose a pair of incidence CSRs through the overlay-state protocol."""

    __slots__ = ("_edges", "_nodes", "_n_e")

    def __init__(self, edges, nodes, n_e: int) -> None:
        self._edges, self._nodes, self._n_e = edges, nodes, n_e

    def num_edges(self) -> int:
        return self._n_e

    def members(self, e: int) -> np.ndarray:
        return self._edges[e]

    def memberships(self, v: int) -> np.ndarray:
        return self._nodes[v]


class IncrementalSLineGraph:
    """Keep materialized s-line graphs in sync with a mutating hypergraph.

    The caller materializes whichever ``s`` values it cares about
    (:meth:`materialize`); afterwards every
    :meth:`~repro.dynamic.hypergraph.DynamicHypergraph.apply` result fed
    to :meth:`update` patches them all in place — or rebuilds, when the
    shared policy (:mod:`repro.dynamic.policy`) says the delta is too
    large to be worth patching.

    Parameters
    ----------
    dyn:
        The :class:`~repro.dynamic.hypergraph.DynamicHypergraph` to track.
    over_edges:
        Side of the line graph (``False`` maintains s-clique graphs over
        the hypernode space via the overlay's dual view).
    threshold:
        Dirty-fraction crossover forwarded to the policy helper.
    tracer, metrics:
        Optional :mod:`repro.obs` instruments (no-op when ``None``).
    """

    def __init__(
        self,
        dyn,
        over_edges: bool = True,
        threshold: float = DEFAULT_PATCH_THRESHOLD,
        tracer=None,
        metrics=None,
    ) -> None:
        from repro.obs.metrics import as_metrics
        from repro.obs.tracer import as_tracer

        self.dyn = dyn
        self.over_edges = bool(over_edges)
        self.threshold = float(threshold)
        self._tracer = as_tracer(tracer)
        self._metrics = as_metrics(metrics)
        self._graphs: dict[int, SLineGraph] = {}
        self._version = dyn.version

    # -- introspection -------------------------------------------------------
    @property
    def s_values(self) -> list[int]:
        """The maintained s values, ascending."""
        return sorted(self._graphs)

    @property
    def version(self) -> int:
        """Hypergraph version the maintained graphs correspond to."""
        return self._version

    def linegraph(self, s: int) -> SLineGraph:
        """The maintained ``L_s`` (KeyError if never materialized)."""
        return self._graphs[int(s)]

    # -- lifecycle -----------------------------------------------------------
    def materialize(self, s: int) -> SLineGraph:
        """Build ``L_s`` from the current state and start maintaining it."""
        if self._version != self.dyn.version:
            raise RuntimeError(
                "maintained graphs are stale; call update() with the "
                "pending apply results first"
            )
        lg = self._rebuild(int(s))
        self._graphs[int(s)] = lg
        return lg

    def drop(self, s: int) -> None:
        """Stop maintaining ``L_s``."""
        self._graphs.pop(int(s), None)

    def _rebuild(self, s: int) -> SLineGraph:
        snap = self.dyn.snapshot()
        lg = snap.s_linegraph(
            s, over_edges=self.over_edges,
            tracer=self._tracer, metrics=self._metrics,
        )
        return lg

    # -- the incremental step ------------------------------------------------
    def update(self, result) -> dict[int, str]:
        """Fold one :class:`~repro.dynamic.hypergraph.ApplyResult` in.

        Returns ``{s: 'patch' | 'rebuild'}`` describing how each
        maintained graph was refreshed.  Results must arrive in version
        order (each apply's delta is relative to the previous version).
        """
        if result.version != self._version + 1:
            raise RuntimeError(
                f"apply result for version {result.version} cannot follow "
                f"maintained version {self._version}"
            )
        self._version = result.version
        if not self._graphs:
            return {}
        state = self.dyn.state if self.over_edges else self.dyn.state.dual()
        dirty = (
            result.dirty_edges if self.over_edges else result.dirty_nodes
        )
        outcomes: dict[int, str] = {}
        for s in self.s_values:
            lg = patch_slinegraph(
                self._graphs[s], state, dirty, threshold=self.threshold,
                tracer=self._tracer, metrics=self._metrics,
            )
            how = "rebuild" if lg is None else "patch"
            self._graphs[s] = self._rebuild(s) if lg is None else lg
            outcomes[s] = how
            self._metrics.counter(
                "dynamic_linegraph_refreshes_total", how=how
            ).inc()
        return outcomes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        side = "edges" if self.over_edges else "nodes"
        return (
            f"IncrementalSLineGraph(s={self.s_values}, over={side}, "
            f"version={self._version})"
        )
