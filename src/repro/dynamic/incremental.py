"""Incremental s-line graph maintenance — patch, don't rebuild.

An s-line edge ``{e, f}`` depends only on the member sets of ``e`` and
``f``, so after a mutation batch only pairs with at least one *dirty*
endpoint can change.  That is exactly the situation the paper's
queue-based construction algorithms (Algorithms 1–2) were built for: the
iteration space is whatever IDs are enqueued, not a fixed ``[0, n_e)``
range.  Seeding the queue with the delta frontier — the dirty hyperedges
plus the neighbors they reach through shared vertices — computes the
changed overlap counts without touching the rest of the graph.

Two equivalent paths are provided:

* :func:`delta_pair_counts` / :func:`patch_linegraph` — the overlay
  path.  Runs the queue-hashmap counting step (two-hop walk + packed-key
  multiplicity count) directly over an
  :class:`~repro.dynamic.overlay.OverlayState`, so no CSR of the mutated
  state is ever materialized.  This is what the service's ``update`` op
  uses.
* :func:`patch_with_builder` — the frozen-CSR path.  Literally calls the
  stock queue-based builders (``queue_hashmap`` / ``queue_intersection``)
  with ``queue_ids`` set to the delta frontier, for callers that already
  hold a rebuilt :class:`~repro.structures.biadjacency.BiAdjacency`
  (``NWHypergraph.refresh_linegraphs``).

Both produce the canonical weighted edge list of
:func:`repro.linegraph.common.finalize_edges`, so patched graphs remain
bit-identical to from-scratch rebuilds — the property the test suite
enforces — and keep riding the cache's s-monotone derive path.
"""

from __future__ import annotations

import numpy as np

from repro.core.slinegraph import SLineGraph
from repro.linegraph.common import finalize_edges
from repro.structures.edgelist import EdgeList

from .policy import DEFAULT_PATCH_THRESHOLD, decide_patch_or_rebuild

__all__ = [
    "IncrementalSLineGraph",
    "delta_frontier",
    "delta_pair_counts",
    "patch_linegraph",
    "patch_slinegraph",
    "patch_with_builder",
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

    Drops every old edge with a dirty endpoint, recounts exactly the
    dirty pairs with the queue-hashmap counting step, and merges them
    back in (:func:`_merge_patch`), so the cost is O(nnz) plus the
    delta, not a re-sort.  ``old_el`` must be canonical and carry
    overlap counts as weights (every unweighted construction algorithm
    emits both) — patching a weight-less list
    would silently break the cache's s-monotone derive path, so it raises
    instead.
    """
    from repro.obs.metrics import as_metrics
    from repro.obs.tracer import as_tracer

    if s < 1:
        raise ValueError("s must be >= 1")
    if old_el.weights is None:
        raise ValueError(
            "patching requires overlap counts as edge weights on the old "
            "s-line edge list"
        )
    dirty = _dirty_array(dirty_ids)
    n = int(state.num_edges())
    if n < old_el.num_vertices():
        raise ValueError(
            "hyperedge space shrank; dynamic updates tombstone IDs, they "
            "never renumber"
        )
    tr = as_tracer(tracer)
    m = as_metrics(metrics)
    with tr.span("dynamic.patch", s=s, dirty=int(dirty.size)) as span:
        clean = _clean_mask(old_el, dirty, n)
        src, dst, counts, work = delta_pair_counts(state, dirty)
        live = counts >= s
        out = _merge_patch(old_el, clean, src[live], dst[live], counts[live], n)
        span.set(
            dropped=int((~clean).sum()), emitted=int(live.sum()), work=work
        )
        m.counter("dynamic_patched_pairs_total").inc(int(live.sum()))
        m.counter("dynamic_patch_work_total").inc(work)
    return out


def patch_slinegraph(
    old_el: EdgeList,
    state,
    dirty_ids,
    s: int,
    over_edges: bool = True,
    *,
    threshold: float = DEFAULT_PATCH_THRESHOLD,
    tracer=None,
    metrics=None,
) -> SLineGraph | None:
    """Decide, patch and materialize: the patched ``L_s``, or ``None``.

    The one decide → :func:`patch_linegraph` → :class:`SLineGraph` step
    every maintainer shares (the service's ``update`` op, warm-restart
    roll-forward, :class:`IncrementalSLineGraph`).  ``state`` is the
    side's overlay view (``dyn.state`` or ``dyn.state.dual()``) and
    ``dirty_ids`` the IDs of that side touched since ``old_el`` was
    current — one batch's delta or the union of many, since a pair with
    no dirty endpoint keeps its member sets and so its overlap.
    ``None`` means the caller must not patch: the policy
    (:func:`~repro.dynamic.policy.decide_patch_or_rebuild`) prefers a
    rebuild, or ``old_el`` carries no overlap weights.
    """
    if decide_patch_or_rebuild(
        len(dirty_ids), state.num_edges(), threshold
    ) != "patch":
        return None
    try:
        el = patch_linegraph(
            old_el, state, dirty_ids, s, tracer=tracer, metrics=metrics
        )
    except ValueError:
        return None
    return SLineGraph(el, s=s, over_edges=over_edges)


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

    ``h`` is a ``BiAdjacency`` or ``AdjoinGraph`` of the *post-mutation*
    state.  The builder is seeded with the delta frontier
    (:func:`delta_frontier` computed on ``h``); of its output only the
    rows touching a dirty ID are taken — the clean–clean rows it also
    covers are already present, unchanged, in ``old_el``.
    """
    from repro.linegraph import PRESETS, to_two_graph
    from repro.linegraph.common import resolve_incidence

    queued = sorted(
        name for name, p in PRESETS.items() if p.shape in ("queue", "pairs")
    )
    if algorithm not in queued:
        raise ValueError(f"patching supports {queued}, not {algorithm!r}")
    if old_el.weights is None:
        raise ValueError(
            "patching requires overlap counts as edge weights on the old "
            "s-line edge list"
        )
    dirty = _dirty_array(dirty_ids)
    edges, nodes, n_e, _ = resolve_incidence(h)
    adapter = _csr_adapter(edges, nodes, n_e)
    frontier = delta_frontier(adapter, dirty)
    delta = to_two_graph(
        h, s, algorithm, runtime=runtime, queue_ids=frontier,
        tracer=tracer, metrics=metrics,
    )
    touched = ~_clean_mask(delta, dirty, n_e)
    return _merge_patch(
        old_el,
        _clean_mask(old_el, dirty, n_e),
        delta.src[touched],
        delta.dst[touched],
        delta.weights[touched],
        n_e,
    )


def _clean_mask(el: EdgeList, dirty: np.ndarray, n: int) -> np.ndarray:
    """Edges of ``el`` (IDs below ``n``) with no endpoint in ``dirty``."""
    is_dirty = np.zeros(n, dtype=bool)
    is_dirty[dirty[dirty < n]] = True
    return ~(is_dirty[el.src] | is_dirty[el.dst])


def _merge_patch(
    old_el: EdgeList,
    clean: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    counts: np.ndarray,
    n: int,
) -> EdgeList:
    """``old_el``'s clean edges plus the recounted pairs, canonical.

    Equal to :func:`~repro.linegraph.common.finalize_edges` over the
    concatenation, without re-sorting the whole list: the clean edges
    are canonical already and share no pair with the recounted ones
    (every recounted pair has a dirty endpoint), so only the recounted
    pairs are canonicalized, then inserted at their binary-searched
    positions.
    """
    delta = finalize_edges(src, dst, counts, n)
    keep_src, keep_dst = old_el.src[clean], old_el.dst[clean]
    at = np.searchsorted(keep_src * n + keep_dst, delta.src * n + delta.dst)
    return EdgeList(
        np.insert(keep_src, at, delta.src),
        np.insert(keep_dst, at, delta.dst),
        np.insert(old_el.weights[clean], at, delta.weights),
        num_vertices=n,
    )


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
                self._graphs[s].edgelist, state, dirty, s, self.over_edges,
                threshold=self.threshold,
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
