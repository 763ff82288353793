"""Byte-budgeted LRU cache of materialized s-line graphs.

The cache is keyed by ``(dataset, s, over_edges)`` and bounded by the
*measured* byte footprint of each entry (its symmetric CSR),
not an entry count — s-line graphs for the same budget can differ by
orders of magnitude in size (§III-B.3's blow-up).

Two ways a request avoids the counting pass:

* **hit** — the exact key is cached;
* **s-monotone derive** — some ``(dataset, s', over_edges)`` with
  ``s' < s`` is cached.  Every construction algorithm already records the
  overlap size ``|e ∩ f|`` as the edge weight, and ``L_s`` is exactly the
  sub-edge-list of ``L_{s'}`` whose weights reach ``s``
  (:meth:`repro.core.slinegraph.SLineGraph.derive`, the derive path
  ``NWHypergraph.s_linegraph``'s memo shares) — a single vectorized
  threshold instead of a two-hop counting pass.  The largest cached
  ``s' < s`` is preferred (fewest edges to filter).

Entries that alone exceed the whole budget are built and returned but
**not admitted** (counted as ``bypasses``) so one oversized graph cannot
flush the working set.  All counters are exposed via :meth:`snapshot`
and surfaced by the server's ``"metrics"`` op.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.hypergraph import NWHypergraph
from repro.core.slinegraph import SLineGraph

__all__ = ["CacheStats", "SLineGraphCache", "estimate_linegraph_bytes"]

#: bytes per s-line edge in the symmetric CSR: both directions, each an
#: int64 index plus a float64 overlap; used only to *estimate* a
#: not-yet-built graph's footprint for admission / laziness decisions.
_BYTES_PER_EDGE = 2 * (8 + 8)


def estimate_linegraph_bytes(
    hg: NWHypergraph, s: int, over_edges: bool = True
) -> int:
    """Cheap upper bound on the footprint of ``L_s`` before building it.

    Bounds the s-line edge count by the two-hop pair volume
    ``Σ_v d(v)·(d(v)-1)/2`` (every s-line edge is witnessed by ≥ s ≥ 1
    shared vertices), scaled to bytes per materialized edge, plus the
    ``indptr`` of one row per line-graph vertex.  Loose for
    dense overlap structure, but computable in one vectorized pass over
    the degree array — exactly what the engine's "is the budget tight?"
    check needs.
    """
    bi = hg.biadjacency
    deg = bi.node_degrees() if over_edges else bi.edge_sizes()
    rows = bi.num_hyperedges() if over_edges else bi.num_hypernodes()
    deg = deg.astype(float)
    pairs = float((deg * (deg - 1.0)).sum()) / 2.0
    return int(pairs * _BYTES_PER_EDGE) + 8 * (rows + 1)


@dataclass
class CacheStats:
    """Counters of one :class:`SLineGraphCache` (all monotone but bytes)."""

    hits: int = 0
    derives: int = 0
    misses: int = 0
    evictions: int = 0
    bypasses: int = 0
    current_bytes: int = 0
    budget_bytes: int | None = None
    entries: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "derives": self.derives,
            "misses": self.misses,
            "evictions": self.evictions,
            "bypasses": self.bypasses,
            "current_bytes": self.current_bytes,
            "budget_bytes": self.budget_bytes,
            "entries": self.entries,
        }


class SLineGraphCache:
    """LRU over materialized :class:`SLineGraph`\\ s under a byte budget.

    Parameters
    ----------
    budget_bytes:
        Total footprint allowed across entries; ``None`` disables
        eviction (unbounded).
    algorithm:
        Construction algorithm for cold builds (must be one that records
        overlap counts as weights — all the unweighted constructions do).
    builder:
        Optional construction hook ``builder(dataset, s, hypergraph,
        over_edges) -> EdgeList`` replacing the default
        :func:`~repro.linegraph.to_two_graph` cold-build path.  The
        returned edge list must be canonical and carry overlap counts as
        weights (so the s-monotone derive path stays valid).  This is
        how the sharded engine routes *every* cache build through its
        scatter-gather assembly (:mod:`repro.service.shard`) — hit,
        derive, and eviction behavior are untouched.
    metrics, tracer:
        Optional :mod:`repro.obs` instruments (no-op when ``None``).
        Instrument objects are resolved once here; without a live
        registry the warm-hit path pays only a ``None``-check.
    """

    def __init__(
        self,
        budget_bytes: int | None = 64 * 1024 * 1024,
        algorithm: str = "hashmap",
        metrics: object = None,
        tracer: object = None,
        builder: object = None,
        kernel: str | None = None,
    ) -> None:
        from repro.obs.metrics import as_metrics
        from repro.obs.tracer import as_tracer

        if budget_bytes is not None and budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0 or None")
        self.algorithm = algorithm
        self.builder = builder
        # counting-kernel selection for cold builds (None = the builder's
        # default, i.e. the adaptive dispatcher for hashmap-family
        # algorithms); forwarded to to_two_graph and irrelevant when a
        # custom builder hook is installed
        self.kernel = kernel
        self._lock = threading.RLock()
        self._entries: OrderedDict[tuple[str, int, bool], SLineGraph] = (
            OrderedDict()
        )
        self._sizes: dict[tuple[str, int, bool], int] = {}
        # dataset key -> the NWHypergraph its entries were built from, so
        # invalidate() can also drop the instance-level s_linegraph memo
        # (weak: the cache must not keep an unregistered dataset alive)
        self._owners: dict[str, weakref.ReferenceType[NWHypergraph]] = {}
        self.stats = CacheStats(budget_bytes=budget_bytes)
        m = as_metrics(metrics)
        # kept raw for cold builds: to_two_graph surfaces the per-kernel
        # linegraph_kernel_* / dispatch_* counters in the same registry
        self._metrics = metrics
        self._tracer = as_tracer(tracer)
        self._c_outcome = {
            how: m.counter("slinegraph_cache_requests_total", outcome=how)
            for how in ("hit", "derive", "miss", "bypass")
        }
        # the hit path is the one latency-critical spot: with no live
        # registry a warm hit must pay one None-check, not even a no-op
        # call (bench_service_cache pins the warm-path budget)
        self._inc_hit = (
            self._c_outcome["hit"].inc if metrics is not None else None
        )
        self._c_evictions = m.counter("slinegraph_cache_evictions_total")
        self._g_bytes = m.gauge("slinegraph_cache_bytes")
        self._g_entries = m.gauge("slinegraph_cache_entries")

    # -- introspection -------------------------------------------------------
    @property
    def budget_bytes(self) -> int | None:
        with self._lock:
            return self.stats.budget_bytes

    @property
    def current_bytes(self) -> int:
        with self._lock:
            return self.stats.current_bytes

    def remaining_bytes(self) -> int | None:
        """Budget headroom (``None`` when unbounded)."""
        with self._lock:
            if self.stats.budget_bytes is None:
                return None
            return max(0, self.stats.budget_bytes - self.stats.current_bytes)

    def keys(self) -> list[tuple[str, int, bool]]:
        """Cached keys, least- to most-recently used."""
        with self._lock:
            return list(self._entries)

    def snapshot(self) -> dict:
        """JSON-safe counter snapshot plus the resident key list."""
        with self._lock:
            out = self.stats.as_dict()
            out["keys"] = [
                {"dataset": d, "s": s, "over_edges": oe, "bytes": self._sizes[(d, s, oe)]}
                for d, s, oe in self._entries
            ]
            return out

    # -- lookup --------------------------------------------------------------
    def lookup(
        self, dataset: str, s: int, over_edges: bool = True
    ) -> str | None:
        """How a request *would* be served: ``'hit'``, ``'derive'``, ``None``.

        Pure peek — no counters move, no recency changes.
        """
        with self._lock:
            if (dataset, int(s), bool(over_edges)) in self._entries:
                return "hit"
            if self._derivable_key(dataset, int(s), bool(over_edges)):
                return "derive"
            return None

    def _derivable_key(  # repro: noqa-R002 — every caller holds self._lock
        self, dataset: str, s: int, over_edges: bool
    ) -> tuple[str, int, bool] | None:
        best = None
        for key in self._entries:
            d, s2, oe = key
            if d == dataset and oe == over_edges and s2 < s:
                lg = self._entries[key]
                if lg.graph.weights is None:
                    continue  # cannot threshold without overlap counts
                if best is None or s2 > best[1]:
                    best = key
        return best

    # -- main entry point ----------------------------------------------------
    def get_or_build(
        self,
        dataset: str,
        s: int,
        hypergraph: NWHypergraph,
        over_edges: bool = True,
    ) -> tuple[SLineGraph, str]:
        """Return ``(L_s, how)`` with ``how ∈ {'hit', 'derive', 'miss',
        'bypass'}``; builds, derives, admits, and evicts as needed."""
        if s < 1:
            raise ValueError("s must be >= 1")
        s = int(s)
        over_edges = bool(over_edges)
        key = (dataset, s, over_edges)
        with self._lock:
            self._owners[dataset] = weakref.ref(hypergraph)
            cached = self.get(dataset, s, over_edges)
            if cached is not None:
                return cached

        # Build outside the lock: construction is the expensive part and
        # must not serialize unrelated cache traffic.  A racing duplicate
        # build is benign — _admit re-checks under the lock.
        lg = self._build(hypergraph, s, over_edges, dataset)
        with self._lock:
            if key in self._entries:  # raced with another builder
                self._entries.move_to_end(key)
                self.stats.hits += 1
                if self._inc_hit is not None:
                    self._inc_hit()
                return self._entries[key], "hit"
            self.stats.misses += 1
            admitted = self._admit(key, lg)
            self._c_outcome["miss" if admitted else "bypass"].inc()
            return lg, "miss" if admitted else "bypass"

    def get(
        self, dataset: str, s: int, over_edges: bool = True
    ) -> tuple[SLineGraph, str] | None:
        """:meth:`get_or_build` without the build: ``(L_s, 'hit' |
        'derive')``, or ``None`` when only a build could serve it."""
        if s < 1:
            raise ValueError("s must be >= 1")
        s = int(s)
        over_edges = bool(over_edges)
        key = (dataset, s, over_edges)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                if self._inc_hit is not None:
                    self._inc_hit()
                return self._entries[key], "hit"
            base_key = self._derivable_key(dataset, s, over_edges)
            if base_key is None:
                return None
            base = self._entries[base_key]
            self._entries.move_to_end(base_key)
            lg = base.derive(s)
            self.stats.derives += 1
            self._c_outcome["derive"].inc()
            self._admit(key, lg)
            return lg, "derive"

    def _build(
        self, hypergraph: NWHypergraph, s: int, over_edges: bool,
        dataset: str = "?",
    ) -> SLineGraph:
        if self.builder is not None:
            with self._tracer.span(
                "cache.build", dataset=dataset, s=s, algorithm="builder"
            ):
                el = self.builder(dataset, s, hypergraph, over_edges)
            return SLineGraph(el, s=s, over_edges=over_edges)
        from repro.linegraph import to_two_graph

        h = (
            hypergraph.biadjacency
            if over_edges
            else hypergraph.biadjacency.dual()
        )
        with self._tracer.span(
            "cache.build", dataset=dataset, s=s, algorithm=self.algorithm
        ):
            el = to_two_graph(
                h,
                s,
                algorithm=self.algorithm,
                kernel=self.kernel,
                metrics=self._metrics,
            )
        return SLineGraph(el, s=s, over_edges=over_edges)

    # -- admission / eviction (call with lock held) --------------------------
    @staticmethod
    def entry_bytes(lg: SLineGraph) -> int:
        """Measured footprint of one entry (its symmetric CSR)."""
        return lg.graph.nbytes()

    def _admit(  # repro: noqa-R002 — admission/eviction helper; every caller holds self._lock (see section header)
        self, key: tuple[str, int, bool], lg: SLineGraph
    ) -> bool:
        size = self.entry_bytes(lg)
        budget = self.stats.budget_bytes
        if budget is not None and size > budget:
            self.stats.bypasses += 1
            return False
        self._entries[key] = lg
        self._sizes[key] = size
        self.stats.current_bytes += size
        self.stats.entries = len(self._entries)
        if budget is not None:
            while self.stats.current_bytes > budget and len(self._entries) > 1:
                old_key, _ = self._entries.popitem(last=False)
                self.stats.current_bytes -= self._sizes.pop(old_key)
                self.stats.evictions += 1
                self._c_evictions.inc()
            # the newest entry is never evicted by its own insertion; if it
            # is the sole survivor the budget check above already passed
            self.stats.entries = len(self._entries)
        self._g_bytes.set(self.stats.current_bytes)
        self._g_entries.set(self.stats.entries)
        return True

    # -- external admission (the dynamic-update patch path) ------------------
    def put(
        self, dataset: str, s: int, over_edges: bool, lg: SLineGraph
    ) -> bool:
        """Admit an externally built (e.g. delta-patched) entry.

        Same admission/eviction rules as a cold build; an existing entry
        under the key is replaced (its bytes released first).  Returns
        whether the entry was admitted (oversized graphs bypass).
        """
        key = (dataset, int(s), bool(over_edges))
        with self._lock:
            if key in self._entries:
                del self._entries[key]
                self.stats.current_bytes -= self._sizes.pop(key)
            admitted = self._admit(key, lg)
            if not admitted:
                self._g_bytes.set(self.stats.current_bytes)
                self._g_entries.set(self.stats.entries)
            return admitted

    def discard(self, dataset: str, s: int, over_edges: bool) -> None:
        """Drop one entry if resident (no eviction is counted)."""
        key = (dataset, int(s), bool(over_edges))
        with self._lock:
            if key not in self._entries:
                return
            del self._entries[key]
            self.stats.current_bytes -= self._sizes.pop(key)
            self.stats.entries = len(self._entries)
            self._g_bytes.set(self.stats.current_bytes)
            self._g_entries.set(self.stats.entries)

    def entries_for(self, dataset: str) -> list[tuple[int, bool, SLineGraph]]:
        """Resident ``(s, over_edges, linegraph)`` triples of one dataset."""
        with self._lock:
            return [
                (s, oe, lg)
                for (d, s, oe), lg in self._entries.items()
                if d == dataset
            ]

    # -- maintenance ---------------------------------------------------------
    def invalidate(self, dataset: str | None = None) -> int:
        """Drop entries (all, or one dataset's); returns how many.

        Also clears the instance-level memo of every affected
        :class:`NWHypergraph` (``invalidate()``): the hypergraphs seen by
        :meth:`get_or_build` memoize their own s-line graphs, and an
        invalidate that dropped only the cache's copies could still serve
        a stale memoized line graph through the library path.
        """
        owners: list[NWHypergraph] = []
        with self._lock:
            if dataset is None:
                n = len(self._entries)
                self._entries.clear()
                self._sizes.clear()
                self.stats.current_bytes = 0
                doomed_owners = list(self._owners)
            else:
                doomed = [k for k in self._entries if k[0] == dataset]
                n = len(doomed)
                for k in doomed:
                    del self._entries[k]
                    self.stats.current_bytes -= self._sizes.pop(k)
                doomed_owners = [dataset] if dataset in self._owners else []
            for name in doomed_owners:
                hg = self._owners.pop(name)()
                if hg is not None:
                    owners.append(hg)
            self.stats.entries = len(self._entries)
            self._g_bytes.set(self.stats.current_bytes)
            self._g_entries.set(self.stats.entries)
        # outside the cache lock: NWHypergraph.invalidate only touches the
        # instance, and holding our lock across foreign code invites
        # lock-order inversions
        for hg in owners:
            hg.invalidate()
        return n

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def debug_verify(self) -> None:
        """Re-derive the byte accounting from the entries and assert it.

        Recomputes every per-entry size with :meth:`entry_bytes` and
        checks the invariants the mutation/patching paths must preserve:
        ``_entries`` and ``_sizes`` agree key-for-key, each recorded size
        matches a fresh measurement, ``stats.current_bytes`` is their
        sum, ``stats.entries`` is the entry count, and a configured
        budget is never exceeded (the eviction loop guarantees a sole
        oversized survivor cannot exist — it would have been bypassed at
        admission).  Raises :class:`AssertionError` with the discrepancy.
        """
        with self._lock:
            entry_keys = set(self._entries)
            size_keys = set(self._sizes)
            assert entry_keys == size_keys, (
                f"entry/size key mismatch: only-entries="
                f"{sorted(entry_keys - size_keys)}, "
                f"only-sizes={sorted(size_keys - entry_keys)}"
            )
            recomputed = {
                key: self.entry_bytes(lg) for key, lg in self._entries.items()
            }
            for key, measured in recomputed.items():
                assert self._sizes[key] == measured, (
                    f"stale size for {key}: recorded {self._sizes[key]}, "
                    f"measured {measured}"
                )
            total = sum(recomputed.values())
            assert self.stats.current_bytes == total, (
                f"current_bytes drift: stats say "
                f"{self.stats.current_bytes}, entries sum to {total}"
            )
            assert self.stats.entries == len(self._entries), (
                f"entry-count drift: stats say {self.stats.entries}, "
                f"cache holds {len(self._entries)}"
            )
            budget = self.stats.budget_bytes
            assert budget is None or total <= budget, (
                f"budget exceeded: {total} resident > {budget} budget"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            st = self.stats
            return (
                f"SLineGraphCache(entries={len(self._entries)}, "
                f"bytes={st.current_bytes}/{st.budget_bytes}, "
                f"hits={st.hits}, derives={st.derives}, misses={st.misses})"
            )
