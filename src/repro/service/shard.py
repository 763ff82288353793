"""Sharded serving — hyperedge-range partitions with scatter-gather.

NWHy's scaling story (paper §IV–V) is partitioned parallel work over the
two-hop expansion; the serving layer realizes it by splitting the
*hyperedge ID space* into ``num_shards`` load-balanced contiguous ranges
(:func:`repro.structures.relabel.balanced_ranges` over relabel-by-degree
order, so each shard owns roughly equal incidence mass) and computing
each shard's slice of the s-line graph independently, over the engine's
execution backend.

The key identity making scatter-gather *bit-exact*: each shard runs the
two-hop counting kernel with ``upper_only=False`` restricted to its own
rows, keeping every pair ``(e, f)`` with ``|e ∩ f| >= s`` for ``e`` in
the shard (:class:`ShardPairsKernel`).  Because the shards partition the
rows:

* **routing** is exact — *all* s-neighbors of a vertex ``v`` appear in
  the owning shard's partial, so ``s_neighbors``/``s_degree`` touch one
  shard only;
* **merging** is exact — the per-shard partials cover every s-line edge
  (each undirected edge twice, once per endpoint's owner), so connected
  components over the concatenated pairs reproduce the single engine's,
  and
  :func:`~repro.linegraph.common.finalize_edges` over the concatenation
  reproduces the canonical full edge list **bit-for-bit** (duplicates
  agree on their overlap count; first-wins dedup).

:class:`ShardedEngine` plugs this in *under* the ordinary
:class:`~repro.service.engine.QueryEngine`: every cache build goes
through the scatter-gather assembly (the cache's ``builder`` hook), so
hit/derive/eviction/lazy semantics — and therefore every op's result —
are identical to the unsharded engine by construction; on cache misses
the traversal ops take shard fast paths (``via: "shard:route"`` /
``"shard:merge"``) instead of materializing.  Shard/queue metrics flow
through :mod:`repro.obs` (``service_shard_*``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse as sp

from repro.graph.cc import connected_components, group_components
from repro.linegraph.common import (
    emit_kernel_counters,
    empty_linegraph,
    finalize_edges,
    total_candidates,
)
from repro.linegraph.dispatch import KERNEL_NAMES, adaptive_rows
from repro.parallel.runtime import ParallelRuntime, TaskResult
from repro.structures.csr import CSR
from repro.structures.relabel import balanced_ranges

from .engine import QueryEngine, _require

__all__ = ["ShardPairsKernel", "ShardPlan", "ShardedEngine", "plan_shards"]


class ShardPairsKernel:
    """Per-shard counting body (pure: reads the incidence CSRs only).

    ``chunk`` is one shard's array of row IDs.  Unlike the builders'
    counting bodies (the ``f > e`` triangle) this walks with
    ``upper_only=False``: the shard owns its rows, not the upper
    triangle, so it must emit *every* partner ``f`` of each owned ``e``
    (self-pairs dropped).  ``kernel`` picks the counting strategy per
    :data:`~repro.linegraph.dispatch.KERNEL_NAMES` — default ``"auto"``,
    the degree-bucketed dispatcher, every choice bit-identical.  Returns
    ``TaskResult((src, dst, overlap, stats), work)``.
    """

    __slots__ = ("edges", "nodes", "s", "kernel")

    def __init__(
        self, edges: object, nodes: object, s: int,
        kernel: str | None = None,
    ) -> None:
        self.edges = edges
        self.nodes = nodes
        self.s = int(s)
        name = kernel or "auto"
        if name not in KERNEL_NAMES:
            raise ValueError(
                f"unknown kernel {name!r}; choose from {sorted(KERNEL_NAMES)}"
            )
        self.kernel = name

    def __call__(self, chunk: np.ndarray) -> TaskResult:
        src, dst, cnt, stats, work = adaptive_rows(
            self.edges,
            self.nodes,
            chunk,
            self.s,
            upper_only=False,
            force=None if self.kernel == "auto" else self.kernel,
        )
        return TaskResult((src, dst, cnt, stats), work)


@dataclass
class ShardPlan:
    """Placement of one vertex space across shards.

    ``parts[i]`` is the sorted array of original IDs shard ``i`` owns;
    ``owner[v]`` is the shard owning vertex ``v``.  Ranges are contiguous
    in the relabel-by-degree space, so per-shard two-hop work tracks
    incidence mass (the paper's locality argument), not raw ID counts.
    """

    num_shards: int
    over_edges: bool
    parts: list = field(repr=False)
    loads: np.ndarray = field(repr=False)
    owner: np.ndarray = field(repr=False)

    def num_vertices(self) -> int:
        return int(self.owner.size)

    def summary(self) -> list[dict]:
        """JSON-safe per-shard placement card."""
        return [
            {
                "shard": i,
                "vertices": int(part.size),
                "load": float(self.loads[part].sum()) if part.size else 0.0,
            }
            for i, part in enumerate(self.parts)
        ]


def plan_shards(
    hypergraph: object, num_shards: int, over_edges: bool = True
) -> ShardPlan:
    """Partition one side's ID space into load-balanced shard ranges.

    ``over_edges=True`` shards hyperedge IDs by hyperedge size;
    ``False`` shards hypernode IDs by node degree (the dual line graph's
    vertex space).
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    bi = hypergraph.biadjacency
    loads = bi.edge_sizes() if over_edges else bi.node_degrees()
    parts = balanced_ranges(loads, num_shards)
    owner = np.empty(loads.size, dtype=np.int64)
    for i, part in enumerate(parts):
        owner[part] = i
    return ShardPlan(
        num_shards=int(num_shards),
        over_edges=bool(over_edges),
        parts=parts,
        loads=np.asarray(loads, dtype=np.float64),
        owner=owner,
    )


def _pair_labels(n: int, partials: list) -> np.ndarray:
    """Component labels from per-shard pair partials (no edge-list build).

    The partials hold every kept pair from both endpoints' owners, so
    their concatenation indexes straight into a symmetric CSR, and
    :func:`repro.graph.cc.connected_components` on it gives the same
    canonical labels as on the assembled s-line graph.  The CSR comes
    from scipy's COO→CSR counting pass (as in
    :meth:`~repro.structures.csr.CSR.from_undirected`), not a lexsort
    of every pair.
    """
    if not partials:
        return np.arange(n, dtype=np.int64)
    idx = np.int32 if n < 2**31 else np.int64
    src = np.concatenate([p[0] for p in partials], dtype=idx)
    dst = np.concatenate([p[1] for p in partials], dtype=idx)
    adj = sp.coo_matrix(
        (np.zeros(src.size, dtype=np.bool_), (src, dst)), shape=(n, n)
    ).tocsr()
    return connected_components(
        CSR(adj.indptr, adj.indices, num_targets=n, sorted_rows=True)
    )


class ShardedEngine(QueryEngine):
    """A :class:`QueryEngine` whose heavy lifting is sharded.

    Drop-in replacement: same ops, same wire protocol, same caching —
    every response is bit-identical to the unsharded engine's (the
    property suite in ``tests/service/test_shard_equivalence.py`` holds
    this to account).  What changes is *how* cold answers are computed:

    * all cold s-line builds assemble from per-shard partials computed
      on the execution backend (the cache's ``builder`` hook);
    * on cache misses, ``s_neighbors``/``s_degree`` route to the owning
      shard (``via: "shard:route"``), and the connectivity ops merge
      per-shard partials through one connected-components pass
      (``via: "shard:merge"``) without materializing the full graph;
    * the ``shards`` op (protocol >= 1.1) reports placement and load.

    The engine installs its assembly hook on ``cache`` — do not share
    one cache instance between a sharded and an unsharded engine.
    """

    #: ops served by owner-shard routing on cache miss
    _ROUTED_OPS = frozenset({"s_neighbors", "s_degree"})

    def __init__(
        self, num_shards: int = 2, kernel: str | None = None,
        **kwargs: object,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        super().__init__(**kwargs)
        self.num_shards = int(num_shards)
        # counting-kernel selection for every shard scatter/route (one of
        # KERNEL_NAMES; None = "auto", the adaptive dispatcher)
        self.kernel = kernel
        self._shard_lock = threading.Lock()
        self._plans: dict[tuple[str, bool], ShardPlan] = {}
        self._partial_memo: tuple | None = None
        self.cache.builder = self._build_linegraph
        self.obs_metrics.gauge("service_shards").set(self.num_shards)

    # -- planning ------------------------------------------------------------
    def _plan(
        self, key: str, hypergraph: object, over_edges: bool
    ) -> ShardPlan:
        """The (memoized) placement for one dataset version and side."""
        plan_key = (key, bool(over_edges))
        with self._shard_lock:
            plan = self._plans.get(plan_key)
            if plan is not None and plan.num_vertices() == (
                hypergraph.number_of_edges()
                if over_edges
                else hypergraph.number_of_nodes()
            ):
                return plan
        plan = plan_shards(hypergraph, self.num_shards, over_edges)
        with self._shard_lock:
            if len(self._plans) > 64:  # old dataset versions; drop all
                self._plans.clear()
            self._plans[plan_key] = plan
        return plan

    # -- scatter-gather ------------------------------------------------------
    def _scatter(
        self, key: str, s: int, hypergraph: object, over_edges: bool
    ) -> list:
        """Compute every shard's pair partial on the execution backend."""
        plan = self._plan(key, hypergraph, over_edges)
        bi = (
            hypergraph.biadjacency
            if over_edges
            else hypergraph.biadjacency.dual()
        )
        rt = ParallelRuntime(
            num_threads=plan.num_shards,
            partitioner="blocked",
            tracer=self.tracer,
            backend=self.backend,
            metrics=self.obs_metrics,
        )
        rt.new_run()
        with self.tracer.span(
            "shard.scatter", dataset=key, s=s, shards=plan.num_shards
        ):
            kernel = ShardPairsKernel(
                bi.edges, bi.nodes, s, kernel=self.kernel
            )
            parts = rt.parallel_for(
                plan.parts, kernel, phase="shard_pairs", pure=True
            )
        out = []
        for i, (src, dst, cnt, stats) in enumerate(parts):
            self.obs_metrics.counter(
                "service_shard_pairs_total", shard=str(i)
            ).inc(int(src.size))
            self.obs_metrics.counter(
                "service_shard_candidates_total", shard=str(i)
            ).inc(total_candidates(stats))
            emit_kernel_counters(self.obs_metrics, stats)
            out.append((src, dst, cnt))
        self.obs_metrics.counter(
            "service_shard_scatters_total",
            side="edges" if over_edges else "nodes",
        ).inc()
        return out

    def _partials(
        self, key: str, s: int, hypergraph: object, over_edges: bool
    ) -> list:
        """Per-shard partials, memoized for the most recent (key, s, side).

        One entry bounds memory; the common pattern — a merge fast path
        immediately followed by an assembly build of the same graph —
        pays for the scatter once.
        """
        memo_key = (key, int(s), bool(over_edges))
        with self._shard_lock:
            if self._partial_memo is not None and self._partial_memo[0] == memo_key:
                return self._partial_memo[1]
        parts = self._scatter(key, s, hypergraph, over_edges)
        with self._shard_lock:
            self._partial_memo = (memo_key, parts)
        return parts

    def _build_linegraph(self, dataset, s, hypergraph, over_edges):
        """The cache's builder hook: assemble ``L_s`` from shard partials.

        Concatenation + :func:`finalize_edges` reproduces the canonical
        single-engine edge list bit-for-bit (see module docstring), so
        everything served from cache is sharded *and* exact.
        """
        n = (
            hypergraph.number_of_edges()
            if over_edges
            else hypergraph.number_of_nodes()
        )
        parts = self._partials(dataset, s, hypergraph, over_edges)
        if not parts:
            return empty_linegraph(n)
        src = np.concatenate([p[0] for p in parts])
        dst = np.concatenate([p[1] for p in parts])
        cnt = np.concatenate([p[2] for p in parts])
        with self.tracer.span("shard.assemble", dataset=dataset, s=s):
            return finalize_edges(src, dst, cnt, n)

    # -- fast-path plumbing --------------------------------------------------
    def _side_size(self, hypergraph: object, over_edges: bool) -> int:
        return int(
            hypergraph.number_of_edges()
            if over_edges
            else hypergraph.number_of_nodes()
        )

    def _shard_serves(self, query: dict, *vertices: int) -> bool:
        """Whether the shard fast path should answer this query.

        Cache hits/derives are cheaper than any scatter — those fall
        through to the ordinary cached path.  ``materialize: "always"``
        pins the materializing path, mirroring the unsharded engine.
        Out-of-range vertices also fall through so error behavior stays
        byte-compatible with the unsharded engine.
        """
        if query.get("materialize", "auto") == "always":
            return False
        name = _require(query, "dataset")
        s, over = self._s(query), self._side(query)
        if self.cache.lookup(self._cache_key(name, s, over), s, over):
            return False
        n = self._side_size(self.store.get(name), over)
        return all(0 <= v < n for v in vertices)

    def _route_pairs(self, query: dict, v: int) -> np.ndarray:
        """One vertex's pair row, computed by its owning shard."""
        name, hg = self._dataset(query)
        key = self.store.versioned_name(name)
        s = self._s(query)
        over = self._side(query)
        plan = self._plan(key, hg, over)
        shard = int(plan.owner[v])
        bi = hg.biadjacency if over else hg.biadjacency.dual()
        rt = ParallelRuntime(
            num_threads=1,
            partitioner="blocked",
            tracer=self.tracer,
            backend=self.backend,
            metrics=self.obs_metrics,
        )
        rt.new_run()
        with self.tracer.span("shard.route", dataset=key, s=s, shard=shard):
            kernel = ShardPairsKernel(
                bi.edges, bi.nodes, s, kernel=self.kernel
            )
            parts = rt.parallel_for(
                [np.array([v], dtype=np.int64)],
                kernel,
                phase="shard_route",
                pure=True,
            )
        self.obs_metrics.counter(
            "service_shard_requests_total", mode="route", shard=str(shard)
        ).inc()
        src, dst, cnt, _ = parts[0]
        return dst

    # -- routed ops ----------------------------------------------------------
    def _op_s_neighbors(self, query: dict) -> dict:
        v = int(_require(query, "v"))
        if not self._shard_serves(query, v):
            return super()._op_s_neighbors(query)
        return {
            "result": np.sort(self._route_pairs(query, v)),
            "via": "shard:route",
        }

    def _op_s_degree(self, query: dict) -> dict:
        v = int(_require(query, "v"))
        if not self._shard_serves(query, v):
            return super()._op_s_degree(query)
        return {
            "result": int(self._route_pairs(query, v).size),
            "via": "shard:route",
        }

    # -- merged ops ----------------------------------------------------------
    def _merged_labels(self, query: dict) -> tuple[np.ndarray, list]:
        name, hg = self._dataset(query)
        key = self.store.versioned_name(name)
        over = self._side(query)
        partials = self._partials(key, self._s(query), hg, over)
        n = self._side_size(hg, over)
        self.obs_metrics.counter(
            "service_shard_requests_total", mode="merge", shard="*"
        ).inc()
        return _pair_labels(n, partials), partials

    def _op_s_connected_components(self, query: dict) -> dict:
        if not self._shard_serves(query):
            return super()._op_s_connected_components(query)
        singletons = bool(query.get("return_singletons", False))
        labels, _ = self._merged_labels(query)
        return {
            "result": group_components(labels, singletons),
            "via": "shard:merge",
        }

    def _op_is_s_connected(self, query: dict) -> dict:
        if not self._shard_serves(query):
            return super()._op_is_s_connected(query)
        labels, partials = self._merged_labels(query)
        live_src = [p[0] for p in partials if p[0].size]
        if not live_src:
            return {"result": False, "via": "shard:merge"}
        live = np.unique(np.concatenate(live_src))
        return {
            "result": bool(np.unique(labels[live]).size == 1),
            "via": "shard:merge",
        }

    def _op_s_distance(self, query: dict) -> dict:
        src = int(_require(query, "src"))
        dst = int(_require(query, "dst"))
        if not self._shard_serves(query, src, dst):
            return super()._op_s_distance(query)
        labels, _ = self._merged_labels(query)
        if labels[src] != labels[dst]:
            # disconnected: the merged labels already prove it, no BFS needed
            return {"result": -1, "via": "shard:merge"}
        # connected: assemble the exact graph (reusing the memoized
        # partials through the cache builder) and BFS on it
        return super()._op_s_distance(query)

    # -- introspection -------------------------------------------------------
    def _op_shards(self, query: dict) -> dict:
        """Placement report: per-shard vertex counts and incidence load."""
        name, hg = self._dataset(query)
        key = self.store.versioned_name(name)
        over = self._side(query)
        plan = self._plan(key, hg, over)
        return {
            "result": {
                "dataset": name,
                "over_edges": over,
                "num_shards": plan.num_shards,
                "shards": plan.summary(),
            },
            "via": "direct",
        }

    def metrics(self) -> dict:
        out = super().metrics()
        out["sharding"] = {"num_shards": self.num_shards}
        return out
