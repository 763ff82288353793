"""The query engine — JSON query dicts in, JSON-safe result dicts out.

One engine serves one session: a :class:`~repro.service.store.HypergraphStore`
of resident hypergraphs and a :class:`~repro.service.cache.SLineGraphCache`
of materialized approximations.  Queries are small dicts::

    {"op": "s_distance", "dataset": "lj", "s": 2, "src": 4, "dst": 17}

covering the Listing 5 s-metrics surface plus dataset stats, toplexes,
the Aksoy s-measure report, and session management (``register``,
``warm``, ``invalidate``, ``datasets``, ``metrics``).

Execution strategy per query:

* if ``L_s`` is cached (or s-monotone derivable) it is used;
* otherwise, for the traversal-shaped ops (``s_distance``,
  ``s_neighbors``, ``s_degree``, ``s_connected_components``,
  ``is_s_connected``), when the *estimated* build footprint exceeds the
  cache's remaining budget the engine answers from the lazy s-traversal
  kernels (:mod:`repro.algorithms.s_traversal`) — trading recomputation
  for memory instead of thrashing the cache;
* everything else materializes through the cache (oversized graphs are
  built but bypass admission).

Batches are dispatched on the :mod:`repro.parallel` runtime
(``parallel_for`` over query chunks), and every response carries a
``"via"`` tag (``cache:hit`` / ``cache:derive`` / ``cache:miss`` /
``cache:bypass`` / ``lazy`` / ``direct``) plus wall-clock ``"ms"`` so
clients can see how they were served.

**Wire protocol v2** (``docs/API.md`` has the full schema and the v1→v2
migration table): queries may pin the protocol version with
``"version": 1`` or ``2`` (or ``"v"`` on ops where ``v`` does not already
name a vertex); every response carries ``"ok"`` and ``"v"`` (the protocol
version served).  Failures carry a structured ``"error": {"code",
"message"}`` — the pre-v1 free-form ``"error_str"`` compat field is gone
as of v2.  The v1.1 surface (the ``update`` op — batched mutations with
live cache entries delta-patched under version-aware keys,
:mod:`repro.dynamic` — and the ``version`` negotiation op) is part of v2;
clients still pinning ``1.1`` are accepted as a legacy alias and served
the v2 surface with their pinned version echoed.  Clients pinned to v1
see the post-v1 ops as ``unknown_op`` — a structured error, never a
crash — and everything else behaves exactly as v1 did.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.graph.cc import group_components
from repro.io.json_io import jsonify
from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.obs.tracer import as_tracer
from repro.parallel.runtime import ParallelRuntime, TaskResult

from .cache import SLineGraphCache, estimate_linegraph_bytes
from .spec import SPEC
from .store import HypergraphStore

__all__ = [
    "QueryEngine",
    "QueryError",
    "LAZY_OPS",
    "LEGACY_VERSIONS",
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
]

# The protocol surface is declared once, in repro.service.spec; the
# engine derives its tables from it so the spec cannot drift from what
# is served (the conformance rules R301-R304 prove the rest).

#: wire-protocol version this engine speaks by default
PROTOCOL_VERSION = SPEC.version

#: versions a client may pin; pinning v1 hides the post-v1 ops
SUPPORTED_VERSIONS = frozenset(SPEC.supported)

#: deprecated pins still accepted for one release (served the v2
#: surface, pinned version echoed back) — v1.1 clients keep working
LEGACY_VERSIONS = frozenset(SPEC.legacy)

#: ops that exist only after protocol v1 (v1.1 and later)
_POST_V1_OPS = SPEC.post_v1_ops()


class QueryError(ValueError):
    """A malformed or unanswerable query (bad op, missing field, ...).

    ``code`` is the machine-readable error code carried on the wire
    (``error.code`` in the structured response).
    """

    def __init__(self, message: str, code: str = "bad_request") -> None:
        super().__init__(message)
        self.code = code


#: ops answerable from the lazy s-traversal kernels without materializing
LAZY_OPS = frozenset(
    {
        "s_distance",
        "s_neighbors",
        "s_degree",
        "s_connected_components",
        "is_s_connected",
    }
)


#: ops where the ``"v"`` field names a vertex, not the protocol version
#: (those ops pin the version via ``"version"`` instead)
_VERTEX_OPS = frozenset(SPEC.vertex_ops)


def _require(query: dict, field: str) -> object:
    if field not in query:
        raise QueryError(
            f"op {query.get('op')!r} requires field {field!r}",
            code="missing_field",
        )
    return query[field]


def _check_vertex(v: int, n: int) -> None:
    """Reject a point lookup outside ``[0, n)`` — numpy would wrap ``-1``."""
    if not 0 <= v < n:
        raise QueryError(
            f"vertex {v} out of range [0, {n})", code="invalid_argument"
        )


class QueryEngine:
    """Dispatch JSON queries against resident hypergraphs.

    Parameters
    ----------
    store, cache:
        Shared session state; fresh instances are created when omitted.
    num_threads:
        Simulated thread count for batch dispatch (each
        :meth:`execute_batch` call gets its own
        :class:`~repro.parallel.runtime.ParallelRuntime`, so concurrent
        batches never share a ledger).
    backend, workers:
        Execution backend for batch dispatch
        (:mod:`repro.parallel.backends`).  Defaults come from the
        ``REPRO_BACKEND`` / ``REPRO_WORKERS`` environment variables (so
        a deployment flips the whole service without code changes),
        falling back to ``simulated``.  The pool is persistent — shared
        by every batch — and shut down by :meth:`close`.  Engine ops are
        internally locked, so batch bodies are safe on worker threads.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry`.  Unlike the
        algorithm-level instruments this defaults to a **live** registry
        (the ``metrics``/``prometheus`` ops must have something to
        report); pass an explicit shared registry to aggregate across
        engines, or ``repro.obs.NULL_METRICS`` to disable.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`; no-op when ``None``.
    """

    def __init__(
        self,
        store: HypergraphStore | None = None,
        cache: SLineGraphCache | None = None,
        num_threads: int = 4,
        metrics: MetricsRegistry | None = None,
        tracer: object = None,
        backend: str | None = None,
        workers: int | None = None,
    ) -> None:
        import os

        from repro.parallel.backends import make_backend

        self.store = store if store is not None else HypergraphStore()
        self.obs_metrics = (
            metrics if metrics is not None else MetricsRegistry()
        )
        self.tracer = as_tracer(tracer)
        self.cache = (
            cache
            if cache is not None
            else SLineGraphCache(metrics=self.obs_metrics, tracer=tracer)
        )
        self.num_threads = int(num_threads)
        if backend is None:
            backend = os.environ.get("REPRO_BACKEND") or "simulated"
        if workers is None:
            env_workers = os.environ.get("REPRO_WORKERS")
            workers = int(env_workers) if env_workers else None
        self.backend = make_backend(backend, workers)
        self._op_lock = threading.Lock()
        self._op_counters: dict[str, dict[str, float]] = {}
        # dataset -> cache key of its version before an in-flight update;
        # reads keep using that version's entries until each is replaced
        self._updating: dict[str, str] = {}

    def close(self) -> None:
        """Shut down backend pools and durable store handles (idempotent)."""
        self.backend.close()
        self.store.close()

    def register_store(
        self,
        name: str,
        directory: object,
        replace: bool = False,
        hydrate: bool = True,
    ) -> dict:
        """Register a durable store directory and rehydrate its hot cache.

        The warm-restart entry point behind ``repro serve --store``: the
        store is opened (O(1) mmap adoption + WAL tail replay) and
        registered as a durable-dynamic dataset; with ``hydrate=True``
        the s-line graphs recorded in the manifest are admitted into the
        serving cache under the version-aware key — rolled forward through
        the replayed WAL tail by one delta patch, and omitted (built
        lazily instead) where the patch-vs-rebuild policy says rebuild.
        Returns a JSON-safe summary including the recovery report.
        """
        self.store.register(
            name,
            directory,
            replace=replace,
            tracer=self.tracer,
            metrics=self.obs_metrics,
        )
        handle = self.store.store_handle(name)
        hydrated = []
        if handle is not None and hydrate:
            key = self.store.versioned_name(name)
            for (s, over_edges), lg in sorted(handle.hot_linegraphs().items()):
                if self.cache.put(key, s, over_edges, lg):
                    hydrated.append({"s": s, "over_edges": over_edges})
        out = {
            "dataset": name,
            "directory": str(directory),
            "hydrated": hydrated,
        }
        if handle is not None:
            out["version"] = handle.version
            out["recovery"] = handle.recovery.as_dict()
        return out

    # -- public API ----------------------------------------------------------
    @staticmethod
    def _version_of(query: dict, op: str) -> object:
        """The protocol version a query pins, or ``None`` (= current)."""
        if "version" in query:
            return query["version"]
        if "v" in query and op not in _VERTEX_OPS:
            return query["v"]
        return None

    def _fail(
        self,
        op: object,
        code: str,
        message: str,
        served: object = None,
    ) -> dict:
        return {
            "ok": False,
            "op": op,
            "v": PROTOCOL_VERSION if served is None else served,
            "error": {"code": code, "message": message},
        }

    def execute(self, query: dict) -> dict:
        """Run one query; never raises — errors come back as responses."""
        if not isinstance(query, dict):
            return self._fail(
                None, "bad_request", "query must be a JSON object"
            )
        op = query.get("op")
        t0 = time.perf_counter()
        served = PROTOCOL_VERSION
        try:
            version = self._version_of(query, op)
            if version is not None:
                if (
                    version not in SUPPORTED_VERSIONS
                    and version not in LEGACY_VERSIONS
                ):
                    raise QueryError(
                        f"unsupported protocol version {version!r}; "
                        f"this engine speaks "
                        f"{sorted(SUPPORTED_VERSIONS)}",
                        code="unsupported_version",
                    )
                served = version
            if not isinstance(op, str):
                raise QueryError("query must carry a string 'op' field")
            if served == 1 and op in _POST_V1_OPS:
                # a v1 client cannot see the post-v1 surface: same
                # failure shape an actual v1 engine would have produced
                raise QueryError(
                    f"unknown op {op!r} (requires protocol >= 1.1)",
                    code="unknown_op",
                )
            handler = getattr(self, f"_op_{op}", None)
            if handler is None:
                raise QueryError(f"unknown op {op!r}", code="unknown_op")
            with self.tracer.span("service." + op):
                response = handler(query)
        except (QueryError, KeyError, ValueError, TypeError) as exc:
            elapsed = time.perf_counter() - t0
            op_label = op if isinstance(op, str) else "?"
            if isinstance(exc, QueryError):
                code = exc.code
            elif isinstance(exc, KeyError):
                code = "unknown_dataset"
            else:
                code = "invalid_argument"
            self._record(op_label, elapsed, ok=False, code=code)
            message = str(exc.args[0]) if exc.args else str(exc)
            return self._fail(op, code, message, served=served)
        elapsed = time.perf_counter() - t0
        self._record(op, elapsed, ok=True)
        out = {"ok": True, "op": op, "v": served}
        out.update(response)
        out["ms"] = round(elapsed * 1e3, 3)
        return jsonify(out)

    def execute_batch(
        self,
        queries: list[dict],
        runtime: ParallelRuntime | None = None,
        backend: str | None = None,
        workers: int | None = None,
    ) -> list[dict]:
        """Run a batch on the parallel runtime; responses in input order.

        By default batches dispatch on the engine's persistent execution
        backend; ``backend``/``workers`` override it for one batch (the
        wire protocol's batch envelope forwards them).  Engine ops are
        internally locked, so concurrent dispatch on worker threads
        returns the same responses as serial dispatch.
        """
        if not queries:
            return []
        rt = runtime
        own_rt = None
        if rt is None and self.num_threads > 1 and len(queries) > 1:
            from repro.parallel.backends import make_backend

            be = (
                self.backend
                if backend is None
                else make_backend(backend, workers)
            )
            rt = own_rt = ParallelRuntime(
                num_threads=self.num_threads,
                partitioner="cyclic",
                tracer=self.tracer,
                backend=be,
                metrics=self.obs_metrics,
            )
        out: list[dict | None] = [None] * len(queries)
        ids = np.arange(len(queries), dtype=np.int64)

        def body(chunk: np.ndarray) -> TaskResult:
            results = [(int(i), self.execute(queries[int(i)])) for i in chunk]
            return TaskResult(results, float(chunk.size))

        try:
            if rt is None:
                parts = [body(ids).value]
            else:
                rt.new_run()
                parts = rt.parallel_for(
                    rt.partition(ids), body, phase="query_batch", pure=True
                )
        finally:
            # a one-batch backend override owns its pool; the engine's
            # persistent backend is shared and closed only by close()
            if own_rt is not None and backend is not None:
                own_rt.backend.close()
        for part in parts:
            for i, resp in part:
                out[i] = resp
        return out  # type: ignore[return-value]

    def metrics(self) -> dict:
        """Service counters: per-op latency, cache stats, resident sets.

        ``registry`` is the shared :class:`MetricsRegistry` snapshot —
        the same instruments the ``prometheus`` op exposes.
        """
        with self._op_lock:
            ops = {
                op: {
                    "count": int(st["count"]),
                    "errors": int(st["errors"]),
                    "total_ms": round(st["total_s"] * 1e3, 3),
                    "mean_ms": round(
                        st["total_s"] * 1e3 / st["count"], 3
                    )
                    if st["count"]
                    else 0.0,
                    "max_ms": round(st["max_s"] * 1e3, 3),
                }
                for op, st in sorted(self._op_counters.items())
            }
        return jsonify(
            {
                "ops": ops,
                "cache": self.cache.snapshot(),
                "datasets": self.store.names(),
                "registry": self.obs_metrics.snapshot(),
                "backend": {
                    "name": self.backend.name,
                    "workers": self.backend.workers,
                },
            }
        )

    def prometheus(self) -> str:
        """The shared registry in Prometheus text exposition format."""
        from repro.obs.prometheus import prometheus_text

        return prometheus_text(self.obs_metrics)

    # -- plumbing ------------------------------------------------------------
    def _record(
        self, op: str, seconds: float, ok: bool, code: str | None = None
    ) -> None:
        with self._op_lock:
            st = self._op_counters.setdefault(
                op, {"count": 0, "errors": 0, "total_s": 0.0, "max_s": 0.0}
            )
            st["count"] += 1
            st["errors"] += 0 if ok else 1
            st["total_s"] += seconds
            st["max_s"] = max(st["max_s"], seconds)
        m = self.obs_metrics
        m.counter("service_requests_total", op=op).inc()
        m.histogram(
            "service_request_seconds", bounds=LATENCY_BUCKETS, op=op
        ).observe(seconds)
        if not ok:
            m.counter(
                "service_errors_total", op=op, code=code or "error"
            ).inc()

    def _dataset(self, query: dict) -> tuple:
        name = _require(query, "dataset")
        return name, self.store.get(name)

    @staticmethod
    def _s(query: dict) -> int:
        s = int(query.get("s", 1))
        if s < 1:
            raise QueryError("s must be >= 1", code="invalid_argument")
        return s

    @staticmethod
    def _side(query: dict) -> bool:
        return bool(query.get("over_edges", True))

    def _cache_key(self, name: str, s: int, over_edges: bool) -> str:
        """The cache key a read of ``name`` at ``(s, over_edges)`` uses.

        Cache keys are version-aware (``name@vN`` for updated dynamic
        datasets) so a patched entry can never answer for a stale state.
        While an update of ``name`` is in flight, an entry of the version
        before it still answers until the update replaces it with its
        patched successor — the read is ordered before the update — so
        reads during the patch never fall back to a lazy recount.
        """
        before = self._updating.get(name)
        if before is not None and self.cache.lookup(before, s, over_edges):
            return before
        return self.store.versioned_name(name)

    def _linegraph(self, query: dict) -> tuple:
        """Materialize (or fetch) the query's s-line graph via the cache.

        A hit or derive needs no frozen view of the dataset; only a miss
        takes one (for a dynamic dataset, the snapshot of its version).
        """
        name = _require(query, "dataset")
        s, over = self._s(query), self._side(query)
        key = self._cache_key(name, s, over)
        cached = self.cache.get(key, s, over)
        if cached is None:
            cached = self.cache.get_or_build(
                key, s, self.store.get(name), over
            )
        lg, how = cached
        return lg, f"cache:{how}"

    def _should_serve_lazy(self, query: dict) -> bool:
        if query.get("op") not in LAZY_OPS:
            return False
        mode = query.get("materialize", "auto")
        if mode == "never":
            return True
        if mode == "always":
            return False
        name = _require(query, "dataset")
        s, over = self._s(query), self._side(query)
        if self.cache.lookup(self._cache_key(name, s, over), s, over):
            return False  # already cheap
        remaining = self.cache.remaining_bytes()
        if remaining is None:
            return False
        est = estimate_linegraph_bytes(self.store.get(name), s, over)
        return est > remaining

    def _lazy_side(self, query: dict) -> dict:
        _, hg = self._dataset(query)
        bi = hg.biadjacency
        return bi if self._side(query) else bi.dual()

    # -- s-metric ops --------------------------------------------------------
    def _op_s_distance(self, query: dict) -> dict:
        src = int(_require(query, "src"))
        dst = int(_require(query, "dst"))
        if self._should_serve_lazy(query):
            from repro.algorithms.s_traversal import s_distance_lazy

            d = s_distance_lazy(
                self._lazy_side(query), src, dst, self._s(query)
            )
            return {"result": int(d), "via": "lazy"}
        lg, via = self._linegraph(query)
        return {"result": lg.s_distance(src, dst), "via": via}

    def _op_s_path(self, query: dict) -> dict:
        lg, via = self._linegraph(query)
        path = lg.s_path(int(_require(query, "src")), int(_require(query, "dst")))
        return {"result": path, "via": via}

    def _op_s_neighbors(self, query: dict) -> dict:
        v = int(_require(query, "v"))
        if self._should_serve_lazy(query):
            from repro.algorithms.s_traversal import s_neighbors_lazy

            side = self._lazy_side(query)
            _check_vertex(v, side.num_hyperedges())
            nbrs = s_neighbors_lazy(side, v, self._s(query))
            return {"result": nbrs, "via": "lazy"}
        lg, via = self._linegraph(query)
        _check_vertex(v, lg.num_vertices())
        return {"result": np.sort(lg.s_neighbors(v)), "via": via}

    def _op_s_degree(self, query: dict) -> dict:
        v = int(_require(query, "v"))
        if self._should_serve_lazy(query):
            from repro.algorithms.s_traversal import s_neighbors_lazy

            side = self._lazy_side(query)
            _check_vertex(v, side.num_hyperedges())
            deg = s_neighbors_lazy(side, v, self._s(query)).size
            return {"result": int(deg), "via": "lazy"}
        lg, via = self._linegraph(query)
        _check_vertex(v, lg.num_vertices())
        return {"result": lg.s_degree(v), "via": via}

    def _op_s_connected_components(self, query: dict) -> dict:
        singletons = bool(query.get("return_singletons", False))
        if self._should_serve_lazy(query):
            comps = self._lazy_components(query, singletons)
            return {"result": comps, "via": "lazy"}
        lg, via = self._linegraph(query)
        comps = lg.s_connected_components(return_singletons=singletons)
        return {"result": comps, "via": via}

    def _lazy_components(self, query: dict, singletons: bool) -> list:
        from repro.algorithms.s_traversal import s_connected_components_lazy

        labels = s_connected_components_lazy(
            self._lazy_side(query), self._s(query)
        )
        return group_components(labels, singletons)

    def _op_is_s_connected(self, query: dict) -> dict:
        if self._should_serve_lazy(query):
            comps = self._lazy_components(query, singletons=False)
            return {"result": len(comps) == 1, "via": "lazy"}
        lg, via = self._linegraph(query)
        return {"result": lg.is_s_connected(), "via": via}

    def _op_s_diameter(self, query: dict) -> dict:
        lg, via = self._linegraph(query)
        return {"result": lg.s_diameter(), "via": via}

    def _op_s_eccentricity(self, query: dict) -> dict:
        lg, via = self._linegraph(query)
        v = query.get("v")
        return {
            "result": lg.s_eccentricity(None if v is None else int(v)),
            "via": via,
        }

    def _op_s_betweenness_centrality(self, query: dict) -> dict:
        lg, via = self._linegraph(query)
        bc = lg.s_betweenness_centrality(
            normalized=bool(query.get("normalized", True)),
            weighted=bool(query.get("weighted", False)),
        )
        return {"result": bc, "via": via}

    def _op_s_closeness_centrality(self, query: dict) -> dict:
        lg, via = self._linegraph(query)
        v = query.get("v")
        return {
            "result": lg.s_closeness_centrality(None if v is None else int(v)),
            "via": via,
        }

    def _op_s_harmonic_closeness_centrality(self, query: dict) -> dict:
        lg, via = self._linegraph(query)
        v = query.get("v")
        return {
            "result": lg.s_harmonic_closeness_centrality(
                None if v is None else int(v)
            ),
            "via": via,
        }

    def _op_s_pagerank(self, query: dict) -> dict:
        lg, via = self._linegraph(query)
        pr = lg.s_pagerank(damping=float(query.get("damping", 0.85)))
        return {"result": pr, "via": via}

    def _op_s_core_number(self, query: dict) -> dict:
        lg, via = self._linegraph(query)
        return {"result": lg.s_core_number(), "via": via}

    def _op_s_maximal_independent_set(self, query: dict) -> dict:
        lg, via = self._linegraph(query)
        mis = lg.s_maximal_independent_set(seed=int(query.get("seed", 0)))
        return {"result": mis, "via": via}

    def _op_s_sssp(self, query: dict) -> dict:
        lg, via = self._linegraph(query)
        dist = lg.s_sssp(
            int(_require(query, "src")),
            weighted=bool(query.get("weighted", False)),
        )
        return {"result": dist, "via": via}

    def _op_s_info(self, query: dict) -> dict:
        """Structure card of one s-line graph (vertices/edges/isolated)."""
        lg, via = self._linegraph(query)
        return {
            "result": {
                "s": lg.s,
                "over_edges": lg.over_edges,
                "num_vertices": lg.num_vertices(),
                "num_edges": lg.num_edges(),
                "num_isolated": int(lg.num_vertices() - lg.non_isolated().size),
                "bytes": SLineGraphCache.entry_bytes(lg),
            },
            "via": via,
        }

    # -- hypergraph-level ops ------------------------------------------------
    def _op_stats(self, query: dict) -> dict:
        name, hg = self._dataset(query)
        card = self.store.stats(name)
        card["edge_size_dist"] = hg.edge_size_dist()
        card["node_degree_dist"] = hg.node_degree_dist()
        return {"result": card, "via": "direct"}

    def _op_toplexes(self, query: dict) -> dict:
        _, hg = self._dataset(query)
        return {"result": hg.toplexes(), "via": "direct"}

    def _op_s_metrics(self, query: dict) -> dict:
        from repro.core.smetrics import s_metrics_report

        _, hg = self._dataset(query)
        s_values = query.get("s_values", [self._s(query)])
        reports = s_metrics_report(hg.biadjacency, list(s_values))
        return {
            "result": {s: rep for s, rep in sorted(reports.items())},
            "via": "direct",
        }

    # -- session ops ---------------------------------------------------------
    def _op_register(self, query: dict) -> dict:
        name = _require(query, "name")
        source = _require(query, "source")
        replace = bool(query.get("replace", False))
        if self.store._is_store_dir(source):
            # durable path: open the store, replay its WAL tail, and
            # rehydrate persisted hot line graphs into the cache
            info = self.register_store(name, source, replace=replace)
        else:
            self.store.register(name, source, replace=replace)
            info = {"dataset": name}
        hg = self.store.get(name)
        info["num_edges"] = hg.number_of_edges()
        info["num_nodes"] = hg.number_of_nodes()
        return {"result": info, "via": "direct"}

    def _op_datasets(self, query: dict) -> dict:
        return {"result": self.store.names(), "via": "direct"}

    def _op_warm(self, query: dict) -> dict:
        """Prebuild ``L_s`` for each requested s (ascending, so later s
        values ride the s-monotone derive path)."""
        name, hg = self._dataset(query)
        key = self.store.versioned_name(name)
        s_values = sorted(int(s) for s in query.get("s_values", [1]))
        over = self._side(query)
        served = {}
        for s in s_values:
            _, how = self.cache.get_or_build(key, s, hg, over)
            served[s] = how
        return {"result": served, "via": "direct"}

    def _op_invalidate(self, query: dict) -> dict:
        name = query.get("dataset")
        if name is None:
            dropped = self.cache.invalidate(None)
        else:
            # entries may live under the bare name (pre-update) or the
            # current versioned key — clear both
            dropped = self.cache.invalidate(name)
            key = self.store.versioned_name(name)
            if key != name:
                dropped += self.cache.invalidate(key)
        return {"result": {"dropped": dropped}, "via": "direct"}

    # -- dynamic-update ops (protocol v1.1) ----------------------------------
    def _op_version(self, query: dict) -> dict:
        """Protocol negotiation: what this engine speaks and serves."""
        return {
            "result": {
                "protocol": PROTOCOL_VERSION,
                "supported": sorted(SUPPORTED_VERSIONS),
                "legacy": sorted(LEGACY_VERSIONS),
                "gated_ops": sorted(_POST_V1_OPS),
            },
            "via": "direct",
        }

    def _op_update(self, query: dict) -> dict:
        """Apply a batch of mutations to a resident dataset.

        ``ops`` is a list of mutation records (``{"op": "add_edge",
        "members": [...]}``, ...).  The dataset is promoted to dynamic in
        place if needed; live cached s-line graphs of the pre-update
        version are delta-patched (or dropped, when the dirty fraction
        makes a rebuild cheaper — :mod:`repro.dynamic.policy`).  Each
        patched graph is admitted under the new version-aware key and
        its old-version entry dropped at once, so the budget never holds
        two versions of more than one entry; until then the old entry
        keeps answering reads (:meth:`_cache_key`).  ``compact=True``
        additionally folds the mutation log into a fresh frozen base.
        """
        name = _require(query, "dataset")
        ops = _require(query, "ops")
        if not isinstance(ops, list) or not ops:
            raise QueryError(
                "'ops' must be a non-empty list of mutation records",
                code="invalid_argument",
            )
        old_key = self.store.versioned_name(name)
        dyn = self.store.get_dynamic(
            name, tracer=self.tracer, metrics=self.obs_metrics
        )
        self._updating[name] = old_key
        try:
            try:
                res = dyn.apply(ops)
            except ValueError as exc:
                raise QueryError(
                    str(exc), code="invalid_mutation"
                ) from None
            outcomes = self._patch_entries(name, old_key, dyn, res)
        finally:
            if self._updating.get(name) == old_key:
                del self._updating[name]
        self.cache.invalidate(old_key)
        if bool(query.get("compact", False)):
            dyn.compact()
        body = res.as_dict()
        body["dataset"] = name
        body["cache"] = outcomes
        body["compacted"] = bool(query.get("compact", False))
        return {"result": body, "via": "direct"}

    def _patch_entries(
        self, name: str, old_key: str, dyn, res
    ) -> dict[str, str]:
        """Patch each cached entry of ``old_key`` into the new version.

        Entries are popped one at a time, so each old graph is freed as
        soon as its successor replaces it in the cache.
        """
        from repro.dynamic.incremental import patch_slinegraph

        new_key = self.store.versioned_name(name)
        state = dyn.state
        outcomes: dict[str, str] = {}
        entries = self.cache.entries_for(old_key)
        while entries:
            s, over_edges, lg = entries.pop(0)
            label = f"s={s},{'edges' if over_edges else 'nodes'}"
            patched = patch_slinegraph(
                lg,
                state if over_edges else state.dual(),
                res.dirty_edges if over_edges else res.dirty_nodes,
                tracer=self.tracer,
                metrics=self.obs_metrics,
            )
            del lg
            if patched is None:
                outcomes[label] = "dropped"
            else:
                admitted = self.cache.put(new_key, s, over_edges, patched)
                self.cache.discard(old_key, s, over_edges)
                outcomes[label] = "patched" if admitted else "patched:bypass"
            self.obs_metrics.counter(
                "dynamic_cache_patches_total", outcome=outcomes[label]
            ).inc()
        return outcomes

    def _op_metrics(self, query: dict) -> dict:
        return {"result": self.metrics(), "via": "direct"}

    def _op_prometheus(self, query: dict) -> dict:
        return {"result": self.prometheus(), "via": "direct"}
