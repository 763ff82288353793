"""``repro.service`` — the serving layer: resident hypergraphs, cached
s-line graphs, a concurrent query engine, and a JSON-lines TCP server.

The paper's workflow (Listing 5) is *build once, query many times*: the
expensive lower-order approximation ``L_s(H)`` is materialized and then
answers an arbitrary number of cheap s-metric queries.  The library
classes support that within one script, but nothing held hypergraphs
resident *across* queries, clients, or CLI invocations.  This package is
that missing layer:

* :mod:`~repro.service.store` — a session-scoped registry of named,
  resident :class:`~repro.core.hypergraph.NWHypergraph` instances;
* :mod:`~repro.service.cache` — a byte-budgeted LRU of materialized
  :class:`~repro.core.slinegraph.SLineGraph` objects with **s-monotone
  reuse** and a pluggable cold-build hook;
* :mod:`~repro.service.engine` — JSON query dicts in, JSON-safe results
  out, batches dispatched on the :mod:`repro.parallel` runtime, with
  lazy s-traversal fallbacks under memory pressure;
* :mod:`~repro.service.shard` — the sharded engine: hyperedge-range
  partitions, scatter-gather fast paths, bit-identical answers;
* :mod:`~repro.service.protocol` — transport-agnostic wire framing
  (protocol v2);
* :mod:`~repro.service.aserver` — the front door, on asyncio: pipelined
  connections, bounded in-flight work, admission control, graceful
  drain;
* :mod:`~repro.service.quota` — per-tenant token-bucket admission
  (``quotas=`` on the server) with one counter-tagged shed path
  (:class:`ShedLedger`);
* :mod:`~repro.service.session` — the one client surface
  (:class:`Session` / :class:`SocketSession` / :class:`InProcessSession`
  with typed :class:`ServiceError`).

CLI: ``python -m repro serve`` / ``python -m repro query``.
"""

from .aserver import AsyncAnalyticsServer
from .cache import CacheStats, SLineGraphCache, estimate_linegraph_bytes
from .quota import ShedLedger, TenantQuotas, TokenBucket, extract_tenant
from .engine import (
    LEGACY_VERSIONS,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    QueryEngine,
    QueryError,
)
from .session import (
    InProcessSession,
    ServiceError,
    Session,
    SocketSession,
)
from .shard import ShardedEngine, ShardPlan, plan_shards
from .spec import SPEC, ProtocolSpec
from .store import HypergraphStore

__all__ = [
    "AsyncAnalyticsServer",
    "CacheStats",
    "HypergraphStore",
    "InProcessSession",
    "LEGACY_VERSIONS",
    "PROTOCOL_VERSION",
    "ProtocolSpec",
    "QueryEngine",
    "QueryError",
    "SPEC",
    "SLineGraphCache",
    "SUPPORTED_VERSIONS",
    "ServiceError",
    "Session",
    "ShardPlan",
    "ShardedEngine",
    "ShedLedger",
    "SocketSession",
    "TenantQuotas",
    "TokenBucket",
    "estimate_linegraph_bytes",
    "extract_tenant",
    "plan_shards",
]
