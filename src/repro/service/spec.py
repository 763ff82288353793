"""The declarative wire-protocol spec — the single source of truth.

Every op name, structured error code, and version gate the service
speaks lives here, once, as a plain literal.  Runtime code *derives*
its tables from :data:`SPEC` (``engine.PROTOCOL_VERSION``,
``engine._POST_V1_OPS``, ...), and the protocol-conformance lint rules
(:mod:`repro.check.protocol_conformance`) *extract* the same literal
from this module's AST and diff it against what the front door, the
engine, and ``docs/API.md`` actually implement.  That split is the
point: the checker proves conformance without importing the service,
so a broken import can never silently pass the conformance gate.

Keep :data:`SPEC` a **pure literal** — every keyword argument must be
evaluable by :func:`ast.literal_eval`.  No comprehensions, no name
references, no arithmetic.  The conformance rules enforce this (a
non-literal spec is itself a finding, R301).

This module must stay a leaf: it imports nothing from
:mod:`repro.service`, so both :mod:`~repro.service.protocol` and
:mod:`~repro.service.engine` can import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

__all__ = ["ProtocolSpec", "SPEC"]


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol surface: versions, ops (with the version that
    introduced each), canonical error codes, and field quirks.

    ``ops`` maps op name to the protocol version it appeared in; ops
    with ``since > 1`` are the *gated* surface a v1-pinned client must
    not see.  ``error_codes`` is the closed set of machine-readable
    ``error.code`` values any response may carry.  ``vertex_ops`` are
    the ops where the wire field ``"v"`` names a vertex rather than a
    protocol-version pin.
    """

    version: int
    supported: tuple[int, ...]
    legacy: tuple[float, ...]
    ops: Mapping[str, float] = field(default_factory=dict)
    error_codes: tuple[str, ...] = ()
    vertex_ops: tuple[str, ...] = ()

    def post_v1_ops(self) -> frozenset[str]:
        """Ops a client pinned to protocol v1 must not see."""
        return frozenset(
            op for op, since in self.ops.items() if since > 1
        )

    def ops_at(self, version: float) -> frozenset[str]:
        """The op surface visible to a client pinned to ``version``."""
        return frozenset(
            op for op, since in self.ops.items() if since <= version
        )


SPEC = ProtocolSpec(
    version=2,
    supported=(1, 2),
    legacy=(1.1,),
    ops={
        # -- v1 s-metric surface (Listing 5 + centralities) --------------
        "s_distance": 1,
        "s_path": 1,
        "s_neighbors": 1,
        "s_degree": 1,
        "s_connected_components": 1,
        "is_s_connected": 1,
        "s_diameter": 1,
        "s_eccentricity": 1,
        "s_betweenness_centrality": 1,
        "s_closeness_centrality": 1,
        "s_harmonic_closeness_centrality": 1,
        "s_pagerank": 1,
        "s_core_number": 1,
        "s_maximal_independent_set": 1,
        "s_sssp": 1,
        "s_info": 1,
        # -- v1 hypergraph / session surface -----------------------------
        "stats": 1,
        "toplexes": 1,
        "s_metrics": 1,
        "register": 1,
        "datasets": 1,
        "warm": 1,
        "invalidate": 1,
        "metrics": 1,
        "prometheus": 1,
        # -- post-v1 surface (gated: v1-pinned clients see unknown_op) ---
        "version": 1.1,
        "update": 1.1,
        "shards": 1.1,
    },
    error_codes=(
        "bad_request",
        "bad_json",
        "unknown_op",
        "missing_field",
        "unsupported_version",
        "unknown_dataset",
        "invalid_argument",
        "invalid_mutation",
        "overloaded",
        "quota_exceeded",
        "internal_error",
    ),
    vertex_ops=(
        "s_neighbors",
        "s_degree",
        "s_eccentricity",
        "s_closeness_centrality",
        "s_harmonic_closeness_centrality",
    ),
)
