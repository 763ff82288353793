"""``repro.dynamic`` — mutable hypergraphs with incremental maintenance.

The frozen index sets of the paper (§III-B) meet a mutation log:
:class:`DynamicHypergraph` layers batched add/remove edits over a frozen
:class:`~repro.core.hypergraph.NWHypergraph` snapshot with versioning
and compaction, and :class:`IncrementalSLineGraph` keeps materialized
s-line graphs in sync by patching only the delta — the queue-based
construction algorithms (Algorithms 1–2) seeded with the dirty frontier
instead of the full ID range.

See ``docs/DYNAMIC.md`` for the design (log semantics, compaction
policy, versioning) and the service's ``update`` op for the wire-level
integration.
"""

from .hypergraph import ApplyResult, DynamicHypergraph
from .incremental import (
    IncrementalSLineGraph,
    delta_frontier,
    delta_pair_counts,
    patch_linegraph,
    patch_slinegraph,
    patch_with_builder,
)
from .log import MUTATION_KINDS, Mutation, MutationLog
from .overlay import OverlayState
from .policy import (
    DEFAULT_PATCH_THRESHOLD,
    decide_patch_or_rebuild,
    should_patch,
)

__all__ = [
    "ApplyResult",
    "DEFAULT_PATCH_THRESHOLD",
    "DynamicHypergraph",
    "IncrementalSLineGraph",
    "MUTATION_KINDS",
    "Mutation",
    "MutationLog",
    "OverlayState",
    "decide_patch_or_rebuild",
    "delta_frontier",
    "delta_pair_counts",
    "patch_linegraph",
    "patch_slinegraph",
    "patch_with_builder",
    "should_patch",
]
