"""s-line graph construction algorithms (paper §III-C.3).

One build pipeline (:func:`~repro.linegraph.build.build_slinegraph`)
and a table of presets (:data:`PRESETS`) producing identical canonical
edge lists: naive all-pairs, set-intersection [17], hashmap counting
[18] (also on a thread pool), the paper's two new queue-based
algorithms (Algorithms 1–2), the ensemble, and a scipy sparse-product
oracle; plus clique-expansion/s-clique graphs.  The counting bodies
are in :mod:`~repro.linegraph.dispatch` and
:mod:`~repro.linegraph.kernels`.

``to_two_graph`` is the paper-styled entry point (Listing 2's
``to_two_graph_hashmap_cyclic`` family).
"""

from __future__ import annotations

from repro.parallel.runtime import ParallelRuntime

from .bitset import BitsetOverlapKernel
from .clique import clique_expansion, scliquegraph
from .common import (
    filter_overlaps,
    finalize_edges,
    intersect_count_sorted,
    linegraph_csr,
    resolve_incidence,
    two_hop_pair_counts,
)
from .dispatch import (
    KERNEL_NAMES,
    AdaptiveKernel,
    DispatchPolicy,
    make_count_kernel,
)
from .build import (
    ALGORITHMS,
    PRESETS,
    Preset,
    build_slinegraph,
    slinegraph_ensemble,
    slinegraph_hashmap,
    slinegraph_intersection,
    slinegraph_naive,
    slinegraph_queue_hashmap,
    slinegraph_queue_intersection,
    slinegraph_threaded,
    to_two_graph,
)
from .vectorized import slinegraph_matrix


def _listing2_hashmap(
    partitioner, edge_side, node_side, degrees, s, num_threads, num_bins
):
    """Hashmap construction over two incidence CSRs on a ``partitioner``
    runtime; ``degrees`` is carried by the CSR and kept for paper-API
    parity, ``num_bins`` maps to the runtime's grain."""
    from repro.structures.biadjacency import BiAdjacency

    h = BiAdjacency(edge_side, node_side)
    del degrees
    grain = max(1, (num_bins or 4 * num_threads) // max(num_threads, 1))
    rt = ParallelRuntime(
        num_threads=num_threads, partitioner=partitioner, grain=grain
    )
    return slinegraph_hashmap(h, s, runtime=rt)


def to_two_graph_hashmap_cyclic(
    edge_side, node_side, degrees, s: int, num_threads: int,
    num_bins: int | None = None,
):
    """Listing 2 parity: ``to_two_graph_hashmap_cyclic(hyperedges,
    hypernodes, degrees, s, num_threads, num_bins)``.

    Builds a :class:`~repro.structures.biadjacency.BiAdjacency` view of the
    two incidence CSRs and runs the hashmap construction on a cyclic
    work-stealing runtime.
    """
    return _listing2_hashmap(
        "cyclic", edge_side, node_side, degrees, s, num_threads, num_bins
    )


def to_two_graph_hashmap_blocked(
    edge_side, node_side, degrees, s: int, num_threads: int,
    num_bins: int | None = None,
):
    """Blocked-partitioning sibling of :func:`to_two_graph_hashmap_cyclic`."""
    return _listing2_hashmap(
        "blocked", edge_side, node_side, degrees, s, num_threads, num_bins
    )


__all__ = [
    "ALGORITHMS",
    "AdaptiveKernel",
    "BitsetOverlapKernel",
    "DispatchPolicy",
    "KERNEL_NAMES",
    "PRESETS",
    "Preset",
    "build_slinegraph",
    "make_count_kernel",
    "to_two_graph_hashmap_blocked",
    "to_two_graph_hashmap_cyclic",
    "clique_expansion",
    "filter_overlaps",
    "finalize_edges",
    "intersect_count_sorted",
    "linegraph_csr",
    "resolve_incidence",
    "scliquegraph",
    "slinegraph_ensemble",
    "slinegraph_hashmap",
    "slinegraph_intersection",
    "slinegraph_matrix",
    "slinegraph_naive",
    "slinegraph_queue_hashmap",
    "slinegraph_queue_intersection",
    "slinegraph_threaded",
    "to_two_graph",
    "two_hop_pair_counts",
]
