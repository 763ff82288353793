"""Clique-expansion and s-clique graphs (paper §III-B.3, §II-D).

The clique expansion replaces each hyperedge with a clique over its
members.  Dually to s-line graphs, the **s-clique graph** connects two
*hypernodes* whenever they co-occur in at least *s* hyperedges; the paper's
identity "clique expansion = 1-clique graph = 1-line graph of the dual"
falls straight out of these definitions and is enforced by tests.
"""

from __future__ import annotations

from repro.parallel.runtime import ParallelRuntime
from repro.structures.biadjacency import BiAdjacency
from repro.structures.edgelist import EdgeList

from .build import build_slinegraph

__all__ = ["clique_expansion", "scliquegraph"]


def scliquegraph(
    h: BiAdjacency,
    s: int = 1,
    runtime: ParallelRuntime | None = None,
    algorithm: str = "hashmap",
    tracer=None,
    metrics=None,
    backend=None,
    workers: int | None = None,
) -> EdgeList | dict[int, EdgeList]:
    """s-clique graph: hypernodes joined by ≥ s shared hyperedges.

    Implemented — exactly as the paper defines it — as the s-line graph of
    the dual hypergraph, by
    :func:`~repro.linegraph.build.build_slinegraph`: ``algorithm`` is any
    :data:`~repro.linegraph.build.PRESETS` name (or ``auto``), and the
    ensemble takes a sequence of ``s`` and returns ``{s: graph}``.
    ``tracer``, ``metrics``, and the ``backend``/``workers`` execution-
    backend spec forward to it (see :mod:`repro.obs`,
    :mod:`repro.parallel.backends`).
    """
    return build_slinegraph(
        h.dual(), s, algorithm, runtime=runtime, tracer=tracer,
        metrics=metrics, backend=backend, workers=workers,
    )


def clique_expansion(
    h: BiAdjacency,
    runtime: ParallelRuntime | None = None,
    algorithm: str = "hashmap",
    tracer=None,
    metrics=None,
    backend=None,
    workers: int | None = None,
) -> EdgeList:
    """Clique-expansion graph of a hypergraph: the ``s = 1`` clique graph.

    Every pair of hypernodes sharing at least one hyperedge becomes a graph
    edge; the weight records in how many hyperedges the pair co-occurs.
    The well-known blow-up (§III-B.3: size can grow quadratically in
    hyperedge cardinality) is the caller's problem — this function will
    faithfully materialize it.  ``algorithm`` names a single-s preset.
    """
    return scliquegraph(
        h, 1, runtime=runtime, algorithm=algorithm,
        tracer=tracer, metrics=metrics, backend=backend, workers=workers,
    )
