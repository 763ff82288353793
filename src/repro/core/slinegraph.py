"""``SLineGraph`` — s-line graph handle exposing every ``s_*`` query.

The object returned by ``NWHypergraph.s_linegraph`` (Listing 5).  Vertices
are the *original hyperedge IDs* (or hypernode IDs when built with
``over_edges=False``); an edge joins two IDs whose hyperedges share at least
``s`` hypernodes.  All metrics delegate to the graph substrate
(:mod:`repro.graph`) on the symmetrized CSR — the "use any graph algorithm
on the approximation" workflow the paper advocates.

Conventions (documented per query):

* hyperedges that s-intersect nothing are **isolated vertices**; they are
  excluded from ``s_connected_components`` unless
  ``return_singletons=True``;
* ``s_distance`` returns ``-1`` for unreachable pairs;
* centralities follow the conventions of :mod:`repro.graph.paths` /
  :mod:`repro.graph.betweenness` (networkx-compatible).
"""

from __future__ import annotations

import numpy as np

from repro.graph.betweenness import betweenness_centrality
from repro.graph.bfs import bfs_bidirectional, bfs_top_down
from repro.graph.cc import connected_components, group_components
from repro.graph.kcore import core_number
from repro.graph.mis import maximal_independent_set
from repro.graph.pagerank import pagerank
from repro.graph.paths import (
    closeness_centrality,
    eccentricity,
    harmonic_closeness_centrality,
)
from repro.graph.sssp import dijkstra
from repro.linegraph.common import upper_bounds
from repro.parallel.runtime import ParallelRuntime
from repro.structures.csr import CSR, upper_mask
from repro.structures.edgelist import EdgeList

__all__ = ["SLineGraph"]


class SLineGraph:
    """A materialized s-line (or s-clique) graph with metric queries."""

    def __init__(self, el: EdgeList, s: int, over_edges: bool = True) -> None:
        self.s = int(s)
        self.over_edges = bool(over_edges)
        self.graph = CSR.from_undirected(el)

    @classmethod
    def from_csr(
        cls, graph: CSR, s: int, over_edges: bool = True
    ) -> "SLineGraph":
        """Adopt a symmetric CSR as ``L_s`` (trusted; nothing is checked).

        The construction path of :meth:`derive`, the incremental patch
        (:mod:`repro.dynamic.incremental`) and store recovery: ``graph``
        must hold every edge in both directions, rows sorted, with the
        overlap counts aligned with ``indices``.
        """
        out = cls.__new__(cls)
        out.s = int(s)
        out.over_edges = bool(over_edges)
        out.graph = graph
        return out

    @property
    def edgelist(self) -> EdgeList:
        """The upper edge list: entries of :attr:`graph` with ``index > row``.

        Computed from the CSR on each access (nothing is cached), so it
        is canonical — ``src < dst``, sorted by ``(src, dst)`` — and
        equals, array for array, the list a builder emits.  Each sorted
        row's upper entries are its tail, found by one bisection per row.
        """
        g = self.graph
        n = g.num_vertices()
        rows = np.arange(n, dtype=np.int64)
        first = upper_bounds(g.indices, g.indptr[:-1], g.indptr[1:], rows)
        up = g.indptr[1:] - first
        is_upper = upper_mask(first - g.indptr[:-1], up)
        return EdgeList(
            np.repeat(rows, up),
            g.indices[is_upper],
            None if g.weights is None else g.weights[is_upper],
            num_vertices=n,
        )

    def derive(self, s: int) -> "SLineGraph":
        """``L_s`` from this ``L_{s'}`` (``s' <= s``) without recounting.

        The s-line graphs are monotone in s with identical overlap
        weights on the surviving pairs, so masking this graph's entries
        by ``overlap >= s`` gives exactly what a fresh count would; each
        row's survivors stay in place, so the new ``indptr`` is the
        running survivor count at the old row bounds.  Raises
        ``ValueError`` when ``s < self.s`` or the graph carries no
        overlap counts.
        """
        if s < self.s:
            raise ValueError(f"cannot derive s={s} from s={self.s}")
        g = self.graph
        if g.weights is None:
            raise ValueError("deriving requires overlap counts as weights")
        keep = g.weights >= s
        survivors = np.zeros(keep.size + 1, dtype=np.int64)
        np.cumsum(keep, out=survivors[1:])
        return SLineGraph.from_csr(
            CSR.adopt(
                survivors[g.indptr],
                g.indices[keep],
                g.weights[keep],
                num_targets=g.num_targets(),
            ),
            s,
            self.over_edges,
        )

    # -- structure -----------------------------------------------------------
    def num_vertices(self) -> int:
        """Vertex-space size — every original hyperedge ID, isolated or not."""
        return self.graph.num_vertices()

    def num_edges(self) -> int:
        """Number of undirected s-line edges."""
        return self.graph.num_edges() // 2

    def s_neighbors(self, v: int) -> np.ndarray:
        """Hyperedges sharing ≥ s hypernodes with ``v`` (Listing 5)."""
        return self.graph[v].copy()

    def s_degree(self, v: int) -> int:
        """Number of s-neighbors of ``v``."""
        return self.graph.degree(v)

    def non_isolated(self) -> np.ndarray:
        """Vertices with at least one s-neighbor."""
        return np.flatnonzero(self.graph.degrees() > 0)

    # -- connectivity ------------------------------------------------------------
    def s_connected_components(
        self,
        return_singletons: bool = False,
        runtime: ParallelRuntime | None = None,
    ) -> list[np.ndarray]:
        """Connected components as arrays of hyperedge IDs.

        Members ascend and components are ordered by their smallest
        member (:func:`~repro.graph.cc.group_components`).  Isolated
        vertices (no s-neighbors) are omitted unless
        ``return_singletons`` — matching HyperNetX/nwhy semantics where a
        hyperedge with no s-overlaps is not an s-component.
        """
        labels = connected_components(self.graph, runtime=runtime)
        return group_components(labels, return_singletons)

    def is_s_connected(self) -> bool:
        """True iff all non-isolated vertices form one component (and exist).

        The Listing 5 ``is_s_connected`` query: does the s-line graph hang
        together?  Isolated hyperedges are ignored; an s-line graph with no
        edges at all is not connected.
        """
        live = self.non_isolated()
        if live.size == 0:
            return False
        labels = connected_components(self.graph)
        return bool(np.unique(labels[live]).size == 1)

    # -- distances --------------------------------------------------------------------
    def _check_vertex(self, v: int, name: str = "vertex") -> None:
        if not 0 <= v < self.num_vertices():
            raise ValueError(
                f"{name} {v} out of range [0, {self.num_vertices()})"
            )

    def s_distance(self, src: int, dest: int) -> int:
        """Hop distance in the s-line graph; ``-1`` if unreachable.

        A bidirectional BFS (:func:`~repro.graph.bfs.bfs_bidirectional`)
        that stops where the searches from both ends meet, so a short
        answer explores two small neighbourhoods, not the whole graph.
        """
        return len(self.s_path(src, dest)) - 1

    def s_path(self, src: int, dest: int) -> list[int]:
        """One shortest s-walk (as hyperedge IDs); ``[]`` if unreachable.

        Found by the same bidirectional BFS as :meth:`s_distance`; the
        path is a function of the graph alone, so repeated calls agree.
        """
        self._check_vertex(src, "src")
        self._check_vertex(dest, "dest")
        return bfs_bidirectional(self.graph, int(src), int(dest))

    def s_diameter(self) -> int:
        """Largest eccentricity among non-isolated vertices (0 if none)."""
        live = self.non_isolated()
        if live.size == 0:
            return 0
        return int(self.s_eccentricity(live).max())

    # -- centralities -------------------------------------------------------------------
    def s_betweenness_centrality(
        self,
        normalized: bool = True,
        weighted: bool = False,
        runtime: ParallelRuntime | None = None,
    ) -> np.ndarray:
        """Brandes betweenness on the s-line graph (Listing 5).

        ``weighted=True`` treats stronger overlaps as shorter edges
        (``1 / overlap`` lengths, the ``s_sssp`` convention) and runs the
        Dijkstra-ordered Brandes variant.
        """
        if weighted:
            from repro.graph.betweenness import (
                betweenness_centrality_weighted,
            )

            inv = CSR(
                self.graph.indptr,
                self.graph.indices,
                None
                if self.graph.weights is None
                else 1.0 / self.graph.weights,
                num_targets=self.graph.num_targets(),
                sorted_rows=True,
            )
            return betweenness_centrality_weighted(inv, normalized=normalized)
        return betweenness_centrality(
            self.graph, normalized=normalized, runtime=runtime
        )

    def s_closeness_centrality(
        self,
        v: int | None = None,
        runtime: ParallelRuntime | None = None,
    ) -> np.ndarray | float:
        """Closeness (Wasserman–Faust); scalar when ``v`` is given."""
        if v is not None:
            return float(
                closeness_centrality(self.graph, np.array([v]))[0]
            )
        return closeness_centrality(self.graph, runtime=runtime)

    def s_harmonic_closeness_centrality(
        self,
        v: int | None = None,
        normalized: bool = True,
        runtime: ParallelRuntime | None = None,
    ) -> np.ndarray | float:
        """Harmonic closeness; scalar when ``v`` is given."""
        if v is not None:
            return float(
                harmonic_closeness_centrality(
                    self.graph, np.array([v]), normalized=normalized
                )[0]
            )
        return harmonic_closeness_centrality(
            self.graph, normalized=normalized, runtime=runtime
        )

    def s_eccentricity(
        self,
        v: int | np.ndarray | None = None,
        runtime: ParallelRuntime | None = None,
    ) -> np.ndarray | float:
        """Eccentricity within each vertex's component; scalar for one ``v``."""
        if v is None:
            return eccentricity(self.graph, runtime=runtime)
        if np.isscalar(v):
            return float(eccentricity(self.graph, np.array([v]))[0])
        return eccentricity(self.graph, np.asarray(v, dtype=np.int64))

    # -- extended s-metrics (§V staples: PageRank, k-core, MIS, SSSP) --------
    def s_pagerank(
        self,
        damping: float = 0.85,
        tol: float = 1e-10,
        runtime: ParallelRuntime | None = None,
    ) -> np.ndarray:
        """PageRank over the s-line graph (importance among hyperedges)."""
        return pagerank(self.graph, damping=damping, tol=tol, runtime=runtime)

    def s_core_number(
        self, runtime: ParallelRuntime | None = None
    ) -> np.ndarray:
        """k-core number per hyperedge: depth inside overlap-dense clusters."""
        return core_number(self.graph, runtime=runtime)

    def s_maximal_independent_set(
        self, seed: int = 0, runtime: ParallelRuntime | None = None
    ) -> np.ndarray:
        """A maximal set of pairwise non-s-overlapping hyperedges."""
        return maximal_independent_set(self.graph, seed=seed, runtime=runtime)

    def s_sssp(self, src: int, weighted: bool = False) -> np.ndarray:
        """Distances from ``src`` to all hyperedges.

        ``weighted=False`` (default) counts s-walk hops; ``weighted=True``
        uses ``1 / overlap`` edge lengths, so heavily-overlapping steps are
        "shorter" — unreachable entries are ``inf`` (weighted) / ``-1``
        (unweighted).
        """
        if not weighted:
            dist, _ = bfs_top_down(self.graph, src)
            return dist
        inv = CSR(
            self.graph.indptr,
            self.graph.indices,
            None
            if self.graph.weights is None
            else 1.0 / self.graph.weights,
            num_targets=self.graph.num_targets(),
            sorted_rows=True,
        )
        dist, _ = dijkstra(inv, src)
        return dist

    # -- interop ---------------------------------------------------------------
    def s_adjacency_matrix(self, weighted: bool = True):
        """The symmetric adjacency of ``L_s`` as ``scipy.sparse.csr_matrix``.

        ``weighted=True`` keeps overlap sizes as entries; ``False`` gives a
        0/1 pattern matrix.
        """
        m = self.graph.to_scipy()
        if not weighted:
            m = m.copy()
            m.data[:] = 1.0
        return m

    def to_networkx(self):
        """Export as a ``networkx.Graph`` (overlaps as ``weight`` attrs).

        Requires networkx (an optional dependency; everything else in the
        framework works without it).
        """
        try:
            import networkx as nx
        except ImportError as exc:  # pragma: no cover - env without nx
            raise ImportError(
                "to_networkx() requires the optional networkx dependency"
            ) from exc
        G = nx.Graph()
        G.add_nodes_from(range(self.num_vertices()))
        el = self.edgelist
        if el.weights is None:
            G.add_edges_from(zip(el.src.tolist(), el.dst.tolist()))
        else:
            G.add_weighted_edges_from(
                zip(el.src.tolist(), el.dst.tolist(), el.weights.tolist())
            )
        return G

    # -- misc --------------------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "line" if self.over_edges else "clique"
        return (
            f"SLineGraph(s={self.s}, kind={kind}, "
            f"vertices={self.num_vertices()}, edges={self.num_edges()})"
        )
