"""``NWHypergraph`` — the framework's user-facing hypergraph class.

Mirrors the pybind11 Python API of the paper (§III-E, Listing 5): construct
from parallel ``(row, col, weight)`` incidence arrays — ``row`` holding
hyperedge IDs and ``col`` hypernode IDs — then query degrees/sizes, build
s-line graphs (:class:`~repro.core.slinegraph.SLineGraph`), compute exact
BFS/CC on either internal representation, collapse duplicate
edges or nodes, and extract toplexes.

The class owns both internal representations (bi-adjacency and adjoin) and
builds each lazily, so representation-specific algorithms are one property
access away.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.algorithms.adjoinbfs import adjoinbfs
from repro.algorithms.adjoincc import adjoincc
from repro.algorithms.hyperbfs import hyperbfs
from repro.algorithms.hypercc import hypercc
from repro.algorithms.toplex import toplexes as _toplexes
from repro.linegraph import ALGORITHMS, build_slinegraph, slinegraph_ensemble
from repro.parallel.runtime import ParallelRuntime
from repro.structures.adjoin import AdjoinGraph
from repro.structures.biadjacency import BiAdjacency
from repro.structures.edgelist import BiEdgeList

from .slinegraph import SLineGraph

__all__ = ["NWHypergraph"]


class NWHypergraph:
    """A hypergraph built from COO-style incidence arrays.

    Parameters
    ----------
    row:
        Hyperedge ID of each incidence.
    col:
        Hypernode ID of each incidence.
    weight:
        Optional per-incidence weight (defaults to 1s, as in the C++ API).
    num_edges, num_nodes:
        Cardinalities; default to max ID + 1.

    Duplicate ``(row, col)`` incidences are dropped at construction (the
    overlap-counting algorithms require set semantics for memberships).
    """

    def __init__(
        self,
        row: Sequence[int] | np.ndarray,
        col: Sequence[int] | np.ndarray,
        weight: Sequence[float] | np.ndarray | None = None,
        num_edges: int | None = None,
        num_nodes: int | None = None,
    ) -> None:
        el = BiEdgeList(row, col, weight, n0=num_edges, n1=num_nodes)
        self._el = el.deduplicate()
        self._bi: BiAdjacency | None = None
        self._adjoin: AdjoinGraph | None = None
        self._slg_memo: dict[tuple, SLineGraph] = {}

    # -- alternate constructors ------------------------------------------------
    @classmethod
    def from_hyperedge_lists(
        cls,
        members: Sequence[Sequence[int]],
        num_nodes: int | None = None,
    ) -> "NWHypergraph":
        """Build from a list of hyperedges, each a list of hypernode IDs."""
        row = [e for e, mem in enumerate(members) for _ in mem]
        col = [int(v) for mem in members for v in mem]
        return cls(row, col, num_edges=len(members), num_nodes=num_nodes)

    @classmethod
    def from_frozen(
        cls,
        el: BiEdgeList,
        biadjacency: BiAdjacency | None = None,
        adjoin: AdjoinGraph | None = None,
    ) -> "NWHypergraph":
        """Adopt an already-deduplicated incidence list without revalidating.

        The O(1) trusted-construction path used by :mod:`repro.store` warm
        restarts: ``el`` must already carry set-semantic (deduplicated)
        incidences, and any supplied ``biadjacency``/``adjoin`` structures
        must describe exactly ``el``.  Representations not supplied stay
        lazy as usual.
        """
        out = cls.__new__(cls)
        out._el = el
        out._bi = biadjacency
        out._adjoin = adjoin
        out._slg_memo = {}
        return out

    @classmethod
    def from_biadjacency(cls, h: BiAdjacency) -> "NWHypergraph":
        """Wrap an existing bi-adjacency structure."""
        src = np.repeat(
            np.arange(h.num_hyperedges(), dtype=np.int64), h.edge_sizes()
        )
        return cls(
            src,
            h.edges.indices,
            h.edges.weights,
            num_edges=h.num_hyperedges(),
            num_nodes=h.num_hypernodes(),
        )

    # -- raw arrays (pybind-style properties) ------------------------------------
    @property
    def row(self) -> np.ndarray:
        """Hyperedge ID per incidence (deduplicated, sorted by pair)."""
        return self._el.part0

    @property
    def col(self) -> np.ndarray:
        """Hypernode ID per incidence."""
        return self._el.part1

    @property
    def weights(self) -> np.ndarray | None:
        return self._el.weights

    # -- internal representations ---------------------------------------------------
    @property
    def biadjacency(self) -> BiAdjacency:
        """The two-index-set representation (built lazily, cached)."""
        if self._bi is None:
            self._bi = BiAdjacency.from_biedgelist(self._el)
        return self._bi

    @property
    def adjoin_graph(self) -> AdjoinGraph:
        """The one-index-set (adjoin) representation (lazy, cached)."""
        if self._adjoin is None:
            self._adjoin = AdjoinGraph.from_biedgelist(self._el)
        return self._adjoin

    def invalidate(self) -> None:
        """Drop every lazily cached derived structure.

        Escape hatch for callers that mutate the underlying incidence
        arrays in place (the supported workflow is immutable, but the
        arrays are reachable): clears the memoized s-line graphs and the
        lazy bi-adjacency/adjoin representations so the next access
        rebuilds from the incidence list.
        """
        self._bi = None
        self._adjoin = None
        self._slg_memo.clear()

    def refresh_linegraphs(
        self,
        dirty_edges,
        dirty_nodes=None,
        threshold: float | None = None,
        tracer=None,
        metrics=None,
    ) -> dict[tuple, str]:
        """Delta-aware alternative to :meth:`invalidate` after a mutation.

        Callers that edited the incidence arrays in place (or swapped
        ``_el`` for a mutated copy) and know *which* hyperedge /
        hypernode IDs changed can keep their memoized s-line graphs
        instead of dropping them: the lazy representations are rebuilt,
        and each memo entry is either **patched** — the stock queue-based
        builders seeded with the delta frontier
        (:func:`repro.dynamic.incremental.patch_with_builder`) — or
        dropped for lazy rebuild, per the same dirty-fraction policy the
        service's ``update`` op uses (:mod:`repro.dynamic.policy` — the
        cost heuristic lives in exactly one place).  IDs must be stable
        (removals tombstoned, additions appended), the contract
        :class:`~repro.dynamic.hypergraph.DynamicHypergraph` maintains.

        Returns ``{memo_key: 'patch' | 'rebuild'}`` per prior entry;
        weighted entries always rebuild (the mutation vocabulary is
        unweighted).
        """
        from repro.dynamic.incremental import builder_delta, splice_rows
        from repro.dynamic.policy import (
            DEFAULT_PATCH_THRESHOLD,
            decide_patch_or_rebuild,
        )

        if threshold is None:
            threshold = DEFAULT_PATCH_THRESHOLD
        old_memo = dict(self._slg_memo)
        self.invalidate()
        d_edges = frozenset(int(e) for e in dirty_edges)
        d_nodes = frozenset(int(v) for v in (dirty_nodes or ()))
        outcomes: dict[tuple, str] = {}
        for key, lg in old_memo.items():
            s, over_edges, algorithm, weighted = key
            dirty = d_edges if over_edges else d_nodes
            n = (
                self.number_of_edges()
                if over_edges
                else self.number_of_nodes()
            )
            how = decide_patch_or_rebuild(len(dirty), n, threshold)
            if (
                weighted
                or lg.graph.weights is None
                or n < lg.num_vertices()
            ):
                how = "rebuild"
            if how == "patch":
                h = (
                    self.biadjacency
                    if over_edges
                    else self.biadjacency.dual()
                )
                algo = (
                    algorithm
                    if algorithm in ("queue_hashmap", "queue_intersection")
                    else "queue_hashmap"
                )
                delta = builder_delta(
                    h, dirty, s,
                    algorithm=algo, tracer=tracer, metrics=metrics,
                )
                self._slg_memo[key] = SLineGraph.from_csr(
                    splice_rows(lg.graph, dirty, delta), s, over_edges
                )
            outcomes[key] = how
        return outcomes

    # -- sizes / degrees ----------------------------------------------------------------
    def number_of_edges(self) -> int:
        return self._el.num_vertices(0)

    def number_of_nodes(self) -> int:
        return self._el.num_vertices(1)

    def degree(
        self,
        node: int,
        min_size: int | None = None,
        max_size: int | None = None,
    ) -> int:
        """Number of hyperedges incident on ``node``.

        ``min_size``/``max_size`` restrict the count to hyperedges whose
        cardinality lies in ``[min_size, max_size]`` — the filtered-degree
        query of the nwhy API (e.g. "in how many large collaborations does
        this author appear?").
        """
        memberships = self.biadjacency.memberships(node)
        if min_size is None and max_size is None:
            return int(memberships.size)
        sizes = self.edge_sizes()[memberships]
        keep = np.ones(sizes.size, dtype=bool)
        if min_size is not None:
            keep &= sizes >= min_size
        if max_size is not None:
            keep &= sizes <= max_size
        return int(keep.sum())

    def size(self, edge: int) -> int:
        """Number of hypernodes in hyperedge ``edge``."""
        return self.biadjacency.edges.degree(edge)

    def dim(self, edge: int) -> int:
        """Dimension of a hyperedge: ``size - 1`` (simplicial convention)."""
        return self.size(edge) - 1

    def degrees(self) -> np.ndarray:
        return self.biadjacency.node_degrees()

    def edge_sizes(self) -> np.ndarray:
        return self.biadjacency.edge_sizes()

    def edge_size_dist(self) -> dict[int, int]:
        """Histogram {size: count} over hyperedges."""
        sizes, counts = np.unique(self.edge_sizes(), return_counts=True)
        return dict(zip(sizes.tolist(), counts.tolist()))

    def node_degree_dist(self) -> dict[int, int]:
        """Histogram {degree: count} over hypernodes."""
        degs, counts = np.unique(self.degrees(), return_counts=True)
        return dict(zip(degs.tolist(), counts.tolist()))

    # -- incidence queries ------------------------------------------------------------------
    def edge_incidence(self, edge: int) -> np.ndarray:
        """Hypernodes of ``edge`` (sorted)."""
        return self.biadjacency.members(edge).copy()

    def node_incidence(self, node: int) -> np.ndarray:
        """Hyperedges joining ``node`` (sorted)."""
        return self.biadjacency.memberships(node).copy()

    def neighbors(self, node: int) -> np.ndarray:
        """Hypernodes adjacent to ``node`` (sharing ≥ 1 hyperedge)."""
        bi = self.biadjacency
        out = np.unique(
            np.concatenate(
                [bi.members(int(e)) for e in bi.memberships(node)]
                or [np.empty(0, dtype=np.int64)]
            )
        )
        return out[out != node]

    def singletons(self) -> np.ndarray:
        """Hyperedges of size 1 whose only node belongs to no other edge."""
        bi = self.biadjacency
        size1 = np.flatnonzero(bi.edge_sizes() == 1)
        if size1.size == 0:
            return size1
        only_node = bi.edges.indices[bi.edges.indptr[size1]]
        return size1[bi.node_degrees()[only_node] == 1]

    # -- dual / collapse --------------------------------------------------------------------------
    def dual(self) -> "NWHypergraph":
        """The dual hypergraph ``H*`` (roles of nodes and edges swapped)."""
        out = NWHypergraph.__new__(NWHypergraph)
        out._el = self._el.swapped()
        out._bi = None
        out._adjoin = None
        out._slg_memo = {}
        return out

    def collapse_edges(self) -> tuple["NWHypergraph", dict[int, list[int]]]:
        """Merge duplicate hyperedges (identical member sets).

        Returns ``(collapsed, classes)`` where ``classes`` maps each
        representative's *new* edge ID to the sorted list of original edge
        IDs it stands for (the nwhy ``collapse_edges`` API).
        """
        bi = self.biadjacency
        groups: dict[tuple[int, ...], list[int]] = {}
        for e in range(self.number_of_edges()):
            groups.setdefault(tuple(bi.members(e).tolist()), []).append(e)
        reps = sorted(groups.values(), key=lambda g: g[0])
        row: list[int] = []
        col: list[int] = []
        classes: dict[int, list[int]] = {}
        for new_id, group in enumerate(reps):
            classes[new_id] = sorted(group)
            for v in bi.members(group[0]).tolist():
                row.append(new_id)
                col.append(v)
        collapsed = NWHypergraph(
            row, col, num_edges=len(reps), num_nodes=self.number_of_nodes()
        )
        return collapsed, classes

    def collapse_nodes(self) -> tuple["NWHypergraph", dict[int, list[int]]]:
        """Merge duplicate hypernodes (identical membership sets) — dual op."""
        dual_collapsed, classes = self.dual().collapse_edges()
        return dual_collapsed.dual(), classes

    def collapse_nodes_and_edges(
        self,
    ) -> tuple["NWHypergraph", dict[int, list[int]], dict[int, list[int]]]:
        """Collapse duplicate nodes, then duplicate edges (nwhy API).

        Node classes are reported in original node IDs; edge classes in
        original edge IDs (edges that become duplicates *because* their
        members collapsed are merged too, matching nwhy's semantics).
        Returns ``(collapsed, edge_classes, node_classes)``.
        """
        node_collapsed, node_classes = self.collapse_nodes()
        collapsed, edge_classes = node_collapsed.collapse_edges()
        return collapsed, edge_classes, node_classes

    # -- subhypergraphs ---------------------------------------------------------------------------------
    def restrict_to_edges(self, edge_ids) -> "NWHypergraph":
        """Subhypergraph over a hyperedge subset (IDs renumbered 0..k-1).

        The hypernode space is preserved (nodes keep their IDs, possibly
        becoming isolated) so results remain comparable to the original.
        """
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        if edge_ids.size and (
            edge_ids.min() < 0 or edge_ids.max() >= self.number_of_edges()
        ):
            raise ValueError("edge id out of range")
        bi = self.biadjacency
        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        for new_id, e in enumerate(edge_ids.tolist()):
            mem = bi.members(e)
            rows.append(np.full(mem.size, new_id, dtype=np.int64))
            cols.append(mem)
        return NWHypergraph(
            np.concatenate(rows) if rows else np.empty(0, np.int64),
            np.concatenate(cols) if cols else np.empty(0, np.int64),
            num_edges=edge_ids.size,
            num_nodes=self.number_of_nodes(),
        )

    def restrict_to_nodes(self, node_ids) -> "NWHypergraph":
        """Subhypergraph keeping only the given hypernodes (IDs renumbered).

        Hyperedges keep their IDs; incidences to dropped nodes vanish (so
        edges may shrink or empty out) — HyperNetX's restriction semantics.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if node_ids.size and (
            node_ids.min() < 0 or node_ids.max() >= self.number_of_nodes()
        ):
            raise ValueError("node id out of range")
        remap = np.full(self.number_of_nodes(), -1, dtype=np.int64)
        remap[node_ids] = np.arange(node_ids.size, dtype=np.int64)
        keep = remap[self.col] >= 0
        return NWHypergraph(
            self.row[keep],
            remap[self.col[keep]],
            num_edges=self.number_of_edges(),
            num_nodes=node_ids.size,
        )

    def toplex_reduction(self) -> tuple["NWHypergraph", np.ndarray]:
        """Keep only the maximal hyperedges; returns ``(reduced, toplex_ids)``.

        Node connectivity is preserved (every dominated edge is implied by
        a superset toplex) — the simplification use case of Algorithm 3.
        """
        tops = _toplexes(self.biadjacency)
        return self.restrict_to_edges(tops), tops

    # -- exact algorithms ------------------------------------------------------------------------------
    def toplexes(self) -> np.ndarray:
        """IDs of maximal hyperedges (paper Algorithm 3)."""
        return _toplexes(self.biadjacency)

    def connected_components(
        self,
        representation: str = "adjoin",
        algorithm: str = "afforest",
        runtime: ParallelRuntime | None = None,
        tracer=None,
        metrics=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact hypergraph CC; returns ``(edge_labels, node_labels)``.

        ``representation='adjoin'`` runs AdjoinCC (``algorithm`` selects the
        engine); ``'bipartite'`` runs HyperCC (label propagation).  Labels
        agree between the two — the framework invariant.
        ``tracer``/``metrics`` (:mod:`repro.obs`) are forwarded to the
        underlying algorithm; no-op when ``None``.
        """
        if representation == "adjoin":
            return adjoincc(
                self.adjoin_graph,
                algorithm,
                runtime=runtime,
                tracer=tracer,
                metrics=metrics,
            )
        if representation == "bipartite":
            return hypercc(
                self.biadjacency,
                runtime=runtime,
                tracer=tracer,
                metrics=metrics,
            )
        raise ValueError(f"unknown representation {representation!r}")

    def bfs(
        self,
        source: int,
        source_is_edge: bool = False,
        representation: str = "adjoin",
        runtime: ParallelRuntime | None = None,
        tracer=None,
        metrics=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact hypergraph BFS; returns ``(edge_dist, node_dist)`` in hops.

        ``tracer``/``metrics`` (:mod:`repro.obs`) are forwarded to the
        underlying algorithm; no-op when ``None``.
        """
        bound = (
            self.number_of_edges() if source_is_edge else self.number_of_nodes()
        )
        if not 0 <= source < bound:
            kind = "hyperedge" if source_is_edge else "hypernode"
            raise ValueError(
                f"{kind} source {source} out of range [0, {bound})"
            )
        if representation == "adjoin":
            return adjoinbfs(
                self.adjoin_graph,
                source,
                source_is_edge,
                runtime=runtime,
                tracer=tracer,
                metrics=metrics,
            )
        if representation == "bipartite":
            return hyperbfs(
                self.biadjacency,
                source,
                source_is_edge,
                direction="direction_optimizing",
                runtime=runtime,
                tracer=tracer,
                metrics=metrics,
            )
        raise ValueError(f"unknown representation {representation!r}")

    # -- distances (HyperNetX-style conveniences) ---------------------------------------------------------
    def edge_distance(self, src: int, dest: int, s: int = 1) -> int:
        """s-walk distance between two hyperedges (``-1`` unreachable).

        Computed lazily (no line-graph materialization).
        """
        from repro.algorithms.s_traversal import s_distance_lazy

        return s_distance_lazy(self.biadjacency, src, dest, s)

    def node_distance(self, src: int, dest: int, s: int = 1) -> int:
        """s-walk distance between two hypernodes (dual-side query).

        Two hypernodes are at distance 1 when they share ≥ s hyperedges —
        the clique-expansion metric for s = 1.
        """
        from repro.algorithms.s_traversal import s_distance_lazy

        return s_distance_lazy(self.biadjacency.dual(), src, dest, s)

    def diameter(self, kind: str = "node", s: int = 1) -> int:
        """Largest finite s-distance among hypernodes (or hyperedges).

        Follows HyperNetX conventions: computed within components (infinite
        pairs ignored); 0 when nothing is connected.  O(n · m) — intended
        for analysis-scale hypergraphs.
        """
        from repro.algorithms.s_traversal import s_bfs_lazy

        if kind == "edge":
            h = self.biadjacency
        elif kind == "node":
            h = self.biadjacency.dual()
        else:
            raise ValueError(f"kind must be 'node' or 'edge', got {kind!r}")
        best = 0
        for e in range(h.num_hyperedges()):
            dist = s_bfs_lazy(h, e, s)
            reach = dist[dist > 0]
            if reach.size:
                best = max(best, int(reach.max()))
        return best

    # -- approximations -----------------------------------------------------------------------------------
    def s_linegraph(
        self,
        s: int = 1,
        over_edges: bool = True,
        algorithm: str = "hashmap",
        runtime: ParallelRuntime | None = None,
        weighted: bool = False,
        tracer=None,
        metrics=None,
    ) -> SLineGraph:
        """Build the s-line graph (``over_edges=True``) or s-clique graph.

        ``over_edges=False`` computes over the hypernode side — the s-line
        graph of the dual, the paper's s-clique graph (clique expansion at
        s=1).  The kwarg matches :attr:`SLineGraph.over_edges`.
        ``weighted=True`` (requires incidence weights and the ``hashmap``
        or ``matrix`` algorithm) emits weighted overlaps
        ``Σ w(e,v)·w(f,v)`` as edge weights; the ``s`` threshold stays on
        set overlap.  ``tracer``/``metrics`` (:mod:`repro.obs`)
        are forwarded to the construction algorithm; no-op when ``None``.

        Repeated calls with the same ``(s, over_edges, algorithm,
        weighted)`` return the **same** :class:`SLineGraph` instance —
        memoized on the hypergraph like the lazy
        ``biadjacency``/``adjoin_graph`` representations (every algorithm
        yields the identical canonical edge list, so the key may safely
        include the algorithm).  An unweighted miss is **derived** without
        counting when the memo holds an unweighted graph on the same side
        for some ``s' <= s`` under any algorithm: the largest such
        ``L_{s'}`` is thresholded (:meth:`SLineGraph.derive`) and the
        result memoized under the requested key.  Calls carrying a
        ``runtime`` bypass the memo: they exist to *measure*
        construction, and a cache hit would skip the simulated schedule.
        Memo hits and derives emit no spans or counters (no construction
        work happened).  Use :meth:`invalidate` to drop everything
        memoized.
        """
        memo_key = (int(s), bool(over_edges), algorithm, bool(weighted))
        if runtime is None and memo_key in self._slg_memo:
            return self._slg_memo[memo_key]
        base = None if runtime is not None else self._derive_base(memo_key)
        if base is not None:
            lg = base.derive(s)
            self._slg_memo[memo_key] = lg
            return lg
        h = self.biadjacency if over_edges else self.biadjacency.dual()
        if weighted and self.weights is None:
            raise ValueError(
                "weighted s-line graphs require incidence weights"
            )
        el = build_slinegraph(
            h, s, algorithm, runtime=runtime, weighted=weighted,
            tracer=tracer, metrics=metrics,
        )
        lg = SLineGraph(el, s=s, over_edges=over_edges)
        if runtime is None:
            self._slg_memo[memo_key] = lg
        return lg

    def _derive_base(self, memo_key: tuple) -> SLineGraph | None:
        """The memo entry an unweighted ``memo_key`` can be filtered from.

        Every algorithm yields the same canonical list, so any unweighted
        entry on the same side with ``s' <= s`` and overlap counts will do;
        the largest such ``s'`` leaves the least to filter.
        """
        s, over_edges, algorithm, weighted = memo_key
        if weighted or (algorithm != "auto" and algorithm not in ALGORITHMS):
            return None
        best = None
        for (s2, oe, _, w), lg in self._slg_memo.items():
            if (
                oe == over_edges and not w and s2 <= s
                and lg.graph.weights is not None
                and (best is None or s2 > best.s)
            ):
                best = lg
        return best

    def s_linegraphs(
        self,
        s_values: Sequence[int],
        over_edges: bool = True,
        runtime: ParallelRuntime | None = None,
        tracer=None,
        metrics=None,
    ) -> dict[int, SLineGraph]:
        """Ensemble construction: ``{s: SLineGraph}`` in one counting pass.

        Accepts the same ``over_edges``/``tracer``/``metrics`` trio as
        :meth:`s_linegraph`.
        """
        h = self.biadjacency if over_edges else self.biadjacency.dual()
        ensemble = slinegraph_ensemble(
            h, list(s_values), runtime=runtime, tracer=tracer, metrics=metrics
        )
        return {
            s: SLineGraph(el, s=s, over_edges=over_edges)
            for s, el in ensemble.items()
        }

    def clique_expansion(self) -> SLineGraph:
        """The clique-expansion graph (s-clique graph at s = 1)."""
        return self.s_linegraph(1, over_edges=False)

    # -- misc -------------------------------------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NWHypergraph(edges={self.number_of_edges()}, "
            f"nodes={self.number_of_nodes()}, incidences={len(self._el)})"
        )
