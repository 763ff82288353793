"""Adjoin-graph representation — one consolidated index set (paper §III-B.2).

The adjoin graph ``G`` of a hypergraph ``H`` re-indexes the two disjoint
index sets of the bipartite form into a single shared index space:
hyperedges keep IDs ``[0, n_e)`` and hypernodes are shifted to
``[n_e, n_e + n_v)``.  Its adjacency matrix is the symmetric block matrix

    A_G = [[0,   B^t],
           [B,   0  ]]

(where ``B`` is the incidence matrix of ``H``), so ``G`` is an ordinary
graph and **any graph algorithm** can run on it — provided the algorithm is
*range-aware*: it must know which half of the index space holds hyperedges
so results can be split back (``split_result``).
"""

from __future__ import annotations

import numpy as np

from .csr import CSR
from .edgelist import BiEdgeList, EdgeList

__all__ = ["AdjoinGraph"]


class AdjoinGraph:
    """A hypergraph consolidated into a single-index-set graph.

    Attributes
    ----------
    graph:
        Square, symmetric CSR over ``nrealedges + nrealnodes`` vertices.
    nrealedges, nrealnodes:
        The paper's names for the cardinalities of the hyperedge and
        hypernode ranges of the shared index set (Listing 2).
    """

    __slots__ = ("graph", "nrealedges", "nrealnodes")

    def __init__(self, graph: CSR, nrealedges: int, nrealnodes: int) -> None:
        if graph.num_vertices() != nrealedges + nrealnodes:
            raise ValueError(
                "adjoin graph must have nrealedges + nrealnodes vertices"
            )
        if graph.num_targets() > graph.num_vertices():
            raise ValueError("adjoin graph must be square")
        self.graph = graph
        self.nrealedges = int(nrealedges)
        self.nrealnodes = int(nrealnodes)

    # -- construction ------------------------------------------------------------
    @classmethod
    def from_biedgelist(cls, el: BiEdgeList) -> "AdjoinGraph":
        """Adjoin a bipartite edge list: shift part-1 IDs by ``n0``, symmetrize."""
        n0, n1 = el.vertex_cardinality
        directed = el.to_adjoin_edgelist()
        graph = CSR.from_undirected(directed)
        return cls(graph, n0, n1)

    @classmethod
    def from_edgelist(
        cls, el: EdgeList, nrealedges: int, nrealnodes: int
    ) -> "AdjoinGraph":
        """Wrap an already-consolidated edge list (``graph_reader_adjoin``)."""
        graph = CSR.from_coo(
            np.concatenate([el.src, el.dst]),
            np.concatenate([el.dst, el.src]),
            None if el.weights is None else np.concatenate([el.weights] * 2),
            num_sources=nrealedges + nrealnodes,
            num_targets=nrealedges + nrealnodes,
        )
        return cls(graph, nrealedges, nrealnodes)

    # -- range-awareness helpers -----------------------------------------------------
    def num_vertices(self) -> int:
        """Total size of the shared index set."""
        return self.graph.num_vertices()

    def is_hyperedge(self, ids: np.ndarray | int) -> np.ndarray | bool:
        """Whether consolidated ID(s) fall in the hyperedge range."""
        return np.asarray(ids) < self.nrealedges if not np.isscalar(ids) else ids < self.nrealedges

    def edge_id(self, adjoin_id: int) -> int:
        """Map a consolidated ID back to the original hyperedge ID."""
        if adjoin_id >= self.nrealedges:
            raise ValueError(f"id {adjoin_id} is not in the hyperedge range")
        return int(adjoin_id)

    def node_id(self, adjoin_id: int) -> int:
        """Map a consolidated ID back to the original hypernode ID."""
        if adjoin_id < self.nrealedges:
            raise ValueError(f"id {adjoin_id} is not in the hypernode range")
        return int(adjoin_id - self.nrealedges)

    def adjoin_edge_id(self, e: int) -> int:
        """Map a hyperedge ID into the shared index set (identity)."""
        if not 0 <= e < self.nrealedges:
            raise ValueError(f"hyperedge id {e} out of range")
        return int(e)

    def adjoin_node_id(self, v: int) -> int:
        """Map a hypernode ID into the shared index set (shift by n_e)."""
        if not 0 <= v < self.nrealnodes:
            raise ValueError(f"hypernode id {v} out of range")
        return int(v + self.nrealedges)

    def split_result(self, result: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split a per-vertex result array of a graph algorithm back into
        ``(hyperedge_result, hypernode_result)`` (paper §III-B.2)."""
        result = np.asarray(result)
        if result.shape[0] != self.num_vertices():
            raise ValueError("result length must equal num_vertices()")
        return result[: self.nrealedges], result[self.nrealedges :]

    # -- niceties ----------------------------------------------------------------------
    def degrees(self) -> np.ndarray:
        return self.graph.degrees()

    def nbytes(self) -> int:
        """Memory footprint of the consolidated CSR."""
        return self.graph.nbytes()

    def edge_range(self) -> range:
        """IDs of the hyperedge half of the shared index set."""
        return range(0, self.nrealedges)

    def node_range(self) -> range:
        """IDs of the hypernode half of the shared index set."""
        return range(self.nrealedges, self.nrealedges + self.nrealnodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AdjoinGraph(nrealedges={self.nrealedges}, "
            f"nrealnodes={self.nrealnodes}, "
            f"num_edges={self.graph.num_edges() // 2})"
        )
