"""Reference answers for the analyst correctness gate.

Line graphs come from the sparse-product ``matrix`` oracle (one ``BᵗB``
product), which shares no counting code with the builders under test;
components and distances come from ``scipy.sparse.csgraph``, which
shares no code with :mod:`repro.graph`.  Computed once per seed, outside
every timed window.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from repro.linegraph import slinegraph_matrix
from repro.structures.biadjacency import BiAdjacency
from repro.structures.edgelist import BiEdgeList


def line_answers(
    el: BiEdgeList, s: int, pairs: list[tuple[int, int]]
) -> dict:
    """``{edges, components, distances}`` of L_s, by the oracle."""
    h = BiAdjacency.from_biedgelist(el)
    n = h.num_hyperedges()
    lel = slinegraph_matrix(h, s)
    adj = sp.coo_matrix(
        (np.ones(lel.num_edges()), (lel.src, lel.dst)), shape=(n, n)
    ).tocsr()
    _, labels = csgraph.connected_components(adj, directed=False)
    sizes = np.bincount(labels)
    sources = sorted({a for a, _ in pairs})
    dist = csgraph.shortest_path(
        adj, directed=False, unweighted=True, indices=sources
    )
    row = {v: i for i, v in enumerate(sources)}
    distances = []
    for a, b in pairs:
        d = dist[row[a], b]
        distances.append(int(d) if np.isfinite(d) else -1)
    return {
        "edges": int(lel.num_edges()),
        "components": int(np.count_nonzero(sizes > 1)),
        "distances": distances,
    }
