"""scipy.sparse oracle for s-line construction: ``Bᵗ B`` overlap counts.

The overlap count between hyperedges is one sparse matrix product away:
``(Bᵗ B)[e, f] = |e ∩ f|`` for the 0/1 incidence matrix ``B``.  This is
the independent implementation every hand-written construction algorithm is
validated against (DESIGN.md §5) — different code path, different math
library, same answer — and doubles as the fastest single-core construction
for dense-overlap inputs.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from repro.structures.biadjacency import BiAdjacency
from repro.structures.edgelist import EdgeList
from repro.structures.matrices import overlap_matrix

from .common import finalize_edges

__all__ = ["slinegraph_matrix"]


def slinegraph_matrix(
    h: BiAdjacency, s: int = 1, weighted: bool = False
) -> EdgeList:
    """s-line graph via one sparse ``Bᵗ B`` product.

    ``weighted=True`` computes edge weights from the *weighted* incidence
    product (``Σ_v w(e,v)·w(f,v)``) while thresholding on the set overlap,
    matching ``slinegraph_hashmap(weighted=True)``.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    n = h.num_hyperedges()
    ov = sp.coo_matrix(overlap_matrix(h))
    keep = (ov.row < ov.col) & (ov.data >= s)
    rows = ov.row[keep].astype(np.int64)
    cols = ov.col[keep].astype(np.int64)
    data = ov.data[keep]
    if weighted:
        from repro.structures.matrices import incidence_matrix

        bw = incidence_matrix(h, weighted=True)
        prod = sp.csr_matrix(bw.T @ bw)
        # fancy indexing with no pairs returns a 1x0 sparse matrix
        data = (
            np.asarray(prod[rows, cols]).ravel() if rows.size
            else np.empty(0, dtype=np.float64)
        )
    return finalize_edges(rows, cols, data, n)
