"""Spectral hypergraph partitioning — the clique-expansion use case ([29]).

The paper's clique-expansion discussion cites Zien et al.'s multilevel
*spectral* hypergraph partitioning [29]: replace hyperedges with cliques,
then cut the resulting graph with the Fiedler vector.  This module
implements that workflow plus the smoother Zhou-style normalized
hypergraph Laplacian, both reduced to sparse symmetric eigenproblems
(``scipy.sparse.linalg.eigsh`` via shift-invert on the small end):

* :func:`hypergraph_laplacian` — Zhou's normalized Laplacian
  ``L = I − D_v^{-1/2} H W D_e^{-1} H^T D_v^{-1/2}``;
* :func:`fiedler_vector` — second-smallest eigenpair of a Laplacian;
* :func:`spectral_bipartition` — sign-cut of the Fiedler vector into two
  hypernode clusters.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from repro.structures.biadjacency import BiAdjacency
from repro.structures.matrices import incidence_matrix

__all__ = [
    "hypergraph_laplacian",
    "fiedler_vector",
    "spectral_bipartition",
]


def hypergraph_laplacian(
    h: BiAdjacency, edge_weights: np.ndarray | None = None
) -> sp.csr_matrix:
    """Zhou's normalized hypergraph Laplacian over the hypernodes.

    ``edge_weights`` (default 1s) weight each hyperedge's contribution.
    Isolated hypernodes and empty hyperedges contribute identity rows /
    nothing respectively (their normalizations are defined as 0).
    """
    b = incidence_matrix(h)  # hypernodes × hyperedges, 0/1
    n, m = b.shape
    w = (
        np.ones(m)
        if edge_weights is None
        else np.asarray(edge_weights, dtype=np.float64)
    )
    if w.shape != (m,):
        raise ValueError(f"edge_weights must have shape ({m},)")
    edge_sizes = np.asarray(b.sum(axis=0)).ravel()
    node_deg = np.asarray((b @ sp.diags(w)).sum(axis=1)).ravel()
    inv_de = np.where(edge_sizes > 0, 1.0 / np.where(edge_sizes > 0,
                                                     edge_sizes, 1), 0.0)
    inv_sqrt_dv = np.where(node_deg > 0, 1.0 / np.sqrt(np.where(
        node_deg > 0, node_deg, 1)), 0.0)
    theta = (
        sp.diags(inv_sqrt_dv)
        @ b
        @ sp.diags(w * inv_de)
        @ b.T
        @ sp.diags(inv_sqrt_dv)
    )
    return sp.csr_matrix(sp.identity(n) - theta)


def fiedler_vector(
    laplacian: sp.spmatrix, seed: int = 0
) -> tuple[float, np.ndarray]:
    """``(lambda_2, v_2)`` of a symmetric PSD Laplacian.

    Deterministic given the seed (fixed eigsh starting vector); the sign
    is normalized so the first nonzero component is positive.
    """
    # imported here: scipy.sparse.linalg pulls in scipy.linalg, which
    # every `repro serve` start would otherwise pay for
    from scipy.sparse.linalg import eigsh

    n = laplacian.shape[0]
    if n < 3:
        raise ValueError("need at least 3 vertices for a useful Fiedler cut")
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    vals, vecs = eigsh(laplacian, k=2, sigma=-1e-8, which="LM", v0=v0)
    order = np.argsort(vals)
    lam = float(vals[order[1]])
    vec = vecs[:, order[1]]
    nonzero = np.flatnonzero(np.abs(vec) > 1e-12)
    if nonzero.size and vec[nonzero[0]] < 0:
        vec = -vec
    return lam, vec


def spectral_bipartition(
    h: BiAdjacency,
    edge_weights: np.ndarray | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Two-way hypernode partition: sign cut of the Fiedler vector ([29]).

    Returns an int array in {0, 1} per hypernode.  The split threshold is
    the vector's median rather than 0, which balances the parts on
    near-regular hypergraphs (the standard practical choice).
    """
    lap = hypergraph_laplacian(h, edge_weights)
    _, vec = fiedler_vector(lap, seed=seed)
    threshold = float(np.median(vec))
    labels = (vec > threshold).astype(np.int64)
    # degenerate median (many ties): fall back to sign cut
    if labels.min() == labels.max():
        labels = (vec > 0).astype(np.int64)
    return labels
