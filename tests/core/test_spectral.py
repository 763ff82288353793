"""Spectral partitioning tests (Zhou Laplacian, Fiedler cut)."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import sparse as sp

from repro.core.spectral import (
    fiedler_vector,
    hypergraph_laplacian,
    spectral_bipartition,
)
from repro.structures.biadjacency import BiAdjacency

from ..conftest import make_biedgelist


def two_cluster_hypergraph(k: int = 8, bridge: bool = True):
    """Two groups of nodes, each covered by several size-3 hyperedges."""
    members = []
    for base in (0, k):
        for i in range(k - 2):
            members.append([base + i, base + i + 1, base + i + 2])
    if bridge:
        members.append([k - 1, k])  # one weak link between the clusters
    return BiAdjacency.from_biedgelist(make_biedgelist(members,
                                                       num_nodes=2 * k))


class TestLaplacian:
    def test_symmetric_psd(self):
        h = two_cluster_hypergraph()
        lap = hypergraph_laplacian(h)
        dense = lap.toarray()
        assert np.allclose(dense, dense.T)
        vals = np.linalg.eigvalsh(dense)
        assert vals.min() > -1e-9

    def test_connected_null_space_dim_one(self):
        h = two_cluster_hypergraph(bridge=True)
        vals = np.linalg.eigvalsh(hypergraph_laplacian(h).toarray())
        assert (np.abs(vals) < 1e-9).sum() == 1

    def test_disconnected_null_space_dim_two(self):
        h = two_cluster_hypergraph(bridge=False)
        vals = np.linalg.eigvalsh(hypergraph_laplacian(h).toarray())
        assert (np.abs(vals) < 1e-9).sum() == 2

    def test_edge_weights_shape_checked(self):
        h = two_cluster_hypergraph()
        with pytest.raises(ValueError, match="edge_weights"):
            hypergraph_laplacian(h, np.ones(3))

    def test_isolated_node_row_is_identity(self):
        h = BiAdjacency.from_biedgelist(
            make_biedgelist([[0, 1]], num_nodes=3)
        )
        lap = hypergraph_laplacian(h).toarray()
        assert lap[2, 2] == 1.0
        assert np.allclose(lap[2, :2], 0)


class TestFiedler:
    def test_algebraic_connectivity_positive_iff_connected(self):
        lam_conn, _ = fiedler_vector(
            hypergraph_laplacian(two_cluster_hypergraph(bridge=True))
        )
        lam_disc, _ = fiedler_vector(
            hypergraph_laplacian(two_cluster_hypergraph(bridge=False))
        )
        assert lam_conn > 1e-8
        assert abs(lam_disc) < 1e-8

    def test_deterministic(self):
        lap = hypergraph_laplacian(two_cluster_hypergraph())
        _, a = fiedler_vector(lap, seed=1)
        _, b = fiedler_vector(lap, seed=1)
        assert np.allclose(a, b)

    def test_small_graph_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            fiedler_vector(sp.identity(2, format="csr"))


class TestBipartition:
    def test_recovers_planted_clusters(self):
        k = 10
        h = two_cluster_hypergraph(k=k, bridge=True)
        labels = spectral_bipartition(h)
        left = labels[:k]
        right = labels[k:]
        # each planted cluster lands (almost) entirely on one side
        assert min(
            (left == left[0]).mean(), (right == right[0]).mean()
        ) > 0.85
        assert left[0] != right[-1]

    def test_two_sides_nonempty(self):
        h = two_cluster_hypergraph()
        labels = spectral_bipartition(h)
        assert set(labels.tolist()) == {0, 1}

    def test_clique_expansion_equivalence_spirit(self):
        """The cut groups strongly co-occurring nodes together: nodes of
        one hyperedge rarely straddle the cut in the planted instance."""
        h = two_cluster_hypergraph(k=10)
        labels = spectral_bipartition(h)
        straddling = 0
        for e in range(h.num_hyperedges()):
            mem = h.members(e)
            if np.unique(labels[mem]).size > 1:
                straddling += 1
        assert straddling <= 3  # only the bridge edge + slack


def test_cli_import_leaves_sparse_linalg_unloaded():
    """``eigsh`` is imported on first use: a ``repro serve`` start does not
    pay for ``scipy.sparse.linalg`` (and the ``scipy.linalg`` it loads)."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    code = (
        "import sys, repro.cli\n"
        "assert 'scipy.sparse.linalg' not in sys.modules, 'eager eigsh'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
