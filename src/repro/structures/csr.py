"""Compressed Sparse Row adjacency — the frozen computation format.

This is the workhorse structure shared by every representation in the
framework: the bipartite representation is *two* mutually indexed CSRs
(:mod:`repro.structures.biadjacency`), the adjoin graph is one CSR over the
consolidated index set (:mod:`repro.structures.adjoin`), and s-line /
clique-expansion graphs are CSRs produced by the construction algorithms.

Design notes (per the paper's "hypergraphs as ranges" §III-A):

* the outer range is random-access: ``graph[i]`` returns vertex *i*'s
  neighbor array in O(1) as a **view** into the shared ``indices`` buffer;
* the inner range is forward-iterable: the returned ``ndarray`` slice.

Everything is struct-of-arrays (``indptr``/``indices``/optional
``weights``), contiguous ``int64``/``float64``, so hot kernels stay fully
vectorized.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
from scipy import sparse as sp

from .edgelist import EdgeList

__all__ = ["CSR", "upper_mask"]

_INDEX_DTYPE = np.int64


def _is_upper_canonical(src: np.ndarray, dst: np.ndarray) -> bool:
    """Whether every pair has ``src < dst`` and the pairs strictly ascend."""
    if src.size == 0:
        return True
    step = np.diff(src)
    return bool(
        np.all(src < dst)
        and np.all((step > 0) | ((step == 0) & (np.diff(dst) > 0)))
    )


def upper_mask(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Per row ``r``, ``lower[r]`` entries ``False`` then ``upper[r]`` ``True``.

    The boolean layout of a symmetric CSR whose sorted rows hold
    ``lower[r]`` neighbours below ``r`` followed by ``upper[r]`` above.
    """
    return np.repeat(
        np.tile(np.array([False, True]), lower.size),
        np.stack([lower, upper], axis=1).reshape(-1),
    )


class CSR:
    """Compressed sparse row adjacency over ``num_sources`` source vertices.

    Rectangular structures are fully supported (``num_targets`` may differ
    from ``num_sources``): the paper stresses that hypergraph incidence is
    generally a rectangular matrix (§III-B.1a).

    Parameters
    ----------
    indptr:
        ``int64[num_sources + 1]`` row-offset array, non-decreasing.
    indices:
        ``int64[nnz]`` neighbor IDs per row.
    weights:
        Optional ``float64[nnz]`` parallel attribute column.
    num_targets:
        Size of the target index space; defaults to ``max(indices) + 1``.
    sorted_rows:
        Declare rows already sorted (skips verification cost on trusted
        construction paths; checked lazily otherwise).
    """

    __slots__ = ("indptr", "indices", "weights", "_num_targets", "_sorted")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray | None = None,
        num_targets: int | None = None,
        sorted_rows: bool | None = None,
    ) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=_INDEX_DTYPE)
        self.indices = np.ascontiguousarray(indices, dtype=_INDEX_DTYPE)
        if self.indptr.ndim != 1 or self.indptr.size == 0:
            raise ValueError("indptr must be a non-empty 1-D array")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if weights is None:
            self.weights = None
        else:
            self.weights = np.ascontiguousarray(weights, dtype=np.float64)
            if self.weights.shape != self.indices.shape:
                raise ValueError("weights length must match indices")
        inferred = int(self.indices.max()) + 1 if self.indices.size else 0
        if num_targets is None:
            self._num_targets = inferred
        else:
            if num_targets < inferred:
                raise ValueError("num_targets smaller than max index present")
            self._num_targets = int(num_targets)
        if sorted_rows is None:
            self._sorted = self._check_sorted()
        else:
            self._sorted = bool(sorted_rows)

    # -- construction --------------------------------------------------------
    @classmethod
    def adopt(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray | None = None,
        num_targets: int = 0,
        sorted_rows: bool = True,
    ) -> "CSR":
        """Adopt already-validated buffers without copying or checking.

        The O(1) construction path for **trusted** sources — buffers that
        were produced by this library and round-tripped through a
        checksummed store (:mod:`repro.store`) or an equivalent provider.
        No dtype coercion, no invariant checks, no O(nnz) scans: the
        arrays are installed as-is (they may be read-only memory-mapped
        views).  Callers must guarantee every ``__init__`` invariant holds;
        ``num_targets`` and ``sorted_rows`` are recorded verbatim.
        """
        out = cls.__new__(cls)
        out.indptr = indptr
        out.indices = indices
        out.weights = weights
        out._num_targets = int(num_targets)
        out._sorted = bool(sorted_rows)
        return out

    @classmethod
    def from_coo(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray | None = None,
        num_sources: int | None = None,
        num_targets: int | None = None,
    ) -> "CSR":
        """Index a COO pair into CSR (counting sort; rows come out sorted).

        This is the Python analogue of the paper's ``biadjacency(biedgelist&)``
        constructor: counting sort by source, then stable sort of each row's
        targets, all vectorized.
        """
        src = np.ascontiguousarray(src, dtype=_INDEX_DTYPE)
        dst = np.ascontiguousarray(dst, dtype=_INDEX_DTYPE)
        if src.shape != dst.shape:
            raise ValueError("src/dst length mismatch")
        n_src = int(src.max()) + 1 if src.size else 0
        if num_sources is not None:
            if num_sources < n_src:
                raise ValueError("num_sources smaller than max source present")
            n_src = int(num_sources)
        # lexsort: primary key src, secondary dst -> sorted rows for free
        order = np.lexsort((dst, src))
        src_s, dst_s = src[order], dst[order]
        counts = np.bincount(src_s, minlength=n_src).astype(_INDEX_DTYPE)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        w = None if weights is None else np.asarray(weights, np.float64)[order]
        return cls(indptr, dst_s, w, num_targets=num_targets, sorted_rows=True)

    @classmethod
    def from_edgelist(
        cls, el: EdgeList, num_targets: int | None = None
    ) -> "CSR":
        """Index an :class:`EdgeList` (single index space) into CSR."""
        return cls.from_coo(
            el.src,
            el.dst,
            el.weights,
            num_sources=el.num_vertices(),
            num_targets=el.num_vertices() if num_targets is None else num_targets,
        )

    @classmethod
    def from_undirected(cls, el: EdgeList) -> "CSR":
        """Index an undirected edge list, storing every edge both ways.

        Equal, array for array, to ``CSR.from_edgelist(el.symmetrize())``.
        A canonical list — ``src < dst``, pairs strictly ascending, the
        form :func:`~repro.linegraph.common.finalize_edges` emits — skips
        the sort: row ``r`` is its lower neighbours (the transpose of the
        upper triangle) followed by its upper neighbours, and both halves
        already ascend.  The upper half is the list itself, row-major;
        the lower half is its transpose, which scipy's CSR→CSC counting
        pass (C++, O(nnz + n)) lays out sorted.  Each half is then
        scattered into the final ``int64``/``float64`` arrays through one
        boolean row-layout mask, so no concatenated coordinate copies
        are made.  Any other list falls back to :meth:`from_coo`.
        """
        if not _is_upper_canonical(el.src, el.dst):
            return cls.from_edgelist(el.symmetrize())
        n, m = el.num_vertices(), len(el)
        up = np.bincount(el.src, minlength=n)
        upper_ptr = np.zeros(n + 1, dtype=_INDEX_DTYPE)
        np.cumsum(up, out=upper_ptr[1:])
        data = (
            np.zeros(m, dtype=np.bool_) if el.weights is None else el.weights
        )
        lower = sp.csr_matrix(
            (data, el.dst, upper_ptr), shape=(n, n)
        ).tocsc()
        low = np.diff(lower.indptr)
        indptr = np.zeros(n + 1, dtype=_INDEX_DTYPE)
        np.cumsum(low + up, out=indptr[1:])
        is_upper = upper_mask(low, up)
        is_lower = ~is_upper
        indices = np.empty(2 * m, dtype=_INDEX_DTYPE)
        indices[is_lower] = lower.indices
        indices[is_upper] = el.dst
        weights = None
        if el.weights is not None:
            weights = np.empty(2 * m, dtype=np.float64)
            weights[is_lower] = lower.data
            weights[is_upper] = el.weights
        return cls(
            indptr, indices, weights, num_targets=n, sorted_rows=True
        )

    @classmethod
    def from_scipy(cls, m: sp.spmatrix | sp.sparray) -> "CSR":
        """Wrap a scipy sparse matrix (converted to canonical CSR)."""
        m = sp.csr_matrix(m)
        m.sum_duplicates()
        m.sort_indices()
        return cls(
            m.indptr.astype(_INDEX_DTYPE),
            m.indices.astype(_INDEX_DTYPE),
            np.asarray(m.data, dtype=np.float64),
            num_targets=m.shape[1],
            sorted_rows=True,
        )

    @classmethod
    def empty(cls, num_sources: int, num_targets: int = 0) -> "CSR":
        """A CSR with ``num_sources`` rows and no edges."""
        return cls(
            np.zeros(num_sources + 1, dtype=_INDEX_DTYPE),
            np.empty(0, dtype=_INDEX_DTYPE),
            num_targets=num_targets,
            sorted_rows=True,
        )

    # -- range-of-ranges protocol --------------------------------------------
    def __len__(self) -> int:
        return self.num_vertices()

    def __getitem__(self, i: int) -> np.ndarray:
        """Neighbor array of vertex ``i`` — an O(1) view, never a copy."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def __iter__(self) -> Iterator[np.ndarray]:
        indptr, indices = self.indptr, self.indices
        for i in range(indptr.size - 1):
            yield indices[indptr[i] : indptr[i + 1]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSR(num_vertices={self.num_vertices()}, "
            f"num_targets={self._num_targets}, num_edges={self.num_edges()})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSR):
            return NotImplemented
        return (
            self._num_targets == other._num_targets
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    __hash__ = None  # type: ignore[assignment]

    # -- paper API -------------------------------------------------------------
    def num_vertices(self) -> int:
        """Number of source vertices (rows)."""
        return int(self.indptr.size - 1)

    def num_targets(self) -> int:
        """Size of the target index space (columns)."""
        return self._num_targets

    def num_edges(self) -> int:
        """Number of stored (directed) edges — nnz."""
        return int(self.indices.size)

    def nbytes(self) -> int:
        """Memory footprint of the backing arrays in bytes."""
        total = self.indptr.nbytes + self.indices.nbytes
        if self.weights is not None:
            total += self.weights.nbytes
        return int(total)

    def degrees(self) -> np.ndarray:
        """Out-degree of every source vertex (paper: ``degrees()``)."""
        return np.diff(self.indptr)

    def degree(self, i: int) -> int:
        return int(self.indptr[i + 1] - self.indptr[i])

    def row_weights(self, i: int) -> np.ndarray | None:
        """Weight slice parallel to ``self[i]`` (``None`` if unweighted)."""
        if self.weights is None:
            return None
        return self.weights[self.indptr[i] : self.indptr[i + 1]]

    # -- transforms --------------------------------------------------------------
    def transpose(self) -> "CSR":
        """The CSR of the reversed edges (dual incidence for hypergraphs)."""
        row = np.repeat(
            np.arange(self.num_vertices(), dtype=_INDEX_DTYPE), self.degrees()
        )
        return CSR.from_coo(
            self.indices,
            row,
            self.weights,
            num_sources=self._num_targets,
            num_targets=self.num_vertices(),
        )

    def sort_rows(self) -> "CSR":
        """Return an equivalent CSR with each neighbor list sorted."""
        if self._sorted:
            return self
        return CSR.from_coo(
            np.repeat(
                np.arange(self.num_vertices(), dtype=_INDEX_DTYPE),
                self.degrees(),
            ),
            self.indices,
            self.weights,
            num_sources=self.num_vertices(),
            num_targets=self._num_targets,
        )

    @property
    def has_sorted_rows(self) -> bool:
        return self._sorted

    def _check_sorted(self) -> bool:
        if self.indices.size < 2:
            return True
        # a row boundary may legally "decrease"; mask those positions out
        nondecreasing = self.indices[1:] >= self.indices[:-1]
        boundary = np.zeros(self.indices.size - 1, dtype=bool)
        inner = self.indptr[1:-1]
        boundary[inner[(inner > 0) & (inner < self.indices.size)] - 1] = True
        return bool(np.all(nondecreasing | boundary))

    def permuted(self, perm: np.ndarray) -> "CSR":
        """Relabel rows *and* columns by ``perm`` (square structures only).

        ``perm[old] == new``.  Used by relabel-by-degree (§III-B.2): the
        paper notes this optimization is valid for simple graphs and s-line
        graphs but scrambles the ID ranges of an adjoin graph.
        """
        if self.num_vertices() != self._num_targets:
            raise ValueError("permuted() requires a square structure")
        perm = np.asarray(perm, dtype=_INDEX_DTYPE)
        src = np.repeat(
            np.arange(self.num_vertices(), dtype=_INDEX_DTYPE), self.degrees()
        )
        return CSR.from_coo(
            perm[src],
            perm[self.indices],
            self.weights,
            num_sources=self.num_vertices(),
            num_targets=self._num_targets,
        )

    def to_scipy(self) -> sp.csr_matrix:
        """View as a scipy CSR matrix (weights default to 1.0)."""
        data = (
            np.ones(self.indices.size, dtype=np.float64)
            if self.weights is None
            else self.weights
        )
        return sp.csr_matrix(
            (data, self.indices, self.indptr),
            shape=(self.num_vertices(), self._num_targets),
        )

    def compress(self):
        """Delta+varint-pack the ``indices`` column.

        Returns a :class:`~repro.structures.compressed.CompressedCSR`
        whose :meth:`~repro.structures.compressed.CompressedCSR.to_csr`
        round-trips bit-exactly.  Requires sorted rows (every
        construction path in this library produces them).
        """
        from .compressed import CompressedCSR

        return CompressedCSR.from_csr(self)

    def to_edgelist(self) -> EdgeList:
        """Flatten back to an edge list over max(num_vertices, num_targets)."""
        src = np.repeat(
            np.arange(self.num_vertices(), dtype=_INDEX_DTYPE), self.degrees()
        )
        return EdgeList(
            src,
            self.indices,
            self.weights,
            num_vertices=max(self.num_vertices(), self._num_targets),
        )

    def neighborhood_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` COO arrays — the flattened range-of-ranges."""
        src = np.repeat(
            np.arange(self.num_vertices(), dtype=_INDEX_DTYPE), self.degrees()
        )
        return src, self.indices.copy()
