"""Delta + varint compressed CSR — smaller columns for cache and transport.

The framework's CSRs store sorted ``int64`` neighbor rows.  Sorted rows
compress extremely well as *gaps*: the first index of each row is stored
absolute, every following index as its difference from the predecessor,
and each value is LEB128 varint-encoded (7 payload bits per byte, high
bit = continuation).  Real incidence rows have small gaps, so most
encoded values are one byte — an ~8x shrink of the ``indices`` column —
which is the "bigger graphs fit in cache and in the mmap store"
lever of the compressed-hypergraph line of work ("Compressing
Hypergraphs using Suffix Sorting", PAPERS.md; we use the simpler
delta+varint member of that family).

:class:`CompressedCSR` keeps the ``indptr`` (element offsets) and
optional ``weights`` columns uncompressed — they are O(rows) and
O(nnz·8B) respectively, and keeping ``indptr`` raw preserves O(1)
``degrees()``/row addressing — and replaces ``indices`` with a byte
stream plus per-row byte offsets.  Decoding is fully vectorized
(:func:`varint_decode` loops over the ≤10 byte *positions*, not the
values) and can target any subset of rows (:meth:`decode_rows`), which
is what lets a worker decode only the chunk it was handed.

Round-trip contract: ``CompressedCSR.from_csr(c).to_csr() == c`` bit for
bit (same dtype, same ``num_targets``, same sortedness flag) for every
CSR with sorted rows.  Unsorted rows are rejected — gaps would go
negative.
"""

from __future__ import annotations

import numpy as np

from .csr import CSR

__all__ = [
    "CompressedCSR",
    "varint_decode",
    "varint_encode",
]

_INDEX_DTYPE = np.int64


def varint_encode(values: np.ndarray) -> np.ndarray:
    """LEB128-encode non-negative int64 values into one uint8 stream.

    Vectorized over *byte positions*: at most 10 passes (⌈64/7⌉), each a
    masked shift over every value still emitting bytes.
    """
    v = np.asarray(values, dtype=np.int64)
    if np.any(v < 0):
        raise ValueError("varint encoding requires non-negative values")
    if v.size == 0:
        return np.empty(0, dtype=np.uint8)
    u = v.astype(np.uint64)
    # bytes per value: number of 7-bit groups needed (>= 1)
    lengths = np.ones(u.size, dtype=np.int64)
    rest = u >> np.uint64(7)
    while rest.any():
        lengths += (rest != 0).astype(np.int64)
        rest >>= np.uint64(7)
    starts = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(lengths)[:-1])
    )
    out = np.zeros(int(lengths.sum()), dtype=np.uint8)
    for k in range(int(lengths.max())):
        mask = lengths > k
        byte = ((u[mask] >> np.uint64(7 * k)) & np.uint64(0x7F)).astype(
            np.uint8
        )
        cont = (lengths[mask] > k + 1).astype(np.uint8) << 7
        out[starts[mask] + k] = byte | cont
    return out


def varint_decode(data: np.ndarray, count: int | None = None) -> np.ndarray:
    """Decode a LEB128 uint8 stream back to int64 values.

    ``count`` (when known) skips recounting the terminator bytes.  The
    loop runs over byte positions within a value (≤ 10 iterations), with
    every iteration vectorized over all values.
    """
    b = np.asarray(data, dtype=np.uint8)
    if b.size == 0:
        return np.empty(0, dtype=_INDEX_DTYPE)
    ends = np.flatnonzero(b < 0x80)
    n = ends.size if count is None else int(count)
    if n != ends.size:
        raise ValueError("corrupt varint stream: terminator count mismatch")
    starts = np.concatenate((np.zeros(1, dtype=np.int64), ends[:-1] + 1))
    lengths = ends - starts + 1
    vals = np.zeros(n, dtype=np.uint64)
    for k in range(int(lengths.max())):
        mask = lengths > k
        vals[mask] |= (
            b[starts[mask] + k] & np.uint8(0x7F)
        ).astype(np.uint64) << np.uint64(7 * k)
    return vals.astype(_INDEX_DTYPE)


def _row_deltas(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Per-row delta transform: absolute first index, then gaps."""
    deltas = indices.astype(_INDEX_DTYPE, copy=True)
    if indices.size:
        deltas[1:] -= indices[:-1]
        row_starts = indptr[:-1][np.diff(indptr) > 0]
        deltas[row_starts] = indices[row_starts]
    return deltas


def _undelta(
    deltas: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Invert :func:`_row_deltas` given per-row element counts."""
    if deltas.size == 0:
        return deltas.astype(_INDEX_DTYPE)
    total = np.cumsum(deltas)
    bounds = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(counts))
    )
    live = counts > 0
    # subtract, per row, the running total accumulated before the row
    base = np.zeros(counts.size, dtype=np.int64)
    base[live] = np.where(
        bounds[:-1][live] > 0, total[bounds[:-1][live] - 1], 0
    )
    return total - np.repeat(base, counts)


class CompressedCSR:
    """A CSR whose ``indices`` column is delta+varint byte-packed.

    Parameters mirror the decoded structure: ``indptr`` is the ordinary
    element-offset array (``int64[rows + 1]``), ``offsets`` the parallel
    *byte*-offset array into ``data`` (``int64[rows + 1]``), ``data``
    the varint stream, ``weights`` the optional uncompressed attribute
    column aligned with the decoded indices.
    """

    __slots__ = (
        "indptr", "offsets", "data", "weights", "_num_targets", "_sorted",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        offsets: np.ndarray,
        data: np.ndarray,
        weights: np.ndarray | None = None,
        num_targets: int = 0,
        sorted_rows: bool = True,
    ) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=_INDEX_DTYPE)
        self.offsets = np.ascontiguousarray(offsets, dtype=_INDEX_DTYPE)
        self.data = np.ascontiguousarray(data, dtype=np.uint8)
        self.weights = (
            None
            if weights is None
            else np.ascontiguousarray(weights, dtype=np.float64)
        )
        if self.indptr.shape != self.offsets.shape:
            raise ValueError("indptr/offsets length mismatch")
        if self.offsets.size == 0 or self.offsets[-1] != self.data.size:
            raise ValueError("offsets must end at the data byte count")
        self._num_targets = int(num_targets)
        self._sorted = bool(sorted_rows)

    # -- construction --------------------------------------------------------
    @classmethod
    def from_csr(cls, csr: CSR) -> "CompressedCSR":
        """Compress a sorted-row CSR (bit-exact round trip guaranteed)."""
        if not csr.has_sorted_rows:
            raise ValueError(
                "delta encoding requires sorted rows (call sort_rows())"
            )
        indptr = csr.indptr
        deltas = _row_deltas(indptr, csr.indices)
        data = varint_encode(deltas)
        if csr.indices.size:
            # byte length of each encoded value -> per-row byte offsets
            lengths = np.ones(csr.indices.size, dtype=np.int64)
            rest = deltas.astype(np.uint64) >> np.uint64(7)
            while rest.any():
                lengths += (rest != 0).astype(np.int64)
                rest >>= np.uint64(7)
            byte_bounds = np.concatenate(
                (np.zeros(1, dtype=np.int64), np.cumsum(lengths))
            )
            offsets = byte_bounds[indptr]
        else:
            offsets = np.zeros_like(indptr)
        return cls(
            indptr,
            offsets,
            data,
            weights=csr.weights,
            num_targets=csr.num_targets(),
            sorted_rows=True,
        )

    @classmethod
    def adopt(
        cls,
        indptr: np.ndarray,
        offsets: np.ndarray,
        data: np.ndarray,
        weights: np.ndarray | None = None,
        num_targets: int = 0,
        sorted_rows: bool = True,
    ) -> "CompressedCSR":
        """Adopt already-validated buffers without copies or checks.

        The trusted O(1) path, mirroring :meth:`CSR.adopt` — used when
        the buffers come from a checksummed store slab.
        """
        out = cls.__new__(cls)
        out.indptr = indptr
        out.offsets = offsets
        out.data = data
        out.weights = weights
        out._num_targets = int(num_targets)
        out._sorted = bool(sorted_rows)
        return out

    # -- introspection -------------------------------------------------------
    def num_vertices(self) -> int:
        return int(self.indptr.size - 1)

    def num_targets(self) -> int:
        return self._num_targets

    def num_edges(self) -> int:
        return int(self.indptr[-1])

    @property
    def has_sorted_rows(self) -> bool:
        return self._sorted

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def nbytes(self) -> int:
        total = self.indptr.nbytes + self.offsets.nbytes + self.data.nbytes
        if self.weights is not None:
            total += self.weights.nbytes
        return int(total)

    def ratio(self) -> float:
        """Compressed bytes / raw CSR bytes (< 1 means it shrank)."""
        raw = self.indptr.nbytes + self.num_edges() * 8
        if self.weights is not None:
            raw += self.weights.nbytes
        return self.nbytes() / raw if raw else 1.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompressedCSR(rows={self.num_vertices()}, "
            f"nnz={self.num_edges()}, bytes={self.nbytes()}, "
            f"ratio={self.ratio():.3f})"
        )

    # -- decoding ------------------------------------------------------------
    def decode_row(self, i: int) -> np.ndarray:
        """One row's neighbor array (freshly allocated)."""
        chunk = self.data[self.offsets[i] : self.offsets[i + 1]]
        count = int(self.indptr[i + 1] - self.indptr[i])
        deltas = varint_decode(chunk, count)
        return np.cumsum(deltas) if deltas.size else deltas

    def decode_rows(
        self, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decode a row subset: ``(concatenated indices, per-row counts)``.

        Vectorized: one gather of the selected byte ranges, one varint
        decode of the combined stream, one segmented cumsum.  This is
        the per-chunk worker path — a task decodes only the rows its
        kernel touches.
        """
        ids = np.asarray(ids, dtype=_INDEX_DTYPE)
        counts = self.indptr[ids + 1] - self.indptr[ids]
        if ids.size == 0 or int(counts.sum()) == 0:
            return np.empty(0, dtype=_INDEX_DTYPE), counts
        byte_starts = self.offsets[ids]
        byte_counts = self.offsets[ids + 1] - byte_starts
        from repro.graph.traversal import multi_slice

        stream = multi_slice(self.data, byte_starts, byte_counts)
        deltas = varint_decode(stream, int(counts.sum()))
        return _undelta(deltas, counts), counts

    def to_csr(self) -> CSR:
        """Full decode back to an ordinary :class:`CSR` (bit-exact)."""
        indices, _counts = self.decode_rows(
            np.arange(self.num_vertices(), dtype=_INDEX_DTYPE)
        )
        return CSR.adopt(
            self.indptr,
            indices,
            self.weights,
            num_targets=self._num_targets,
            sorted_rows=self._sorted,
        )
