"""Page-aligned slab file: raw numpy buffers, memory-mapped on open.

The slab is the durable twin of a frozen CSR's struct-of-arrays layout:
each array is written verbatim (contiguous ``int64``/``float64`` bytes)
at a page-aligned offset, and *all* structure — offsets, shapes, dtypes,
checksums — lives in the manifest (:mod:`repro.store.manifest`).  Opening
is one ``mmap`` plus ``np.frombuffer`` views: O(1) in the data, zero
copies, and the OS pages incidence lists in on demand, so datasets may
exceed RAM.

Page alignment buys two things: every array view is itself mappable at
its own offset (``mmap`` offsets must be allocation-granularity aligned),
and arrays never share a page, so ``madvise``-style tuning stays
per-array.

A note on ``close()``: CPython refuses to close an ``mmap`` while
exported pointers (live ``np.frombuffer`` views) exist, raising
``BufferError``.  :meth:`SlabFile.close` tolerates that and leaves
reclamation to the garbage collector — a read-only file mapping is
harmless to keep.
"""

from __future__ import annotations

import mmap
import os
import zlib
from pathlib import Path

import numpy as np

from .manifest import SlabEntry, StoreCorruptError

__all__ = ["PAGE_SIZE", "SlabFile", "SlabWriter"]

#: slab section alignment; also satisfies mmap.ALLOCATIONGRANULARITY
PAGE_SIZE = 4096


def _align(offset: int) -> int:
    return (offset + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)


class SlabWriter:
    """Streams arrays into a slab file, recording :class:`SlabEntry` rows.

    Sections are page-aligned with zero padding between them; ``crc32``
    is computed over exactly the payload bytes.  :meth:`finish` flushes
    and fsyncs, so a slab referenced by a saved manifest is durable.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "wb")
        self._offset = 0
        self.entries: dict[str, SlabEntry] = {}

    def add(self, name: str, array: np.ndarray) -> SlabEntry:
        """Append one array section; returns its manifest entry."""
        if name in self.entries:
            raise ValueError(f"duplicate slab entry {name!r}")
        array = np.ascontiguousarray(array)
        if array.dtype.hasobject:
            raise ValueError(
                f"slab entry {name!r} has object dtype {array.dtype!r}; "
                "only fixed-width numeric buffers are persistable"
            )
        pad = _align(self._offset) - self._offset
        if pad:
            self._fh.write(b"\x00" * pad)
            self._offset += pad
        payload = array.tobytes()
        self._fh.write(payload)
        entry = SlabEntry(
            name=name,
            offset=self._offset,
            nbytes=len(payload),
            shape=tuple(array.shape),
            dtype=array.dtype.str,
            crc32=zlib.crc32(payload),
        )
        self._offset += len(payload)
        self.entries[name] = entry
        return entry

    def finish(self) -> dict[str, SlabEntry]:
        """Flush + fsync + close; returns the recorded entries."""
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        return self.entries


class SlabFile:
    """One read-only mapping of a slab file, serving zero-copy views.

    ``array(entry)`` returns an ndarray view into the shared mapping —
    no per-array mmap, no copies.  ``verify()`` checks every checksum
    (O(bytes), kept off the open path).
    """

    def __init__(
        self, path: str | os.PathLike, entries: dict[str, SlabEntry]
    ) -> None:
        self.path = Path(path)
        self.entries = dict(entries)
        size = max((e.offset + e.nbytes for e in entries.values()), default=0)
        self._mm: mmap.mmap | None = None
        if size:
            with open(self.path, "rb") as fh:
                actual = os.fstat(fh.fileno()).st_size
                if actual < size:
                    raise StoreCorruptError(
                        f"slab {self.path} truncated: {actual} bytes on "
                        f"disk, manifest expects ≥ {size}"
                    )
                self._mm = mmap.mmap(
                    fh.fileno(), length=size, access=mmap.ACCESS_READ
                )

    def array(self, name: str) -> np.ndarray:
        """Zero-copy read-only view of one recorded array."""
        entry = self.entries.get(name)
        if entry is None:
            raise KeyError(f"slab has no entry {name!r}")
        if entry.nbytes == 0 or self._mm is None:
            return np.empty(entry.shape, dtype=np.dtype(entry.dtype))
        arr = np.frombuffer(
            self._mm,
            dtype=np.dtype(entry.dtype),
            count=int(np.prod(entry.shape, dtype=np.int64)),
            offset=entry.offset,
        )
        return arr.reshape(entry.shape)

    def verify(self) -> list[str]:
        """Names of entries whose payload fails its crc32 (empty = clean)."""
        bad: list[str] = []
        for name, entry in sorted(self.entries.items()):
            if entry.nbytes == 0:
                continue
            if self._mm is None:
                bad.append(name)
                continue
            payload = self._mm[entry.offset : entry.offset + entry.nbytes]
            if zlib.crc32(payload) != entry.crc32:
                bad.append(name)
        return bad

    def nbytes(self) -> int:
        """Mapped length in bytes (0 for an empty slab)."""
        return 0 if self._mm is None else len(self._mm)

    def close(self) -> None:
        """Close the mapping if possible.

        With live views the underlying ``mmap`` close raises
        ``BufferError``; the mapping then lives until the last view is
        garbage collected (see module docstring).
        """
        if self._mm is not None:
            try:
                self._mm.close()
            except BufferError:
                pass  # live views; reclaimed when they are collected
            self._mm = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SlabFile({str(self.path)!r}, arrays={len(self.entries)}, "
            f"nbytes={self.nbytes()})"
        )
