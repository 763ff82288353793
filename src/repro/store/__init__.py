"""``repro.store`` — durable mmap-backed CSR store with WAL + warm restart.

The persistence layer under everything PRs 1–5 built: frozen CSR
structures live as page-aligned memory-mapped slabs
(:mod:`~repro.store.slab`) described by a versioned, checksummed
manifest (:mod:`~repro.store.manifest`); live mutations append to a
length-prefixed, crc32-checked, fsync'd write-ahead log
(:mod:`~repro.store.wal`); snapshots fold the log back into slabs
(:mod:`~repro.store.snapshot`); and :func:`open_store`
(:mod:`~repro.store.recover`) reopens the whole stack in O(1), replaying
only the WAL tail — the crash-safe warm restart behind
``repro serve --store``.

The format is specified in ``docs/STORAGE.md``.
"""

from .manifest import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    Manifest,
    SlabEntry,
    StoreCorruptError,
    StoreError,
    is_store_dir,
    load_manifest,
    save_manifest,
)
from .recover import (
    DurableDynamicHypergraph,
    RecoveryReport,
    StoreHandle,
    open_store,
    read_store,
)
from .slab import PAGE_SIZE, SlabFile, SlabWriter
from .snapshot import build_store, write_snapshot
from .wal import WAL_MAGIC, WalTail, WriteAheadLog, read_wal

__all__ = [
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "PAGE_SIZE",
    "WAL_MAGIC",
    "DurableDynamicHypergraph",
    "Manifest",
    "RecoveryReport",
    "SlabEntry",
    "SlabFile",
    "SlabWriter",
    "StoreCorruptError",
    "StoreError",
    "StoreHandle",
    "WalTail",
    "WriteAheadLog",
    "build_store",
    "is_store_dir",
    "load_manifest",
    "open_store",
    "read_store",
    "read_wal",
    "save_manifest",
    "write_snapshot",
]
