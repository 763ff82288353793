"""Slab writer/reader: alignment, checksums, truncation."""

import numpy as np
import pytest

from repro.store import PAGE_SIZE, SlabFile, SlabWriter


def _write(tmp_path, arrays):
    path = tmp_path / "data-0.slab"
    writer = SlabWriter(path)
    for name, arr in arrays.items():
        writer.add(name, arr)
    return path, writer.finish()


def test_round_trip_and_alignment(tmp_path):
    arrays = {
        "a": np.arange(7, dtype=np.int64),
        "b": np.linspace(0.0, 1.0, 3),
        "c": np.array([], dtype=np.int64),
        "d": np.arange(PAGE_SIZE, dtype=np.uint8),
    }
    path, entries = _write(tmp_path, arrays)
    for entry in entries.values():
        assert entry.offset % PAGE_SIZE == 0
    slab = SlabFile(path, entries)
    try:
        for name, arr in arrays.items():
            got = slab.array(name)
            assert got.dtype == arr.dtype
            assert np.array_equal(got, arr)
            if got.size:  # views are read-only: the slab is immutable
                with pytest.raises(ValueError):
                    got[0] = 0
        assert slab.verify() == []
    finally:
        slab.close()


def test_verify_flags_corruption(tmp_path):
    path, entries = _write(tmp_path, {"a": np.arange(16, dtype=np.int64)})
    raw = bytearray(path.read_bytes())
    raw[entries["a"].offset] ^= 0xFF
    path.write_bytes(bytes(raw))
    slab = SlabFile(path, entries)
    try:
        assert slab.verify() == ["a"]
    finally:
        slab.close()


def test_truncated_slab_is_corrupt(tmp_path):
    from repro.store import StoreCorruptError

    path, entries = _write(tmp_path, {"a": np.arange(16, dtype=np.int64)})
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(StoreCorruptError):
        SlabFile(path, entries)
