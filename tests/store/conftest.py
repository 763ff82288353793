"""Store-test fixtures."""

import pytest

from repro.store.slab import SlabFile


@pytest.fixture
def open_slabs(monkeypatch):
    """Leak probe: call it for the slabs opened during the test whose
    mapping is still held (each ``SlabFile`` is tracked from its
    constructor, so a handle dropped without ``close()`` still shows)."""
    opened = []
    init = SlabFile.__init__

    def tracking_init(self, *args, **kwargs):
        opened.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SlabFile, "__init__", tracking_init)
    return lambda: [s for s in opened if getattr(s, "_mm", None) is not None]
