"""Golden wire bytes for array-valued answers.

Each reply line below was recorded from the element-by-element
serializer; the array fast path in ``jsonify`` and the vectorised
component grouping must reproduce it byte for byte (the ``ms`` timing
field aside).
"""

from __future__ import annotations

import json
import re

from repro.service.engine import QueryEngine
from repro.service.protocol import dispatch_line

from ..conftest import make_biedgelist

# e0..e3: the running example; e4, e5 overlap each other in two nodes only
MEMBERS = [
    [0, 1, 2], [1, 2, 3], [2, 3, 4, 5, 7, 8], [0, 1, 2, 6],
    [9, 10], [9, 10, 11],
]

GOLDEN = [
    (
        {"op": "s_connected_components", "dataset": "g", "s": 2},
        b'{"ok": true, "op": "s_connected_components", "v": 2, "result": '
        b'[[0, 1, 2, 3], [4, 5]], "via": "cache:miss", "ms": 0}',
    ),
    (
        {"op": "s_connected_components", "dataset": "g", "s": 3,
         "return_singletons": True},
        b'{"ok": true, "op": "s_connected_components", "v": 2, "result": '
        b'[[0, 3], [1], [2], [4], [5]], "via": "cache:derive", "ms": 0}',
    ),
    (
        {"op": "s_connected_components", "dataset": "g", "s": 2,
         "materialize": "never"},
        b'{"ok": true, "op": "s_connected_components", "v": 2, "result": '
        b'[[0, 1, 2, 3], [4, 5]], "via": "lazy", "ms": 0}',
    ),
    (
        {"op": "s_neighbors", "dataset": "g", "s": 1, "v": 2},
        b'{"ok": true, "op": "s_neighbors", "v": 2, "result": [0, 1, 3], '
        b'"via": "cache:miss", "ms": 0}',
    ),
    (
        {"op": "s_eccentricity", "dataset": "g", "s": 1},
        b'{"ok": true, "op": "s_eccentricity", "v": 2, "result": '
        b'[1.0, 1.0, 1.0, 1.0, 1.0, 1.0], "via": "cache:hit", "ms": 0}',
    ),
    (
        {"op": "s_sssp", "dataset": "g", "s": 1, "src": 0, "weighted": True},
        b'{"ok": true, "op": "s_sssp", "v": 2, "result": '
        b'[0.0, 0.5, 1.0, 0.3333333333333333, null, null], '
        b'"via": "cache:hit", "ms": 0}',
    ),
]


def test_reply_bytes_unchanged():
    eng = QueryEngine()
    try:
        eng.store.register("g", make_biedgelist(MEMBERS, 12))
        for query, expect in GOLDEN:
            line = dispatch_line(eng, json.dumps(query).encode())
            assert re.sub(rb'"ms": [^,}]+', b'"ms": 0', line) == expect
    finally:
        eng.close()
