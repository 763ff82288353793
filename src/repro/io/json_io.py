"""JSON interchange for (labeled) hypergraphs.

A self-describing, dependency-free wire format:

    {
      "format": "repro-hypergraph",
      "version": 1,
      "edges": {"paper1": ["alice", "bob"], "paper2": ["bob"]}
    }

Edge names are JSON object keys (strings); node labels may be strings or
numbers.  The natural pairing is :class:`repro.core.labeled.LabeledHypergraph`;
integer-core hypergraphs round-trip through stringified IDs.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Any, TextIO

import numpy as np

from repro.core.labeled import LabeledHypergraph

__all__ = ["jsonify", "read_json", "write_json"]


#: exact types passed through as they are (``np.float64`` subclasses float)
_NATIVE = frozenset({str, int, bool, type(None)})


def jsonify(obj: Any) -> Any:
    """Recursively convert ``obj`` into ``json.dumps``-safe native types.

    NumPy leaks through every analytics result in the framework —
    ``np.int64`` histogram keys, ``np.float64`` means, distance arrays —
    and ``json.dumps`` raises ``TypeError`` on all of them.  This is the
    one conversion point the CLI's ``--json`` outputs and the serving
    layer (:mod:`repro.service`) share:

    * NumPy scalars become Python scalars (non-finite floats become
      ``None``, since JSON has no ``inf``/``nan``);
    * NumPy arrays become (nested) lists in one ``tolist`` call — float
      arrays find their non-finite entries in NumPy first, so those still
      become ``None``; only object (and other non-numeric) arrays and 0-d
      arrays are walked element by element;
    * dataclasses (``DatasetStats``, ``SMetricsReport``, ...) become dicts;
    * dict *keys* are converted too (then stringified by ``json.dumps``
      as usual) and containers are walked recursively.
    """
    if type(obj) in _NATIVE:
        return obj
    if isinstance(obj, np.ndarray):
        if obj.ndim == 0 or obj.dtype.kind not in "biuf":
            return jsonify(obj.tolist())
        if obj.dtype.kind == "f" and not np.isfinite(obj).all():
            obj = np.where(np.isfinite(obj), obj, None)
        return obj.tolist()
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return jsonify(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {jsonify(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    return obj


_FORMAT = "repro-hypergraph"
_VERSION = 1


def write_json(
    path: str | Path | TextIO, lh: LabeledHypergraph, indent: int = 2
) -> None:
    """Serialize a labeled hypergraph (edge names become strings)."""
    payload = {
        "format": _FORMAT,
        "version": _VERSION,
        "edges": {
            str(edge): list(members)
            for edge, members in lh.to_dict().items()
        },
    }
    close = False
    if isinstance(path, (str, Path)):
        fh = open(path, "w", encoding="utf-8")
        close = True
    else:
        fh = path
    try:
        json.dump(payload, fh, indent=indent)
    finally:
        if close:
            fh.close()


def read_json(path: str | Path | TextIO) -> LabeledHypergraph:
    """Parse the JSON hypergraph format back into a labeled hypergraph."""
    close = False
    if isinstance(path, (str, Path)):
        fh = open(path, "r", encoding="utf-8")
        close = True
    else:
        fh = path
    try:
        payload = json.load(fh)
    finally:
        if close:
            fh.close()
    if not isinstance(payload, dict):
        raise ValueError("top-level JSON value must be an object")
    if payload.get("format") != _FORMAT:
        raise ValueError(
            f"not a {_FORMAT} document (format={payload.get('format')!r})"
        )
    version = payload.get("version")
    if version != _VERSION:
        raise ValueError(f"unsupported version {version!r}")
    edges = payload.get("edges")
    if not isinstance(edges, dict):
        raise ValueError("'edges' must be an object of edge -> member list")
    for name, members in edges.items():
        if not isinstance(members, list):
            raise ValueError(f"edge {name!r}: members must be a list")
    return LabeledHypergraph.from_dict(edges)
