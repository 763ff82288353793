"""Wire-protocol framing shared by every transport front end.

The front door (:mod:`repro.service.aserver`) and the in-process
session speak one newline-delimited JSON protocol: one request object
per line, one response object (or response array, for batches) per
line.  This module owns the transport-agnostic part: decoding a request line, routing it to an engine (single query vs.
``{"batch": [...]}`` envelope), and producing protocol-level error
responses.  The engine itself owns per-query semantics and versioning
(:mod:`repro.service.engine`).

**v2 envelope cleanup** (see ``docs/API.md`` for the migration table):

* protocol errors carry only the structured ``error: {code, message}``
  object — the pre-v1 free-form ``error_str`` string is gone;
* batch envelopes pin the version with ``"v"`` only — the pre-v1
  ``"version"`` alias is no longer honored on envelopes (individual
  queries keep ``"version"``, where ``"v"`` may name a vertex); the
  envelope pin is inherited by every item that does not pin its own;
* the ``backend`` field is validated against the live
  :data:`repro.parallel.backends.BACKEND_NAMES` registry
  (``simulated``/``threaded``) rather than a hard-coded tuple, and
  ``workers`` must be a positive integer; anything else is an
  ``invalid_argument`` response, not an engine call.
"""

from __future__ import annotations

import json

from .engine import (
    LEGACY_VERSIONS,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    QueryEngine,
)
from .spec import SPEC

__all__ = ["SPEC", "dispatch", "dispatch_line", "protocol_error"]


def protocol_error(code: str, message: str) -> dict:
    """A transport-level failure response (bad JSON, bad envelope)."""
    return {
        "ok": False,
        "v": PROTOCOL_VERSION,
        "error": {"code": code, "message": message},
    }


def dispatch(engine: QueryEngine, payload: object) -> object:
    """Route one decoded request line (single query or batch envelope)."""
    if isinstance(payload, dict) and "batch" in payload:
        v = payload.get("v")
        if (
            v is not None
            and v not in SUPPORTED_VERSIONS
            and v not in LEGACY_VERSIONS
        ):
            return protocol_error(
                "unsupported_version",
                f"unsupported protocol version {v!r}; "
                f"this server speaks {sorted(SUPPORTED_VERSIONS)}",
            )
        backend = payload.get("backend")
        if backend is not None:
            from repro.parallel.backends import BACKEND_NAMES

            if backend not in BACKEND_NAMES:
                return protocol_error(
                    "invalid_argument",
                    f"unknown backend {backend!r}; choose from "
                    f"{sorted(BACKEND_NAMES)}",
                )
        workers = payload.get("workers")
        if workers is not None and (
            not isinstance(workers, int)
            or isinstance(workers, bool)
            or workers < 1
        ):
            return protocol_error(
                "invalid_argument",
                f"workers must be a positive integer, got {workers!r}",
            )
        queries = payload["batch"]
        if v is not None and isinstance(queries, list):
            # the envelope pin is inherited by every item that does not
            # pin its own version — a v1 envelope is a v1 batch
            queries = [
                q if not isinstance(q, dict) or "version" in q
                else {**q, "version": v}
                for q in queries
            ]
        return engine.execute_batch(
            queries,
            backend=backend,
            workers=workers,
        )
    return engine.execute(payload)


def dispatch_line(engine: QueryEngine, raw: bytes) -> bytes:
    """One request line in, one response line out (both ``\\n``-free).

    Decoding failures become structured ``bad_json`` responses rather
    than dropped connections; the caller appends the newline framing.
    """
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        response: object = protocol_error(
            "bad_json", f"bad request line: {exc}"
        )
    else:
        response = dispatch(engine, payload)
    return json.dumps(response).encode("utf-8")
