"""The client surface: one ``Session`` API over every transport.

One surface for the socket and the in-process transport, with typed
errors instead of callers fishing codes out of response dicts:

* :class:`Session` — the shared base: ``request`` / ``query`` /
  ``batch`` / ``update`` / ``metrics`` / ``prometheus``, context-manager
  close, and **typed errors**: in strict mode (the default) a failed
  response raises :class:`ServiceError` carrying the structured
  ``error.code`` instead of returning ``{"ok": false, ...}`` for the
  caller to inspect;
* :class:`SocketSession` — the JSON-lines TCP transport into
  :class:`~repro.service.aserver.AsyncAnalyticsServer` (connections are
  persistent and pipelinable);
* :class:`InProcessSession` — no socket, straight onto a
  :class:`~repro.service.engine.QueryEngine` (notebooks, tests).

A session may pin a protocol ``version`` for its lifetime — every query
then carries ``"version": N`` and batch envelopes ``"v": N`` — which is
how a v1 client talks to a v2 server (and how the compatibility tests
impersonate one).
"""

from __future__ import annotations

import json
import socket

from .engine import QueryEngine
from .protocol import dispatch

__all__ = [
    "InProcessSession",
    "ServiceError",
    "Session",
    "SocketSession",
]


class ServiceError(RuntimeError):
    """A failed service response, raised by strict sessions.

    ``code`` is the machine-readable ``error.code`` from the wire
    (``unknown_op``, ``unknown_dataset``, ``invalid_argument``,
    ``overloaded``, ...); ``response`` is the full response dict for
    callers that need the rest of the envelope.
    """

    def __init__(
        self, code: str, message: str, response: dict | None = None
    ) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.response = response if response is not None else {}

    @classmethod
    def from_response(cls, response: dict) -> "ServiceError":
        err = response.get("error") or {}
        return cls(
            str(err.get("code", "error")),
            str(err.get("message", "service request failed")),
            response,
        )


class Session:
    """Shared client surface; subclasses provide :meth:`request`.

    Parameters
    ----------
    strict:
        When true (default), :meth:`query` raises :class:`ServiceError`
        on ``ok: false`` responses instead of returning them.
        :meth:`batch` responses are returned per-item either way —
        partial failure inside a batch is data, not an exception.
    version:
        Optional protocol pin attached to every query (``"version"``)
        and batch envelope (``"v"``) this session sends.
    """

    def __init__(
        self, strict: bool = True, version: "int | float | None" = None
    ) -> None:
        self.strict = bool(strict)
        self.version = version

    # -- transport (subclass responsibility) ---------------------------------
    def request(self, payload: dict) -> object:
        """Send one raw request object, return the raw response."""
        raise NotImplementedError

    # -- typed surface -------------------------------------------------------
    def _checked(self, response: object) -> object:
        if (
            self.strict
            and isinstance(response, dict)
            and response.get("ok") is False
        ):
            raise ServiceError.from_response(response)
        return response

    def query(self, op: str, **fields: object) -> dict:
        """``session.query("s_distance", dataset="lj", s=2, src=0, dst=9)``"""
        payload = {"op": op, **fields}
        if self.version is not None and "version" not in payload:
            payload["version"] = self.version
        return self._checked(self.request(payload))  # type: ignore[return-value]

    def batch(
        self,
        queries: list[dict],
        backend: str | None = None,
        workers: int | None = None,
    ) -> list[dict]:
        """Run a batch; responses come back in input order.

        Envelope-level failures (bad version, unknown backend, an
        overloaded front door) raise :class:`ServiceError` when strict;
        per-item failures stay in the returned list.
        """
        envelope: dict = {"batch": list(queries)}
        if self.version is not None:
            envelope["v"] = self.version
        if backend is not None:
            envelope["backend"] = backend
        if workers is not None:
            envelope["workers"] = int(workers)
        out = self.request(envelope)
        if not isinstance(out, list):
            if (
                self.strict
                and isinstance(out, dict)
                and out.get("ok") is False
            ):
                raise ServiceError.from_response(out)
            raise ConnectionError(f"expected batch response, got {out!r}")
        return out

    def update(
        self, dataset: str, ops: list[dict], compact: bool = False
    ) -> dict:
        """Apply a mutation batch to a resident dynamic dataset."""
        return self.query(
            "update", dataset=dataset, ops=list(ops), compact=bool(compact)
        )

    def metrics(self) -> dict:
        return self.query("metrics")

    def prometheus(self) -> str:
        """The service registry in Prometheus text exposition format."""
        resp = self.query("prometheus")
        return resp.get("result", "") if isinstance(resp, dict) else ""

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Release transport resources (idempotent)."""

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SocketSession(Session):
    """JSON-lines TCP transport; persistent, pipelinable connection."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float | None = 30.0,
        strict: bool = True,
        version: "int | float | None" = None,
    ) -> None:
        super().__init__(strict=strict, version=version)
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self._sock.makefile("rb")

    def request(self, payload: dict) -> object:
        """Send one request line, block for its response line."""
        self._sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line.decode("utf-8"))

    def send(self, payload: dict) -> None:
        """Pipeline one request line without waiting for its response."""
        self._sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")

    def recv(self) -> object:
        """Read the next response line of a pipelined exchange."""
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return self._checked(json.loads(line.decode("utf-8")))

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()


class InProcessSession(Session):
    """The :class:`Session` surface directly over an engine — no socket.

    For embedding a serving session inside a notebook/script (the
    HyperNetX-style long-lived analysis session) and for tests that need
    no wire transport.  An engine constructed *by* the session is closed
    with it; an engine passed in stays the caller's to close.
    """

    def __init__(
        self,
        engine: QueryEngine | None = None,
        strict: bool = True,
        version: "int | float | None" = None,
    ) -> None:
        super().__init__(strict=strict, version=version)
        self._owns_engine = engine is None
        self.engine = engine if engine is not None else QueryEngine()

    def request(self, payload: dict) -> object:
        return dispatch(self.engine, payload)

    def close(self) -> None:
        if self._owns_engine:
            self.engine.close()
