"""Drive a live server with a workload; measure without lying.

Two run modes, two different truths:

* **open loop** (:func:`run_open_loop`) — the workload's Poisson
  schedule fixes each request's *intended* start time before the run
  begins.  Senders pipeline requests at those times over persistent
  :class:`~repro.service.session.SocketSession` connections regardless
  of how fast responses come back, and every latency is measured from
  the **intended** start to response arrival.  This is the
  coordinated-omission-correct number: when the server stalls, requests
  that *should* have been sent during the stall still count the stall
  against it.  Open loop answers "what do clients experience at this
  offered rate?".
* **closed loop** (:func:`run_closed_loop`) — each connection is a
  worker that sends, waits, then sends again.  Latency is pure service
  time; the offered rate adapts to the server.  Closed loop answers
  "how fast can N synchronous clients go?" — and, because a stalled
  server silently *stops being asked*, its tail percentiles flatter the
  server.  The test suite demonstrates exactly this divergence.

Both modes record per-operation :class:`OpResult` rows (tenant, op
kind, structured error code if any, latency) and snapshot the server's
``metrics`` op before and after, so the report can show server-side
panels (cache hit rates, shed counters, the backend card) next to the
client-side latencies.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.service.session import SocketSession

from .workload import TraceOp, WorkloadGenerator, WorkloadSpec

__all__ = [
    "OpResult",
    "RunResult",
    "run_closed_loop",
    "run_open_loop",
    "run_workload",
]

#: structured error codes that mean "shed by admission control", not failure
SHED_CODES = frozenset({"overloaded", "quota_exceeded"})


@dataclass(frozen=True)
class OpResult:
    """One completed operation as the client saw it."""

    tenant: str
    kind: str
    ok: bool
    code: str | None  # structured error code when not ok
    latency_s: float  # from *intended* start (open loop) — CO-correct
    service_s: float  # from actual send — pure server+wire time
    intended_t: float  # offset of the intended start within the run

    @property
    def shed(self) -> bool:
        return self.code in SHED_CODES


@dataclass
class RunResult:
    """Everything one run produced, ready for :class:`LoadReport`."""

    mode: str  # "open" | "closed"
    duration_s: float  # measured wall-clock of the run
    results: list[OpResult]
    metrics_before: dict | None = None
    metrics_after: dict | None = None
    transport_errors: list[str] = field(default_factory=list)


def _classify(resp: object) -> tuple[bool, str | None]:
    """``(ok, error_code)`` from a raw response object."""
    if isinstance(resp, dict):
        if resp.get("ok") is False:
            err = resp.get("error")
            code = err.get("code") if isinstance(err, dict) else None
            return False, str(code) if code is not None else "error"
        return True, None
    if isinstance(resp, list):  # batch response: ok iff every item is
        bad = [r for r in resp
               if isinstance(r, dict) and r.get("ok") is False]
        if bad:
            return _classify(bad[0])
        return True, None
    return False, "malformed"


def _metrics_snapshot(address: tuple[str, int], timeout: float) -> dict | None:
    try:
        with SocketSession(*address, timeout=timeout, strict=False) as s:
            resp = s.request({"op": "metrics"})
    except (OSError, ValueError):
        return None
    if isinstance(resp, dict) and resp.get("ok") is not False:
        result = resp.get("result")
        return result if isinstance(result, dict) else None
    return None


def _split_by_connection(
    trace: list[TraceOp], connections: "dict[str, int] | int"
) -> dict[tuple[str, int], list[TraceOp]]:
    """Deal each tenant's ops round-robin across its connections."""
    per_conn: dict[tuple[str, int], list[TraceOp]] = {}
    counters: dict[str, int] = {}
    for op in trace:
        if isinstance(connections, dict):
            n = max(1, int(connections.get(op.tenant, 1)))
        else:
            n = max(1, int(connections))
        i = counters.get(op.tenant, 0)
        counters[op.tenant] = i + 1
        per_conn.setdefault((op.tenant, i % n), []).append(op)
    return per_conn


def _open_sessions(
    keys, address: tuple[str, int], timeout: float
) -> dict:
    """One connected :class:`SocketSession` per key.

    When the Nth connect fails, the N-1 sessions already opened are
    closed before the error propagates — a half-built connection pool
    must not leak sockets.
    """
    sessions: dict = {}
    ok = False
    try:
        for key in keys:
            sessions[key] = SocketSession(
                *address, timeout=timeout, strict=False
            )
        ok = True
    finally:
        if not ok:
            for session in sessions.values():
                session.close()
    return sessions


def run_open_loop(
    address: tuple[str, int],
    trace: list[TraceOp],
    connections: "dict[str, int] | int" = 1,
    timeout: float = 30.0,
    collect_metrics: bool = True,
) -> RunResult:
    """Replay a trace open-loop against a live server.

    Per (tenant, connection) pair one *sender* thread pipelines request
    lines at their intended times and one *receiver* thread drains the
    response lines (responses come back in order per connection, which
    both servers guarantee).  Latency for each op is measured from
    ``t0 + op.t`` — the moment the workload said the request should
    exist — not from when the sender actually got it onto the wire.
    """
    if not trace:
        raise ValueError("empty trace")
    per_conn = _split_by_connection(trace, connections)
    sessions = _open_sessions(per_conn, address, timeout)
    results: list[OpResult] = []
    errors: list[str] = []
    lock = threading.Lock()
    metrics_before = (
        _metrics_snapshot(address, timeout) if collect_metrics else None
    )
    start_barrier = threading.Barrier(2 * len(per_conn) + 1)
    t0_box: list[float] = []

    def sender(key: tuple[str, int], sent: deque) -> None:
        session, ops = sessions[key], per_conn[key]
        start_barrier.wait()
        t0 = t0_box[0]
        for op in ops:
            delay = (t0 + op.t) - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            # enqueue before send: the receiver pops only after a
            # response arrives, which can't precede its request
            sent.append((op, time.perf_counter()))
            try:
                session.send(op.payload)
            except (OSError, ValueError) as exc:
                sent.pop()
                with lock:
                    errors.append(f"send {key}: {exc}")
                break

    def receiver(key: tuple[str, int], sent: deque) -> None:
        session, ops = sessions[key], per_conn[key]
        start_barrier.wait()
        t0 = t0_box[0]
        for _ in range(len(ops)):
            try:
                resp = session.recv()
            except (OSError, ValueError) as exc:
                with lock:
                    errors.append(f"recv {key}: {exc}")
                break
            done = time.perf_counter()
            if not sent:  # sender aborted; nothing to attribute
                break
            op, send_t = sent.popleft()
            ok, code = _classify(resp)
            row = OpResult(
                tenant=op.tenant,
                kind=str(op.payload.get("op", "?")),
                ok=ok,
                code=code,
                latency_s=done - (t0 + op.t),
                service_s=done - send_t,
                intended_t=op.t,
            )
            with lock:
                results.append(row)

    try:
        threads = []
        for key in per_conn:
            sent: deque = deque()
            threads.append(
                threading.Thread(target=sender, args=(key, sent), daemon=True)
            )
            threads.append(
                threading.Thread(
                    target=receiver, args=(key, sent), daemon=True
                )
            )
        for t in threads:
            t.start()
        t0_box.append(time.perf_counter())
        start_barrier.wait()  # releases every sender/receiver at once
        for t in threads:
            t.join(timeout=timeout + max(op.t for op in trace) + 5.0)
        wall = time.perf_counter() - t0_box[0]
    finally:
        # every exit path — including a broken barrier or an interrupt
        # while joining — must release the connection pool
        for session in sessions.values():
            session.close()
    metrics_after = (
        _metrics_snapshot(address, timeout) if collect_metrics else None
    )
    return RunResult(
        mode="open",
        duration_s=wall,
        results=results,
        metrics_before=metrics_before,
        metrics_after=metrics_after,
        transport_errors=errors,
    )


def run_closed_loop(
    address: tuple[str, int],
    spec: WorkloadSpec,
    timeout: float = 30.0,
    collect_metrics: bool = True,
) -> RunResult:
    """Drive ``spec.tenants`` closed-loop for ``spec.duration_s``.

    Each tenant connection is one synchronous worker: send, wait for
    the response, repeat.  Latency and service time coincide here — the
    mode cannot see queueing it never caused.
    """
    gen = WorkloadGenerator(spec)
    results: list[OpResult] = []
    errors: list[str] = []
    lock = threading.Lock()
    metrics_before = (
        _metrics_snapshot(address, timeout) if collect_metrics else None
    )
    workers = [
        (tenant, conn) for tenant in spec.tenants
        for conn in range(tenant.connections)
    ]
    start_barrier = threading.Barrier(len(workers) + 1)
    t0_box: list[float] = []

    def worker(tenant, conn: int) -> None:
        stream = gen.stream(tenant, salt=conn)
        try:
            session = SocketSession(*address, timeout=timeout, strict=False)
        except OSError as exc:
            with lock:
                errors.append(f"connect {tenant.name}/{conn}: {exc}")
            start_barrier.wait()
            return
        try:
            # inside try/finally from the moment the socket exists: a
            # broken barrier must not leak the connection
            start_barrier.wait()
            t0 = t0_box[0]
            deadline = t0 + spec.duration_s
            while time.perf_counter() < deadline:
                payload = next(stream)
                sent = time.perf_counter()
                try:
                    resp = session.request(payload)
                except (OSError, ValueError) as exc:
                    with lock:
                        errors.append(f"{tenant.name}/{conn}: {exc}")
                    break
                done = time.perf_counter()
                ok, code = _classify(resp)
                row = OpResult(
                    tenant=tenant.name,
                    kind=str(payload.get("op", "?")),
                    ok=ok,
                    code=code,
                    latency_s=done - sent,
                    service_s=done - sent,
                    intended_t=sent - t0,
                )
                with lock:
                    results.append(row)
        finally:
            session.close()

    threads = [
        threading.Thread(target=worker, args=w, daemon=True)
        for w in workers
    ]
    for t in threads:
        t.start()
    t0_box.append(time.perf_counter())
    start_barrier.wait()
    for t in threads:
        t.join(timeout=spec.duration_s + timeout + 5.0)
    wall = time.perf_counter() - t0_box[0]
    metrics_after = (
        _metrics_snapshot(address, timeout) if collect_metrics else None
    )
    return RunResult(
        mode="closed",
        duration_s=wall,
        results=results,
        metrics_before=metrics_before,
        metrics_after=metrics_after,
        transport_errors=errors,
    )


def run_workload(
    address: tuple[str, int],
    spec: WorkloadSpec,
    mode: str = "open",
    timeout: float = 30.0,
    collect_metrics: bool = True,
) -> RunResult:
    """One-call front: generate from ``spec`` and run in ``mode``."""
    if mode == "open":
        trace = WorkloadGenerator(spec).schedule()
        connections = {t.name: t.connections for t in spec.tenants}
        return run_open_loop(
            address,
            trace,
            connections=connections,
            timeout=timeout,
            collect_metrics=collect_metrics,
        )
    if mode == "closed":
        return run_closed_loop(
            address, spec, timeout=timeout, collect_metrics=collect_metrics
        )
    raise ValueError(f"unknown mode {mode!r} (open|closed)")
