"""The asyncio front door — pipelined connections, backpressure, drain.

Every connection is multiplexed on one event loop, and the server
bounds the work it admits:

* **persistent pipelined connections** — clients may send any number of
  request lines without waiting; responses come back **in request
  order** per connection (a per-connection write queue of response
  futures preserves ordering even though executions overlap);
* **bounded in-flight execution** — engine calls run on a small thread
  pool gated by an ``asyncio`` semaphore (``max_inflight``), so a burst
  can never fan out into unbounded threads;
* **admission control** — beyond ``max_pending`` accepted-but-unfinished
  requests the server *sheds* instead of buffering: excess requests get
  an immediate structured ``{"error": {"code": "overloaded"}}`` response
  (clients can back off) rather than a stall, and the bounded
  per-connection write queue throttles the reader (TCP backpressure) so
  memory stays bounded under any pipelining depth;
* **bounded request lines** — a line may be up to :data:`LINE_LIMIT`
  bytes (room for a large ``update`` batch); a longer one is answered,
  in order, with a structured ``bad_request`` naming the limit, and the
  connection is then closed;
* **per-tenant quotas** — with ``quotas=`` configured, requests carrying
  a ``"tenant"`` id in the envelope pass token-bucket admission
  (:mod:`repro.service.quota`) *before* the global pending check: a
  tenant past its rate gets an immediate structured ``quota_exceeded``
  response from a pre-encoded cached line, so one tenant's burst can
  neither consume the global budget nor blow another tenant's p99 (the
  noisy-neighbor scenario in :mod:`repro.bench.load` proves this);
* **graceful drain** — :meth:`stop` closes the listener, lets every
  accepted request finish and flush its response (bounded by
  ``drain_timeout``), then tears the loop down.

Framing and routing live in :mod:`repro.service.protocol`;
:class:`~repro.service.session.SocketSession` is the client.
Queue-depth/connection/shed metrics are emitted through the engine's
:mod:`repro.obs` registry (``service_async_*``).

The loop runs on a background thread; :meth:`start`/:meth:`stop` (or the
context manager) are called from ordinary synchronous code.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor

from .engine import QueryEngine
from .protocol import dispatch_line, protocol_error
from .quota import ShedLedger, TenantQuotas, extract_tenant

__all__ = ["LINE_LIMIT", "AsyncAnalyticsServer"]

#: longest request line (bytes, newline excluded) the server reads; a
#: 4 MiB line holds an ``update`` batch of well over 100k edge ops
LINE_LIMIT = 4 * 1024 * 1024


class AsyncAnalyticsServer:
    """Asyncio JSON-lines server over one shared engine.

    Parameters
    ----------
    engine:
        The shared :class:`~repro.service.engine.QueryEngine` (a sharded
        engine drops in unchanged).  Constructed fresh when omitted; the
        server never closes the engine — the owner does.
    max_inflight:
        Engine executions allowed to run concurrently (thread-pool size
        and semaphore bound).
    max_pending:
        Accepted-but-unfinished requests across all connections before
        admission control sheds with ``overloaded`` responses.
    max_queue:
        Per-connection bound on queued (unwritten) responses; a reader
        that outruns its writer suspends here, pushing backpressure into
        the client's TCP window.
    drain_timeout:
        Seconds :meth:`stop` waits for in-flight connections to flush.
    quotas:
        Optional per-tenant admission quotas: a
        :class:`~repro.service.quota.TenantQuotas` or its spec dict
        (``{"bursty": {"rate": 50, "burst": 100}}``).  Checked before
        the global ``max_pending`` budget; sheds answer with a cached
        ``quota_exceeded`` line and count
        ``service_async_tenant_shed_total{tenant=...}``.
    """

    def __init__(
        self,
        engine: QueryEngine | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 8,
        max_pending: int = 256,
        max_queue: int = 128,
        drain_timeout: float = 5.0,
        quotas: "TenantQuotas | dict | None" = None,
    ) -> None:
        if max_inflight < 1 or max_pending < 1 or max_queue < 1:
            raise ValueError("bounds must be >= 1")
        self.engine = engine if engine is not None else QueryEngine()
        self.host = host
        self.port = int(port)
        self.max_inflight = int(max_inflight)
        self.max_pending = int(max_pending)
        self.max_queue = int(max_queue)
        self.drain_timeout = float(drain_timeout)
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._address: tuple[str, int] | None = None
        # loop-thread state (created inside the loop; mutated only there)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._sem: asyncio.Semaphore | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._conns: set = set()
        self._pending = 0
        self.quotas = TenantQuotas.coerce(quotas)
        m = self.engine.obs_metrics
        self._g_conns = m.gauge("service_async_connections")
        self._g_pending = m.gauge("service_async_pending")
        self._c_requests = m.counter("service_async_requests_total")
        self._c_overloaded = m.counter("service_async_overloaded_total")
        self._ledger = ShedLedger(m)
        self._overloaded_line = self._ledger.prepare(
            "overloaded",
            f"server at capacity ({self.max_pending} requests "
            "pending); back off and retry",
        )
        self._overlong_line = json.dumps(
            protocol_error(
                "bad_request",
                f"request line longer than {LINE_LIMIT} bytes; "
                "split the batch",
            )
        ).encode("utf-8")
        if self.quotas is not None:
            # per-tenant quota_exceeded lines are precomputed the same
            # way the overloaded line is; tenants born from the "*"
            # default spec cache theirs on first shed
            for tenant in self.quotas.tenants:
                self._ledger.quota_line(tenant)

    # -- lifecycle (control thread) ------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (resolves ``port=0``)."""
        if self._address is None:
            raise RuntimeError("server not started")
        return self._address

    def start(self) -> "AsyncAnalyticsServer":
        """Run the loop on a background daemon thread; returns ``self``."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-aserve", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30)
        if self._startup_error is not None:
            exc = self._startup_error
            self._thread.join(timeout=1)
            self._thread = None
            raise exc
        return self

    def stop(self) -> None:
        """Graceful drain: stop accepting, flush in-flight, tear down."""
        thread = self._thread
        if thread is None:
            return
        self._thread = None
        loop, event = self._loop, self._stop_event
        if loop is not None and event is not None and not loop.is_closed():
            loop.call_soon_threadsafe(event.set)
        thread.join(timeout=self.drain_timeout + 10.0)

    def wait(self) -> None:
        """Block until the server stops (foreground serving)."""
        thread = self._thread
        if thread is not None:
            thread.join()

    def __enter__(self) -> "AsyncAnalyticsServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- loop thread ---------------------------------------------------------
    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # repro: noqa-R004 — the loop thread's last line of defense: surface startup/teardown failures to start() instead of dying silently on a daemon thread
            self._startup_error = exc
        finally:
            # joining the executor's worker threads blocks — it must
            # happen here, on the loop thread after asyncio.run has
            # torn the loop down, never inside a coroutine (R101)
            pool = self._pool
            if pool is not None:
                pool.shutdown(wait=True)
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._sem = asyncio.Semaphore(self.max_inflight)
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_inflight, thread_name_prefix="repro-aserve"
        )
        server = await asyncio.start_server(
            self._on_connection, self.host, self.port, limit=LINE_LIMIT
        )
        sock = server.sockets[0].getsockname()
        self._address = (sock[0], sock[1])
        self._started.set()
        async with server:
            await self._stop_event.wait()
            server.close()
            await server.wait_closed()
            await self._drain()

    async def _drain(self) -> None:
        """Give live connections ``drain_timeout`` to flush, then cancel."""
        conns = [t for t in self._conns if not t.done()]
        if not conns:
            return
        done, pending = await asyncio.wait(
            conns, timeout=self.drain_timeout
        )
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.wait(pending, timeout=1.0)

    # -- per-connection protocol ---------------------------------------------
    async def _on_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        self._conns.add(task)
        self._g_conns.inc()
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass  # drain deadline hit: close without flushing the rest
        except (ConnectionError, OSError):
            # client vanished mid-conversation (reset, broken pipe):
            # routine under load-generator churn, not a server error
            pass
        finally:
            self._conns.discard(task)
            self._g_conns.dec()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            except asyncio.CancelledError:
                # drain deadline hit mid-close: drop what is unflushed.
                # Nothing awaits a connection task, so ending it normally
                # hides no caller's cancellation; ending it cancelled makes
                # asyncio's own done-callback raise (Python 3.11).
                writer.transport.abort()

    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        assert self._stop_event is not None
        queue: asyncio.Queue = asyncio.Queue(maxsize=self.max_queue)
        writer_task = asyncio.create_task(self._write_loop(queue, writer))
        stop_task = asyncio.create_task(self._stop_event.wait())
        overlong = False
        try:
            while True:
                read_task = asyncio.create_task(reader.readline())
                await asyncio.wait(
                    {read_task, stop_task},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if not read_task.done():
                    # shutdown: stop reading, flush what was accepted
                    read_task.cancel()
                    try:
                        await read_task
                    except asyncio.CancelledError:
                        pass
                    break
                try:
                    raw = read_task.result().strip()
                except ValueError:
                    # a line past LINE_LIMIT: the reader has dropped the
                    # part it saw and lost the framing, so answer in
                    # order and hang up
                    overlong = True
                    await queue.put(self._shed_response(self._overlong_line))
                    break
                if not raw:
                    if reader.at_eof():
                        break
                    continue
                # a full write queue suspends this reader — per-connection
                # memory is bounded no matter how deep the pipelining
                await queue.put(self._admit(raw))
        finally:
            stop_task.cancel()
            await queue.put(None)
            await writer_task
        if overlong:
            await self._hang_up(reader, writer)

    async def _hang_up(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Half-close after the last reply, then discard the client's
        unread input until it hangs up too (bounded by ``drain_timeout``).

        Closing a socket with unread input makes the kernel reset the
        connection and throw away replies not yet sent, so the
        ``bad_request`` for an overlong line could be lost.
        """
        if writer.can_write_eof():
            writer.write_eof()

        async def discard() -> None:
            while await reader.read(1 << 16):
                pass

        try:
            await asyncio.wait_for(discard(), self.drain_timeout)
        except asyncio.TimeoutError:
            pass

    def _admit(self, raw: bytes) -> "asyncio.Future[bytes]":
        """Accept one request line, or shed it.

        Shed order: the tenant's token bucket first (a quota'd burst
        must not consume the global budget), then the global
        ``max_pending`` cap.  Both paths answer from pre-encoded cached
        lines through the shared :class:`ShedLedger`.
        """
        assert self._loop is not None
        tenant = (
            extract_tenant(raw) if self.quotas is not None else None
        )
        if self.quotas is not None and not self.quotas.admit(tenant):
            self._ledger.shed("quota", tenant)
            return self._shed_response(self._ledger.quota_line(tenant))
        if self._pending >= self.max_pending:
            self._c_overloaded.inc()
            self._ledger.shed("overloaded", tenant)
            return self._shed_response(self._overloaded_line)
        self._pending += 1
        self._g_pending.set(self._pending)
        self._c_requests.inc()
        self._ledger.admitted(tenant)
        return asyncio.create_task(self._execute(raw))

    def _shed_response(self, line: bytes) -> "asyncio.Future[bytes]":
        fut: asyncio.Future = self._loop.create_future()
        fut.set_result(line)
        return fut

    async def _execute(self, raw: bytes) -> bytes:
        assert self._sem is not None and self._loop is not None
        try:
            async with self._sem:
                return await self._loop.run_in_executor(
                    self._pool, dispatch_line, self.engine, raw
                )
        except Exception as exc:  # repro: noqa-R004 — serving boundary: a malformed envelope must come back as a structured error, never kill the connection's writer
            return json.dumps(
                protocol_error(
                    "internal_error", f"{type(exc).__name__}: {exc}"
                )
            ).encode("utf-8")
        finally:
            self._pending -= 1
            self._g_pending.set(self._pending)

    @staticmethod
    async def _write_loop(
        queue: asyncio.Queue, writer: asyncio.StreamWriter
    ) -> None:
        """Pop response futures FIFO, write each as it resolves.

        Always consumes to the ``None`` sentinel — even after the client
        vanishes — so a blocked reader can never deadlock on a full
        queue.
        """
        broken = False
        while True:
            item = await queue.get()
            if item is None:
                return
            try:
                line = await item
            except asyncio.CancelledError:
                continue
            if broken:
                continue
            try:
                writer.write(line + b"\n")
                await writer.drain()
            except (ConnectionError, OSError):
                broken = True
