"""AsyncAnalyticsServer: pipelining, admission control, graceful drain."""

import json
import socket
import threading
import time

import pytest

from repro.service import (
    AsyncAnalyticsServer,
    QueryEngine,
    ServiceError,
    SocketSession,
)

from ..conftest import PAPER_MEMBERS, make_biedgelist


@pytest.fixture
def engine():
    eng = QueryEngine()
    eng.store.register("paper", make_biedgelist(PAPER_MEMBERS, num_nodes=9))
    return eng


@pytest.fixture
def server(engine):
    with AsyncAnalyticsServer(engine) as srv:  # port=0 -> ephemeral
        yield srv


class TestRoundTrip:
    def test_single_query(self, server):
        host, port = server.address
        with SocketSession(host, port) as session:
            resp = session.query(
                "s_distance", dataset="paper", s=2, src=0, dst=2
            )
        assert resp["ok"] and resp["result"] == 2

    def test_batch(self, server):
        host, port = server.address
        with SocketSession(host, port) as session:
            out = session.batch(
                [{"op": "s_degree", "dataset": "paper", "s": 1, "v": v}
                 for v in range(4)]
            )
        assert [r["result"] for r in out] == [3, 3, 3, 3]

    def test_malformed_line_gets_error_response(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"this is not json\n")
            resp = json.loads(sock.makefile("rb").readline())
        assert not resp["ok"] and resp["error"]["code"] == "bad_json"

    def test_strict_session_raises_typed_error(self, server):
        host, port = server.address
        with SocketSession(host, port) as session:
            with pytest.raises(ServiceError) as exc:
                session.query("s_degree", dataset="nope", s=1, v=0)
        assert exc.value.code == "unknown_dataset"


class TestPipelining:
    def test_deep_pipeline_responses_in_order(self, server):
        host, port = server.address
        with SocketSession(host, port) as session:
            expected = []
            for v in range(40):
                session.send(
                    {"op": "s_degree", "dataset": "paper", "s": 1,
                     "v": v % 4}
                )
                expected.append(v % 4)
            got = [session.recv() for _ in range(40)]
        # responses arrive in request order even though work overlaps
        reference = {}
        for want_v, resp in zip(expected, got):
            assert resp["ok"]
            reference.setdefault(want_v, resp["result"])
            assert resp["result"] == reference[want_v]

    def test_sixtyfour_concurrent_connections(self, server):
        host, port = server.address
        errors: list = []

        def worker(i):
            try:
                with SocketSession(host, port) as session:
                    for _ in range(3):
                        resp = session.query(
                            "s_degree", dataset="paper", s=1, v=i % 4
                        )
                        assert resp["ok"]
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append((i, exc))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(64)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestAdmissionControl:
    def test_overload_sheds_with_structured_error(self, engine):
        srv = AsyncAnalyticsServer(
            engine, max_inflight=1, max_pending=2, max_queue=8
        )
        with srv:
            host, port = srv.address
            with SocketSession(host, port, strict=False) as session:
                n = 80
                for i in range(n):
                    session.send(
                        {"op": "s_connected_components", "dataset": "paper",
                         "s": (i % 3) + 1, "materialize": "never"}
                    )
                responses = [session.recv() for _ in range(n)]
        shed = [
            r for r in responses
            if not r.get("ok", True)
            and r["error"]["code"] == "overloaded"
        ]
        served = [r for r in responses if r.get("ok")]
        assert shed, "tiny max_pending must shed under an 80-deep pipeline"
        assert served, "admitted requests still get real answers"
        snap = engine.obs_metrics.snapshot()
        overloaded = [
            s["value"] for s in snap
            if s["name"] == "service_async_overloaded_total"
        ]
        assert overloaded and overloaded[0] == len(shed)

    def test_bad_bounds_rejected(self, engine):
        with pytest.raises(ValueError):
            AsyncAnalyticsServer(engine, max_inflight=0)


class TestLifecycle:
    def test_address_before_start_raises(self, engine):
        srv = AsyncAnalyticsServer(engine)
        with pytest.raises(RuntimeError, match="not started"):
            srv.address

    def test_double_start_rejected(self, engine):
        srv = AsyncAnalyticsServer(engine).start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                srv.start()
        finally:
            srv.stop()

    def test_stop_is_idempotent(self, engine):
        srv = AsyncAnalyticsServer(engine).start()
        srv.stop()
        srv.stop()

    def test_stop_drains_inflight_request(self, engine):
        """A pipelined request mid-execution still gets its response."""
        release = threading.Event()
        entered = threading.Event()
        real_execute = engine.execute

        def slow_execute(query):
            entered.set()
            release.wait(timeout=10)
            return real_execute(query)

        engine.execute = slow_execute
        srv = AsyncAnalyticsServer(engine, drain_timeout=10).start()
        host, port = srv.address
        session = SocketSession(host, port)
        try:
            session.send({"op": "datasets"})
            assert entered.wait(timeout=10)
            stopper = threading.Thread(target=srv.stop)
            stopper.start()
            time.sleep(0.1)  # let stop() reach the drain wait
            release.set()
            stopper.join(timeout=15)
            assert not stopper.is_alive()
            resp = session.recv()
            assert resp["ok"] and resp["result"] == ["paper"]
        finally:
            release.set()
            session.close()

    def test_connection_gauge_returns_to_zero(self, server):
        host, port = server.address
        with SocketSession(host, port) as session:
            session.query("datasets")
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            snap = server.engine.obs_metrics.snapshot()
            conns = [
                s["value"] for s in snap
                if s["name"] == "service_async_connections"
            ]
            if conns and conns[0] == 0:
                return
            time.sleep(0.05)
        pytest.fail("connection gauge never returned to 0")

    def test_abrupt_disconnect_is_not_a_server_error(self, server, caplog):
        """A client slamming the door (RST) mid-pipeline is routine.

        Load generators and flaky clients vanish with responses still in
        flight; the reader's ConnectionResetError must be swallowed by
        the connection teardown, not logged by asyncio as an unhandled
        client_connected_cb exception.
        """
        import logging
        import struct

        host, port = server.address
        line = json.dumps(
            {"op": "s_degree", "dataset": "paper", "s": 1, "v": 0}
        ).encode() + b"\n"
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            for _ in range(3):
                sock = socket.create_connection((host, port), timeout=10)
                # SO_LINGER(onoff=1, linger=0) turns close() into a RST
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
                sock.sendall(line * 100)
                sock.close()
            time.sleep(0.3)  # let the teardown (and any logging) happen
        assert not [
            r for r in caplog.records if "client_connected_cb" in r.message
        ]
        # and the server still serves
        with SocketSession(host, port) as session:
            resp = session.query("s_degree", dataset="paper", s=1, v=0)
        assert resp["ok"]

    def test_drain_deadline_mid_close_is_quiet(
        self, engine, caplog, monkeypatch
    ):
        """Regression: the drain deadline used to cancel connections that
        were already closing, and the cancellation escaped
        ``writer.wait_closed()``; asyncio's done-callback for the
        connection task then logged a ``CancelledError`` traceback.
        Slowing the close makes every idle connection sit in it when the
        deadline hits."""
        import asyncio
        import logging

        real_wait_closed = asyncio.StreamWriter.wait_closed

        async def slow_wait_closed(writer):
            await asyncio.sleep(5)  # a peer slow to acknowledge the close
            await real_wait_closed(writer)

        monkeypatch.setattr(
            asyncio.StreamWriter, "wait_closed", slow_wait_closed
        )
        srv = AsyncAnalyticsServer(engine, drain_timeout=0.05).start()
        host, port = srv.address
        sessions = [SocketSession(host, port) for _ in range(4)]
        query = {"op": "s_degree", "dataset": "paper", "s": 1, "v": 0}
        try:
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                for session in sessions:  # pipeline, then go idle
                    for _ in range(3):
                        session.send(query)
                    for _ in range(3):
                        assert session.recv()["ok"]
                srv.stop()
        finally:
            for session in sessions:
                session.close()
        assert not [
            r for r in caplog.records
            if r.exc_info or "never retrieved" in r.getMessage()
        ]


class TestExecutorTeardown:
    def test_stop_joins_executor_off_the_loop(self, engine):
        """Regression: the dispatch executor used to be shut down with
        ``wait=True`` inside the teardown coroutine, joining worker
        threads *on* the event loop.  It now happens on the loop thread
        after ``asyncio.run`` returns — ``stop()`` must come back with
        the executor fully shut down and every worker joined."""
        srv = AsyncAnalyticsServer(engine).start()
        host, port = srv.address
        with SocketSession(host, port) as session:
            assert session.query("datasets")["ok"]
        srv.stop()
        assert srv._pool is not None and srv._pool._shutdown
        assert not any(
            t.name.startswith("repro-aserve") and t.is_alive()
            for t in threading.enumerate()
        )
