"""AsyncAnalyticsServer + SocketSession: live socket round-trips,
pipelining, admission control, line limits, graceful drain — plus the
same surface in process."""

import json
import socket
import threading
import time

import pytest

from repro.service import (
    AsyncAnalyticsServer,
    InProcessSession,
    QueryEngine,
    ServiceError,
    SocketSession,
)
from repro.service.aserver import LINE_LIMIT

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

    def test_blank_lines_are_skipped(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"\n\n" + json.dumps({"op": "datasets"}).encode() + b"\n"
            )
            resp = json.loads(sock.makefile("rb").readline())
        assert resp["ok"] and resp["result"] == ["paper"]

    def test_register_over_the_wire(self, server):
        host, port = server.address
        with SocketSession(host, port) as session:
            resp = session.query("register", name="r", source="rand1")
            assert resp["ok"] and resp["result"]["num_edges"] == 5000
            assert "r" in session.query("datasets")["result"]

    def test_strict_session_raises_typed_error(self, server):
        host, port = server.address
        with SocketSession(host, port) as session:
            with pytest.raises(ServiceError) as exc:
                session.query("s_degree", dataset="nope", s=1, v=0)
        assert exc.value.code == "unknown_dataset"


class TestPipelining:
    def test_pipelined_queries_one_connection(self, server):
        host, port = server.address
        with SocketSession(host, port) as session:
            warm = session.query("warm", dataset="paper", s_values=[1, 2, 3])
            assert warm["result"] == {"1": "miss", "2": "derive", "3": "derive"}
            for s in (1, 2, 3):
                resp = session.query("s_info", dataset="paper", s=s)
                assert resp["ok"] and resp["via"] == "cache:hit"
            metrics = session.metrics()["result"]
        assert metrics["cache"]["derives"] == 2
        assert metrics["cache"]["hits"] >= 3

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

    def test_concurrent_clients_share_session_state(self, server):
        host, port = server.address
        errors: list = []

        def worker():
            try:
                with SocketSession(host, port) as session:
                    for s in (1, 2, 3):
                        resp = session.query("s_info", dataset="paper", s=s)
                        assert resp["ok"], resp
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = server.engine.cache.stats
        # 18 requests, 3 distinct graphs: everything beyond the first
        # build per s was a hit or derive
        assert stats.hits + stats.derives + stats.misses + stats.bypasses == 18
        assert stats.misses <= 3


def _wait_for_no_connections(engine) -> None:
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        conns = [
            s["value"] for s in engine.obs_metrics.snapshot()
            if s["name"] == "service_async_connections"
        ]
        if conns and conns[0] == 0:
            return
        time.sleep(0.05)
    pytest.fail("connection gauge never returned to 0")


class TestLineLimit:
    def test_large_line_is_answered(self, server):
        """A 100 KB request line is well inside the limit."""
        host, port = server.address
        with SocketSession(host, port) as session:
            resp = session.request({"op": "datasets", "pad": "x" * 100_000})
            assert resp["ok"] and resp["result"] == ["paper"]
            # the connection keeps serving after it
            assert session.query("datasets")["ok"]

    def test_overlong_line_gets_bad_request(self, server, caplog):
        """Past LINE_LIMIT: replies so far, then a structured
        ``bad_request`` naming the limit, then a clean hang-up."""
        import logging

        host, port = server.address
        first = json.dumps({"op": "datasets"}).encode() + b"\n"
        # twice the limit: the server refuses while the client is still
        # sending, so a hang-up that left input unread would reset the
        # connection and lose the reply
        pad = b"x" * (2 * LINE_LIMIT)
        overlong = b'{"op": "datasets", "pad": "' + pad + b'"}\n'
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(first + overlong)
                with sock.makefile("rb") as rfile:
                    ok = json.loads(rfile.readline())
                    refused = json.loads(rfile.readline())
                    assert rfile.readline() == b""  # the server hung up
            _wait_for_no_connections(server.engine)
        assert ok["ok"] and ok["result"] == ["paper"]
        assert refused["ok"] is False
        assert refused["error"]["code"] == "bad_request"
        assert str(LINE_LIMIT) in refused["error"]["message"]
        assert not [
            r for r in caplog.records if "client_connected_cb" in r.message
        ]
        # and the server still serves
        with SocketSession(host, port) as session:
            assert session.query("datasets")["ok"]


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
        _wait_for_no_connections(server.engine)

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


class TestInProcessSession:
    def test_same_surface_without_sockets(self, engine):
        with InProcessSession(engine) as session:
            resp = session.query("s_distance", dataset="paper", s=2, src=0, dst=2)
            assert resp["ok"] and resp["result"] == 2
            out = session.batch([{"op": "datasets"}])
            assert out[0]["result"] == ["paper"]
            assert session.metrics()["ok"]

    def test_request_dispatches_batch_payloads(self, engine):
        session = InProcessSession(engine)
        out = session.request({"batch": [{"op": "datasets"}]})
        assert isinstance(out, list) and out[0]["ok"]

    def test_default_engine(self):
        with InProcessSession() as session:
            resp = session.query("datasets")
            assert resp["ok"] and resp["result"] == []
