"""The front door seen as a plain socket server: response envelopes,
raw batch lines, error recovery on one connection, and the start/stop
lifecycle under ``with``. Pipelining, admission control and line limits
are in ``test_async_server.py``."""

import json
import socket
import threading
import time

import pytest

from repro.service import AsyncAnalyticsServer, QueryEngine, SocketSession

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


class TestSocketRoundTrip:
    def test_single_query(self, server):
        host, port = server.address
        assert port != 0
        with SocketSession(host, port) as session:
            resp = session.query(
                "s_distance", dataset="paper", s=2, src=0, dst=2
            )
        assert resp["ok"] and resp["result"] == 2
        assert resp["via"] in ("cache:miss", "cache:hit", "cache:derive")
        assert resp["ms"] >= 0

    def test_batch_over_socket(self, server):
        """One ``{"batch": [...]}`` line gets one reply line: a list in
        input order, a failed item staying in its slot."""
        host, port = server.address
        queries = [
            {"op": "s_degree", "dataset": "paper", "s": 1, "v": v}
            for v in range(4)
        ]
        queries.insert(2, {"op": "s_degree", "dataset": "nope", "s": 1, "v": 0})
        line = json.dumps({"batch": queries}).encode() + b"\n"
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(line)
            out = json.loads(sock.makefile("rb").readline())
        assert isinstance(out, list) and len(out) == 5
        assert out[2]["ok"] is False
        assert [r["result"] for i, r in enumerate(out) if i != 2] == [3, 3, 3, 3]

    def test_malformed_line_gets_error_response(self, server):
        """A bad line is answered and the connection keeps serving."""
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"this is not json\n"
                + json.dumps({"op": "datasets"}).encode() + b"\n"
            )
            with sock.makefile("rb") as rfile:
                resp = json.loads(rfile.readline())
                after = json.loads(rfile.readline())
        assert not resp["ok"] and "bad request line" in resp["error"]["message"]
        assert resp["error"]["code"] == "bad_json"
        assert after["ok"] and after["result"] == ["paper"]


class TestServerLifecycle:
    def test_stop_is_idempotent(self, engine):
        AsyncAnalyticsServer(engine).stop()  # never started: a no-op
        with AsyncAnalyticsServer(engine) as srv:
            pass
        srv.stop()  # already stopped by the with block
        srv.stop()

    def test_double_start_rejected(self, engine):
        """The refused second start leaves the running server serving."""
        with AsyncAnalyticsServer(engine) as srv:
            with pytest.raises(RuntimeError, match="already started"):
                srv.start()
            host, port = srv.address
            with SocketSession(host, port) as session:
                assert session.query("datasets")["result"] == ["paper"]

    def test_stop_drains_inflight_request(self, engine):
        """stop() refuses new connections at once, yet the request
        mid-execution still finishes and gets its response."""
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
        stopper = threading.Thread(target=srv.stop)
        try:
            session.send({"op": "datasets"})
            assert entered.wait(timeout=10)
            stopper.start()
            # the listener closes while the request is still held; a
            # connect that races the close may be accepted and then reset,
            # which proves nothing either way, so it is retried
            deadline = time.monotonic() + 5
            while True:
                try:
                    socket.create_connection((host, port), timeout=1).close()
                except ConnectionRefusedError:
                    break
                except ConnectionResetError:
                    pass
                assert time.monotonic() < deadline, "still accepting"
                time.sleep(0.05)
            assert stopper.is_alive()  # waiting on the held request
            release.set()
            stopper.join(timeout=15)
            assert not stopper.is_alive()
            resp = session.recv()
            assert resp["ok"] and resp["result"] == ["paper"]
        finally:
            release.set()
            session.close()
            if stopper.is_alive():
                stopper.join(timeout=15)
