"""One Session contract, every transport — plus v1-client compatibility.

The same behavioral assertions run against ``InProcessSession`` and a
``SocketSession`` into the asyncio front door: the transport is an
implementation detail of the surface.  A second suite pins
``version=1`` on a session to impersonate a v1 client against the v2
server.
"""

import pytest

from repro.service import (
    AsyncAnalyticsServer,
    InProcessSession,
    PROTOCOL_VERSION,
    QueryEngine,
    ServiceError,
    Session,
    SocketSession,
)

from ..conftest import PAPER_MEMBERS, make_biedgelist


def make_engine() -> QueryEngine:
    eng = QueryEngine()
    eng.store.register("paper", make_biedgelist(PAPER_MEMBERS, num_nodes=9))
    return eng


@pytest.fixture(params=["inprocess", "async"])
def session(request):
    """The Session surface over each transport, torn down in order."""
    engine = make_engine()
    if request.param == "inprocess":
        with InProcessSession(engine) as s:
            yield s
        engine.close()
        return
    with AsyncAnalyticsServer(engine) as srv:
        host, port = srv.address
        with SocketSession(host, port) as s:
            yield s
    engine.close()


class TestSessionContract:
    def test_is_a_session(self, session):
        assert isinstance(session, Session)

    def test_query_success_envelope(self, session):
        resp = session.query("s_distance", dataset="paper", s=2, src=0, dst=2)
        assert resp["ok"] is True
        assert resp["result"] == 2
        assert resp["v"] == PROTOCOL_VERSION

    def test_strict_failure_raises_typed_error(self, session):
        with pytest.raises(ServiceError) as exc:
            session.query("s_distance", dataset="nope", s=1, src=0, dst=1)
        err = exc.value
        assert err.code == "unknown_dataset"
        assert "nope" in err.message
        assert err.response["error"]["code"] == "unknown_dataset"

    def test_batch_preserves_order_and_partial_failures(self, session):
        out = session.batch([
            {"op": "s_degree", "dataset": "paper", "s": 1, "v": 0},
            {"op": "s_degree", "dataset": "nope", "s": 1, "v": 0},
            {"op": "datasets"},
        ])
        assert len(out) == 3
        assert out[0]["ok"] and out[0]["result"] == 3
        # per-item failure is data, not an exception, even when strict
        assert out[1]["ok"] is False
        assert out[1]["error"]["code"] == "unknown_dataset"
        assert out[2]["result"] == ["paper"]

    def test_batch_envelope_failure_raises_when_strict(self, session):
        with pytest.raises(ServiceError) as exc:
            session.batch([{"op": "datasets"}], backend="quantum")
        assert exc.value.code == "invalid_argument"

    def test_update_convenience(self, session):
        resp = session.query("register", name="dyn", source="rand1")
        assert resp["ok"]
        out = session.update(
            "dyn", [{"kind": "add_edge", "members": [0, 1, 2]}]
        )
        assert out["ok"], out

    def test_metrics_and_prometheus(self, session):
        session.query("datasets")
        assert session.metrics()["result"]["ops"]
        assert "service_requests_total" in session.prometheus()

    def test_version_op_negotiation(self, session):
        resp = session.query("version")
        assert resp["result"]["protocol"] == PROTOCOL_VERSION


class TestV1Compatibility:
    """A v1-pinned session is a stand-in for a real v1 client binary."""

    @pytest.fixture(params=["inprocess", "async"])
    def v1_session(self, request):
        engine = make_engine()
        if request.param == "inprocess":
            with InProcessSession(engine, strict=False, version=1) as s:
                yield s
            engine.close()
            return
        with AsyncAnalyticsServer(engine) as srv:
            host, port = srv.address
            with SocketSession(host, port, strict=False, version=1) as s:
                yield s
        engine.close()

    def test_v1_queries_still_served(self, v1_session):
        resp = v1_session.query(
            "s_distance", dataset="paper", s=2, src=0, dst=2
        )
        assert resp["ok"] and resp["result"] == 2
        # the response is served *at* the pinned version
        assert resp["v"] == 1

    def test_v1_batch_pins_envelope(self, v1_session):
        out = v1_session.batch([{"op": "datasets"}])
        assert out[0]["ok"] and out[0]["v"] == 1

    def test_post_v1_ops_hidden_from_v1(self, v1_session):
        resp = v1_session.query("version")
        assert resp["ok"] is False
        assert resp["error"]["code"] == "unknown_op"
        assert "requires protocol" in resp["error"]["message"]
