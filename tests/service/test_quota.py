"""Per-tenant quotas: refill math, extraction, ledger, the front door."""

from __future__ import annotations

import json

import pytest

from repro.obs import MetricsRegistry
from repro.service import (
    AsyncAnalyticsServer,
    QueryEngine,
    ServiceError,
    SocketSession,
    TenantQuotas,
    TokenBucket,
)
from repro.service.quota import ShedLedger, extract_tenant
from tests.conftest import PAPER_MEMBERS, make_biedgelist


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10, burst=3, clock=clock)
        assert [bucket.try_take() for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refill_is_rate_times_elapsed(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10, burst=5, clock=clock)
        for _ in range(5):
            assert bucket.try_take()
        assert not bucket.try_take()
        clock.advance(0.25)  # 10 tokens/s * 0.25s = 2.5 tokens
        assert bucket.available == pytest.approx(2.5)
        assert bucket.try_take() and bucket.try_take()
        assert not bucket.try_take()  # 0.5 left, can't cover 1.0

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100, burst=4, clock=clock)
        clock.advance(1000.0)
        assert bucket.available == 4.0

    def test_burst_defaults_to_rate(self):
        bucket = TokenBucket(rate=7, clock=FakeClock())
        assert bucket.burst == 7.0
        assert bucket.spec() == {"rate": 7.0, "burst": 7.0}

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0)
        with pytest.raises(ValueError):
            TokenBucket(rate=5, burst=0.5)


class TestTenantQuotas:
    def test_named_tenant_gets_its_bucket(self):
        clock = FakeClock()
        quotas = TenantQuotas({"a": {"rate": 10, "burst": 2}}, clock=clock)
        assert quotas.admit("a") and quotas.admit("a")
        assert not quotas.admit("a")

    def test_unnamed_tenant_and_anonymous_admitted(self):
        quotas = TenantQuotas(
            {"a": {"rate": 10, "burst": 1}}, clock=FakeClock()
        )
        assert quotas.admit(None)
        for _ in range(50):
            assert quotas.admit("someone-else")

    def test_default_spec_creates_per_tenant_buckets(self):
        clock = FakeClock()
        quotas = TenantQuotas({"*": {"rate": 5, "burst": 1}}, clock=clock)
        # each unlisted tenant gets its OWN bucket from the "*" shape
        assert quotas.admit("x") and quotas.admit("y")
        assert not quotas.admit("x") and not quotas.admit("y")
        assert quotas.admit(None)  # anonymous stays unquota'd

    def test_coerce(self):
        quotas = TenantQuotas({"a": {"rate": 1}})
        assert TenantQuotas.coerce(quotas) is quotas
        assert TenantQuotas.coerce(None) is None
        assert isinstance(
            TenantQuotas.coerce({"a": {"rate": 1}}), TenantQuotas
        )

    def test_spec_roundtrip(self):
        quotas = TenantQuotas(
            {"a": {"rate": 2, "burst": 8}, "*": {"rate": 1}},
            clock=FakeClock(),
        )
        spec = quotas.spec()
        assert spec["a"] == {"rate": 2.0, "burst": 8.0}
        assert spec["*"]["rate"] == 1


class TestExtractTenant:
    def test_plain_envelope(self):
        raw = b'{"op": "s_degree", "tenant": "alpha", "v": 3}'
        assert extract_tenant(raw) == "alpha"

    def test_no_tenant(self):
        assert extract_tenant(b'{"op": "s_degree", "v": 3}') is None

    def test_escaped_value_falls_back_to_json(self):
        raw = json.dumps({"op": "x", "tenant": 'we"ird'}).encode()
        assert extract_tenant(raw) == 'we"ird'

    def test_garbage_never_raises(self):
        assert extract_tenant(b'{"tenant": not-json') is None
        assert extract_tenant(b'"tenant" \xff\xfe') is None

    def test_non_string_tenant_stringified(self):
        assert extract_tenant(b'{"tenant": 7}') == "7"


class TestShedLedger:
    def test_lines_are_cached_and_structured(self):
        ledger = ShedLedger(MetricsRegistry())
        line1 = ledger.quota_line("a")
        line2 = ledger.quota_line("a")
        assert line1 is line2  # pre-encoded once, reused forever
        doc = json.loads(line1)
        assert doc["ok"] is False
        assert doc["error"]["code"] == "quota_exceeded"
        assert "'a'" in doc["error"]["message"]

    def test_counters_move_per_reason_and_tenant(self):
        metrics = MetricsRegistry()
        ledger = ShedLedger(metrics)
        ledger.shed("quota", "a")
        ledger.shed("quota", "a")
        ledger.shed("overloaded", None)
        ledger.admitted("a")
        ledger.admitted(None)  # anonymous: no tenant counter
        assert metrics.counter(
            "service_async_shed_total", reason="quota"
        ).value == 2
        assert metrics.counter(
            "service_async_shed_total", reason="overloaded"
        ).value == 1
        assert metrics.counter(
            "service_async_tenant_shed_total", tenant="a"
        ).value == 2
        assert metrics.counter(
            "service_async_tenant_requests_total", tenant="a"
        ).value == 1


@pytest.fixture()
def engine():
    eng = QueryEngine()
    eng.store.register("paper", make_biedgelist(PAPER_MEMBERS))
    yield eng
    eng.close()


def _drain_until_shed(address, tenant: str, tries: int = 50) -> dict:
    """Fire point queries until the tenant's bucket runs dry."""
    with SocketSession(*address, strict=False) as session:
        for _ in range(tries):
            resp = session.request(
                {"op": "s_degree", "dataset": "paper", "s": 1, "v": 1,
                 "tenant": tenant}
            )
            if resp.get("ok") is False:
                return resp
    raise AssertionError(f"tenant {tenant!r} was never shed")


class TestQuotasOverSockets:
    """The front door sheds quota'd tenants on the wire."""

    def test_quota_shed_is_structured_and_counted(self, engine):
        quotas = {"bursty": {"rate": 0.001, "burst": 3}}
        with AsyncAnalyticsServer(engine, quotas=quotas) as server:
            resp = _drain_until_shed(server.address, "bursty")
            assert resp["error"]["code"] == "quota_exceeded"
            # an unquota'd tenant on the same server is untouched
            with SocketSession(*server.address, strict=False) as session:
                ok = session.request(
                    {"op": "s_degree", "dataset": "paper", "s": 1, "v": 1,
                     "tenant": "quiet"}
                )
                assert ok.get("ok") is True
        registry = engine.obs_metrics
        assert registry.counter(
            "service_async_shed_total", reason="quota"
        ).value >= 1
        assert registry.counter(
            "service_async_tenant_shed_total", tenant="bursty"
        ).value >= 1
        assert registry.counter(
            "service_async_tenant_requests_total", tenant="bursty"
        ).value == 3  # the burst that was admitted
        assert registry.counter(
            "service_async_tenant_requests_total", tenant="quiet"
        ).value == 1

    def test_strict_session_raises_service_error(self, engine):
        quotas = {"t": {"rate": 0.001, "burst": 1}}
        with AsyncAnalyticsServer(engine, quotas=quotas) as server:
            with SocketSession(*server.address) as session:
                query = {"op": "s_degree", "dataset": "paper", "s": 1,
                         "v": 1, "tenant": "t"}
                session.request(query)  # burst token
                with pytest.raises(ServiceError) as exc_info:
                    session.query(**{"op": "s_degree", "dataset": "paper",
                                     "s": 1, "v": 1, "tenant": "t"})
                assert exc_info.value.code == "quota_exceeded"

    def test_anonymous_requests_never_quota_shed(self, engine):
        quotas = {"*": {"rate": 0.001, "burst": 1}}
        with AsyncAnalyticsServer(engine, quotas=quotas) as server:
            with SocketSession(*server.address, strict=False) as session:
                for _ in range(10):
                    resp = session.request(
                        {"op": "s_degree", "dataset": "paper",
                         "s": 1, "v": 1}
                    )
                    assert resp.get("ok") is True
