"""Service-layer backend selection: engine config, env, wire envelope."""

import json

import pytest

from repro.service import InProcessSession, QueryEngine
from repro.service.protocol import dispatch_line

from ..conftest import PAPER_MEMBERS, make_biedgelist

QUERIES = [
    {"op": "s_connected_components", "dataset": "paper", "s": 2},
    {"op": "s_degree", "dataset": "paper", "s": 1, "v": 0},
    {"op": "s_diameter", "dataset": "paper", "s": 2},
]


def make_engine(**kwargs) -> QueryEngine:
    eng = QueryEngine(**kwargs)
    eng.store.register("paper", make_biedgelist(PAPER_MEMBERS, num_nodes=9))
    return eng


def strip_ms(responses):
    """Drop wall-clock and cache-provenance; results must be identical."""
    return [
        json.dumps(
            {k: v for k, v in r.items() if k not in ("ms", "via")},
            sort_keys=True,
        )
        for r in responses
    ]


class TestEngineBackend:
    def test_default_is_simulated(self):
        eng = make_engine()
        assert eng.backend.name == "simulated"
        eng.close()

    def test_constructor_backend(self):
        eng = make_engine(backend="threaded", workers=2)
        try:
            assert eng.backend.name == "threaded"
            assert eng.backend.workers == 2
            out = eng.execute_batch(QUERIES)
            assert all(r["ok"] for r in out)
        finally:
            eng.close()

    def test_env_configures_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "threaded")
        monkeypatch.setenv("REPRO_WORKERS", "3")
        eng = make_engine()
        try:
            assert eng.backend.name == "threaded"
            assert eng.backend.workers == 3
        finally:
            eng.close()

    def test_results_identical_across_backends(self):
        base_eng = make_engine()
        base = strip_ms(base_eng.execute_batch(QUERIES))
        base_eng.close()
        eng = make_engine(backend="threaded", workers=2)
        try:
            got = strip_ms(eng.execute_batch(QUERIES))
        finally:
            eng.close()
        assert got == base

    def test_per_batch_override(self):
        eng = make_engine()  # engine default: simulated
        try:
            base = strip_ms(eng.execute_batch(QUERIES))
            got = strip_ms(
                eng.execute_batch(QUERIES, backend="threaded", workers=2)
            )
            assert got == base
        finally:
            eng.close()

    def test_metrics_report_backend(self):
        eng = make_engine(backend="threaded", workers=2)
        try:
            info = eng.metrics()["backend"]
            assert info["name"] == "threaded"
            assert info["workers"] == 2
        finally:
            eng.close()


class TestWireEnvelope:
    def test_batch_backend_selection(self):
        with InProcessSession(make_engine()) as session:
            out = session.batch(QUERIES, backend="threaded", workers=2)
            assert all(r["ok"] for r in out)
            session.engine.close()

    def test_unknown_backend_rejected(self):
        with InProcessSession(make_engine()) as session:
            for backend in ("gpu", "process"):
                resp = session.request({"batch": QUERIES, "backend": backend})
                assert not resp["ok"]
                assert resp["error"]["code"] == "invalid_argument"
                assert backend in resp["error"]["message"]
            session.engine.close()

    @pytest.mark.parametrize(
        "workers",
        ["abc", [1], -3, 0, True, 2.5],
        ids=["str", "list", "negative", "zero", "bool", "float"],
    )
    def test_workers_not_a_positive_int_rejected(self, workers):
        engine = make_engine()
        try:
            line = json.dumps({"batch": QUERIES, "workers": workers})
            resp = json.loads(dispatch_line(engine, line.encode()))
            assert not resp["ok"]
            assert resp["error"]["code"] == "invalid_argument"
            assert "workers" in resp["error"]["message"]
        finally:
            engine.close()
