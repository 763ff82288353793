"""Failure accounting, percentiles, spreads and span attribution."""

from __future__ import annotations

import json
import math
import statistics

import pytest

import common
import serve


def test_failed_and_shed_requests_miss_every_percentile():
    phase = common.Phase("p")
    for ms in (1.0, 2.0, 3.0):
        phase.ok(ms)
    phase.fail()
    phase.fail(shed=True)
    assert (phase.attempted, phase.succeeded, phase.failed, phase.shed) == (
        5, 3, 1, 1
    )
    # two of five requests never answered: the median is the third answer
    assert phase.percentile(0.5) == 3.0
    phase.fail()
    phase.fail(shed=True)
    # now four of seven missed: the median is a miss, not a fast answer
    assert math.isinf(phase.percentile(0.5))


def test_tail_needs_ten_samples_beyond_it():
    phase = common.Phase("p")
    for i in range(999):
        phase.ok(float(i))
    with pytest.raises(ValueError, match="p99 needs 1000 samples"):
        phase.percentile(0.99)
    phase.ok(999.0)
    assert phase.percentile(0.99) == 989.0
    assert common.tail_ok(1000, 0.99) and not common.tail_ok(999, 0.99)


def test_quantile_is_nearest_rank():
    assert common.quantile([5.0, 1.0, 3.0, 2.0], 0.5) == 2.0
    assert common.quantile([4.0], 0.99) == 4.0


def test_spread_matches_the_acceptance_rule():
    values = [10.0, 11.0, 9.5, 10.4, 12.0, 9.9, 10.1, 10.8, 10.2, 9.7]
    med, q1, q3, rel = common.spread(values)
    want_q1, _, want_q3 = statistics.quantiles(values, n=4)
    assert (med, q1, q3) == (statistics.median(values), want_q1, want_q3)
    assert rel == pytest.approx((want_q3 - want_q1) / med)


def test_self_time_subtracts_nested_children():
    spans = [
        {"name": "pass", "start_s": 0.0, "duration_s": 10.0, "depth": 0},
        {"name": "a", "start_s": 1.0, "duration_s": 3.0, "depth": 1},
        {"name": "b", "start_s": 1.5, "duration_s": 1.0, "depth": 2},
        {"name": "a", "start_s": 5.0, "duration_s": 2.0, "depth": 1},
    ]
    agg = common.self_times(spans)
    assert agg["pass"]["self_s"] == pytest.approx(5.0)
    assert agg["a"]["total_s"] == pytest.approx(5.0)
    assert agg["a"]["self_s"] == pytest.approx(4.0)
    assert agg["b"]["self_s"] == pytest.approx(1.0)
    table = common.where_table("t", spans)
    assert table[2].split()[0] == "pass"  # largest self time first


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)

    def request(self, payload):
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response


def test_closed_loop_counts_errors_sheds_and_transport_failures():
    ok = {"ok": True, "result": 1}
    shed = {"ok": False, "error": {"code": "overloaded"}}
    quota = {"ok": False, "error": {"code": "quota_exceeded"}}
    bad = {"ok": False, "error": {"code": "invalid_argument"}}
    session = FakeSession([ok, shed, bad, quota, ConnectionError("gone")])
    phase = common.Phase("p")
    serve.closed_loop(session, [{"op": "x"}], phase, 0, min_count=5)
    assert (phase.attempted, phase.succeeded, phase.failed, phase.shed) == (
        5, 1, 2, 2
    )
    assert sum(math.isinf(x) for x in phase.latencies_ms) == 4


def test_closed_loop_also_records_each_op_in_its_own_phase():
    ok = {"ok": True, "result": 1}
    bad = {"ok": False, "error": {"code": "invalid_argument"}}
    session = FakeSession([ok, bad, ok])
    stream = [{"op": "a"}, {"op": "b"}]
    phase = common.Phase("p")
    by_op = {"a": common.Phase("a"), "b": common.Phase("b")}
    serve.closed_loop(session, stream, phase, 0, min_count=3, by_op=by_op)
    assert (phase.attempted, phase.failed) == (3, 1)
    assert (by_op["a"].attempted, by_op["a"].failed) == (2, 0)
    assert (by_op["b"].attempted, by_op["b"].failed) == (1, 1)


def test_shed_batch_envelope_counts_every_item():
    shed = {"ok": False, "error": {"code": "overloaded"}}
    items = [{"op": "s_degree", "v": i} for i in range(200)]
    phase = common.Phase("batch")
    serve.batch_loop(FakeSession([shed]), items, phase, 0, [])
    assert (phase.attempted, phase.shed, phase.succeeded) == (64, 64, 0)


def test_server_side_p50_from_histogram_deltas():
    def snapshot(counts):
        cum, buckets = 0, {}
        for bound, n in zip((0.0001, 0.001, 0.01), counts):
            cum += n
            buckets[repr(bound)] = cum
        rec = {"name": "service_request_seconds", "labels": {"op": "s_degree"},
               "buckets": buckets}
        return {"result": {"registry": [rec]}}

    before = snapshot([5, 0, 0])
    after = snapshot([5, 10, 0])  # ten new lookups, all in (100us, 1ms]
    assert serve.server_p50_us(before, after) == pytest.approx(550.0)


def test_a_percentile_on_a_failed_request_marks_the_run_incorrect(capsys):
    phase = common.Phase("p")
    phase.fail()
    common.emit(True, 1, 1, {"x_ms": common.metric(phase.percentile(0.5), "ms")})
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["metrics"]["x_ms"]["value"] == -1.0


def test_no_answered_restart_reports_minus_one_and_incorrect(capsys):
    from types import SimpleNamespace

    phases = {name: common.Phase(name) for name in ("update", "churn-read")}
    for phase in phases.values():
        phase.ok(1.0)
    rounds = [{"lookup_ops_per_s": 1.0, "lookup_p50_ms": 1.0,
               "lookup_p99_ms": 1.0, "batch_items_per_s": 1.0,
               "heavy_p50_ms": 1.0, "distance_p50_ms": 1.0}]
    run = SimpleNamespace(rounds=rounds, phases=phases, peak_rss_mb=100.0,
                          setup_s=[1.0], restart_s=[])
    common.emit(True, 1, 0, serve.end_to_end(run))
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["metrics"]["restart_s"]["value"] == -1.0
    assert result["metrics"]["update_p50_ms"]["value"] == 1.0


def test_a_run_sums_the_set_up_of_its_halves_and_keeps_every_metric():
    m = common.metric
    analyst = common.Outcome(True, 10, 0, {"setup_s": m(0.5, "s"),
                                           "analysis_s": m(2.0, "s")})
    serving = common.Outcome(False, 5, 1, {"setup_s": m(1.25, "s"),
                                           "restart_s": m(0.75, "s")})
    run = common.combine([analyst, serving])
    assert (run.correct, run.attempted, run.failed) == (False, 15, 1)
    assert run.metrics == {"setup_s": m(1.75, "s"), "analysis_s": m(2.0, "s"),
                           "restart_s": m(0.75, "s")}
    with pytest.raises(ValueError, match="analysis_s"):
        common.combine([analyst, analyst])


def test_every_run_reports_every_metric_of_the_manifest():
    import analyst

    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    layers = {**analyst.LAYER_UNITS, **serve.LAYER_UNITS}
    assert len(layers) == len(analyst.LAYER_UNITS) + len(serve.LAYER_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
