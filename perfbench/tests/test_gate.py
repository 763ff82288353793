"""The correctness gate: analyst answers against the oracle, serve answers
against an in-process engine, and a run without a program."""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import pytest

import analyst
import common
import inputs
import serve

SMALL = (
    inputs.Shape("small-powerlaw", "powerlaw", (300, 200, 8.0, 1.9)),
    inputs.Shape("small-community", "community", (150, 60, 9.0, 0.8, 5)),
)
S_VALUES = (2, 3)


def small(seed: int):
    data = [(sh, inputs.generate(sh, inputs.sub_seed(seed, i)))
            for i, sh in enumerate(SMALL)]
    return data, analyst.pair_table(data, seed, S_VALUES)


def test_generation_is_a_function_of_the_seed():
    (a, pa), (b, pb), (c, _) = small(4), small(4), small(5)
    for (_, x), (_, y), (_, z) in zip(a, b, c):
        assert (x.part0 == y.part0).all() and (x.part1 == y.part1).all()
        assert x.part1.tolist() != z.part1.tolist()
    assert pa == pb


def test_pass_agrees_with_the_oracle_traced_or_not():
    from repro.obs import MetricsRegistry, Tracer

    data, pairs = small(7)
    expected = analyst.expected_answers(data, pairs, S_VALUES)
    plain = analyst.analyst_pass(data, S_VALUES, pairs)
    traced = analyst.analyst_pass(
        data, S_VALUES, pairs, Tracer(), MetricsRegistry()
    )
    assert plain.largest == traced.largest > 0
    assert analyst.compare(expected, plain.answers) == []
    assert traced.answers == plain.answers
    assert plain.errors == traced.errors == []
    for result in (plain, traced):
        counts = {name: (p.attempted, p.succeeded, p.failed)
                  for name, p in result.phases.items()}
        per_s = len(SMALL) * len(S_VALUES)
        assert counts["s_linegraph"] == (per_s, per_s, 0)
        assert counts["distances"][0] == per_s * inputs.DISTANCE_PAIRS


def test_a_raising_call_is_counted_failed_and_misses_the_oracle(monkeypatch):
    from repro.core.slinegraph import SLineGraph

    data, pairs = small(7)
    expected = analyst.expected_answers(data, pairs, S_VALUES)

    def broken(self, *args, **kwargs):
        raise IndexError("boom")

    monkeypatch.setattr(SLineGraph, "s_connected_components", broken)
    result = analyst.analyst_pass(data, S_VALUES, pairs)
    comps = result.phases["components"]
    per_s = len(SMALL) * len(S_VALUES)
    assert (comps.attempted, comps.succeeded, comps.failed) == (per_s, 0, per_s)
    assert result.phases["distances"].failed == 0
    assert len(result.errors) == per_s and "boom" in result.errors[0]
    problems = analyst.compare(expected, result.answers)
    assert len(problems) == per_s and all("components" in p for p in problems)


@pytest.mark.parametrize("field", ["edges", "components", "distances"])
def test_any_wrong_answer_fails_the_gate(field):
    data, pairs = small(7)
    expected = analyst.expected_answers(data, pairs, S_VALUES)
    answers = json.loads(json.dumps(expected))
    if field == "distances":
        answers[1][field][0] += 1
    else:
        answers[1][field] += 1
    problems = analyst.compare(expected, answers)
    assert len(problems) == 1 and field in problems[0]


def test_missing_answers_fail_the_gate():
    data, pairs = small(7)
    expected = analyst.expected_answers(data, pairs, S_VALUES)
    assert analyst.compare(expected, expected[:-1])


def serve_run(seed: int = 3):
    from repro.core.hypergraph import NWHypergraph

    run = serve.Run(argparse.Namespace(workload="skewed", seed=seed,
                                       seconds=1, trace=0))
    el = inputs.generate(SMALL[0], seed)
    run.hg = NWHypergraph(el.part0, el.part1, num_edges=el.num_vertices(0),
                          num_nodes=el.num_vertices(1))
    return run


def test_serve_gate_flags_a_wrong_lookup():
    run = serve_run()
    query = {"op": "s_neighbors", "dataset": run.dataset, "s": 2, "v": 3}
    engine = run.reference()
    right = engine.execute(query)["result"]
    engine.close()
    run.check_samples([(0, query, right)])
    assert run.problems == []
    run.check_samples([(0, query, right + [10_000])])
    assert len(run.problems) == 1 and "v0" in run.problems[0]


def test_serve_gate_checks_each_answer_at_its_own_version():
    run = serve_run()
    n = run.hg.number_of_edges()
    batches = inputs.mutation_batches(run.dataset, n, 3, seed=3)
    # an original hyperedge that shares a member with the first added one
    bi = run.hg.biadjacency
    member = next(v for v in batches[0][0]["members"] if len(bi.memberships(v)))
    edge = int(bi.memberships(member)[0])
    query = {"op": "s_neighbors", "dataset": run.dataset, "s": 1,
             "v": edge}
    run.acknowledged = batches
    engine = run.reference(batches)
    after = engine.execute(query)
    engine.close()
    assert after["ok"] and n in after["result"]
    run.check_samples([(3, query, after["result"])])
    assert run.problems == []
    # the same answer is wrong for the dataset before the first update
    run.check_samples([(0, query, after["result"])])
    assert len(run.problems) == 1


def test_reply_classification():
    assert serve.classify({"ok": True}) == "ok"
    assert serve.classify({"ok": False, "error": {"code": "overloaded"}}) == "shed"
    assert serve.classify(
        {"ok": False, "error": {"code": "quota_exceeded"}}
    ) == "shed"
    assert serve.classify({"ok": False, "error": {"code": "bad_request"}}) == (
        "failed"
    )
    assert serve.classify([]) == "failed"


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "skewed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
