"""The analyst half of every workload: a Listing 5 session.

:func:`drive` runs in the driver process.  It starts this file as a child
that times the analyst's session through the public Python API
(``NWHypergraph``, ``SLineGraph``), so ``peak_rss_mb`` is the session's
own peak, untouched by the reference.  The driver then computes the
reference with the matrix oracle and gates every answer against it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

import numpy as np

import common
import inputs
import oracle
from repro.bench.harness import nwhy_runtime
from repro.core.hypergraph import NWHypergraph
from repro.core.slinegraph import SLineGraph
from repro.linegraph import to_two_graph
from repro.obs import MetricsRegistry, Tracer
from repro.obs.tracer import as_tracer
from repro.structures.biadjacency import BiAdjacency

#: Timed passes per run, at least, whatever ``--seconds`` says: a skewed
#: pass takes about 6.5 s, and a run must stay near a minute in all.
MIN_PASSES = 2
#: Set-ups before each pass; ``setup_s`` counts their median.  Spread
#: between the passes, they see the same host as the passes do: fifteen
#: set-ups in a row before the first pass spread 0.22 over ten runs,
#: against 0.06 for the passes.
SETUPS_PER_PASS = 2
#: Simulated threads of the ledger the ``parallel.*`` counts come from.
LEDGER_THREADS = 16


# -- the child: one analyst session ------------------------------------------------


def _setup(workload: str, seed: int):
    """Generate the inputs and construct them; returns timings and arrays."""
    t0 = time.perf_counter()
    data = inputs.generate_all(workload, seed)
    t1 = time.perf_counter()
    for _, el in data:
        NWHypergraph(el.part0, el.part1, num_edges=el.num_vertices(0),
                     num_nodes=el.num_vertices(1))
    t2 = time.perf_counter()
    return t1 - t0, t2 - t0, data


#: Call groups of a pass; each reports ops attempted, succeeded and failed.
PHASES = ("construct", "cc-bfs", "toplex", "s_linegraph", "components",
          "distances")


class PassResult(NamedTuple):
    answers: list[dict]
    #: bytes of the largest s-line graph the pass materialised
    largest: int
    phases: dict[str, common.Phase]
    errors: list[str]


def analyst_pass(data, s_values, pairs, tracer=None, metrics=None):
    """One Listing 5 pass over every input; returns a :class:`PassResult`.

    A call into the program that raises is counted as failed in its
    :data:`PHASES` entry and answers ``None``; the calls that need its
    result are skipped, so their answers miss the oracle.

    With a live ``tracer`` each call into a layer runs inside a span named
    after the layer, and the s-line build is split into its counting half
    (``to_two_graph``) and its materialisation (``SLineGraph``) — the two
    halves ``NWHypergraph.s_linegraph`` runs back to back.
    """

    tr = as_tracer(tracer)
    traced = tr.enabled
    phases = {name: common.Phase(name) for name in PHASES}
    errors: list[str] = []
    answers = []
    largest = 0

    def call(phase, span, fn):
        t0 = time.perf_counter()
        try:
            with tr.span(span) if span else contextlib.nullcontext():
                out = fn()
        except Exception as exc:  # counted and reported, not fatal
            phases[phase].fail()
            errors.append(f"{span or phase}: {exc!r}")
            out = None
        else:
            phases[phase].ok()
        phases[phase].wall_s += time.perf_counter() - t0
        return out

    def build(hg, bi, s):
        if not traced:
            return hg.s_linegraph(s)
        with tr.span("linegraph.count"):
            line_el = to_two_graph(bi, s, metrics=metrics)
        with tr.span("core.materialize"):
            return SLineGraph(line_el, s=s)

    with tr.span("pass"):
        for (shape, el), input_pairs in zip(data, pairs):
            answers.extend(
                {"input": shape.name, "s": s, "edges": None,
                 "components": None, "distances": None}
                for s in s_values
            )
            hg = call("construct", "core.construct", lambda: NWHypergraph(
                el.part0, el.part1, num_edges=el.num_vertices(0),
                num_nodes=el.num_vertices(1),
            ))
            if hg is None:
                continue
            bi = call("construct", "structures.biadjacency",
                      lambda: hg.biadjacency)
            if bi is None:
                continue
            call("construct", "structures.adjoin", lambda: hg.adjoin_graph)
            call("cc-bfs", "algorithms.adjoincc",
                 lambda: hg.connected_components("adjoin"))
            call("cc-bfs", "algorithms.hypercc",
                 lambda: hg.connected_components("bipartite"))
            source = int(np.argmax(bi.node_degrees()))
            call("cc-bfs", "algorithms.adjoinbfs",
                 lambda: hg.bfs(source, representation="adjoin"))
            call("cc-bfs", "algorithms.hyperbfs",
                 lambda: hg.bfs(source, representation="bipartite"))
            call("toplex", "algorithms.toplex", hg.toplexes)
            for answer in answers[-len(s_values):]:
                s = answer["s"]
                lg = call("s_linegraph", None, lambda: build(hg, bi, s))
                if lg is None:
                    continue
                answer["edges"] = lg.num_edges()
                largest = max(largest, lg.edgelist.nbytes() + lg.graph.nbytes())
                comps = call("components", "graph.cc",
                             lg.s_connected_components)
                answer["components"] = None if comps is None else len(comps)
                with tr.span("graph.distance"):
                    answer["distances"] = [
                        call("distances", None, lambda: lg.s_distance(a, b))
                        for a, b in input_pairs[s]
                    ]
    return PassResult(answers, largest, phases, errors)


def pair_table(data, seed, s_values):
    """Per input, ``{s: [(a, b), ...]}`` of seeded s-distance queries."""
    return [
        {s: inputs.distance_pairs(el, seed, i, s) for s in s_values}
        for i, (_, el) in enumerate(data)
    ]


def _ledger(data) -> dict:
    """Work and 1-vs-16-thread makespans of the s=2 builds (exact counts)."""
    work = span_1 = span_16 = 0.0
    for _, el in data:
        h = BiAdjacency.from_biedgelist(el)
        with nwhy_runtime(LEDGER_THREADS) as rt:
            to_two_graph(h, 2, runtime=rt)
            work += rt.ledger.total_work
            span_16 += rt.makespan
        with nwhy_runtime(1) as rt:
            to_two_graph(h, 2, runtime=rt)
            span_1 += rt.makespan
    return {"parallel.work": work, "parallel.speedup_16": span_1 / span_16}


def _counter_sum(registry, name: str, kernel: str | None = None) -> float:
    return sum(
        rec["value"] for rec in registry.snapshot()
        if rec["name"] == name
        and (kernel is None or rec["labels"].get("kernel") == kernel)
    )


def _layer_metrics(registry, spans: list[dict]) -> dict[str, float]:
    agg = common.self_times(spans)

    def total(name: str) -> float:
        return agg.get(name, {}).get("total_s", 0.0)

    cand = _counter_sum(registry, "linegraph_kernel_candidates_total")
    emitted = _counter_sum(registry, "linegraph_kernel_emitted_total")
    out = {
        "structures.biadjacency_s": total("structures.biadjacency"),
        "structures.adjoin_s": total("structures.adjoin"),
        "linegraph.count_s": total("linegraph.count"),
        "linegraph.candidates": cand,
        "linegraph.emitted": emitted,
        "linegraph.emit_ratio": emitted / cand if cand else 0.0,
        "core.materialize_s": total("core.materialize"),
        "graph.cc_s": total("graph.cc"),
        "graph.distance_s": total("graph.distance"),
        "algorithms.adjoincc_s": total("algorithms.adjoincc"),
        "algorithms.hypercc_s": total("algorithms.hypercc"),
        "algorithms.adjoinbfs_s": total("algorithms.adjoinbfs"),
        "algorithms.hyperbfs_s": total("algorithms.hyperbfs"),
        "algorithms.toplex_s": total("algorithms.toplex"),
        "bench.unattributed_s": agg["pass"]["self_s"],
    }
    for kernel in ("naive", "hashmap", "intersection", "bitset"):
        out[f"linegraph.rows.{kernel}"] = _counter_sum(
            registry, "dispatch_rows_total", kernel
        )
    return out


def child(args: argparse.Namespace) -> dict:
    """Run one analyst session; returns the report the driver gates."""
    _, s_values = inputs.WORKLOADS[args.workload]
    gen, setup = [], []

    def set_up():
        for _ in range(SETUPS_PER_PASS):
            g, s, data = _setup(args.workload, args.seed)
            gen.append(g)
            setup.append(s)
        return data

    data = set_up()
    pairs = pair_table(data, args.seed, s_values)
    totals = {name: common.Phase(name) for name in PHASES}
    errors: list[str] = []

    def run_pass(tracer=None, registry=None) -> PassResult:
        result = analyst_pass(data, s_values, pairs, tracer, registry)
        for name, phase in result.phases.items():
            totals[name].merge(phase)
        errors.extend(result.errors)
        return result

    # untimed warm-up: lazy imports, allocator growth, first-touch pages
    reference = run_pass().answers
    report = {
        "setup_s": setup, "generate_s": gen, "answers": reference,
        "consistent": True,
    }
    if not args.trace:
        times, peaks = [], []
        while len(times) < MIN_PASSES or sum(times) < args.seconds:
            set_up()
            common.reset_peak_rss()
            t0 = time.perf_counter()
            answers = run_pass().answers
            times.append(time.perf_counter() - t0)
            peaks.append(common.peak_rss_mb())
            report["consistent"] &= answers == reference
        report["pass_s"] = times
        report["peak_rss_mb"] = peaks
    else:
        plain, traced, layers, spans = [], [], [], []
        while not traced or sum(plain) + sum(traced) < args.seconds / 2:
            set_up()
            t0 = time.perf_counter()
            report["consistent"] &= run_pass().answers == reference
            plain.append(time.perf_counter() - t0)
            tracer, registry = Tracer(), MetricsRegistry()
            t0 = time.perf_counter()
            result = run_pass(tracer, registry)
            traced.append(time.perf_counter() - t0)
            report["consistent"] &= result.answers == reference
            spans = common.span_records(tracer)
            layer = _layer_metrics(registry, spans)
            layer["core.linegraph_mb"] = result.largest / 2**20
            layers.append(layer)
        metrics = {
            name: statistics.median(layer[name] for layer in layers)
            for name in layers[0]
        }
        metrics["io.generate_s"] = statistics.median(gen)
        metrics["bench.trace_overhead_pct"] = 100.0 * (
            statistics.median(traced) / statistics.median(plain) - 1.0
        )
        metrics.update(_ledger(data))
        report["layers"] = metrics
        report["spans"] = spans
    report["phases"] = {
        name: {"attempted": p.attempted, "succeeded": p.succeeded,
               "failed": p.failed, "shed": p.shed, "wall_s": p.wall_s}
        for name, p in totals.items()
    }
    report["errors"] = errors[:20]
    return report


# -- the driver side -----------------------------------------------------------------

#: Per-layer metric units (the names BENCHMARK.json lists).
LAYER_UNITS = {
    "io.generate_s": "s",
    "structures.biadjacency_s": "s",
    "structures.adjoin_s": "s",
    "linegraph.count_s": "s",
    "linegraph.candidates": "count",
    "linegraph.emitted": "count",
    "linegraph.emit_ratio": "ratio",
    "linegraph.rows.naive": "count",
    "linegraph.rows.hashmap": "count",
    "linegraph.rows.intersection": "count",
    "linegraph.rows.bitset": "count",
    "core.materialize_s": "s",
    "core.linegraph_mb": "MB",
    "graph.cc_s": "s",
    "graph.distance_s": "s",
    "algorithms.adjoincc_s": "s",
    "algorithms.hypercc_s": "s",
    "algorithms.adjoinbfs_s": "s",
    "algorithms.hyperbfs_s": "s",
    "algorithms.toplex_s": "s",
    "parallel.work": "count",
    "parallel.speedup_16": "ratio",
    "bench.unattributed_s": "s",
    "bench.trace_overhead_pct": "%",
}


def expected_answers(data, pairs, s_values) -> list[dict]:
    """The oracle's answers, in the order a pass reports its own."""
    return [
        {"input": shape.name, "s": s,
         **oracle.line_answers(el, s, input_pairs[s])}
        for (shape, el), input_pairs in zip(data, pairs)
        for s in s_values
    ]


def compare(expected: list[dict], got: list[dict]) -> list[str]:
    """Every difference between a pass's answers and the oracle's."""
    problems = []
    if len(got) != len(expected):
        problems.append(f"{len(got)} answers, expected {len(expected)}")
    for want, have in zip(expected, got):
        for key in ("input", "s", "edges", "components", "distances"):
            if want[key] != have.get(key):
                problems.append(
                    f"{want['input']} s={want['s']} {key}: "
                    f"got {have.get(key)!r}, oracle {want[key]!r}"
                )
    return problems


def gate(report: dict, workload: str, seed: int) -> list[str]:
    """Mismatches of a child report against the oracle (empty = correct)."""
    problems = []
    if not report.get("consistent", False):
        problems.append("passes of one session gave different answers")
    data = inputs.generate_all(workload, seed)
    _, s_values = inputs.WORKLOADS[workload]
    expected = expected_answers(data, pair_table(data, seed, s_values), s_values)
    return problems + compare(expected, report.get("answers", []))


def run_child(args: argparse.Namespace) -> dict:
    cmd = [
        sys.executable, str(common.ROOT / "perfbench" / "analyst.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(int(args.trace)),
    ]
    proc = subprocess.run(
        cmd, env=common.child_env(), stdout=subprocess.PIPE, timeout=100,
        check=True, cwd=common.ROOT,
    )
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def drive(args: argparse.Namespace) -> common.Outcome:
    """Run the analyst half of ``args.workload``; returns its outcome."""
    report = run_child(args)
    problems = gate(report, args.workload, args.seed)
    phases = [common.Phase(name, **row)
              for name, row in report["phases"].items()]
    print(f"analyst session, {args.workload}:")
    for phase in phases:
        print("  " + phase.row())
    for line in report["errors"]:
        print(f"  ERROR {line}")
    for line in problems[:20]:
        print(f"  MISMATCH {line}")
    if args.trace:
        common.WORK.mkdir(exist_ok=True)
        out = common.WORK / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps(report["spans"]))
        for line in common.where_table(
            f"{args.workload} seed {args.seed} (spans in {out.name})",
            report["spans"],
        ):
            print(line)
        metrics = {
            name: common.metric(report["layers"][name], unit)
            for name, unit in LAYER_UNITS.items()
        }
    else:
        print(f"  passes={len(report['pass_s'])} pass_s="
              + ",".join(f"{t:.3f}" for t in report["pass_s"]))
        metrics = {
            "setup_s": common.metric(statistics.median(report["setup_s"]), "s"),
            "analysis_s": common.metric(
                statistics.median(report["pass_s"]), "s"
            ),
            "peak_rss_mb": common.metric(
                statistics.median(report["peak_rss_mb"]), "MB"
            ),
        }
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    return common.Outcome(not problems and not failed, attempted,
                          failed + len(problems), metrics)


if __name__ == "__main__":
    # started by run_child with common.child_env(): pools already pinned
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    print(json.dumps(child(parser.parse_args())), flush=True)
