"""Named profiling workloads → one merged Perfetto timeline + metrics.

The NWHy evaluation (paper §VI) is built on per-phase measurement:
construction vs. traversal vs. relabeling time.  :func:`run_profile`
packages that workflow: pick a workload, run it under a live
:class:`~repro.obs.tracer.Tracer` and
:class:`~repro.obs.metrics.MetricsRegistry`, and write a ``trace.json``
whose timeline shows **both** kinds of event:

* pid 0 — Python-level wall-clock spans (construction stages, cache
  builds, service ops, runtime phases);
* pid 1+ — the simulated runtime's per-task schedules (the existing
  :mod:`repro.parallel.trace` exporter), one process per traced run.

Workloads:

``slinegraph``
    s-line graph construction on a traced simulated runtime (the Fig. 9
    measurement shape) plus the s-monotone derive for ``s+1``.
``smetrics``
    exact CC + BFS + the s-metrics report (the traversal workloads of
    Figs. 7–8).
``service``
    an in-process serving replay: register, warm, a mixed query batch,
    and a metrics scrape — exercising engine, cache, and histograms.

CLI: ``python -m repro profile --workload slinegraph --out trace.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

from .metrics import MetricsRegistry
from .tracer import Tracer

__all__ = ["PROFILE_WORKLOADS", "merged_chrome_trace", "run_profile"]


def merged_chrome_trace(
    tracer: Tracer | None,
    ledgers: dict[str, "object"] | None = None,
) -> list[dict]:
    """Combine wall spans and simulated schedules into one event list.

    ``ledgers`` maps a display name to a
    :class:`~repro.parallel.cost.RunLedger`; each gets its own pid (1+)
    with a ``process_name`` metadata event, while the tracer's spans live
    on pid 0 (named ``python``).  The result is loadable by Perfetto /
    ``chrome://tracing`` as-is.
    """
    from repro.parallel.trace import chrome_trace_events

    events: list[dict] = []
    if tracer is not None and tracer.spans:
        events.append(_process_name(0, "python (wall clock)"))
        events.extend(tracer.chrome_trace_events(pid=0))
    for i, (name, ledger) in enumerate(sorted((ledgers or {}).items())):
        pid = i + 1
        events.append(_process_name(pid, f"simulated: {name}"))
        events.extend(chrome_trace_events(ledger, pid=pid))
    return events


def _process_name(pid: int, name: str) -> dict:
    return {
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "tid": 0,
        "args": {"name": name},
    }


# -- workloads -------------------------------------------------------------
def _workload_slinegraph(hg, s, threads, algorithm, tracer, metrics):
    from repro.parallel.runtime import ParallelRuntime

    rt = ParallelRuntime(
        num_threads=threads, partitioner="cyclic", trace=True, tracer=tracer
    )
    with tracer.span("profile.slinegraph", s=s, algorithm=algorithm):
        lg = hg.s_linegraph(
            s, algorithm=algorithm, runtime=rt, tracer=tracer, metrics=metrics
        )
    with tracer.span("profile.derive", s=s + 1):
        lg.derive(s + 1)
    return {"slinegraph": rt.ledger}, {
        "line_vertices": lg.num_vertices(),
        "line_edges": lg.num_edges(),
        "simulated_makespan": rt.ledger.makespan,
    }


def _workload_smetrics(hg, s, threads, algorithm, tracer, metrics):
    from repro.core.smetrics import s_metrics_report
    from repro.parallel.runtime import ParallelRuntime

    def traced_rt():
        return ParallelRuntime(
            num_threads=threads, partitioner="cyclic", trace=True,
            tracer=tracer,
        )

    rt_cc, rt_bfs = traced_rt(), traced_rt()
    with tracer.span("profile.cc"):
        hg.connected_components(
            runtime=rt_cc, tracer=tracer, metrics=metrics
        )
    with tracer.span("profile.bfs"):
        hg.bfs(0, runtime=rt_bfs, tracer=tracer, metrics=metrics)
    with tracer.span("profile.smetrics", s=s):
        report = s_metrics_report(hg.biadjacency, [s])
    return {"cc": rt_cc.ledger, "bfs": rt_bfs.ledger}, {
        "s_metrics": {k: v.summary() for k, v in report.items()},
        "simulated_makespan": rt_cc.ledger.makespan + rt_bfs.ledger.makespan,
    }


def _workload_service(hg, s, threads, algorithm, tracer, metrics):
    from repro.parallel.runtime import ParallelRuntime
    from repro.service.cache import SLineGraphCache
    from repro.service.engine import QueryEngine
    from repro.service.store import HypergraphStore

    store = HypergraphStore()
    store.register("profiled", hg)
    engine = QueryEngine(
        store=store,
        cache=SLineGraphCache(metrics=metrics, tracer=tracer),
        num_threads=threads,
        metrics=metrics,
        tracer=tracer,
    )
    rt = ParallelRuntime(
        num_threads=threads, partitioner="cyclic", trace=True, tracer=tracer
    )
    with tracer.span("profile.service"):
        engine.execute(
            {"op": "warm", "dataset": "profiled", "s_values": [1, s]}
        )
        n = hg.number_of_edges()
        batch = [
            {"op": "s_distance", "dataset": "profiled", "s": s,
             "src": i % n, "dst": (i * 7 + 1) % n}
            for i in range(16)
        ]
        batch.append({"op": "s_connected_components", "dataset": "profiled",
                      "s": s})
        engine.execute_batch(batch, runtime=rt)
        summary = engine.metrics()
    return {"query_batch": rt.ledger}, {
        "service_metrics": summary,
        "simulated_makespan": rt.ledger.makespan,
    }


PROFILE_WORKLOADS = {
    "slinegraph": _workload_slinegraph,
    "smetrics": _workload_smetrics,
    "service": _workload_service,
}


def run_profile(
    workload: str,
    dataset: str = "rand1",
    s: int = 2,
    threads: int = 8,
    algorithm: str = "hashmap",
    out: str | Path | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> dict:
    """Run a named workload instrumented end to end; return the summary.

    When ``out`` is given the merged chrome trace is written there.  The
    returned dict carries the workload result card, the span summary,
    the metrics snapshot, and (when written) the trace path and event
    count.  Pass in a live ``tracer``/``metrics`` to accumulate across
    several runs.
    """
    try:
        fn = PROFILE_WORKLOADS[workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {workload!r}; choose from "
            f"{sorted(PROFILE_WORKLOADS)}"
        ) from None
    from repro.io.loader import load_hypergraph

    tracer = tracer if tracer is not None else Tracer()
    metrics = metrics if metrics is not None else MetricsRegistry()
    with tracer.span("profile.load", dataset=str(dataset)):
        hg = load_hypergraph(dataset)
    ledgers, card = fn(hg, int(s), int(threads), algorithm, tracer, metrics)
    events = merged_chrome_trace(tracer, ledgers)
    summary = {
        "workload": workload,
        "dataset": str(dataset),
        "s": int(s),
        "threads": int(threads),
        "algorithm": algorithm,
        "num_spans": len(tracer.spans),
        "num_events": len(events),
        "spans": tracer.summary(),
        "metrics": metrics.snapshot(),
        **card,
    }
    if out is not None:
        payload = {"traceEvents": events, "displayTimeUnit": "ms"}
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        summary["trace_path"] = str(out)
    return summary
