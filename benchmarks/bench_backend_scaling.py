"""Real-backend scaling: threaded/process pools vs the simulated loop.

Times the hashmap s-line builder (the hot construction kernel) under all
three execution backends over a worker grid, and the ``inline`` build —
no runtime, the default path: volume-bounded chunks on the shared thread
pool — asserts every output is bit-identical, and writes
``BENCH_backend_scaling.json`` at the repo root — the artifact CI's
backend-smoke job uploads.

Speedup expectations are gated on the host: real scaling needs real
cores, so the >=2x process-backend assertion only arms when the process
may use at least 4 CPUs (``default_workers()``, which counts the
affinity mask; the result JSON always records that count so a reader
can interpret the numbers).  Bit-identity and shared-memory cleanup are
asserted unconditionally.

Run directly (``python benchmarks/bench_backend_scaling.py``) or through
pytest (``pytest benchmarks/bench_backend_scaling.py``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.io import datasets
from repro.linegraph import slinegraph_hashmap
from repro.parallel.backends import default_workers
from repro.parallel.runtime import ParallelRuntime
from repro.parallel.shared import debug_verify, shared_stats
from repro.structures.biadjacency import BiAdjacency

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_backend_scaling.json"
DATASET = os.environ.get("BENCH_BACKEND_DATASET", "rand1")
S = 2
WORKER_GRID = (1, 2, 4)
REPEATS = 3


def _time_inline(h):
    """Best-of-N wall-clock of the inline build (no runtime)."""
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = slinegraph_hashmap(h, S)
        best = min(best, (time.perf_counter() - t0) * 1e3)
    return best, result


def _time_build(h, backend: str, workers: int):
    """Best-of-N wall-clock for one (backend, workers) configuration."""
    best = float("inf")
    result = None
    makespan = None
    for _ in range(REPEATS):
        with ParallelRuntime(
            num_threads=4,
            partitioner="cyclic",
            backend=backend,
            workers=workers,
        ) as rt:
            t0 = time.perf_counter()
            el = slinegraph_hashmap(h, S, runtime=rt)
            dt = (time.perf_counter() - t0) * 1e3
            if dt < best:
                best = dt
            result = el
            makespan = rt.makespan
    return best, result, makespan


def run(dataset: str = DATASET) -> dict:
    h = BiAdjacency.from_biedgelist(datasets.load(dataset))
    cpus = default_workers()

    base_ms, base_el, base_span = _time_build(h, "simulated", 1)
    runs = [{
        "backend": "simulated",
        "workers": 1,
        "best_ms": round(base_ms, 3),
        "speedup_vs_simulated": 1.0,
        "identical": True,
    }]
    for backend in ("threaded", "process"):
        for workers in WORKER_GRID:
            ms, el, span = _time_build(h, backend, workers)
            identical = el == base_el
            assert identical, (backend, workers)
            assert span == base_span, (backend, workers)  # same ledger
            runs.append({
                "backend": backend,
                "workers": workers,
                "best_ms": round(ms, 3),
                "speedup_vs_simulated": round(base_ms / ms, 3) if ms else 0.0,
                "identical": identical,
            })
    ms, el = _time_inline(h)
    identical = el == base_el
    assert identical, "inline"
    runs.append({
        "backend": "inline",
        "workers": cpus,
        "best_ms": round(ms, 3),
        "speedup_vs_simulated": round(base_ms / ms, 3) if ms else 0.0,
        "identical": identical,
    })

    debug_verify()  # every shm block released
    process_at_4 = next(
        r for r in runs if r["backend"] == "process" and r["workers"] == 4
    )
    doc = {
        "generated_by": "benchmarks/bench_backend_scaling.py",
        "dataset": dataset,
        "s": S,
        "host_cpus": cpus,
        "baseline_ms": round(base_ms, 3),
        "simulated_makespan": base_span,
        "runs": runs,
        "shared_memory": shared_stats(),
        "speedup_gate_armed": cpus >= 4,
    }
    if cpus >= 4:
        assert process_at_4["speedup_vs_simulated"] >= 2.0, (
            f"process backend at 4 workers only "
            f"{process_at_4['speedup_vs_simulated']}x on {cpus} cores"
        )
    return doc


def main() -> None:
    doc = run()
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {OUT}")
    for r in doc["runs"]:
        print(
            f"  {r['backend']:>9} workers={r['workers']}: "
            f"{r['best_ms']:8.1f} ms  "
            f"({r['speedup_vs_simulated']:.2f}x, identical={r['identical']})"
        )
    print(f"  host cpus: {doc['host_cpus']}  "
          f"speedup gate armed: {doc['speedup_gate_armed']}")


def test_backend_scaling(record):
    doc = run()
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    assert all(r["identical"] for r in doc["runs"])
    assert doc["shared_memory"]["active"] == 0
    record(
        f"Backend scaling ({doc['dataset']}, s={S})",
        "\n".join(
            f"{r['backend']:>9} workers={r['workers']}: {r['best_ms']:.1f} ms "
            f"({r['speedup_vs_simulated']:.2f}x)"
            for r in doc["runs"]
        ),
    )


if __name__ == "__main__":
    main()
