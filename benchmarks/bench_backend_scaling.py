"""Real-backend scaling: the threaded pool vs the simulated loop.

Times the hashmap s-line builder (the hot construction kernel) on the
simulated backend, on the threaded backend over a worker grid, and as
the ``inline`` build — no runtime, the default path: volume-bounded
chunks on the shared thread pool — asserts every output is bit-identical
and every runtime build charges the same simulated makespan, and writes
``BENCH_backend_scaling.json`` at the repo root — the artifact CI's
backend-smoke job uploads.

No speedup is asserted: real scaling needs real cores, and the result
JSON records the CPUs the process may use (``default_workers()``, which
counts the affinity mask) so a reader can interpret the numbers.

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
    for workers in WORKER_GRID:
        ms, el, span = _time_build(h, "threaded", workers)
        identical = el == base_el
        assert identical, ("threaded", workers)
        assert span == base_span, ("threaded", workers)  # same ledger
        runs.append({
            "backend": "threaded",
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
    return {
        "generated_by": "benchmarks/bench_backend_scaling.py",
        "dataset": dataset,
        "s": S,
        "host_cpus": cpus,
        "baseline_ms": round(base_ms, 3),
        "simulated_makespan": base_span,
        "runs": runs,
    }


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
    print(f"  host cpus: {doc['host_cpus']}")


def test_backend_scaling(record):
    doc = run()
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    assert all(r["identical"] for r in doc["runs"])
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
