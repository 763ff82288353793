"""``repro.bench.load`` — traffic-shaped load generation and SLO gates.

The micro-benchmarks in :mod:`repro.bench` time algorithms in a tight
loop; this package benchmarks the *service* the way its users hit it:
multi-tenant request mixes with Zipf key popularity driven over real
sockets against :class:`~repro.service.aserver.AsyncAnalyticsServer`,
measured without the coordinated-omission lie, and judged by declarative
SLO gates.

* :mod:`~repro.bench.load.workload` — :class:`TenantSpec` /
  :class:`WorkloadSpec` traffic models, seeded generators, and
  replayable JSON-lines trace files (``repro generate trace``);
* :mod:`~repro.bench.load.runner` — open-loop (intended-start
  timestamps — stalls count against the server) and closed-loop
  (send-wait-send) socket runners producing :class:`OpResult` rows
  plus before/after server metric snapshots;
* :mod:`~repro.bench.load.report` — :class:`LoadReport` panels
  (p50/p99/p999 per tenant and per op, throughput, shed counts, cache
  and backend deltas) and :class:`SLOGate` pass/fail evaluation.

``benchmarks/bench_service_load.py`` is the batteries-included driver
(writes ``BENCH_service_load.json``); docs/LOAD.md is the manual.
"""

from .report import GateResult, LoadReport, SLOGate
from .runner import (
    OpResult,
    RunResult,
    run_closed_loop,
    run_open_loop,
    run_workload,
)
from .workload import (
    DEFAULT_MIX,
    HEAVY_OPS,
    MUTATION_OPS,
    OP_KINDS,
    POINT_OPS,
    TenantSpec,
    TraceOp,
    WorkloadGenerator,
    WorkloadSpec,
    ZipfKeys,
    read_trace,
    write_trace,
)

__all__ = [
    "DEFAULT_MIX",
    "GateResult",
    "HEAVY_OPS",
    "LoadReport",
    "MUTATION_OPS",
    "OP_KINDS",
    "OpResult",
    "POINT_OPS",
    "RunResult",
    "SLOGate",
    "TenantSpec",
    "TraceOp",
    "WorkloadGenerator",
    "WorkloadSpec",
    "ZipfKeys",
    "read_trace",
    "run_closed_loop",
    "run_open_loop",
    "run_workload",
    "write_trace",
]
