"""Parallel substrate: simulated scheduling plus real execution backends.

Range adaptors (blocked/cyclic/cyclic-neighbor), deterministic static and
work-stealing schedulers, a cost model producing simulated makespans, work
queues for the paper's queue-based algorithms, and atomic-idiom helpers.
See DESIGN.md §2 for why this substitution preserves the paper's
scaling-behaviour claims on single-core hardware.

Since the backend layer landed, the same runtime can also *execute* pure
phases on a real thread pool (``backend='threaded'``) — see
docs/PARALLEL.md.
"""

from .atomics import compare_and_swap, fetch_or, write_max, write_min
from .backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    SimulatedBackend,
    ThreadedBackend,
    default_workers,
    inline_pool,
    make_backend,
)
from .cost import CostModel, PhaseLedger, RunLedger
from .partition import blocked_range, cyclic_neighbor_range, cyclic_range
from .runtime import ParallelRuntime, TaskResult
from .scheduler import StaticScheduler, WorkStealingScheduler, make_scheduler
from .trace import chrome_trace_events, export_chrome_trace
from .workqueue import ThreadLocalQueues, WorkQueue

__all__ = [
    "BACKEND_NAMES",
    "CostModel",
    "ExecutionBackend",
    "ParallelRuntime",
    "PhaseLedger",
    "RunLedger",
    "SimulatedBackend",
    "StaticScheduler",
    "ThreadedBackend",
    "TaskResult",
    "ThreadLocalQueues",
    "WorkQueue",
    "WorkStealingScheduler",
    "blocked_range",
    "chrome_trace_events",
    "compare_and_swap",
    "cyclic_neighbor_range",
    "cyclic_range",
    "default_workers",
    "export_chrome_trace",
    "fetch_or",
    "inline_pool",
    "make_backend",
    "make_scheduler",
    "write_max",
    "write_min",
]
