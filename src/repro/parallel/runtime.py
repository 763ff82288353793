"""The simulated parallel runtime — this reproduction's "oneTBB".

A :class:`ParallelRuntime` executes ``parallel_for`` phases over chunked
ranges.  Chunk bodies run as ordinary Python (so results are exact and the
kernels inside stay vectorized); what is *simulated* is the placement of
chunks onto ``num_threads`` threads and the resulting per-thread busy
times, from which makespan/speedup derive (see :mod:`repro.parallel.cost`
for why this substitution preserves the paper's scaling claims).

Determinism contract: given the same ``(num_threads, partitioner,
scheduler, cost model)`` the simulated timings are identical run to run,
and the *computed values* are identical for **any** execution order — the
algorithms built on top use idempotent min/CAS combining
(:mod:`repro.parallel.atomics`).  ``execution_order='shuffled'`` lets tests
verify that second property by actually permuting body execution.

Since the backend layer (:mod:`repro.parallel.backends`) landed, the
runtime also routes *pure* phases through a real thread pool when
constructed with ``backend='threaded'``.
The ledger is still computed from the same per-chunk costs, so the
simulated makespan — the paper-scaling instrument — is bit-identical
across backends; only wall-clock time changes.  Bodies opt in with
``parallel_for(..., pure=True)``: a pure body reads shared inputs and
returns fresh values.  Impure phases (frontier algorithms mutating
shared arrays through :mod:`repro.parallel.atomics`) always run on the
simulated serial loop regardless of the configured backend, which is
what makes backend choice invisible to results.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Sequence

import numpy as np

from .backends import ExecutionBackend, make_backend
from .cost import CostModel, RunLedger
from .partition import blocked_range, cyclic_range
from .scheduler import make_scheduler

__all__ = ["ParallelRuntime", "TaskResult"]


class TaskResult:
    """Explicit ``(value, work)`` pair a chunk body may return.

    When a body returns a bare value, the runtime charges the chunk's
    element count as its work — the right default for per-element kernels.
    Returning ``TaskResult(value, work)`` lets irregular kernels (frontier
    expansion, hash counting) charge the incidences they actually touched.
    """

    __slots__ = ("value", "work")

    def __init__(self, value: Any, work: float) -> None:
        self.value = value
        self.work = float(work)


class ParallelRuntime:
    """Simulated work-stealing runtime with pluggable partitioning.

    Parameters
    ----------
    num_threads:
        Simulated thread count (the x-axis of Figs. 7–8).
    scheduler:
        ``'work_stealing'`` (default, models tbb::auto_partitioner +
        stealing) or ``'static'``.
    partitioner:
        Default range adaptor for :meth:`partition`: ``'blocked'`` or
        ``'cyclic'``.
    grain:
        Chunks per thread produced by :meth:`partition` (finer grain =
        better stealing, more per-task overhead — a real TBB trade-off the
        cost model reproduces).
    cost_model:
        See :class:`repro.parallel.cost.CostModel`.
    execution_order:
        ``'submission'`` (default) or ``'shuffled'`` — run chunk bodies in
        a seeded random order to exercise schedule-independence.
    seed:
        RNG seed for ``'shuffled'`` execution.
    trace:
        Record per-task (thread, start, end) schedule events, exportable
        with :func:`repro.parallel.trace.export_chrome_trace`.
    tracer:
        Optional :class:`repro.obs.Tracer`.  Every phase then also emits
        a **wall-clock** span named after the phase, annotated with the
        simulated makespan, task/steal counts, and total work — so one
        merged Perfetto timeline (see
        :func:`repro.obs.profile.merged_chrome_trace`) shows Python-level
        time next to the simulated schedule.  Defaults to the no-op
        tracer (near-zero overhead).
    backend:
        Execution backend for pure phases: ``'simulated'`` (default),
        ``'threaded'``, or an
        :class:`~repro.parallel.backends.ExecutionBackend` instance
        (shared pools can be reused across runtimes — the owner closes
        them).  The ``REPRO_BACKEND`` environment variable overrides the
        default when no explicit backend is passed.
    workers:
        Real pool size for ``'threaded'`` (defaults to
        :func:`~repro.parallel.backends.default_workers`, the CPUs the
        process may use; independent of the *simulated*
        ``num_threads``, which stays the cost-model x-axis).
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`; pure phases then
        bump ``runtime.backend.tasks`` / ``runtime.backend.real_ms``
        counters labelled by backend.
    """

    def __init__(
        self,
        num_threads: int = 1,
        scheduler: str = "work_stealing",
        partitioner: str = "blocked",
        grain: int = 4,
        cost_model: CostModel | None = None,
        execution_order: str = "submission",
        seed: int = 0,
        trace: bool = False,
        tracer=None,
        backend: "str | ExecutionBackend | None" = None,
        workers: int | None = None,
        metrics=None,
    ) -> None:
        if num_threads <= 0:
            raise ValueError("num_threads must be positive")
        if partitioner not in ("blocked", "cyclic"):
            raise ValueError("partitioner must be 'blocked' or 'cyclic'")
        if execution_order not in ("submission", "shuffled"):
            raise ValueError(
                "execution_order must be 'submission' or 'shuffled'"
            )
        if grain <= 0:
            raise ValueError("grain must be positive")
        self.num_threads = int(num_threads)
        self.scheduler = make_scheduler(scheduler)
        self.partitioner = partitioner
        self.grain = int(grain)
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.execution_order = execution_order
        self.trace = bool(trace)
        from repro.obs.tracer import as_tracer

        self.tracer = as_tracer(tracer)
        if backend is None:
            backend = os.environ.get("REPRO_BACKEND") or "simulated"
        self._owns_backend = not isinstance(backend, ExecutionBackend)
        self.backend = make_backend(backend, workers)
        self.metrics = metrics
        self._rng = np.random.default_rng(seed)
        self.ledger = RunLedger(num_threads=self.num_threads)
        # dynamic race checking (repro.check.races): off by default — the
        # per-chunk cost of a disabled monitor is a single `is None` test
        self.monitor = None
        if os.environ.get("REPRO_CHECK"):
            self.checked()

    def checked(self, monitor=None) -> "ParallelRuntime":
        """Attach a race detector (``repro check``'s dynamic pass).

        Subsequent phases record per-task access sets of every
        :class:`~repro.check.races.CheckedArray` touched inside bodies
        and flag cross-task overlaps.  Returns ``self`` for chaining:
        ``runtime = ParallelRuntime(4).checked()``.
        """
        if monitor is None:
            from repro.check.races import RaceDetector

            monitor = RaceDetector()
        self.monitor = monitor
        install = getattr(monitor, "install_queue_hook", None)
        if install is not None:
            install()
        return self

    # -- bookkeeping -------------------------------------------------------------
    def new_run(self) -> RunLedger:
        """Start a fresh ledger (one algorithm invocation = one run)."""
        self.ledger = RunLedger(num_threads=self.num_threads)
        return self.ledger

    @property
    def makespan(self) -> float:
        return self.ledger.makespan

    # -- partitioning -----------------------------------------------------------------
    def partition(
        self, ids: int | Sequence[int] | np.ndarray
    ) -> list[np.ndarray]:
        """Chunk an ID range with the runtime's default adaptor and grain."""
        n_chunks = self.num_threads * self.grain
        if self.partitioner == "cyclic":
            return cyclic_range(ids, n_chunks)
        return blocked_range(ids, n_chunks)

    # -- execution -----------------------------------------------------------------------
    def parallel_for(
        self,
        chunks: Sequence[Any],
        body: Callable[[Any], Any],
        phase: str = "parallel_for",
        pure: bool = False,
    ) -> list[Any]:
        """Run ``body`` over every chunk; simulate the schedule; return values.

        Values are returned in **submission order** regardless of execution
        order, so callers can zip them with their chunks.

        ``pure=True`` declares that ``body`` only reads shared state and
        returns fresh values, making it safe to run on a real thread
        pool; only then does a ``'threaded'`` backend actually execute
        chunks concurrently.  Impure bodies
        (anything mutating shared arrays) always use the serial loop.
        """
        mon = self.monitor
        use_backend = (
            pure and self.backend.concurrent and len(chunks) > 1
        )
        with self.tracer.span("runtime." + phase) as span:
            if mon is not None:
                mon.begin_phase(phase)
            values: list[Any] = [None] * len(chunks)
            costs = np.zeros(len(chunks), dtype=np.float64)
            started = time.perf_counter()
            if use_backend:
                # per-task monitor brackets run on the worker threads via
                # the backend's wrapper
                outs = self.backend.map(body, chunks, monitor=mon)
            else:
                order = np.arange(len(chunks))
                if self.execution_order == "shuffled" and len(chunks) > 1:
                    order = self._rng.permutation(len(chunks))
                outs = [None] * len(chunks)
                for i in order:
                    if mon is not None:
                        mon.begin_task(int(i))
                    outs[i] = body(chunks[i])
                    if mon is not None:
                        mon.end_task()
            real_ms = (time.perf_counter() - started) * 1e3
            for i, out in enumerate(outs):
                if isinstance(out, TaskResult):
                    values[i] = out.value
                    costs[i] = out.work
                else:
                    values[i] = out
                    costs[i] = _default_work(chunks[i])
            if mon is not None:
                mon.end_phase(phase)
            ledger = self.scheduler.schedule(
                costs,
                self.num_threads,
                self.cost_model,
                phase_name=phase,
                record_events=self.trace,
            )
            self.ledger.add(ledger)
            span.set(
                simulated_makespan=ledger.makespan,
                simulated_work=ledger.total_work,
                tasks=ledger.num_tasks,
                steals=ledger.num_steals,
                threads=self.num_threads,
                backend=self.backend.name if use_backend else "simulated",
                real_ms=real_ms,
            )
            if self.metrics is not None:
                which = self.backend.name if use_backend else "simulated"
                self.metrics.counter(
                    "runtime.backend.tasks", backend=which
                ).inc(len(chunks))
                self.metrics.counter(
                    "runtime.backend.real_ms", backend=which
                ).inc(real_ms)
        return values

    def parallel_reduce(
        self,
        chunks: Sequence[Any],
        body: Callable[[Any], Any],
        combine: Callable[[Any, Any], Any],
        initial: Any,
        phase: str = "parallel_reduce",
    ) -> Any:
        """``parallel_for`` + deterministic left fold of the chunk values."""
        acc = initial
        for value in self.parallel_for(chunks, body, phase=phase):
            acc = combine(acc, value)
        return acc

    def close(self) -> None:
        """Shut down the backend's pools, if this runtime created them.

        A backend *instance* passed in by the caller (e.g. a pool shared
        across runtimes by the service engine) is left running — its
        owner closes it.
        """
        if self._owns_backend:
            self.backend.close()

    def __enter__(self) -> "ParallelRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def serial_phase(self, work: float, phase: str = "serial") -> None:
        """Charge purely serial work (queue merge, prefix sums) to the run."""
        with self.tracer.span("runtime." + phase) as span:
            ledger = self.scheduler.schedule(
                [], self.num_threads, self.cost_model, phase_name=phase
            )
            ledger.serial_time += float(work)
            self.ledger.add(ledger)
            span.set(simulated_makespan=ledger.makespan, serial=True)


def _default_work(chunk: Any) -> float:
    """Element count of a chunk (ID array or (ids, neighborhoods) tuple)."""
    if isinstance(chunk, tuple):
        chunk = chunk[0]
    if isinstance(chunk, np.ndarray):
        return float(chunk.shape[0])
    try:
        return float(len(chunk))
    except TypeError:
        return 1.0
