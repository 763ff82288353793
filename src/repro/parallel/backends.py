"""Execution backends — where ``parallel_for`` bodies actually run.

The :class:`~repro.parallel.runtime.ParallelRuntime` models *scheduling*
(chunk placement, makespans, Figs. 7–8); a backend decides *execution*:

* :class:`SimulatedBackend` — chunk bodies run serially in the calling
  thread, exactly the pre-backend behavior.  Still the default: results
  are deterministic under any schedule, and the cost-model ledger is the
  paper-scaling instrument.
* :class:`ThreadedBackend` — a persistent ``ThreadPoolExecutor``.  The
  hot kernels are NumPy-vectorized and release the GIL, so pure bodies
  overlap on real cores (the ``threaded`` s-line preset pins it).

Every backend returns results in **submission order**, so the runtime's
determinism contract (bit-identical values across backends and
schedules) holds by construction; only wall-clock time differs.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Sequence

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SimulatedBackend",
    "ThreadedBackend",
    "default_workers",
    "inline_pool",
    "make_backend",
]

def _registry() -> dict:
    """Name → backend class; the single source of backend-name truth.

    Resolved lazily (the classes are defined below); consumers that need
    the valid names — ``make_backend``, the wire protocol's batch
    envelope validation — read :data:`BACKEND_NAMES` or call
    ``make_backend`` instead of hard-coding the tuple.
    """
    return {
        "simulated": SimulatedBackend,
        "threaded": ThreadedBackend,
    }


def default_workers(bound: int = 32) -> int:
    """The CPUs this process may run on, bounded — the pool size real
    backends default to.

    Counts the affinity mask (``os.sched_getaffinity``), so a process
    pinned by ``taskset`` or a cpuset does not oversubscribe; where the
    platform has no affinity call, ``os.cpu_count()``.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    cpus = len(getaffinity(0)) if getaffinity else os.cpu_count()
    return max(1, min(int(bound), cpus or 1))


class ExecutionBackend:
    """Common surface of the backends.

    ``concurrent`` tells the runtime whether routing through
    :meth:`map` buys real overlap (False routes bodies through the
    runtime's own serial loop, which also supports shuffled execution
    and per-task monitor hooks).
    """

    name = "abstract"
    concurrent = False

    def __init__(self, workers: int | None = None) -> None:
        self.workers = (
            default_workers() if workers is None else max(1, int(workers))
        )

    def map(
        self,
        body: Callable[[Any], Any],
        chunks: Sequence[Any],
        monitor=None,
    ) -> list[Any]:
        """Run ``body`` over chunks; results in submission order."""
        raise NotImplementedError

    def close(self) -> None:
        """Shut down any pools (idempotent; pools are lazily recreated)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(workers={self.workers})"


def _monitored(body, monitor):
    """Bracket each task with the race detector's begin/end hooks.

    The detector keys the current task in a ``threading.local``, so the
    bracketing must happen *on the worker thread* running the body —
    this wrapper travels with the task.
    """
    if monitor is None:
        return lambda item: body(item[1])

    def run(item):
        index, chunk = item
        monitor.begin_task(int(index))
        try:
            return body(chunk)
        finally:
            monitor.end_task()

    return run


class SimulatedBackend(ExecutionBackend):
    """Marker backend: the runtime keeps its own serial execution loop."""

    name = "simulated"
    concurrent = False

    def __init__(self, workers: int | None = None) -> None:
        super().__init__(workers=1 if workers is None else workers)

    def map(self, body, chunks, monitor=None):
        run = _monitored(body, monitor)
        return [run((i, chunk)) for i, chunk in enumerate(chunks)]


class ThreadedBackend(ExecutionBackend):
    """Persistent thread pool for pure, GIL-releasing bodies."""

    name = "threaded"
    concurrent = True

    def __init__(self, workers: int | None = None) -> None:
        super().__init__(workers)
        self._pool = None

    def _executor(self):
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-backend",
            )
        return self._pool

    def map(self, body, chunks, monitor=None):
        if not chunks:
            return []
        run = _monitored(body, monitor)
        items = list(enumerate(chunks))
        if len(items) == 1 or self.workers == 1:
            return [run(item) for item in items]
        from concurrent.futures import wait

        futures = [self._executor().submit(run, item) for item in items]
        wait(futures)  # all settle before any result/exception surfaces
        return [f.result() for f in futures]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


_INLINE_POOL: ThreadedBackend | None = None
_INLINE_LOCK = threading.Lock()


def inline_pool() -> ThreadedBackend:
    """The process-wide thread pool of the inline s-line build.

    Created on first use with :func:`default_workers` threads and shared
    by every caller; a forked child starts without one (the parent's
    worker threads do not survive the fork) and makes its own.
    """
    global _INLINE_POOL
    with _INLINE_LOCK:
        if _INLINE_POOL is None:
            _INLINE_POOL = ThreadedBackend(default_workers())
        return _INLINE_POOL


def _forget_inline_pool() -> None:
    global _INLINE_POOL, _INLINE_LOCK
    _INLINE_POOL = None
    _INLINE_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_inline_pool)


def make_backend(
    spec: "str | ExecutionBackend | None", workers: int | None = None
) -> ExecutionBackend:
    """Resolve a backend spec: a name, an instance, or ``None``.

    ``None`` means the default (simulated).  Passing an instance returns
    it unchanged (``workers`` must then be ``None`` — the instance owns
    its pool size).
    """
    if spec is None:
        spec = "simulated"
    if isinstance(spec, ExecutionBackend):
        if workers is not None and workers != spec.workers:
            raise ValueError(
                "workers cannot override an already-constructed backend"
            )
        return spec
    cls = _registry().get(spec)
    if cls is None:
        raise ValueError(
            f"unknown backend {spec!r}; choose from {list(BACKEND_NAMES)}"
        )
    return cls(workers)


#: the backend specs `make_backend` accepts (derived from the registry)
BACKEND_NAMES = tuple(_registry())
