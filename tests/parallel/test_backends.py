"""Execution backends: pools, execution order, runtime routing."""

import os

import numpy as np
import pytest

from repro.parallel import (
    BACKEND_NAMES,
    SimulatedBackend,
    ThreadedBackend,
    default_workers,
    inline_pool,
    make_backend,
)
from repro.parallel.runtime import ParallelRuntime, TaskResult


class SquareKernel:
    """Module-level body: chunk of ints -> their squares."""

    def __call__(self, chunk):
        return np.asarray(chunk, dtype=np.int64) ** 2


class CostedKernel:
    """Returns a TaskResult charging twice the chunk size as work."""

    def __call__(self, chunk):
        chunk = np.asarray(chunk, dtype=np.int64)
        return TaskResult(chunk * 10, float(2 * chunk.size))


class RecordingMonitor:
    """Stand-in race detector recording task bracket calls."""

    def __init__(self):
        self.begun: list[int] = []
        self.ended = 0

    def begin_task(self, task_id):
        self.begun.append(int(task_id))

    def end_task(self):
        self.ended += 1


# ---- factory ----------------------------------------------------------------


class TestMakeBackend:
    def test_names(self):
        assert BACKEND_NAMES == ("simulated", "threaded")
        for name in BACKEND_NAMES:
            assert make_backend(name).name == name

    def test_none_is_simulated(self):
        assert make_backend(None).name == "simulated"

    def test_instance_passthrough(self):
        be = ThreadedBackend(2)
        assert make_backend(be) is be
        be.close()

    def test_workers_conflict_rejected(self):
        be = ThreadedBackend(2)
        with pytest.raises(ValueError, match="workers"):
            make_backend(be, workers=4)
        be.close()

    def test_unknown_name(self):
        for name in ("gpu", "process"):
            with pytest.raises(
                ValueError, match=r"\['simulated', 'threaded'\]"
            ):
                make_backend(name)

    def test_default_workers_bounded(self):
        assert 1 <= default_workers() <= 32
        assert default_workers(bound=2) <= 2

    def test_default_workers_counts_affinity(self, monkeypatch):
        # a process pinned to two of 64 CPUs sizes its pools to two
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 3}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert default_workers() == 2
        assert default_workers(bound=1) == 1

    def test_default_workers_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert default_workers() == 3
        assert default_workers(bound=2) == 2
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_workers() == 1

    def test_inline_pool_is_shared(self):
        pool = inline_pool()
        assert pool is inline_pool()
        assert pool.name == "threaded"
        assert pool.workers == default_workers()


# ---- execution order and monitor brackets -----------------------------------


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_submission_order(name):
    chunks = [np.array([i, i + 1], dtype=np.int64) for i in range(9)]
    with make_backend(name, workers=2) as be:
        outs = be.map(SquareKernel(), chunks)
    for chunk, out in zip(chunks, outs):
        np.testing.assert_array_equal(out, chunk**2)


@pytest.mark.parametrize("name", ["simulated", "threaded"])
def test_in_process_monitor_brackets(name):
    mon = RecordingMonitor()
    chunks = [np.array([i], dtype=np.int64) for i in range(6)]
    with make_backend(name, workers=2) as be:
        be.map(SquareKernel(), chunks, monitor=mon)
    assert sorted(mon.begun) == list(range(6))
    assert mon.ended == 6


def test_empty_chunks():
    for name in BACKEND_NAMES:
        with make_backend(name, workers=2) as be:
            assert be.map(SquareKernel(), []) == []


def test_threaded_close_idempotent():
    be = ThreadedBackend(2)
    be.map(SquareKernel(), [np.arange(3)])
    be.close()
    be.close()
    # the pool is lazily recreated after close
    out = be.map(SquareKernel(), [np.arange(3), np.arange(3)])
    assert len(out) == 2
    be.close()


# ---- runtime routing --------------------------------------------------------


class TestRuntimeBackendRouting:
    def ledger_for(self, backend):
        with ParallelRuntime(
            num_threads=4, partitioner="cyclic", backend=backend, workers=2
        ) as rt:
            chunks = rt.partition(np.arange(64, dtype=np.int64))
            values = rt.parallel_for(chunks, CostedKernel(), pure=True)
            got = np.concatenate([np.sort(v) for v in values])
            return rt.makespan, np.sort(got)

    def test_ledger_and_values_identical_across_backends(self):
        spans = {}
        vals = {}
        for name in BACKEND_NAMES:
            spans[name], vals[name] = self.ledger_for(name)
        assert spans["threaded"] == spans["simulated"]
        np.testing.assert_array_equal(vals["threaded"], vals["simulated"])

    def test_impure_phases_stay_serial(self):
        hits = []

        def impure(chunk):
            hits.append(len(chunk))
            return len(chunk)

        with ParallelRuntime(backend="threaded", workers=2) as rt:
            rt.parallel_for([np.arange(2)] * 4, impure)  # pure not declared
            assert rt.backend._pool is None  # never spun up

    def test_env_variable_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "threaded")
        with ParallelRuntime() as rt:
            assert rt.backend.name == "threaded"

    def test_caller_owned_backend_survives_close(self):
        be = ThreadedBackend(2)
        with ParallelRuntime(backend=be) as rt:
            rt.parallel_for(
                [np.arange(3)] * 3, SquareKernel(), pure=True
            )
        assert be._pool is not None  # runtime.close() left it running
        be.close()

    def test_metrics_record_backend(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        with ParallelRuntime(
            backend="threaded", workers=2, metrics=registry
        ) as rt:
            rt.parallel_for([np.arange(2)] * 4, SquareKernel(), pure=True)
        counter = registry.counter("runtime.backend.tasks", backend="threaded")
        assert counter.value == 4

    def test_race_detector_attaches_under_threaded_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        with ParallelRuntime(
            num_threads=2, backend="threaded", workers=2
        ) as rt:
            det = rt.monitor
            assert det is not None
            out = det.wrap(np.zeros(4, dtype=np.int64), "out")

            def racy(chunk):
                out[0] = int(np.asarray(chunk)[0])
                return None

            rt.parallel_for(
                rt.partition(np.arange(8)), racy, phase="racy", pure=True
            )
            assert any(f.rule == "D001" for f in det.findings)
