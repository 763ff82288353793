"""Execution backends: shared-memory transport, pools, runtime routing."""

import os
import pickle

import numpy as np
import pytest

from repro.parallel import (
    BACKEND_NAMES,
    ProcessBackend,
    SharedArray,
    SharedCSR,
    SimulatedBackend,
    ThreadedBackend,
    default_workers,
    inline_pool,
    make_backend,
    open_handles,
    shared_debug_verify,
    shared_stats,
)
from repro.parallel.runtime import ParallelRuntime, TaskResult
from repro.structures.csr import CSR


class SquareKernel:
    """Module-level (picklable) body: chunk of ints -> their squares."""

    def __call__(self, chunk):
        return np.asarray(chunk, dtype=np.int64) ** 2


class GatherKernel:
    """Picklable body closing over a (possibly shared) data array."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = data

    def __call__(self, chunk):
        with open_handles(self.data) as (data,):
            return np.asarray(data)[np.asarray(chunk)].copy()


class CostedKernel:
    """Returns a TaskResult charging twice the chunk size as work."""

    def __call__(self, chunk):
        chunk = np.asarray(chunk, dtype=np.int64)
        return TaskResult(chunk * 10, float(2 * chunk.size))


def small_csr() -> CSR:
    src = np.array([0, 0, 1, 1, 2], dtype=np.int64)
    dst = np.array([1, 2, 0, 2, 1], dtype=np.int64)
    return CSR.from_coo(src, dst, num_sources=3, num_targets=3)


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
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpu")

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
        assert be.in_process
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


# ---- process backend --------------------------------------------------------


class TestProcessBackend:
    def test_runs_picklable_kernels(self):
        chunks = [np.array([i, i + 3], dtype=np.int64) for i in range(4)]
        with ProcessBackend(2) as be:
            outs = be.map(SquareKernel(), chunks)
            assert be.fallback_tasks == 0
        for chunk, out in zip(chunks, outs):
            np.testing.assert_array_equal(out, chunk**2)

    def test_unpicklable_body_falls_back(self):
        seen = []

        def closure_body(chunk):  # closes over a local -> not picklable
            seen.append(1)
            return int(np.asarray(chunk).sum())

        chunks = [np.array([i], dtype=np.int64) for i in range(5)]
        with ProcessBackend(2) as be:
            outs = be.map(closure_body, chunks)
            assert be.fallback_tasks == 5
        assert outs == [0, 1, 2, 3, 4]
        assert len(seen) == 5  # ran in this process, not a worker

    def test_share_exports_and_releases(self):
        before = shared_stats()
        g = small_csr()
        arr = np.arange(7, dtype=np.int64)
        with ProcessBackend(2) as be:
            with be.share(g, arr, 42, None) as (sg, sa, scalar, none):
                assert isinstance(sg, SharedCSR)
                assert isinstance(sa, SharedArray)
                assert scalar == 42 and none is None
                assert shared_stats()["active"] == before["active"] + 3
        after = shared_stats()
        assert after["active"] == before["active"]
        assert after["released"] >= before["released"] + 3

    def test_share_dedups_identical_objects(self):
        # the adjoin representation passes the SAME CSR as both incidence
        # roles; it must map to one set of shm blocks, not two
        g = small_csr()
        with ProcessBackend(2) as be:
            with be.share(g, g) as (a, b):
                assert a is b

    def test_shared_gather_through_pool(self):
        data = np.arange(100, dtype=np.int64) * 3
        chunks = [np.arange(i * 10, (i + 1) * 10) for i in range(10)]
        with ProcessBackend(2) as be:
            with be.share(data) as (handle,):
                outs = be.map(GatherKernel(handle), chunks)
        got = np.concatenate(outs)
        np.testing.assert_array_equal(got, data)


# ---- shared-memory handles --------------------------------------------------


class TestSharedArray:
    def test_roundtrip_and_readonly_view(self):
        arr = np.arange(11, dtype=np.float64)
        handle = SharedArray.create(arr)
        try:
            worker = pickle.loads(pickle.dumps(handle))
            assert len(pickle.dumps(handle)) < 500  # handle, not data
            view = worker.open()
            np.testing.assert_array_equal(view, arr)
            assert not view.flags.writeable
            worker.close()
        finally:
            handle.release()

    def test_zero_size_array(self):
        handle = SharedArray.create(np.empty(0, dtype=np.int64))
        try:
            assert handle.open().size == 0
        finally:
            handle.release()

    def test_double_release_is_legal(self):
        handle = SharedArray.create(np.ones(3))
        handle.release()
        handle.release()

    def test_debug_verify_flags_leaks(self):
        handle = SharedArray.create(np.ones(4))
        with pytest.raises(AssertionError, match="never released"):
            shared_debug_verify()
        handle.release()
        shared_debug_verify()


class TestSharedCSR:
    def test_roundtrip(self):
        g = small_csr()
        handle = SharedCSR.create(g)
        try:
            worker = pickle.loads(pickle.dumps(handle))
            rebuilt = worker.open()
            np.testing.assert_array_equal(rebuilt.indptr, g.indptr)
            np.testing.assert_array_equal(rebuilt.indices, g.indices)
            assert rebuilt.num_targets() == g.num_targets()
            assert rebuilt.has_sorted_rows == g.has_sorted_rows
            worker.close()
        finally:
            handle.release()

    def test_open_handles_passthrough(self):
        g = small_csr()
        arr = np.arange(3)
        with open_handles(g, arr, None) as (a, b, c):
            assert a is g and b is arr and c is None


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
        assert spans["process"] == spans["simulated"]
        np.testing.assert_array_equal(vals["threaded"], vals["simulated"])
        np.testing.assert_array_equal(vals["process"], vals["simulated"])

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

    def test_process_backend_skips_monitor_brackets(self, monkeypatch):
        # worker processes can't observe the parent's CheckedArrays; the
        # phase must still complete and produce correct values
        monkeypatch.setenv("REPRO_CHECK", "1")
        chunks = [np.array([i], dtype=np.int64) for i in range(4)]
        with ParallelRuntime(backend="process", workers=2) as rt:
            assert rt.monitor is not None
            outs = rt.parallel_for(chunks, SquareKernel(), pure=True)
        np.testing.assert_array_equal(outs[3], np.array([9]))
