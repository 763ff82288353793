"""Race detector: flags seeded racy kernels, silent on stock builders."""

import numpy as np
import pytest

from repro.check import CheckedArray, RaceDetector
from repro.obs import MetricsRegistry
from repro.parallel.runtime import ParallelRuntime
from repro.structures.biadjacency import BiAdjacency

from ..conftest import PAPER_MEMBERS, make_biedgelist


def paper_biadjacency() -> BiAdjacency:
    return BiAdjacency.from_biedgelist(
        make_biedgelist(PAPER_MEMBERS, num_nodes=9)
    )


@pytest.fixture
def checked_runtime():
    return ParallelRuntime(num_threads=4, grain=2).checked()


def ids(n):
    return np.arange(n, dtype=np.int64)


class TestSeededRacyKernels:
    def test_write_write_overlap_is_flagged(self, checked_runtime):
        det = checked_runtime.monitor
        out = det.wrap(np.zeros(16, dtype=np.int64), "out")

        def racy(chunk):
            # every task read-modify-writes slot 0: a classic reduction race
            out[0] = out[0] + int(chunk.sum())
            return None

        checked_runtime.parallel_for(
            checked_runtime.partition(ids(16)), racy, phase="racy_sum"
        )
        assert any(f.rule == "D001" for f in det.findings)
        (f,) = [f for f in det.findings if f.rule == "D001"][:1]
        assert f.extra["array"] == "out" and f.extra["index"] == 0
        assert len(f.extra["tasks"]) >= 2

    def test_read_write_overlap_is_flagged(self, checked_runtime):
        det = checked_runtime.monitor
        arr = det.wrap(np.zeros(16, dtype=np.int64), "arr")

        def racy(chunk):
            # everyone reads slot 0; the task owning slot 0 writes it
            base = arr[0]
            for i in chunk.tolist():
                arr[i] = base + 1
            return None

        checked_runtime.parallel_for(
            checked_runtime.partition(ids(16)), racy, phase="racy_rw"
        )
        assert any(f.rule == "D002" for f in det.findings)

    def test_disjoint_writes_are_clean(self, checked_runtime):
        det = checked_runtime.monitor
        out = det.wrap(np.zeros(16, dtype=np.int64), "out")

        def owner_computes(chunk):
            for i in chunk.tolist():
                out[i] = i * i
            return None

        checked_runtime.parallel_for(
            checked_runtime.partition(ids(16)), owner_computes, phase="ok"
        )
        assert det.findings == []

    def test_atomic_updates_are_exempt(self, checked_runtime):
        det = checked_runtime.monitor
        out = det.wrap(np.zeros(4, dtype=np.int64), "out")

        def atomic_sum(chunk):
            out.atomic_add(0, int(chunk.sum()))
            out.atomic_max(1, int(chunk.max()))
            out.atomic_cas(2, 0, 1)
            return None

        checked_runtime.parallel_for(
            checked_runtime.partition(ids(16)), atomic_sum, phase="atomics"
        )
        assert det.findings == []
        assert out.array[0] == ids(16).sum()

    def test_slice_and_fancy_index_normalization(self, checked_runtime):
        det = checked_runtime.monitor
        out = det.wrap(np.zeros(8, dtype=np.int64), "out")

        def racy(chunk):
            out[0:2] = 1  # slice overlapping across all tasks
            return None

        checked_runtime.parallel_for(
            checked_runtime.partition(ids(8)), racy, phase="slices"
        )
        assert any(f.rule == "D001" for f in det.findings)


class TestStockBuildersStaySilent:
    @pytest.mark.parametrize(
        "name",
        ["hashmap", "intersection", "queue_hashmap", "queue_intersection",
         "ensemble"],
    )
    def test_builder_is_race_free(self, name):
        from repro.linegraph import to_two_graph

        runtime = ParallelRuntime(num_threads=4, grain=2).checked()
        h = paper_biadjacency()
        if name == "ensemble":
            from repro.linegraph import slinegraph_ensemble

            slinegraph_ensemble(h, [1, 2], runtime=runtime)
        else:
            to_two_graph(h, 2, algorithm=name, runtime=runtime)
        assert runtime.monitor.findings == []

    def test_queue_builders_report_pushes(self):
        from repro.linegraph import to_two_graph

        runtime = ParallelRuntime(num_threads=4, grain=2).checked()
        to_two_graph(
            paper_biadjacency(), 1, algorithm="queue_intersection",
            runtime=runtime,
        )
        assert runtime.monitor.queue_pushes > 0


class TestActivation:
    def test_off_by_default(self):
        assert ParallelRuntime().monitor is None

    def test_env_variable_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        assert ParallelRuntime().monitor is not None

    def test_checked_returns_self_for_chaining(self):
        rt = ParallelRuntime(2)
        assert rt.checked() is rt
        assert isinstance(rt.monitor, RaceDetector)

    def test_accesses_outside_tasks_are_ignored(self):
        det = RaceDetector()
        arr = det.wrap(np.zeros(4), "setup")
        arr[0] = 1  # no open task: setup write
        assert det.accesses == 0

    def test_sampling_skips_accesses(self):
        rt = ParallelRuntime(2).checked(RaceDetector(sample_every=1000))
        det = rt.monitor
        arr = det.wrap(np.zeros(8), "arr")

        def body(chunk):
            arr[0] = 1
            return None

        rt.parallel_for(rt.partition(ids(8)), body, phase="sampled")
        assert det.accesses < 8


class TestEmission:
    def test_emit_reports_through_metrics(self, checked_runtime):
        det = checked_runtime.monitor
        out = det.wrap(np.zeros(4, dtype=np.int64), "out")

        def racy(chunk):
            out[0] = int(chunk[0])
            return None

        checked_runtime.parallel_for(
            checked_runtime.partition(ids(8)), racy, phase="emit"
        )
        registry = MetricsRegistry()
        findings = det.emit(metrics=registry)
        assert findings
        assert registry.counter("check.races.findings").value == len(findings)
        assert registry.counter("check.races.phases").value >= 1

    def test_checked_array_is_transparent(self):
        det = RaceDetector()
        arr = det.wrap(np.arange(5, dtype=np.int64), "a")
        assert len(arr) == 5
        assert arr.shape == (5,)
        assert arr.dtype == np.int64
        assert arr[2] == 2
        assert "CheckedArray" in repr(arr)
