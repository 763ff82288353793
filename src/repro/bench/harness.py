"""Experiment drivers for the paper's figures (Figs. 7–9) and Table I.

Each driver runs the relevant algorithms over the Table I stand-ins on the
simulated runtime, sweeping the paper's axes (thread counts for strong
scaling; algorithm × partitioning × relabeling for the s-line comparison)
and returning structured results the ``benchmarks/`` files print and the
integration tests assert shape properties on.

Runtime configurations mirror the systems compared (DESIGN.md §2):

* **NWHy** algorithms → work-stealing scheduler, cyclic partitioning
  (oneTBB with the paper's cyclic range adaptor);
* **Hygra** baselines → static scheduler, blocked partitioning (OpenMP
  static loops over contiguous chunks).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.adjoinbfs import adjoinbfs
from repro.algorithms.adjoincc import adjoincc
from repro.algorithms.hyperbfs import hyperbfs_direction_optimizing
from repro.algorithms.hypercc import hypercc
from repro.baselines.hygra import hygra_bfs, hygra_cc
from repro.io import datasets
from repro.linegraph import KERNEL_NAMES, PRESETS, to_two_graph
from repro.parallel.runtime import ParallelRuntime
from repro.structures.adjoin import AdjoinGraph
from repro.structures.biadjacency import BiAdjacency
from repro.structures.relabel import relabel_hyperedges

__all__ = [
    "DEFAULT_THREADS",
    "ScalingPoint",
    "ScalingSeries",
    "Fig9Row",
    "nwhy_runtime",
    "hygra_runtime",
    "strong_scaling_cc",
    "strong_scaling_bfs",
    "fig9_slinegraph",
    "bfs_source",
]

#: The paper's strong-scaling thread grid (doubling, Fig. 7–8).
DEFAULT_THREADS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)


def nwhy_runtime(
    num_threads: int,
    backend: str | None = None,
    workers: int | None = None,
) -> ParallelRuntime:
    """Simulated oneTBB: work stealing + cyclic range adaptor.

    ``backend``/``workers`` select a real execution backend for pure
    phases (see docs/PARALLEL.md); the simulated ledger — and therefore
    every figure — is bit-identical regardless.
    """
    return ParallelRuntime(
        num_threads=num_threads, scheduler="work_stealing",
        partitioner="cyclic", backend=backend, workers=workers,
    )


def hygra_runtime(
    num_threads: int,
    backend: str | None = None,
    workers: int | None = None,
) -> ParallelRuntime:
    """Simulated OpenMP static loops: static scheduler + blocked chunks."""
    return ParallelRuntime(
        num_threads=num_threads, scheduler="static", partitioner="blocked",
        backend=backend, workers=workers,
    )


@dataclass(frozen=True)
class ScalingPoint:
    threads: int
    makespan: float
    speedup: float


@dataclass
class ScalingSeries:
    """One line of a strong-scaling plot (one algorithm on one dataset)."""

    algorithm: str
    dataset: str
    points: list[ScalingPoint] = field(default_factory=list)

    def speedup_at(self, threads: int) -> float:
        for p in self.points:
            if p.threads == threads:
                return p.speedup
        raise KeyError(threads)

    @property
    def max_speedup(self) -> float:
        return max(p.speedup for p in self.points)


def _reps(name: str) -> tuple[BiAdjacency, AdjoinGraph]:
    el = datasets.load(name)
    return BiAdjacency.from_biedgelist(el), AdjoinGraph.from_biedgelist(el)


def bfs_source(h: BiAdjacency) -> int:
    """Deterministic BFS source: the highest-degree hypernode."""
    return int(np.argmax(h.node_degrees()))


_CC_ENGINES = {
    "AdjoinCC": lambda h, ag, rt: adjoincc(ag, "afforest", runtime=rt),
    "HyperCC": lambda h, ag, rt: hypercc(h, runtime=rt),
    "HygraCC": lambda h, ag, rt: hygra_cc(h, runtime=rt),
}

_BFS_ENGINES = {
    "AdjoinBFS": lambda h, ag, src, rt: adjoinbfs(ag, src, runtime=rt),
    "HyperBFS": lambda h, ag, src, rt: hyperbfs_direction_optimizing(
        h, src, runtime=rt
    ),
    "HygraBFS": lambda h, ag, src, rt: hygra_bfs(h, src, runtime=rt),
}


def _runtime_for(
    algorithm: str,
    threads: int,
    backend: str | None = None,
    workers: int | None = None,
) -> ParallelRuntime:
    factory = hygra_runtime if algorithm.startswith("Hygra") else nwhy_runtime
    return factory(threads, backend=backend, workers=workers)


def strong_scaling_cc(
    dataset: str,
    thread_counts: tuple[int, ...] = DEFAULT_THREADS,
    algorithms: tuple[str, ...] = ("AdjoinCC", "HyperCC", "HygraCC"),
    backend: str | None = None,
    workers: int | None = None,
) -> list[ScalingSeries]:
    """Figure 7 driver: CC makespans/speedups over the thread grid."""
    h, ag = _reps(dataset)
    out: list[ScalingSeries] = []
    for alg in algorithms:
        engine = _CC_ENGINES[alg]
        series = ScalingSeries(algorithm=alg, dataset=dataset)
        base: float | None = None
        for t in thread_counts:
            with _runtime_for(alg, t, backend, workers) as rt:
                rt.new_run()
                engine(h, ag, rt)
                span = rt.makespan
            if base is None:
                base = span
            series.points.append(
                ScalingPoint(t, span, base / span if span else float("inf"))
            )
        out.append(series)
    return out


def strong_scaling_bfs(
    dataset: str,
    thread_counts: tuple[int, ...] = DEFAULT_THREADS,
    algorithms: tuple[str, ...] = ("AdjoinBFS", "HyperBFS", "HygraBFS"),
    backend: str | None = None,
    workers: int | None = None,
) -> list[ScalingSeries]:
    """Figure 8 driver: BFS makespans/speedups over the thread grid."""
    h, ag = _reps(dataset)
    src = bfs_source(h)
    out: list[ScalingSeries] = []
    for alg in algorithms:
        engine = _BFS_ENGINES[alg]
        series = ScalingSeries(algorithm=alg, dataset=dataset)
        base: float | None = None
        for t in thread_counts:
            with _runtime_for(alg, t, backend, workers) as rt:
                rt.new_run()
                engine(h, ag, src, rt)
                span = rt.makespan
            if base is None:
                base = span
            series.points.append(
                ScalingPoint(t, span, base / span if span else float("inf"))
            )
        out.append(series)
    return out


def strong_scaling_construction(
    dataset: str,
    s: int = 2,
    thread_counts: tuple[int, ...] = DEFAULT_THREADS,
    algorithms: tuple[str, ...] = (
        "Hashmap", "Alg1 (queue hashmap)", "Alg2 (queue intersect)",
    ),
    backend: str | None = None,
    workers: int | None = None,
) -> list[ScalingSeries]:
    """Construction strong scaling — the companion papers' [17, 18] panel.

    Same thread grid as Figs. 7–8, applied to the s-line construction
    algorithms themselves (cyclic partitioning, work stealing).
    """
    h, _ = _reps(dataset)
    out: list[ScalingSeries] = []
    for alg in algorithms:
        preset = _FIG9_ALGOS[alg]
        series = ScalingSeries(algorithm=alg, dataset=dataset)
        base: float | None = None
        for t in thread_counts:
            with nwhy_runtime(t, backend=backend, workers=workers) as rt:
                rt.new_run()
                to_two_graph(h, s, preset, runtime=rt)
                span = rt.makespan
            if base is None:
                base = span
            series.points.append(
                ScalingPoint(t, span, base / span if span else float("inf"))
            )
        out.append(series)
    return out


@dataclass(frozen=True)
class Fig9Row:
    """One bar of Fig. 9: an algorithm's best config on one (dataset, s)."""

    dataset: str
    s: int
    algorithm: str
    best_makespan: float
    normalized: float  # relative to the Hashmap algorithm's best
    best_config: str  # e.g. 'cyclic/desc'


#: Fig. 9's bars: display name -> :data:`~repro.linegraph.PRESETS` row
_FIG9_ALGOS = {
    "Hashmap": "hashmap",
    "Intersection": "intersection",
    "Alg1 (queue hashmap)": "queue_hashmap",
    "Alg2 (queue intersect)": "queue_intersection",
}


def fig9_slinegraph(
    dataset: str,
    s: int = 2,
    threads: int = 32,
    partitioners: tuple[str, ...] = ("blocked", "cyclic"),
    relabels: tuple[str, ...] = ("none", "ascending", "descending"),
    backend: str | None = None,
    workers: int | None = None,
    kernel: str | None = None,
) -> list[Fig9Row]:
    """Figure 9 driver: best-config s-line construction, Hashmap-normalized.

    Per the paper: every algorithm is run under every partitioning strategy
    and relabel-by-degree order, and only the fastest configuration is
    reported; results are normalized to Hashmap's best time.

    ``kernel`` forces one counting kernel (``auto`` is the dispatcher)
    on every builder that accepts it; queue-intersection keeps its
    definitional two-phase kernel when the forced one doesn't apply.
    """
    h, _ = _reps(dataset)
    variants: dict[str, BiAdjacency] = {"none": h}
    for order in ("ascending", "descending"):
        if order in relabels:
            variants[order], _perm = relabel_hyperedges(h, order)
    rows: list[tuple[str, float, str]] = []
    for alg_name, preset in _FIG9_ALGOS.items():
        # a preset a known kernel does not apply to keeps its own
        # (queue_intersection: its pair queue *is* the strategy)
        own = kernel in KERNEL_NAMES and kernel not in PRESETS[preset].kernels
        best = float("inf")
        best_cfg = ""
        for part in partitioners:
            for rel in relabels:
                with ParallelRuntime(
                    num_threads=threads,
                    scheduler="work_stealing",
                    partitioner=part,
                    backend=backend,
                    workers=workers,
                ) as rt:
                    rt.new_run()
                    to_two_graph(
                        variants[rel], s, preset, runtime=rt,
                        kernel=None if own else kernel,
                    )
                    if rt.makespan < best:
                        best = rt.makespan
                        best_cfg = f"{part}/{rel}"
        rows.append((alg_name, best, best_cfg))
    hash_best = next(b for name, b, _ in rows if name == "Hashmap")
    return [
        Fig9Row(dataset, s, name, best, best / hash_best, cfg)
        for name, best, cfg in rows
    ]
