"""Helpers shared by the benchmark's driver, children and tests.

Nothing here imports the program under test, so the driver can pin the
numeric thread pools before numpy loads and can fail fast when the
checkout holds no program.
"""

from __future__ import annotations

import ctypes
import gc
import json
import math
import os
import signal
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout root: the benchmark lives one directory below it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores, WAL copies and trace files (git-ignored).
WORK = ROOT / ".perfbench_work"

#: Thread-pool variables pinned to one thread in every process the
#: benchmark starts, so numpy/BLAS never oversubscribe the two cores.
PINNED_POOLS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: One malloc arena per process: with one arena per executor thread, the
#: server's peak RSS followed which thread served each update.
PINNED_ENV = {"MALLOC_ARENA_MAX": "1"}
#: Program settings that would change what is measured if inherited.
CLEARED = ("REPRO_BACKEND", "REPRO_WORKERS", "REPRO_CHECK")


def child_env() -> dict[str, str]:
    """Environment for this process and every process it starts."""
    env = dict(os.environ)
    for name in PINNED_POOLS:
        env[name] = "1"
    env.update(PINNED_ENV)
    for name in CLEARED:
        env.pop(name, None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def pin_environment() -> None:
    """Apply :func:`child_env` to this process (call before numpy loads).

    Also catches SIGINT again: a shell that starts the benchmark in the
    background ignores SIGINT in it, every child inherits that, and the
    server is stopped with SIGINT.
    """
    signal.signal(signal.SIGINT, signal.default_int_handler)
    os.environ.clear()
    os.environ.update(child_env())
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def require_program() -> None:
    """Exit non-zero, printing no result, when the checkout has no program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        raise SystemExit(2)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    status = Path(f"/proc/{pid}/status").read_text()
    return int(status.split("VmHWM:")[1].split()[0]) / 1024.0


def reset_peak_rss() -> None:
    """Release freed heap to the OS, then restart this process's VmHWM
    from its current resident set.

    Without the release, the heap the set-ups and earlier passes left
    behind stayed resident in some runs and not in others, and moved a
    skewed pass's peak between about 770 and 850 MB.
    """
    gc.collect()
    ctypes.CDLL("libc.so.6").malloc_trim(0)
    Path("/proc/self/clear_refs").write_text("5")


# -- statistics -----------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (no interpolation): a value that was observed."""
    if not values:
        raise ValueError("quantile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median_or_inf(values: list[float]) -> float:
    """Median of ``values``; infinite (a missed metric) when there are none."""
    return statistics.median(values) if values else math.inf


def tail_ok(n: int, q: float) -> bool:
    """True when at least ten samples lie beyond the ``q`` quantile."""
    return n * (1.0 - q) >= 10.0


@dataclass
class Phase:
    """Failure accounting and latencies of one benchmark phase.

    A request that failed or was shed is recorded with an infinite
    latency, so it counts as missing every latency percentile.
    """

    name: str
    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    shed: int = 0
    wall_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)

    def ok(self, latency_ms: float | None = None) -> None:
        self.attempted += 1
        self.succeeded += 1
        if latency_ms is not None:
            self.latencies_ms.append(latency_ms)

    def fail(self, shed: bool = False) -> None:
        self.attempted += 1
        if shed:
            self.shed += 1
        else:
            self.failed += 1
        self.latencies_ms.append(math.inf)

    def merge(self, other: "Phase") -> None:
        """Fold another phase's counts and latencies into this one."""
        self.attempted += other.attempted
        self.succeeded += other.succeeded
        self.failed += other.failed
        self.shed += other.shed
        self.wall_s += other.wall_s
        self.latencies_ms.extend(other.latencies_ms)

    def percentile(self, q: float) -> float:
        """Latency at ``q``; refuses a tail with under ten samples beyond."""
        n = len(self.latencies_ms)
        if q > 0.5 and not tail_ok(n, q):
            raise ValueError(
                f"{self.name}: p{q * 100:g} needs {math.ceil(10 / (1 - q))} "
                f"samples, have {n}"
            )
        return quantile(self.latencies_ms, q)

    def row(self) -> str:
        return (
            f"{self.name:<14} attempted={self.attempted:<7} "
            f"succeeded={self.succeeded:<7} failed={self.failed:<4} "
            f"shed={self.shed:<4} wall={self.wall_s:.2f}s"
        )


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` as the acceptance rule takes it."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else math.inf


# -- spans ----------------------------------------------------------------------


def span_records(tracer) -> list[dict]:
    """JSON-safe records of a ``repro.obs.Tracer``'s finished spans."""
    return [
        {"name": sp.name, "parent": sp.parent, "depth": sp.depth,
         "tid": sp.tid, "start_s": sp.start_s - tracer.epoch_s,
         "duration_s": sp.duration_s}
        for sp in tracer.spans
    ]


def self_times(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per-name ``{count, total_s, self_s}`` from nested span records.

    Each record has ``name``, ``start_s``, ``duration_s``, ``depth`` and
    ``tid``; a span's self time is its duration minus the part its
    children cover (children nest strictly on one thread).
    """
    out: dict[str, dict[str, float]] = {}
    by_thread: dict[int, list[dict]] = {}
    for sp in spans:
        by_thread.setdefault(sp.get("tid", 0), []).append(sp)
    for group in by_thread.values():
        group.sort(key=lambda sp: (sp["start_s"], sp["depth"]))
        child_time = [0.0] * len(group)
        stack: list[int] = []
        for i, sp in enumerate(group):
            end = sp["start_s"] + sp["duration_s"]
            while stack and (
                group[stack[-1]]["start_s"] + group[stack[-1]]["duration_s"]
                < end
                or group[stack[-1]]["depth"] >= sp["depth"]
            ):
                stack.pop()
            if stack:
                child_time[stack[-1]] += sp["duration_s"]
            stack.append(i)
        for sp, child in zip(group, child_time):
            agg = out.setdefault(
                sp["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            agg["count"] += 1
            agg["total_s"] += sp["duration_s"]
            agg["self_s"] += max(0.0, sp["duration_s"] - child)
    return out


def where_table(title: str, spans: list[dict]) -> list[str]:
    """The "where the pass goes" table, ordered by self time."""
    agg = self_times(spans)
    total = sum(a["self_s"] for a in agg.values()) or 1.0
    lines = [
        f"where the pass goes: {title}",
        f"  {'span':<28}{'count':>7}{'total_s':>11}{'self_s':>11}{'self%':>8}",
    ]
    for name, a in sorted(agg.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"  {name:<28}{int(a['count']):>7}{a['total_s']:>11.4f}"
            f"{a['self_s']:>11.4f}{100 * a['self_s'] / total:>7.1f}%"
        )
    return lines


# -- result line ---------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


@dataclass
class Outcome:
    """What one half of a run (analyst or serving) measured and checked."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict


def combine(halves: list[Outcome]) -> Outcome:
    """One run's outcome from its halves.

    ``setup_s`` is the sum of the halves' set-up times (a run's set-up is
    both); every other metric belongs to exactly one half.
    """
    metrics: dict = {}
    for half in halves:
        for name, m in half.metrics.items():
            if name == "setup_s" and name in metrics:
                metrics[name] = metric(metrics[name]["value"] + m["value"],
                                       m["unit"])
            elif name in metrics:
                raise ValueError(f"two halves report {name}")
            else:
                metrics[name] = dict(m)
    return Outcome(
        all(h.correct for h in halves),
        sum(h.attempted for h in halves),
        sum(h.failed for h in halves),
        metrics,
    )


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print every metric by name with its unit, then the JSON result line."""
    if attempted < 1:
        raise RuntimeError("a run that attempted nothing has no result")
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            # a percentile that landed on a failed or shed request
            print(f"  {name}: no finite value, reported as -1")
            m["value"], correct = -1.0, False
        print(f"  {name:<34} {m['value']:>16.6f} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            },
            allow_nan=False,
        ),
        flush=True,
    )
