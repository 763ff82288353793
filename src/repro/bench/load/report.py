"""Turn raw run results into panels, percentiles, and pass/fail gates.

:class:`LoadReport` aggregates a :class:`~repro.bench.load.runner.RunResult`
into the numbers an operator actually reads:

* **latency panels** — p50/p99/p999/mean/max per tenant and overall,
  computed through the same log-bucketed
  :class:`~repro.obs.metrics.Histogram` (and its interpolating
  :meth:`~repro.obs.metrics.Histogram.quantile`) the service itself
  exports, so the benchmark and the dashboards agree on methodology;
* **traffic panels** — throughput, goodput, error rate, shed rate and
  shed counts (sheds — ``overloaded`` / ``quota_exceeded`` responses —
  are admission control doing its job and are tallied separately from
  errors);
* **server panels** — deltas of the server's own ``metrics`` snapshots
  taken before/after the run: cache hits/derives/misses, per-reason and
  per-tenant shed counters, the backend card (name and workers).

:class:`SLOGate` is the declarative pass/fail layer: a list of gates
(``p99_ms <= 50``, ``error_rate <= 0``, ``rps >= 200`` …, optionally
scoped to one tenant) evaluated against the report — the contract CI
enforces in the ``load-smoke`` job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.obs.metrics import LATENCY_BUCKETS, Histogram

from .runner import OpResult, RunResult

__all__ = ["GateResult", "LoadReport", "SLOGate"]

#: gate metrics that mean "smaller is better" / "bigger is better" both
#: live here; anything in a panel dict with a numeric value is gateable
_GATE_METRICS = (
    "p50_ms", "p99_ms", "p999_ms", "mean_ms", "max_ms",
    "error_rate", "shed_rate", "rps", "goodput_rps", "ops",
)


@dataclass(frozen=True)
class SLOGate:
    """One declarative objective: ``metric`` within ``[min, max]``.

    ``tenant=None`` gates the overall panel; a tenant name gates that
    tenant's panel (``SLOGate("p99_ms", max=50, tenant="quiet")`` is the
    noisy-neighbor promise in one line).
    """

    metric: str
    max: float | None = None
    min: float | None = None
    tenant: str | None = None

    def __post_init__(self) -> None:
        if self.metric not in _GATE_METRICS:
            raise ValueError(
                f"unknown gate metric {self.metric!r} "
                f"(one of {sorted(_GATE_METRICS)})"
            )
        if self.max is None and self.min is None:
            raise ValueError("gate needs max= and/or min=")

    @classmethod
    def from_dict(cls, spec: dict) -> "SLOGate":
        """``{"metric": "p99_ms", "max": 50, "tenant": "quiet"}``"""
        return cls(
            metric=spec["metric"],
            max=spec.get("max"),
            min=spec.get("min"),
            tenant=spec.get("tenant"),
        )

    def as_dict(self) -> dict:
        out: dict = {"metric": self.metric}
        if self.max is not None:
            out["max"] = self.max
        if self.min is not None:
            out["min"] = self.min
        if self.tenant is not None:
            out["tenant"] = self.tenant
        return out

    def check(self, value: float) -> bool:
        if self.max is not None and value > self.max:
            return False
        if self.min is not None and value < self.min:
            return False
        return True


@dataclass(frozen=True)
class GateResult:
    """One evaluated gate: the observed value and the verdict."""

    gate: SLOGate
    value: float
    ok: bool

    def as_dict(self) -> dict:
        return {**self.gate.as_dict(), "value": self.value, "ok": self.ok}

    def describe(self) -> str:
        scope = "overall" if self.gate.tenant is None else self.gate.tenant
        bounds = []
        if self.gate.min is not None:
            bounds.append(f">= {self.gate.min:g}")
        if self.gate.max is not None:
            bounds.append(f"<= {self.gate.max:g}")
        verdict = "PASS" if self.ok else "FAIL"
        return (
            f"[{verdict}] {scope}.{self.gate.metric} = {self.value:.4g} "
            f"(want {' and '.join(bounds)})"
        )


def _latency_panel(rows: Sequence[OpResult], duration_s: float) -> dict:
    """Percentiles + rates for one slice of results."""
    hist = Histogram("load_latency_seconds", bounds=LATENCY_BUCKETS)
    total = len(rows)
    errors = shed = 0
    latency_sum = 0.0
    latency_max = 0.0
    for row in rows:
        hist.observe(row.latency_s)
        latency_sum += row.latency_s
        latency_max = max(latency_max, row.latency_s)
        if row.shed:
            shed += 1
        elif not row.ok:
            errors += 1
    duration = max(duration_s, 1e-9)
    return {
        "ops": total,
        "rps": total / duration,
        "goodput_rps": (total - errors - shed) / duration,
        "error_rate": (errors / total) if total else 0.0,
        "shed_rate": (shed / total) if total else 0.0,
        "errors": errors,
        "shed": shed,
        "p50_ms": hist.quantile(0.50) * 1e3,
        "p99_ms": hist.quantile(0.99) * 1e3,
        "p999_ms": hist.quantile(0.999) * 1e3,
        "mean_ms": (latency_sum / total * 1e3) if total else 0.0,
        "max_ms": latency_max * 1e3,
    }


def _counter_map(metrics: dict | None) -> dict[str, float]:
    """Flatten a ``metrics`` op's registry snapshot into name{labels} -> value.

    The engine's ``metrics`` op returns ``registry`` as a list of
    instrument records (see ``MetricsRegistry.snapshot``); counters and
    gauges flatten to ``name{k=v,...}`` keys so before/after snapshots
    diff by plain dict subtraction.
    """
    out: dict[str, float] = {}
    if not metrics:
        return out
    registry = metrics.get("registry")
    if not isinstance(registry, list):
        return out
    for rec in registry:
        if not isinstance(rec, dict) or rec.get("kind") not in (
            "counter", "gauge"
        ):
            continue
        value = rec.get("value")
        if not isinstance(value, (int, float)):
            continue
        labels = rec.get("labels") or {}
        tag = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
        out[f"{rec.get('name')}{{{tag}}}"] = float(value)
    return out


def _cache_stats(metrics: dict | None) -> dict[str, float]:
    out: dict[str, float] = {}
    if not metrics:
        return out
    cache = metrics.get("cache")
    if isinstance(cache, dict):
        for key in ("hits", "derives", "misses", "evictions", "bypasses"):
            value = cache.get(key)
            if isinstance(value, (int, float)):
                out[key] = float(value)
    return out


class LoadReport:
    """Aggregated view of one load run, ready for gates and JSON."""

    def __init__(self, run: RunResult) -> None:
        self.run = run
        self.tenants = sorted({r.tenant for r in run.results})

    # -- panels --------------------------------------------------------------
    def panel(self, tenant: str | None = None) -> dict:
        """Latency/traffic panel, overall or for one tenant."""
        rows = (
            self.run.results if tenant is None
            else [r for r in self.run.results if r.tenant == tenant]
        )
        return _latency_panel(rows, self.run.duration_s)

    def op_panel(self) -> dict:
        """Per-op-kind latency panels (where the tail actually lives)."""
        kinds = sorted({r.kind for r in self.run.results})
        return {
            kind: _latency_panel(
                [r for r in self.run.results if r.kind == kind],
                self.run.duration_s,
            )
            for kind in kinds
        }

    def server_panel(self) -> dict:
        """Server-side counter deltas across the run (best effort).

        Cache traffic and shed counters (per reason and per tenant) —
        everything the ``metrics`` op exposes that moved during the run
        — plus the backend card before and after.
        """
        before = _counter_map(self.run.metrics_before)
        after = _counter_map(self.run.metrics_after)
        deltas = {
            key: after[key] - before.get(key, 0.0)
            for key in after
            if after[key] != before.get(key, 0.0)
        }
        cache_before = _cache_stats(self.run.metrics_before)
        cache_after = _cache_stats(self.run.metrics_after)
        cache = {
            key: cache_after[key] - cache_before.get(key, 0.0)
            for key in cache_after
        }
        lookups = cache.get("hits", 0.0) + cache.get("derives", 0.0) \
            + cache.get("misses", 0.0)
        panel: dict = {"counters": deltas, "cache": cache}
        if lookups > 0:
            panel["cache_hit_rate"] = (
                cache.get("hits", 0.0) + cache.get("derives", 0.0)
            ) / lookups
        for snap_key, out_key in (
            ("metrics_before", "backend_before"),
            ("metrics_after", "backend_after"),
        ):
            snap = getattr(self.run, snap_key)
            if isinstance(snap, dict) and isinstance(
                snap.get("backend"), dict
            ):
                panel[out_key] = snap["backend"]
        return panel

    # -- gates ---------------------------------------------------------------
    def evaluate(
        self, gates: "Iterable[SLOGate | dict]"
    ) -> list[GateResult]:
        """Evaluate every gate against its (overall or tenant) panel."""
        panels: dict[str | None, dict] = {None: self.panel()}
        out: list[GateResult] = []
        for gate in gates:
            if isinstance(gate, dict):
                gate = SLOGate.from_dict(gate)
            if gate.tenant not in panels:
                panels[gate.tenant] = self.panel(gate.tenant)
            value = float(panels[gate.tenant][gate.metric])
            out.append(GateResult(gate, value, gate.check(value)))
        return out

    def passes(self, gates: "Iterable[SLOGate | dict]") -> bool:
        return all(g.ok for g in self.evaluate(gates))

    # -- serialization -------------------------------------------------------
    def as_dict(self, gates: "Iterable[SLOGate | dict]" = ()) -> dict:
        """JSON-safe report: overall, per-tenant, per-op, server, gates."""
        evaluated = self.evaluate(gates)
        return {
            "mode": self.run.mode,
            "duration_s": self.run.duration_s,
            "overall": self.panel(),
            "tenants": {t: self.panel(t) for t in self.tenants},
            "ops": self.op_panel(),
            "server": self.server_panel(),
            "transport_errors": list(self.run.transport_errors),
            "gates": [g.as_dict() for g in evaluated],
            "gates_ok": all(g.ok for g in evaluated),
        }

    def format_text(self) -> str:
        """Aligned per-tenant summary for terminals and CI job logs."""
        from repro.bench.reporting import format_table

        header = [
            "tenant", "ops", "rps", "p50_ms", "p99_ms", "p999_ms",
            "err%", "shed",
        ]
        rows = []
        for tenant in [None, *self.tenants]:
            p = self.panel(tenant)
            rows.append([
                "(all)" if tenant is None else tenant,
                str(p["ops"]),
                f"{p['rps']:.1f}",
                f"{p['p50_ms']:.2f}",
                f"{p['p99_ms']:.2f}",
                f"{p['p999_ms']:.2f}",
                f"{p['error_rate'] * 100:.2f}",
                str(p["shed"]),
            ])
        title = f"load run: mode={self.run.mode} " \
                f"duration={self.run.duration_s:.2f}s"
        return title + "\n" + format_table(header, rows)
