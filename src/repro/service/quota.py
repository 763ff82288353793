"""Per-tenant admission quotas and shared shed accounting.

PR 7's front door sheds *globally*: past ``max_pending`` accepted
requests every client gets ``overloaded``, so one tenant's burst blows
every other tenant's latency budget.  This module finishes that story
with classic token-bucket admission per tenant:

* :class:`TokenBucket` — the refill math: a bucket holds up to ``burst``
  tokens and refills at ``rate`` tokens/second; each admitted request
  takes one token, and an empty bucket means *shed now* (never queue —
  queuing a quota'd request is exactly the noisy-neighbor coupling the
  quota exists to prevent);
* :class:`TenantQuotas` — the per-tenant bucket map built from a plain
  spec dict (``{"bursty": {"rate": 50, "burst": 100}}``).  Requests
  carry their tenant in the envelope (``"tenant": "name"``); requests
  without a tenant, and tenants without a configured bucket, are
  admitted unless a ``"*"`` default spec says otherwise;
* :func:`extract_tenant` — pulls the tenant id out of a raw request
  line without a full JSON decode on the hot path;
* :class:`ShedLedger` — the one counter-tagged shed path of the front
  door: every shed increments ``service_async_shed_total{reason=...}``
  (plus per-tenant ``service_async_tenant_shed_total{tenant=...}`` for
  quota sheds) and returns a **cached** pre-encoded response line, so
  shedding under overload costs no JSON encoding at all.

The server accepts ``quotas=`` (a :class:`TenantQuotas` or its spec
dict); the load harness (:mod:`repro.bench.load`) drives the
noisy-neighbor scenario that proves the isolation.
"""

from __future__ import annotations

import json
import re
import threading
import time
from typing import Callable

__all__ = [
    "ShedLedger",
    "TenantQuotas",
    "TokenBucket",
    "extract_tenant",
]

#: default spec key: applies to any tenant without an explicit bucket
#: (anonymous requests — no ``tenant`` field — are never quota'd)
DEFAULT_TENANT = "*"

_TENANT_RE = re.compile(rb'"tenant"\s*:\s*"((?:[^"\\]|\\.)*)"')


class TokenBucket:
    """``rate`` tokens/second refill up to ``burst``; take-or-shed.

    Thread-safe.  The clock is injectable for deterministic refill
    tests.
    """

    __slots__ = ("rate", "burst", "_tokens", "_last", "_clock", "_lock")

    def __init__(
        self,
        rate: float,
        burst: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        rate = float(rate)
        if rate <= 0:
            raise ValueError("token-bucket rate must be > 0")
        self.rate = rate
        self.burst = rate if burst is None else float(burst)
        if self.burst < 1:
            raise ValueError("token-bucket burst must be >= 1")
        self._tokens = self.burst  # start full: a fresh tenant may burst
        self._clock = clock
        self._last = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:  # repro: noqa-R002 — every caller holds self._lock
        elapsed = now - self._last
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._last = now

    def try_take(self, n: float = 1.0) -> bool:
        """Take ``n`` tokens if available; never blocks."""
        with self._lock:
            self._refill(self._clock())
            if self._tokens >= n:
                self._tokens -= n
                return True
            return False

    @property
    def available(self) -> float:
        """Tokens available right now (refilled to the current clock)."""
        with self._lock:
            self._refill(self._clock())
            return self._tokens

    def spec(self) -> dict:
        return {"rate": self.rate, "burst": self.burst}


class TenantQuotas:
    """Token buckets per tenant id, built from a plain spec dict.

    ``spec`` maps tenant name to ``{"rate": r, "burst": b}`` (``burst``
    optional, default ``rate``).  The :data:`DEFAULT_TENANT` key ``"*"``
    configures a per-tenant bucket for tenants not named explicitly —
    each unnamed tenant gets its *own* bucket with that shape, created
    on first sight.  Requests carrying no tenant id are always admitted:
    quotas isolate named tenants from each other, they are not the
    global admission control (``max_pending`` is).
    """

    def __init__(
        self, spec: dict, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._default = spec.get(DEFAULT_TENANT)
        self._buckets: dict[str, TokenBucket] = {
            str(name): self._bucket(cfg)
            for name, cfg in spec.items()
            if name != DEFAULT_TENANT
        }

    def _bucket(self, cfg: "TokenBucket | dict") -> TokenBucket:
        if isinstance(cfg, TokenBucket):
            return cfg
        return TokenBucket(
            cfg["rate"], cfg.get("burst"), clock=self._clock
        )

    @classmethod
    def coerce(
        cls, quotas: "TenantQuotas | dict | None"
    ) -> "TenantQuotas | None":
        """Resolve a ``quotas=`` ctor parameter (spec dicts accepted)."""
        if quotas is None or isinstance(quotas, TenantQuotas):
            return quotas
        return cls(quotas)

    @property
    def tenants(self) -> list[str]:
        """Explicitly configured tenant names (sorted; no default key)."""
        with self._lock:
            return sorted(self._buckets)

    def bucket(self, tenant: str | None) -> TokenBucket | None:
        """The tenant's bucket (created from the default spec if any)."""
        if tenant is None:
            return None
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None and self._default is not None:
                bucket = self._buckets[tenant] = self._bucket(self._default)
            return bucket

    def admit(self, tenant: str | None) -> bool:
        """Take one token from the tenant's bucket; unquota'd → admitted."""
        bucket = self.bucket(tenant)
        return True if bucket is None else bucket.try_take()

    def spec(self) -> dict:
        """JSON-safe round-trip of the configuration (for ``metrics``)."""
        with self._lock:
            out = {name: b.spec() for name, b in self._buckets.items()}
            if self._default is not None:
                cfg = self._default
                out[DEFAULT_TENANT] = (
                    cfg.spec() if isinstance(cfg, TokenBucket)
                    else {"rate": cfg["rate"],
                          "burst": cfg.get("burst", cfg["rate"])}
                )
        return out


def extract_tenant(raw: bytes) -> str | None:
    """The ``"tenant"`` id of a raw request line, or ``None``.

    A regex fast path covers the envelope the clients emit (the tenant
    value is a plain JSON string); lines that mention ``"tenant"`` in a
    shape the regex can't see (escapes, non-string values) fall back to
    a full decode.  Admission must never crash on garbage, so decode
    failures simply mean "no tenant".
    """
    if b'"tenant"' not in raw:
        return None
    m = _TENANT_RE.search(raw)
    if m is not None and b"\\" not in m.group(1):
        return m.group(1).decode("utf-8", errors="replace")
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if isinstance(payload, dict):
        tenant = payload.get("tenant")
        if tenant is not None:
            return str(tenant)
    return None


class ShedLedger:
    """The front door's one shed path: count, then answer from cache.

    Counters (the ``service_async`` prefix names the front door):

    * ``service_async_shed_total{reason="overloaded"|"quota"}`` — every
      shed;
    * ``service_async_tenant_shed_total{tenant=...}`` — quota sheds,
      per tenant;
    * ``service_async_tenant_requests_total{tenant=...}`` — admitted
      requests, per tenant (via :meth:`admitted`).

    Response lines are pre-encoded once per ``(reason, tenant)`` and
    cached — the shed path is exactly the path that runs when the
    server is at its limit, so it must not spend time encoding JSON.
    """

    #: reason tag -> structured error code on the wire
    CODES = {"overloaded": "overloaded", "quota": "quota_exceeded"}

    #: metric-name prefix of every counter the ledger moves
    PREFIX = "service_async"

    def __init__(self, metrics: object) -> None:
        self._metrics = metrics
        self._lines: dict[tuple[str, str | None], bytes] = {}
        self._lock = threading.Lock()

    def prepare(self, reason: str, message: str, tenant: str | None = None) -> bytes:
        """Pre-encode (and cache) the response line for one shed shape."""
        from .protocol import protocol_error

        key = (reason, tenant)
        with self._lock:
            line = self._lines.get(key)
            if line is None:
                line = json.dumps(
                    protocol_error(self.CODES[reason], message)
                ).encode("utf-8")
                self._lines[key] = line
        return line

    def quota_line(self, tenant: str | None) -> bytes:
        """The cached ``quota_exceeded`` line for one tenant."""
        who = "anonymous" if tenant is None else f"tenant {tenant!r}"
        return self.prepare(
            "quota",
            f"{who} exceeded its admission quota; back off and retry",
            tenant,
        )

    def shed(self, reason: str, tenant: str | None = None) -> None:
        """Count one shed (call sites answer with the cached line)."""
        self._metrics.counter(
            f"{self.PREFIX}_shed_total", reason=reason
        ).inc()
        if tenant is not None:
            self._metrics.counter(
                f"{self.PREFIX}_tenant_shed_total", tenant=tenant
            ).inc()

    def admitted(self, tenant: str | None) -> None:
        """Count one admitted request for a tenant-carrying envelope."""
        if tenant is not None:
            self._metrics.counter(
                f"{self.PREFIX}_tenant_requests_total", tenant=tenant
            ).inc()
