"""The serving half of every workload: closed-loop clients of the async
front door.

The driver builds a durable store from the seeded web stand-in input (hot
s=2 line graph included), starts ``repro serve --store ... --frontend async`` as a
child process on it, and drives five phases from at most two
connections.  Every client waits for each reply before
sending the next request (a closed loop: the service's callers are
``Session`` objects), so latencies are request-to-reply times and no
schedule can run late.

Correctness: every reply must be ``ok``; sampled lookup and heavy
answers, before and after the churn phase, must equal those of an
in-process ``QueryEngine`` fed the same dataset and the same acknowledged
mutation batches.
"""

from __future__ import annotations

import json
import math
import queue
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import common
import inputs
from repro.core.hypergraph import NWHypergraph
from repro.core.slinegraph import SLineGraph
from repro.dynamic.hypergraph import DynamicHypergraph
from repro.dynamic.incremental import patch_linegraph
from repro.dynamic.log import parse_batch
from repro.obs import NULL_TRACER, Tracer
from repro.obs.tracer import as_tracer
from repro.service import QueryEngine, SLineGraphCache
from repro.service.protocol import dispatch_line
from repro.service.session import SocketSession
from repro.store import build_store, open_store
from repro.store.wal import WriteAheadLog

#: The measured phases run in rounds; each end-to-end read metric is the
#: median over rounds, so a few seconds of host contention move one round,
#: not the run.  Each round: lookups, batches, heavy ops (these three take
#: the serving half's seconds / ROUNDS in the SHARES split; the heavy ops,
#: whose p50 is gated, get most of it), then a churn phase of a fixed
#: number of updates, so the server's memory growth (and so its
#: ``server_peak_rss_mb``, read after all rounds) does not depend on how
#: fast the host is.
ROUNDS = 8
SHARES = {"lookup": 0.2, "batch": 0.2, "heavy": 0.6}
UPDATES_PER_ROUND = 3
#: Fewest lookups per round, so each round's p99 has ten samples beyond it
#: (this, not the lookup share, decides how long lookups run).
MIN_LOOKUPS = 1000
BATCH_ITEMS = 64
RESTARTS = 5
#: Every CHECK_EVERY-th lookup reply is checked against the reference.
CHECK_EVERY = 16
#: Lookups re-checked against the reference after the churn phase.
POST_CHURN_CHECKS = 300
SHED_CODES = frozenset({"overloaded", "quota_exceeded"})

_BANNER = re.compile(r"serving .* on ([\d.]+):(\d+)")
_OPENED = re.compile(r"(\d+) batch\(es\) replayed, (\d+) hot line graph")


class ServerProcess:
    """One ``repro serve`` child on a store directory."""
    def __init__(self, directory: Path, dataset: str) -> None:
        self.directory = directory
        self.dataset = dataset
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] = ("", 0)
        self.replayed = self.hydrated = -1
        self._lines: queue.Queue = queue.Queue()
        self._reader: threading.Thread | None = None

    def start(self, timeout: float = 60.0) -> None:
        """Spawn and block until the listening banner is printed."""
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--store", f"{self.dataset}={self.directory}",
            "--frontend", "async", "--port", "0",
        ]
        self.proc = subprocess.Popen(
            cmd, env=common.child_env(), cwd=common.ROOT,
            stdout=subprocess.PIPE, text=True,
        )
        self._reader = threading.Thread(
            target=self._pump, args=(self.proc.stdout,), daemon=True
        )
        self._reader.start()
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("server did not print its banner")
            line = self._lines.get(timeout=remaining)
            if line is None:
                raise RuntimeError("server exited before listening")
            opened = _OPENED.search(line)
            if opened:
                self.replayed, self.hydrated = map(int, opened.groups())
            banner = _BANNER.search(line)
            if banner:
                self.address = (banner.group(1), int(banner.group(2)))
                return

    def _pump(self, stream) -> None:
        for line in stream:
            self._lines.put(line)
        self._lines.put(None)

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Interrupt (the server drains and closes its store), then reap."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        self.proc.stdout.close()
        if self._reader is not None:
            self._reader.join(timeout=5)
        self.proc = None


def classify(response: object) -> str:
    """``ok``, ``shed`` (refused by admission) or ``failed``."""
    if isinstance(response, dict):
        if response.get("ok") is True:
            return "ok"
        code = (response.get("error") or {}).get("code")
        return "shed" if code in SHED_CODES else "failed"
    return "failed"


def record(phase: common.Phase, response: object, latency_ms: float) -> bool:
    kind = classify(response)
    if kind == "ok":
        phase.ok(latency_ms)
        return True
    phase.fail(shed=kind == "shed")
    return False


def connect(server: ServerProcess):

    return SocketSession(*server.address, timeout=60.0, strict=False)


def timed(session, payload: dict) -> tuple[object, float]:
    t0 = time.perf_counter()
    try:
        response = session.request(payload)
    except (OSError, ValueError) as exc:
        response = {"ok": False, "error": {"code": "transport",
                                           "message": str(exc)}}
    return response, (time.perf_counter() - t0) * 1e3


def closed_loop(session, stream, phase, seconds, min_count=0, sample=None,
                stop_event=None, offset=0, by_op=None):
    """Send ``stream`` (cycled from ``offset``) one request at a time for
    ``seconds``; returns how many requests were sent.  With ``by_op``, each
    request is also recorded in the phase ``by_op[op]``."""
    start = time.perf_counter()
    i = 0
    while True:
        query = stream[(offset + i) % len(stream)]
        response, ms = timed(session, query)
        if by_op is not None:
            record(by_op[query["op"]], response, ms)
        if record(phase, response, ms) and sample is not None and (
            i % CHECK_EVERY == 0
        ):
            sample.append((query, response["result"]))
        i += 1
        elapsed = time.perf_counter() - start
        if stop_event is not None:
            if stop_event.is_set():
                break
        elif elapsed >= seconds and i >= min_count:
            break
    phase.wall_s += time.perf_counter() - start
    return i


def batch_loop(session, stream, phase, seconds, sample, offset=0):
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i == 0:
        lo = (offset + i * BATCH_ITEMS) % (len(stream) - BATCH_ITEMS)
        items = stream[lo:lo + BATCH_ITEMS]
        response, ms = timed(session, {"batch": items})
        if isinstance(response, list) and len(response) == len(items):
            for j, (query, item) in enumerate(zip(items, response)):
                if record(phase, item, ms) and j % CHECK_EVERY == 0:
                    sample.append((query, item["result"]))
        else:
            for _ in items:
                record(phase, response, ms)
        i += 1
    phase.wall_s += time.perf_counter() - start
    return i * BATCH_ITEMS


def server_p50_us(before: dict, after: dict, ops=("s_degree", "s_neighbors")):
    """Server-side lookup p50 from ``service_request_seconds`` deltas.

    Interpolates inside the bucket the median falls in, as the registry's
    own ``Histogram.quantile`` does.
    """
    def buckets(resp):
        out: dict[float, float] = {}
        for rec in resp["result"]["registry"]:
            if (rec["name"] == "service_request_seconds"
                    and rec["labels"].get("op") in ops):
                for bound, cum in rec["buckets"].items():
                    out[float(bound)] = out.get(float(bound), 0) + cum
        return out

    b0, b1 = buckets(before), buckets(after)
    bounds = sorted(b1)
    cum = [b1[b] - b0.get(b, 0) for b in bounds]
    if not cum or cum[-1] <= 0:
        return 0.0
    target = 0.5 * cum[-1]
    prev_bound, prev_cum = 0.0, 0.0
    for bound, c in zip(bounds, cum):
        if c >= target and c > prev_cum:
            frac = (target - prev_cum) / (c - prev_cum)
            return 1e6 * (prev_bound + (bound - prev_bound) * frac)
        prev_bound, prev_cum = bound, c
    return 1e6 * bounds[-1]


class Run:
    """State of one serve run: inputs, reference engine, live server."""
    def __init__(self, args, tracer=None) -> None:
        self.args = args
        self.dataset = inputs.SERVE.name
        self.tracer = as_tracer(tracer)
        self.phases = {name: common.Phase(name) for name in (
            "warm-up", "lookup", "batch", "heavy", "update", "churn-read",
            "post-churn", "restart",
        )}
        self.rounds: list[dict[str, float]] = []
        self.problems: list[str] = []
        #: (acknowledged batches when answered, query, result)
        self.samples: list[tuple[int, dict, object]] = []
        self.server: ServerProcess | None = None
        self.cache_deltas: dict[str, dict[str, int]] = {}
        self.acknowledged: list[list[dict]] = []
        self.update_outcomes = {"patched": 0, "dropped": 0}
        self.setup_s: list[float] = []
        self.restart_s: list[float] = []
        self.first_answer_ms: list[float] = []

    # -- set-up ------------------------------------------------------------
    def traffic(self) -> None:
        """The seeded request streams (generated once, outside set-up)."""
        seed, name = self.args.seed, self.dataset
        n = inputs.served_input(seed).num_vertices(0)
        self.lookups = inputs.lookup_stream(name, n, 20_000, seed)
        self.heavy = inputs.heavy_stream(name, n, 600, seed)
        self.mutations = inputs.mutation_batches(
            name, n, ROUNDS * UPDATES_PER_ROUND, seed
        )

    def setup_once(self) -> None:
        """One set-up: generate, construct, build a store, spawn, warm up.

        The first set-up's server is the one the phases measure.  A second
        one runs after the rounds, so that ``setup_s`` sees the same host
        as the rounds do; its server is stopped and its store removed.
        """
        k = len(self.setup_s)
        t0 = time.perf_counter()
        el = inputs.served_input(self.args.seed)
        hg = NWHypergraph(el.part0, el.part1, num_edges=el.num_vertices(0),
                          num_nodes=el.num_vertices(1))
        directory = store_directory(self.args, k)
        shutil.rmtree(directory, ignore_errors=True)
        build_store(directory, hg, name=self.dataset, warm_s=(2,))
        server = ServerProcess(directory, self.dataset)
        try:
            server.start()
            warm = self.phases["warm-up"]
            with connect(server) as session:
                closed_loop(session, self.lookups[-500:], warm, 0,
                            min_count=500)
                closed_loop(session, self.heavy[:1], warm, 0, min_count=1)
            self.setup_s.append(time.perf_counter() - t0)
        except BaseException:
            server.stop()
            raise
        if self.server is None:
            self.server, self.hg = server, hg
        else:
            server.stop()
            shutil.rmtree(directory, ignore_errors=True)

    # -- phases --------------------------------------------------------------
    def metrics(self, session) -> dict:
        response, _ = timed(session, {"op": "metrics"})
        if classify(response) != "ok":
            raise RuntimeError(f"metrics op failed: {response!r}")
        return response

    def _cache_delta(self, name, before, after) -> None:
        c0, c1 = before["result"]["cache"], after["result"]["cache"]
        into = self.cache_deltas.setdefault(
            name, {"hits": 0, "derives": 0, "misses": 0, "evictions": 0}
        )
        for k in into:
            into[k] += int(c1[k]) - int(c0[k])

    def _sample(self, pairs) -> None:
        version = len(self.acknowledged)
        self.samples.extend((version, q, r) for q, r in pairs)

    def run_phases(self) -> None:
        per_round = self.args.seconds / ROUNDS
        sent = heavy_sent = 0
        with connect(self.server) as session, connect(self.server) as wsess:
            for _ in range(ROUNDS):
                row: dict[str, float] = {}
                pairs: list = []
                m0 = self.metrics(session)
                lookup = common.Phase("lookup")
                with self.tracer.span("serve.lookup"):
                    sent += closed_loop(
                        session, self.lookups, lookup,
                        SHARES["lookup"] * per_round, min_count=MIN_LOOKUPS,
                        sample=pairs, offset=sent,
                    )
                m1 = self.metrics(session)
                row["lookup_ops_per_s"] = lookup.succeeded / lookup.wall_s
                row["lookup_p50_ms"] = lookup.percentile(0.5)
                row["lookup_p99_ms"] = lookup.percentile(0.99)
                row["lookup_n"] = len(lookup.latencies_ms)
                row["server_lookup_us"] = server_p50_us(m0, m1)
                self._cache_delta("lookup", m0, m1)

                batch = common.Phase("batch")
                with self.tracer.span("serve.batch"):
                    sent += batch_loop(session, self.lookups, batch,
                                       SHARES["batch"] * per_round, pairs,
                                       offset=sent)
                m2 = self.metrics(session)
                row["batch_items_per_s"] = batch.succeeded / batch.wall_s
                self._cache_delta("batch", m1, m2)

                heavy = common.Phase("heavy")
                by_op = {op: common.Phase(op) for op in inputs.HEAVY_OPS}
                with self.tracer.span("serve.heavy"):
                    heavy_sent += closed_loop(
                        session, self.heavy, heavy,
                        SHARES["heavy"] * per_round, min_count=20,
                        sample=pairs, offset=heavy_sent, by_op=by_op,
                    )
                m3 = self.metrics(session)
                # per op: a component count takes ~4 ms and a distance ~0.2
                # ms, so a p50 over both fell between the two modes and
                # spread 0.26 over ten runs
                row["heavy_p50_ms"] = by_op["s_connected_components"].percentile(0.5)
                row["distance_p50_ms"] = by_op["s_distance"].percentile(0.5)
                self._cache_delta("heavy", m2, m3)
                self._sample(pairs)

                with self.tracer.span("serve.churn"):
                    self.churn(session, wsess, offset=sent)
                m4 = self.metrics(session)
                self._cache_delta("churn", m3, m4)
                for name, phase in (("lookup", lookup), ("batch", batch),
                                    ("heavy", heavy)):
                    self.phases[name].merge(phase)
                self.rounds.append(row)
            self.setup_once()
            # after churn: sampled lookups against the final version
            post, pairs = self.phases["post-churn"], []
            step = max(1, len(self.lookups) // POST_CHURN_CHECKS)
            for query in self.lookups[::step][:POST_CHURN_CHECKS]:
                response, ms = timed(session, query)
                if record(post, response, ms):
                    pairs.append((query, response["result"]))
            self._sample(pairs)
            self.peak_rss_mb = self.server.peak_rss_mb()

    def churn(self, reader, wsess, offset: int) -> None:
        """UPDATES_PER_ROUND updates on one connection, lookups on the other."""
        update, read = self.phases["update"], self.phases["churn-read"]
        done = threading.Event()
        first = len(self.acknowledged)

        def writer() -> None:
            try:
                for batch in self.mutations[first:first + UPDATES_PER_ROUND]:
                    response, ms = timed(wsess, {
                        "op": "update", "dataset": self.dataset, "ops": batch,
                    })
                    if not record(update, response, ms):
                        break
                    self.acknowledged.append(batch)
                    for outcome in response["result"]["cache"].values():
                        key = ("patched" if outcome.startswith("patched")
                               else "dropped")
                        self.update_outcomes[key] += 1
            finally:
                done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            closed_loop(reader, self.lookups, read, 0, stop_event=done,
                        offset=offset)
        finally:
            thread.join()

    def restart(self) -> None:
        """Spawn on the post-churn store until the first heavy answer.

        Each answer joins the samples at the final version, so
        :meth:`check_samples` fails the run if any restart answered wrongly.
        """
        self.server.stop()
        # no hot entry is rehydrated once a WAL batch has replayed, so this
        # answer pays for whatever the server does without its line graph
        query = {"op": "s_connected_components", "dataset": self.dataset,
                 "s": 2}
        phase = self.phases["restart"]
        for _ in range(RESTARTS):
            server = ServerProcess(self.server.directory, self.dataset)
            t0 = time.perf_counter()
            try:
                server.start()
                ready = time.perf_counter()
                with connect(server) as session:
                    response, ms = timed(session, query)
                done = time.perf_counter()
            finally:
                server.stop()
            if record(phase, response, ms):
                self.restart_s.append(done - t0)
                self.first_answer_ms.append((done - ready) * 1e3)
                self._sample([(query, response["result"])])
            else:
                self.problems.append(f"restart answered {response!r}")
            self.replayed, self.hydrated = server.replayed, server.hydrated
        self.server = None

    # -- correctness -----------------------------------------------------------
    def reference(self, batches=()):
        """An in-process engine holding the dataset after ``batches``."""
        engine = QueryEngine(num_threads=1)
        engine.store.register(self.dataset, self.hg)
        # hot s=2, as on the server: cold, every sampled component count
        # ran the lazy traversal (~0.3 s each, most of a run's check time)
        engine.execute({"op": "warm", "dataset": self.dataset,
                        "s_values": [2]})
        for batch in batches:
            self._apply(engine, batch)
        return engine

    def _apply(self, engine, batch) -> None:
        response = engine.execute(
            {"op": "update", "dataset": self.dataset, "ops": batch}
        )
        if not response.get("ok"):
            raise RuntimeError(f"reference rejected a batch: {response!r}")

    def check_samples(self, samples) -> None:
        """Compare ``(version, query, result)`` samples with a reference
        engine stepped through the acknowledged batches in order."""
        engine = self.reference()
        applied = 0
        try:
            for version, query, result in sorted(samples, key=lambda x: x[0]):
                while applied < version:
                    self._apply(engine, self.acknowledged[applied])
                    applied += 1
                want = engine.execute(query)
                if not want.get("ok") or want["result"] != result:
                    self.problems.append(
                        f"v{version} {query}: got {str(result)[:80]}, "
                        f"reference {str(want.get('result'))[:80]}"
                    )
        finally:
            engine.close()


def end_to_end(run: Run) -> dict:
    m = common.metric

    def over_rounds(key: str) -> float:
        return statistics.median(row[key] for row in run.rounds)

    # Closed-loop lookup throughput, the lookup p50 and p99, the s_distance
    # p50 and batch throughput are printed per round but are not gated: over
    # ten runs of the same code on a shared 2-CPU host the lookup figures
    # spread 0.22-0.32 of the median (an idle server waits on wake-ups the
    # host schedules), beyond any bound, and a sub-millisecond s_distance is
    # the same kind of figure.  Lookups beside updates keep the server busy,
    # and churn_read_p50_ms holds.
    print(f"  not gated: lookup_ops_per_s {over_rounds('lookup_ops_per_s'):.1f} 1/s"
          f", lookup_p50_ms {over_rounds('lookup_p50_ms'):.4f} ms"
          f", lookup_p99_ms {over_rounds('lookup_p99_ms'):.4f} ms"
          f", distance_p50_ms {over_rounds('distance_p50_ms'):.4f} ms"
          f", batch_items_per_s {over_rounds('batch_items_per_s'):.1f} 1/s")
    return {
        "setup_s": m(statistics.median(run.setup_s), "s"),
        "server_peak_rss_mb": m(run.peak_rss_mb, "MB"),
        "heavy_p50_ms": m(over_rounds("heavy_p50_ms"), "ms"),
        "update_p50_ms": m(run.phases["update"].percentile(0.5), "ms"),
        "churn_read_p50_ms": m(run.phases["churn-read"].percentile(0.5), "ms"),
        # no correct restart: an infinite median, reported as -1 (incorrect)
        "restart_s": m(common.median_or_inf(run.restart_s), "s"),
    }


# -- per-layer measurements (traced run) --------------------------------------------


def _p50_ms(fn, items) -> float:
    times = []
    for item in items:
        t0 = time.perf_counter()
        fn(item)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def in_process_layers(run: Run, tracer) -> dict[str, float]:
    """Time the layers the requests pass through, called in process."""
    out: dict[str, float] = {}
    lookups = run.lookups[:5000]
    engine = QueryEngine(num_threads=4)
    try:
        engine.store.register(run.dataset, run.hg)
        engine.execute({"op": "warm", "dataset": run.dataset,
                        "s_values": [2]})
        with tracer.span("service.engine_lookup"):
            out["service.engine_lookup_us"] = 1e3 * _p50_ms(engine.execute, lookups)
        lines = [json.dumps(q).encode() for q in lookups]
        with tracer.span("service.dispatch_line"):
            out["service.dispatch_line_us"] = 1e3 * _p50_ms(
                lambda raw: dispatch_line(engine, raw), lines
            )
        batches = [lookups[i:i + BATCH_ITEMS]
                   for i in range(0, len(lookups) - BATCH_ITEMS, BATCH_ITEMS)]
        with tracer.span("service.engine_batch"):
            t0 = time.perf_counter()
            for b in batches:
                engine.execute_batch(b)
            out["service.engine_batch_items_per_s"] = (
                len(batches) * BATCH_ITEMS / (time.perf_counter() - t0)
            )
        with tracer.span("service.engine_heavy"):
            components = [q for q in run.heavy
                          if q["op"] == "s_connected_components"][:60]
            out["service.engine_heavy_ms"] = _p50_ms(engine.execute, components)
    finally:
        engine.close()

    lg2 = run.hg.s_linegraph(2)
    derive = []
    with tracer.span("cache.derive"):
        for _ in range(5):
            cache = SLineGraphCache()
            cache.put(run.dataset, 2, True, lg2)
            t0 = time.perf_counter()
            _, how = cache.get_or_build(run.dataset, 3, run.hg, True)
            derive.append((time.perf_counter() - t0) * 1e3)
            if how != "derive":
                raise RuntimeError(f"expected a derive, the cache did {how!r}")
    out["cache.derive_ms"] = statistics.median(derive)

    batches = run.acknowledged[:10]
    dyn = DynamicHypergraph(run.hg)
    entries = {s: run.hg.s_linegraph(s).edgelist for s in inputs.HEAVY_S}
    apply_ms, patch_ms = [], []
    with tracer.span("dynamic.apply_patch"):
        for batch in batches:
            t0 = time.perf_counter()
            res = dyn.apply(batch)
            apply_ms.append((time.perf_counter() - t0) * 1e3)
            for s, el in entries.items():
                t0 = time.perf_counter()
                entries[s] = patch_linegraph(el, dyn.state,
                                             sorted(res.dirty_edges), s)
                patch_ms.append((time.perf_counter() - t0) * 1e3)
        SLineGraph(entries[2], s=2)  # the patched entry still materialises
    out["dynamic.apply_ms"] = statistics.median(apply_ms)
    out["dynamic.patch_ms"] = statistics.median(patch_ms)

    wal_dir = common.WORK / f"wal-seed{run.args.seed}"
    shutil.rmtree(wal_dir, ignore_errors=True)
    wal_dir.mkdir(parents=True)
    wal = WriteAheadLog(wal_dir / "wal.log")
    append_ms = []
    with tracer.span("store.wal_append"):
        try:
            for version, batch in enumerate(run.acknowledged[:30], start=1):
                mutations = parse_batch(batch)
                t0 = time.perf_counter()
                wal.append(version, mutations)
                append_ms.append((time.perf_counter() - t0) * 1e3)
        finally:
            wal.close()
            shutil.rmtree(wal_dir, ignore_errors=True)
    out["store.wal_append_ms"] = statistics.median(append_ms)

    open_ms = []
    with tracer.span("store.open"):
        for _ in range(3):
            t0 = time.perf_counter()
            handle = open_store(store_directory(run.args))
            open_ms.append((time.perf_counter() - t0) * 1e3)
            handle.close()
    out["store.open_ms"] = statistics.median(open_ms)

    imports = []
    with tracer.span("service.import"):
        for _ in range(3):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import repro.service"],
                           env=common.child_env(), cwd=common.ROOT,
                           check=True, timeout=60)
            imports.append(time.perf_counter() - t0)
    out["service.import_s"] = statistics.median(imports)
    return out


def store_directory(args, k: int = 0) -> Path:
    return common.WORK / f"serve-{args.workload}-seed{args.seed}-{k}"


LAYER_UNITS = {
    "service.engine_lookup_us": "us",
    "service.dispatch_line_us": "us",
    "service.server_lookup_us": "us",
    "service.wire_lookup_us": "us",
    "service.engine_batch_items_per_s": "1/s",
    "service.engine_heavy_ms": "ms",
    "service.import_s": "s",
    "service.first_answer_ms": "ms",
    "service.errors": "count",
    "service.shed": "count",
    "cache.hits": "count",
    "cache.derives": "count",
    "cache.misses": "count",
    "cache.evictions": "count",
    "cache.hit_ratio": "ratio",
    "cache.derive_ms": "ms",
    "dynamic.apply_ms": "ms",
    "dynamic.patch_ms": "ms",
    "dynamic.patched": "count",
    "dynamic.dropped": "count",
    "store.wal_append_ms": "ms",
    "store.open_ms": "ms",
    "store.replayed_batches": "count",
    "store.hydrated": "count",
}


def per_layer(run: Run, tracer) -> dict:
    values = in_process_layers(run, tracer)
    server_us = statistics.median(r["server_lookup_us"] for r in run.rounds)
    values["service.server_lookup_us"] = server_us
    values["service.wire_lookup_us"] = 1e3 * statistics.median(
        r["lookup_p50_ms"] for r in run.rounds
    ) - server_us
    values["service.first_answer_ms"] = common.median_or_inf(run.first_answer_ms)
    phases = run.phases.values()
    values["service.errors"] = sum(p.failed for p in phases)
    values["service.shed"] = sum(p.shed for p in phases)
    totals = {k: sum(d[k] for d in run.cache_deltas.values())
              for k in ("hits", "derives", "misses", "evictions")}
    for k, v in totals.items():
        values[f"cache.{k}"] = v
    served = totals["hits"] + totals["derives"] + totals["misses"]
    values["cache.hit_ratio"] = totals["hits"] / served if served else 0.0
    values["dynamic.patched"] = run.update_outcomes["patched"]
    values["dynamic.dropped"] = run.update_outcomes["dropped"]
    values["store.replayed_batches"] = run.replayed
    values["store.hydrated"] = run.hydrated
    return {name: common.metric(values[name], unit)
            for name, unit in LAYER_UNITS.items()}


def drive(args) -> common.Outcome:
    """Run the serving half of ``args.workload``; returns its outcome."""
    common.WORK.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else NULL_TRACER
    run = Run(args, tracer)
    run.traffic()
    try:
        with tracer.span("serve.setup"):
            run.setup_once()
        with tracer.span("serve.phases"):
            run.run_phases()
        with tracer.span("serve.restart"):
            run.restart()
        with tracer.span("serve.check"):
            run.check_samples(run.samples)
        metrics = per_layer(run, tracer) if args.trace else end_to_end(run)
    finally:
        if run.server is not None:
            run.server.stop()
        shutil.rmtree(store_directory(args), ignore_errors=True)
    print(f"serving {run.dataset}:")
    for phase in run.phases.values():
        print("  " + phase.row())
    for name, delta in run.cache_deltas.items():
        print(f"  cache {name:<8} " + " ".join(f"{k}={v}" for k, v in delta.items()))
    for i, row in enumerate(run.rounds):
        n = int(row["lookup_n"])
        print(f"  round {i}: lookup {row['lookup_ops_per_s']:.0f}/s "
              f"p50 {row['lookup_p50_ms']:.3f}ms p99 {row['lookup_p99_ms']:.3f}ms "
              f"(n={n}, {math.floor(n * 0.01)} beyond p99) "
              f"batch {row['batch_items_per_s']:.0f}/s "
              f"components p50 {row['heavy_p50_ms']:.3f}ms "
              f"distance p50 {row['distance_p50_ms']:.3f}ms")
    for line in run.problems[:20]:
        print(f"  MISMATCH {line}")
    if args.trace:
        spans = common.span_records(tracer)
        out = common.WORK / f"trace-serve-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps(spans))
        for line in common.where_table(
            f"serve {args.workload} seed {args.seed}", spans
        ):
            print(line)
    phases = run.phases.values()
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed + p.shed for p in phases)
    return common.Outcome(not run.problems and failed == 0, attempted,
                          failed + len(run.problems), metrics)
