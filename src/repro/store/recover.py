"""Warm restart: reopen a store in O(1) and replay the WAL tail.

:func:`open_store` is the crash-safe open path:

1. load + validate the manifest (the commit point of the last
   checkpoint);
2. ``mmap`` the slab and **adopt** the persisted buffers — trusted O(1)
   constructors all the way up (``CSR.adopt`` → ``BiAdjacency`` →
   ``BiEdgeList.frozen`` → ``NWHypergraph.from_frozen``), no parsing, no
   validation scans, no copies;
3. scan the WAL: records at or below the manifest's ``base_version`` are
   stale (a checkpoint committed but crashed before resetting the log)
   and are skipped; a torn tail is truncated back to the last committed
   record; surviving batches replay in order onto a
   :class:`DurableDynamicHypergraph`, which continues appending new
   batches to the same log.

The result is a :class:`StoreHandle`: the serving layer registers its
``dynamic`` directly, rehydrates the recorded hot s-line graphs
(:meth:`StoreHandle.hot_linegraphs` — adopted at the snapshot version,
then rolled forward through the replayed tail by one delta patch), and
checkpoints via :meth:`StoreHandle.checkpoint` (fold the overlay, write
a fresh snapshot, reset the WAL).  Roll-forward is not part of
:func:`open_store`, which stays O(1) plus the replay.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.core.hypergraph import NWHypergraph
from repro.core.slinegraph import SLineGraph
from repro.dynamic.hypergraph import ApplyResult, DynamicHypergraph
from repro.dynamic.incremental import patch_slinegraph
from repro.dynamic.log import parse_batch
from repro.structures.adjoin import AdjoinGraph
from repro.structures.biadjacency import BiAdjacency
from repro.structures.csr import CSR
from repro.structures.edgelist import BiEdgeList, EdgeList

from .manifest import (
    Manifest,
    StoreCorruptError,
    StoreError,
    load_manifest,
)
from .slab import SlabFile
from .snapshot import cleanup_orphan_slabs, write_snapshot
from .wal import WriteAheadLog, read_wal

__all__ = [
    "DurableDynamicHypergraph",
    "RecoveryReport",
    "StoreHandle",
    "open_store",
    "read_store",
]


@dataclass(frozen=True)
class RecoveryReport:
    """What one :func:`open_store` did to reach a consistent state."""

    base_version: int
    version: int
    replayed_batches: int
    replayed_ops: int
    skipped_records: int
    torn_tail: bool
    truncated_bytes: int
    reason: str = ""

    def as_dict(self) -> dict:
        return {
            "base_version": self.base_version,
            "version": self.version,
            "replayed_batches": self.replayed_batches,
            "replayed_ops": self.replayed_ops,
            "skipped_records": self.skipped_records,
            "torn_tail": self.torn_tail,
            "truncated_bytes": self.truncated_bytes,
            "reason": self.reason,
        }


class DurableDynamicHypergraph(DynamicHypergraph):
    """A :class:`DynamicHypergraph` whose batches survive the process.

    ``apply`` appends the batch to the write-ahead log *after* the
    in-memory apply succeeds and *before* returning — under the same
    reentrant lock, so the WAL's version order always matches the apply
    order.  A failed append poisons the instance (further writes refuse)
    rather than let memory silently diverge from disk; the caller never
    saw an acknowledgment for the lost batch, so a restart recovering
    the committed prefix is correct.

    ``compact`` becomes a durable checkpoint when owned by a
    :class:`StoreHandle` (snapshot + WAL reset); unowned instances fall
    back to the in-memory fold.
    """

    def __init__(
        self,
        base: NWHypergraph,
        wal: WriteAheadLog,
        version: int = 0,
        tracer: object = None,
        metrics: object = None,
    ) -> None:
        super().__init__(base, tracer=tracer, metrics=metrics, version=version)
        self._wal = wal
        self._wal_failed = False
        self._checkpoint_cb = None

    def apply(self, batch: object) -> ApplyResult:
        mutations = parse_batch(batch)
        with self._lock:
            if self._wal_failed:
                raise StoreError(
                    "store is read-only: a WAL append failed and the "
                    "in-memory state can no longer be made durable"
                )
            result = super().apply(mutations)
            try:
                self._wal.append(result.version, mutations)
            except (OSError, ValueError) as exc:
                self._wal_failed = True
                raise StoreError(
                    f"WAL append for version {result.version} failed: {exc}"
                ) from exc
            return result

    def replay(self, version: int, mutations: object) -> ApplyResult:
        """Apply an already-durable batch without re-logging it."""
        with self._lock:
            result = super().apply(mutations)
            if result.version != version:
                raise StoreCorruptError(
                    f"replay produced version {result.version}, WAL record "
                    f"says {version}"
                )
            return result

    def compact(self) -> NWHypergraph:
        with self._lock:
            cb = self._checkpoint_cb
            if cb is not None:
                cb()
                return self._base
            return super().compact()


class StoreHandle:
    """One opened store: the durable hypergraph plus its disk resources."""

    def __init__(
        self,
        directory: Path,
        manifest: Manifest,
        slab: SlabFile,
        dynamic: DurableDynamicHypergraph,
        recovery: RecoveryReport,
        include_adjoin: bool,
        metrics: object = None,
        tracer: object = None,
    ) -> None:
        from repro.obs.metrics import as_metrics
        from repro.obs.tracer import as_tracer

        self.directory = directory
        self.manifest = manifest
        self.slab = slab
        self.dynamic = dynamic
        self.recovery = recovery
        self._include_adjoin = include_adjoin
        self._metrics = as_metrics(metrics)
        self._tracer = as_tracer(tracer)
        self._closed = False
        dynamic._checkpoint_cb = self.checkpoint

    @property
    def name(self) -> str:
        return self.manifest.name

    @property
    def version(self) -> int:
        return self.dynamic.version

    def hypergraph(self) -> NWHypergraph:
        """Frozen snapshot of the current (replayed) state."""
        return self.dynamic.snapshot()

    def hot_linegraphs(self) -> dict[tuple[int, bool], SLineGraph]:
        """Recorded hot s-line graphs, rolled forward to the current version.

        Each entry is adopted from the slab at the snapshot version.  If
        the WAL tail replayed batches, one :func:`~repro.dynamic
        .incremental.patch_slinegraph` over the union of their dirty sets
        brings it to the replayed version — exact, because a pair with no
        endpoint touched since the snapshot keeps its member sets and so
        its overlap, and every other pair is recounted against the
        current state.  An entry the patch-vs-rebuild policy would
        rebuild, or one persisted without overlap weights, is omitted
        (the serving layer builds it lazily) and counted in
        ``store.hot_skipped_stale``.
        """
        dyn = self.dynamic
        out: dict[tuple[int, bool], SLineGraph] = {}
        with dyn._lock, self._tracer.span(
            "store.rollforward",
            base_version=self.manifest.base_version,
            version=dyn.version,
        ):
            stale = dyn.version != self.manifest.base_version
            for spec in self.manifest.hot:
                weights = (
                    self.slab.array(spec["weights"])
                    if spec.get("weights")
                    else None
                )
                el = EdgeList(
                    self.slab.array(spec["src"]),
                    self.slab.array(spec["dst"]),
                    weights,
                    num_vertices=int(spec["num_vertices"]),
                )
                s, over_edges = int(spec["s"]), bool(spec["over_edges"])
                lg = SLineGraph(el, s=s, over_edges=over_edges)
                if stale:
                    side, dirty = (
                        (dyn.state, dyn.dirty_edges())
                        if over_edges
                        else (dyn.state.dual(), dyn.dirty_nodes())
                    )
                    lg = patch_slinegraph(
                        lg, side, dirty,
                        tracer=self._tracer, metrics=self._metrics,
                    )
                if lg is None:
                    self._metrics.counter("store.hot_skipped_stale").inc()
                    continue
                out[(s, over_edges)] = lg
                self._metrics.counter("store.hot_rehydrated").inc()
        return out

    def checkpoint(self, recompute_hot: bool = True) -> Manifest:
        """Fold the overlay, write a fresh snapshot, reset the WAL.

        Runs under the dynamic's lock so concurrent appliers serialize
        against the checkpoint.  ``recompute_hot`` rebuilds the same
        ``(s, over_edges)`` hot set the manifest recorded, over the new
        state.
        """
        if self._closed:
            raise StoreError(f"store {self.directory} is closed")
        dyn = self.dynamic
        with dyn._lock, self._tracer.span(
            "store.checkpoint", dataset=self.name, version=dyn.version
        ):
            base = DynamicHypergraph.compact(dyn)
            hot: dict[tuple[int, bool], SLineGraph] = {}
            if recompute_hot:
                for spec in self.manifest.hot:
                    s = int(spec["s"])
                    over_edges = bool(spec["over_edges"])
                    hot[(s, over_edges)] = base.s_linegraph(
                        s, over_edges=over_edges
                    )
            # checkpoints inherit the encoding the store was built with
            compress = any(
                spec.get("encoding") == "varint"
                for key, spec in self.manifest.csrs.items()
                if key != "incidence"
            )
            manifest = write_snapshot(
                self.directory,
                base,
                self.name,
                base_version=dyn.version,
                hot=hot,
                include_adjoin=self._include_adjoin,
                compress=compress,
                metrics=self._metrics,
                tracer=self._tracer,
            )
            dyn._wal.reset()
            self.manifest = manifest
            return manifest

    def verify(self) -> list[str]:
        """Checksum every slab payload; names of corrupt arrays (or [])."""
        return self.slab.verify()

    def wal_stats(self) -> dict:
        return self.dynamic._wal.stats()

    def stats(self) -> dict:
        """JSON-safe handle summary (served by ``stats``/``inspect``)."""
        return {
            "directory": str(self.directory),
            "name": self.name,
            "base_version": self.manifest.base_version,
            "version": self.version,
            "slab": self.manifest.slab,
            "slab_bytes": self.manifest.slab_bytes(),
            "arrays": len(self.manifest.arrays),
            "hot": len(self.manifest.hot),
            "recovery": self.recovery.as_dict(),
            "wal": self.wal_stats(),
        }

    def close(self) -> None:
        """Close the WAL and drop the slab mapping (idempotent)."""
        if not self._closed:
            self._closed = True
            self.dynamic._checkpoint_cb = None
            self.dynamic._wal.close()
            self.slab.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StoreHandle({str(self.directory)!r}, name={self.name!r}, "
            f"version={self.version})"
        )


def _adopt_csr(slab: SlabFile, spec: dict) -> CSR:
    """CSR over slab views, per one manifest composition record.

    Plain sections adopt the mmap pages in O(1).  Varint sections
    (``"encoding": "varint"``, written by ``build_store(compress=True)``)
    decode once here — the slab stays compressed on disk and in the page
    cache; only the decoded indices are freshly allocated.
    """
    if spec.get("encoding") == "varint":
        from repro.structures.compressed import CompressedCSR

        return CompressedCSR.adopt(
            slab.array(spec["indptr"]),
            slab.array(spec["offsets"]),
            slab.array(spec["data"]),
            slab.array(spec["weights"]) if spec.get("weights") else None,
            num_targets=int(spec["num_targets"]),
            sorted_rows=bool(spec.get("sorted", True)),
        ).to_csr()
    return CSR.adopt(
        slab.array(spec["indptr"]),
        slab.array(spec["indices"]),
        slab.array(spec["weights"]) if spec.get("weights") else None,
        num_targets=int(spec["num_targets"]),
        sorted_rows=bool(spec.get("sorted", True)),
    )


def open_store(
    directory: str | os.PathLike,
    metrics: object = None,
    tracer: object = None,
) -> StoreHandle:
    """Open a store for serving: O(1) mmap adoption + WAL tail replay."""
    from repro.obs.metrics import as_metrics
    from repro.obs.tracer import as_tracer

    metrics = as_metrics(metrics)
    directory = Path(directory)
    with as_tracer(tracer).span("store.open", directory=str(directory)) as span:
        manifest = load_manifest(directory)
        slab = SlabFile(directory / manifest.slab, manifest.arrays)
        wal: WriteAheadLog | None = None
        handle: StoreHandle | None = None
        try:
            metrics.counter("store.mmap_bytes").inc(slab.nbytes())
            inc = manifest.csrs["incidence"]
            el = BiEdgeList.frozen(
                slab.array(inc["part0"]),
                slab.array(inc["part1"]),
                slab.array(inc["weights"]) if inc.get("weights") else None,
                n0=manifest.num_edges,
                n1=manifest.num_nodes,
            )
            bi = BiAdjacency(
                _adopt_csr(slab, manifest.csrs["bi.edges"]),
                _adopt_csr(slab, manifest.csrs["bi.nodes"]),
            )
            include_adjoin = "adjoin.graph" in manifest.csrs
            adjoin = None
            if include_adjoin:
                adjoin = AdjoinGraph(
                    _adopt_csr(slab, manifest.csrs["adjoin.graph"]),
                    manifest.num_edges,
                    manifest.num_nodes,
                )
            base = NWHypergraph.from_frozen(el, biadjacency=bi, adjoin=adjoin)

            # opening the writer truncates any torn tail; the re-scan after
            # that is guaranteed clean
            wal = WriteAheadLog(directory / manifest.wal, metrics=metrics)
            tail = wal.recovered_tail
            records, _ = read_wal(directory / manifest.wal)
            dynamic = DurableDynamicHypergraph(
                base,
                wal,
                version=manifest.base_version,
                tracer=tracer,
                metrics=metrics,
            )
            skipped = 0
            replayed_ops = 0
            expected = manifest.base_version + 1
            with as_tracer(tracer).span(
                "store.replay", records=len(records)
            ) as replay_span:
                for record in records:
                    if record.version <= manifest.base_version:
                        skipped += 1
                        continue
                    if record.version != expected:
                        raise StoreCorruptError(
                            f"WAL gap: expected version {expected}, found "
                            f"{record.version}"
                        )
                    dynamic.replay(record.version, list(record.mutations))
                    replayed_ops += len(record.mutations)
                    expected += 1
                replay_span.set(skipped=skipped, ops=replayed_ops)
            replayed = expected - manifest.base_version - 1
            metrics.counter("store.replayed_batches").inc(replayed)
            metrics.counter("store.replayed_ops").inc(replayed_ops)
            recovery = RecoveryReport(
                base_version=manifest.base_version,
                version=dynamic.version,
                replayed_batches=replayed,
                replayed_ops=replayed_ops,
                skipped_records=skipped,
                torn_tail=tail.torn,
                truncated_bytes=tail.torn_bytes,
                reason=tail.reason,
            )
            span.set(
                version=dynamic.version,
                replayed=replayed,
                torn=tail.torn,
            )
            handle = StoreHandle(
                directory,
                manifest,
                slab,
                dynamic,
                recovery,
                include_adjoin,
                metrics=metrics,
                tracer=tracer,
            )
        finally:
            if handle is None:
                # adoption or replay failed (corrupt manifest, WAL gap):
                # the mmap and the WAL append handle must not outlive
                # the error — a leaked mapping pins the slab file and a
                # leaked WAL handle blocks a clean re-open
                if wal is not None:
                    wal.close()
                slab.close()
    cleanup_orphan_slabs(directory, manifest)
    return handle


def read_store(directory: str | os.PathLike) -> BiEdgeList:
    """Materialize a store's current state as a plain :class:`BiEdgeList`.

    The transparent-read path behind ``read_any``: opens the store,
    replays the WAL tail, and returns *copies* (safe to use after the
    mapping is closed).  Incidence weights survive only when no mutation
    was ever applied — the mutation vocabulary is unweighted, matching
    :meth:`DynamicHypergraph.snapshot`.
    """
    handle = open_store(directory)
    try:
        el = handle.hypergraph()._el
        return BiEdgeList(
            el.part0.copy(),
            el.part1.copy(),
            None if el.weights is None else el.weights.copy(),
            n0=el.num_vertices(0),
            n1=el.num_vertices(1),
        )
    finally:
        handle.close()
