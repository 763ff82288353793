"""Command-line interface: ``python -m repro <command> ...``.

Thin argparse front end over the library, covering the operational loop a
framework user runs from a shell: inspect a hypergraph file, convert
between formats, run exact CC/BFS, construct s-line graphs, extract
toplexes, and regenerate the paper's tables.

Supported file formats (selected by extension): ``.mtx`` (MatrixMarket,
Listing 2's reader), ``.hygra``/``.adj`` (Hygra's AdjacencyHypergraph),
and ``.csv`` (incidence tables).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.algorithms.toplex import toplexes
from repro.core.hypergraph import NWHypergraph
from repro.io.datasets import dataset_stats, load, table1
from repro.io.generators import (
    community_hypergraph,
    powerlaw_hypergraph,
    uniform_random_hypergraph,
)
from repro.io.json_io import jsonify as _jsonify
from repro.io.loader import read_any, write_any
from repro.io.mmio import read_mm, write_mm
from repro.structures.edgelist import BiEdgeList

__all__ = ["main", "build_parser"]


def _read(path: str) -> BiEdgeList:
    try:
        return read_any(path)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _write(path: str, el: BiEdgeList) -> None:
    try:
        write_any(path, el)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _hypergraph(path: str) -> NWHypergraph:
    el = _read(path)
    return NWHypergraph(
        el.part0, el.part1, el.weights,
        num_edges=el.num_vertices(0), num_nodes=el.num_vertices(1),
    )


def _dump_json(payload) -> None:
    """Emit one JSON document; ``_jsonify`` strips numpy scalar/array types
    first so ``np.int64`` histogram keys and ``np.float64`` means never
    raise ``TypeError`` inside ``json.dumps``."""
    print(json.dumps(_jsonify(payload), indent=2, sort_keys=True))


def cmd_stats(args: argparse.Namespace) -> int:
    el = _read(args.file)
    stats = dataset_stats(Path(args.file).stem, el)
    if args.json:
        hg = _hypergraph(args.file)
        payload = dict(_jsonify(stats))
        payload["edge_size_dist"] = hg.edge_size_dist()
        payload["node_degree_dist"] = hg.node_degree_dist()
        _dump_json(payload)
        return 0
    print(f"hypergraph      {stats.name}")
    print(f"hypernodes      {stats.num_nodes}")
    print(f"hyperedges      {stats.num_edges}")
    print(f"avg node degree {stats.avg_node_degree:.2f}")
    print(f"avg edge size   {stats.avg_edge_size:.2f}")
    print(f"max node degree {stats.max_node_degree}")
    print(f"max edge size   {stats.max_edge_size}")
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    _write(args.output, _read(args.input))
    print(f"wrote {args.output}")
    return 0


def cmd_cc(args: argparse.Namespace) -> int:
    hg = _hypergraph(args.file)
    edge_labels, node_labels = hg.connected_components(
        representation=args.representation, algorithm=args.algorithm
    )
    combined = np.unique(np.concatenate([edge_labels, node_labels]))
    print(f"components      {combined.size}")
    sizes = np.bincount(
        np.searchsorted(combined, np.concatenate([edge_labels, node_labels]))
    )
    print(f"largest         {int(sizes.max())} entities")
    print(f"singletons      {int((sizes == 1).sum())}")
    return 0


def cmd_bfs(args: argparse.Namespace) -> int:
    hg = _hypergraph(args.file)
    edge_dist, node_dist = hg.bfs(
        args.source, source_is_edge=args.edge,
        representation=args.representation,
    )
    reached_e = int((edge_dist >= 0).sum())
    reached_n = int((node_dist >= 0).sum())
    print(f"reached         {reached_e} hyperedges, {reached_n} hypernodes")
    both = np.concatenate([edge_dist, node_dist])
    both = both[both >= 0]
    print(f"max distance    {int(both.max()) if both.size else 0}")
    hist = np.bincount(both) if both.size else np.array([], dtype=int)
    for d, count in enumerate(hist.tolist()):
        print(f"  level {d}: {count}")
    return 0


def cmd_slinegraph(args: argparse.Namespace) -> int:
    hg = _hypergraph(args.file)
    lg = hg.s_linegraph(args.s, algorithm=args.algorithm)
    print(f"s={args.s} line graph: {lg.num_vertices()} vertices, "
          f"{lg.num_edges()} edges")
    comps = lg.s_connected_components()
    print(f"components (non-singleton): {len(comps)}")
    if args.output:
        el = lg.edgelist
        _write(
            args.output,
            BiEdgeList(
                el.src, el.dst, el.weights,
                n0=el.num_vertices(), n1=el.num_vertices(),
            ),
        )
        print(f"wrote {args.output}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from repro.core.smetrics import format_smetrics_table, s_metrics_report

    hg = _hypergraph(args.file)
    reports = s_metrics_report(hg.biadjacency, args.s)
    if args.json:
        _dump_json({s: rep for s, rep in sorted(reports.items())})
    elif args.table:
        print(format_smetrics_table(reports))
    else:
        for s in sorted(reports):
            print(reports[s].summary())
    return 0


def cmd_toplex(args: argparse.Namespace) -> int:
    hg = _hypergraph(args.file)
    tops = toplexes(hg.biadjacency)
    print(f"toplexes        {tops.size} / {hg.number_of_edges()} hyperedges")
    if args.verbose:
        for t in tops.tolist():
            print(f"  edge {t}: {hg.edge_incidence(t).tolist()}")
    return 0


def cmd_dot(args: argparse.Namespace) -> int:
    from repro.io.dot import bipartite_dot, linegraph_dot

    hg = _hypergraph(args.file)
    if args.linegraph:
        lg = hg.s_linegraph(args.s)
        text = linegraph_dot(lg.edgelist, s=args.s, path=args.output)
    else:
        text = bipartite_dot(hg.biadjacency, path=args.output)
    if args.output:
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.algorithms.hypercc import hypercc
    from repro.parallel import ParallelRuntime, export_chrome_trace

    hg = _hypergraph(args.file)
    rt = ParallelRuntime(
        num_threads=args.threads,
        scheduler=args.scheduler,
        partitioner=args.partitioner,
        trace=True,
    )
    if args.algorithm == "cc":
        hypercc(hg.biadjacency, runtime=rt)
    elif args.algorithm == "bfs":
        hg.bfs(args.source, representation="bipartite", runtime=rt)
    else:  # slinegraph
        from repro.linegraph import slinegraph_hashmap

        slinegraph_hashmap(hg.biadjacency, args.s, runtime=rt)
    count = export_chrome_trace(rt.ledger, args.output)
    print(f"wrote {args.output} ({count} events, simulated makespan "
          f"{rt.makespan:.0f}); open at chrome://tracing")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Run a named workload under full instrumentation (repro.obs)."""
    from repro.obs.profile import run_profile

    summary = run_profile(
        args.workload,
        dataset=args.dataset,
        s=args.s,
        threads=args.threads,
        algorithm=args.algorithm,
        out=args.out,
    )
    if args.json:
        _dump_json(summary)
        return 0
    print(f"workload        {summary['workload']} "
          f"(dataset={summary['dataset']}, s={summary['s']}, "
          f"threads={summary['threads']})")
    for name, st in sorted(summary["spans"].items()):
        print(f"  span {name:<36} x{st['count']:<4} "
              f"total {st['total_ms']:.2f} ms  max {st['max_ms']:.2f} ms")
    counters = [
        inst for inst in summary["metrics"] if inst.get("kind") == "counter"
    ]
    for inst in counters:
        labels = ",".join(f"{k}={v}" for k, v in
                          sorted(inst.get("labels", {}).items()))
        print(f"  counter {inst['name']}{{{labels}}} = {inst['value']}")
    if "trace_path" in summary:
        print(f"wrote {summary['trace_path']} ({summary['num_events']} "
              f"events); open in Perfetto or chrome://tracing")
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.bench.reporting import format_table1

    print(format_table1(table1()))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.bench.verify import verify_headline_claims

    lines, ok = verify_headline_claims(verbose=args.verbose)
    for line in lines:
        print(line)
    print("\nreproduction self-check:", "OK" if ok else "FAILED")
    return 0 if ok else 1


def cmd_bench(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from repro.bench.harness import (
        fig9_slinegraph,
        strong_scaling_bfs,
        strong_scaling_cc,
    )
    from repro.bench.reporting import format_fig9, format_scaling

    threads = tuple(args.threads)
    be = {"backend": args.backend, "workers": args.workers}
    results: list
    if args.figure == 7:
        results = strong_scaling_cc(args.dataset, threads, **be)
        text = format_scaling(results)
    elif args.figure == 8:
        results = strong_scaling_bfs(args.dataset, threads, **be)
        text = format_scaling(results)
    elif args.figure == 9:
        results = fig9_slinegraph(
            args.dataset, s=args.s, threads=max(threads),
            kernel=args.kernel, **be,
        )
        text = format_fig9(results)
    else:
        raise SystemExit(f"no driver for figure {args.figure} (use 7, 8, 9)")
    if args.json:
        print(json.dumps({
            "figure": args.figure,
            "dataset": args.dataset,
            "backend": args.backend or "simulated",
            "workers": args.workers,
            "kernel": args.kernel,
            "results": [asdict(r) for r in results],
        }, indent=2))
    else:
        print(text)
    return 0


_GENERATORS = {
    "uniform": lambda a: uniform_random_hypergraph(
        a.edges, a.nodes, max(1, int(a.mean_size)), seed=a.seed
    ),
    "powerlaw": lambda a: powerlaw_hypergraph(
        a.edges, a.nodes, mean_edge_size=a.mean_size, seed=a.seed
    ),
    "community": lambda a: community_hypergraph(
        a.edges, a.nodes, mean_community_size=a.mean_size, seed=a.seed
    ),
}


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the analytics server until interrupted (Ctrl-C to stop)."""
    from repro.obs import MetricsRegistry
    from repro.service import (
        AsyncAnalyticsServer,
        QueryEngine,
        ShardedEngine,
        SLineGraphCache,
    )

    registry = MetricsRegistry()
    engine_kwargs = dict(
        cache=SLineGraphCache(
            budget_bytes=None
            if args.budget_mb is None
            else int(args.budget_mb * 1024 * 1024),
            metrics=registry,
        ),
        num_threads=args.threads,
        metrics=registry,
        backend=args.backend,
        workers=args.workers,
    )
    if args.shards > 1:
        engine = ShardedEngine(num_shards=args.shards, **engine_kwargs)
    else:
        engine = QueryEngine(**engine_kwargs)
    for spec in args.dataset:
        name, _, source = spec.partition("=")
        engine.store.register(name, source or name)
    for spec in args.store:
        name, _, directory = spec.partition("=")
        if not directory:
            name, directory = Path(name).name or name, name
        info = engine.register_store(name, directory)
        rec = info["recovery"]
        print(f"opened store {directory!r} as {name!r} "
              f"(version {info['version']}, "
              f"{rec['replayed_batches']} batch(es) replayed, "
              f"{len(info['hydrated'])} hot line graph(s) rehydrated)",
              flush=True)
    quotas = None
    if args.quota:
        quotas = {}
        for spec in args.quota:
            tenant, _, shape = spec.partition("=")
            rate, _, burst = shape.partition(":")
            try:
                quotas[tenant] = {
                    "rate": float(rate),
                    "burst": float(burst) if burst else None,
                }
            except ValueError:
                raise SystemExit(
                    f"--quota must be TENANT=RATE[:BURST], got {spec!r}"
                )
    server = AsyncAnalyticsServer(
        engine,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        quotas=quotas,
    ).start()
    host, port = server.address
    shard_note = (
        f", shards={args.shards}" if args.shards > 1 else ""
    )
    print(f"serving {len(engine.store)} dataset(s) "
          f"{engine.store.names()} on {host}:{port} "
          f"(frontend={args.frontend}, backend={engine.backend.name}"
          f"{shard_note})", flush=True)
    try:
        server.wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        engine.close()
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """Send JSON queries to a running server; one response line each."""
    from repro.service import SocketSession

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"--connect must be HOST:PORT, got {args.connect!r}")
    lines = args.query if args.query else [ln for ln in sys.stdin]
    queries = []
    for text in lines:
        text = text.strip()
        if not text:
            continue
        try:
            queries.append(json.loads(text))
        except json.JSONDecodeError as exc:
            raise SystemExit(f"bad query {text!r}: {exc}")
    if (args.backend or args.workers) and not args.batch:
        raise SystemExit(
            "--backend/--workers select the batch dispatch backend; "
            "add --batch"
        )
    failed = 0
    with SocketSession(host, int(port), strict=False) as session:
        if args.batch:
            responses = session.batch(
                queries, backend=args.backend, workers=args.workers
            )
        else:
            responses = [session.request(q) for q in queries]
    for resp in responses:
        if isinstance(resp, dict) and not resp.get("ok", False):
            failed += 1
        print(json.dumps(resp))
    return 1 if failed else 0


def cmd_update(args: argparse.Namespace) -> int:
    """Apply batched mutations to a hypergraph file (repro.dynamic).

    The ops file is JSON: a list of mutation records (one batch) or a
    list of such lists (applied as successive batches).  The compacted
    result is optionally written back out, and a JSON summary — per-batch
    deltas plus patch/rebuild outcomes for any maintained s-line graphs —
    goes to stdout.
    """
    from repro.dynamic import DynamicHypergraph, IncrementalSLineGraph

    hg = _hypergraph(args.file)
    try:
        payload = json.loads(Path(args.ops).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read ops file {args.ops!r}: {exc}")
    if isinstance(payload, dict):
        payload = [payload]
    if not isinstance(payload, list) or not payload:
        raise SystemExit(
            "ops file must hold a non-empty JSON list of mutation records "
            "(or a list of batches)"
        )
    if all(isinstance(b, list) for b in payload):
        batches = payload
    else:
        batches = [payload]
    dyn = DynamicHypergraph(hg)
    inc = IncrementalSLineGraph(dyn) if args.s else None
    for s in args.s:
        inc.materialize(s)
    applied = []
    for i, batch in enumerate(batches):
        try:
            res = dyn.apply(batch)
        except ValueError as exc:
            raise SystemExit(f"batch {i}: {exc}")
        entry = res.as_dict()
        if inc is not None:
            entry["linegraphs"] = {
                str(s): how for s, how in inc.update(res).items()
            }
        applied.append(entry)
    snap = dyn.compact()
    if args.output:
        _write(
            args.output,
            BiEdgeList(
                snap.row, snap.col,
                n0=snap.number_of_edges(), n1=snap.number_of_nodes(),
            ),
        )
    _dump_json(
        {
            "input": args.file,
            "output": args.output,
            "batches": applied,
            "version": dyn.version,
            "num_edges": snap.number_of_edges(),
            "num_nodes": snap.number_of_nodes(),
        }
    )
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    """Durable store operations: build, inspect, compact (repro.store)."""
    from repro.store import StoreError, build_store, open_store

    try:
        if args.store_command == "build":
            manifest = build_store(
                args.directory,
                args.source,
                name=args.name,
                warm_s=tuple(args.warm_s),
                include_adjoin=not args.no_adjoin,
                compress=args.compress,
            )
            print(
                f"built store {args.directory!r} "
                f"(dataset {manifest.name!r}, {manifest.num_edges} edges, "
                f"{manifest.num_nodes} nodes, "
                f"{manifest.slab_bytes()} slab bytes, "
                f"{len(manifest.hot)} hot line graph(s))"
            )
            return 0
        handle = open_store(args.directory)
        try:
            if args.store_command == "compact":
                before = handle.manifest.base_version
                handle.checkpoint()
                print(
                    f"compacted store {args.directory!r}: base version "
                    f"{before} -> {handle.manifest.base_version} "
                    f"({handle.manifest.slab_bytes()} slab bytes, WAL reset)"
                )
                return 0
            # inspect
            stats = handle.stats()
            if args.verify:
                bad = handle.verify()
                stats["checksum_failures"] = bad
                if bad:
                    print(f"checksum FAILED for: {', '.join(bad)}",
                          file=sys.stderr)
            if args.json:
                _dump_json(stats)
            else:
                rec = stats["recovery"]
                print(f"store     {stats['directory']}")
                print(f"dataset   {stats['name']}")
                print(f"version   {stats['version']} "
                      f"(snapshot at {stats['base_version']}, "
                      f"{rec['replayed_batches']} WAL batch(es) replayed)")
                print(f"slab      {stats['slab']} "
                      f"({stats['slab_bytes']} bytes, "
                      f"{stats['arrays']} arrays)")
                print(f"wal       {stats['wal']['bytes']} bytes")
                if rec["torn_tail"]:
                    print(f"recovered torn WAL tail: {rec['reason']} "
                          f"({rec['truncated_bytes']} bytes truncated)")
                if handle.manifest.hot:
                    specs = ", ".join(
                        f"s={h['s']} ({'edges' if h['over_edges'] else 'nodes'})"
                        for h in handle.manifest.hot
                    )
                    print(f"hot       {specs}")
            return 1 if args.verify and stats["checksum_failures"] else 0
        finally:
            handle.close()
    except StoreError as exc:
        raise SystemExit(f"store error: {exc}") from None


def cmd_check(args: argparse.Namespace) -> int:
    """Static invariant lint pass over the given paths (repro.check)."""
    import time

    from repro.check import (
        conformance_summary,
        lint_paths,
        parse_tree,
        render_conformance_table,
        render_json,
        render_suppressions,
        render_text,
        select_rules,
    )

    if getattr(args, "conformance", False):
        # protocol-conformance diff only: SPEC vs the implemented wire
        # surface, as a markdown table (for CI job summaries)
        tree, errors = parse_tree(args.paths)
        for err in errors:
            print(f"error: {err}", file=sys.stderr)
        rows = conformance_summary(tree)
        print(render_conformance_table(rows))
        drifted = [r for r in rows if r["status"] != "ok"]
        return 1 if drifted or errors else 0
    try:
        rules = select_rules(args.rules)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    report = lint_paths(args.paths, rules=rules)
    elapsed = time.perf_counter() - start
    if getattr(args, "list_suppressions", False):
        # suppression inventory audit: every noqa comment with its
        # justification, stale ones flagged
        print(render_suppressions(report))
        return 1 if report.stale_suppressions else 0
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report, show_suppressed=args.show_suppressed))
        print(
            f"({len(report.paths)} files, "
            f"{len(rules)} rule(s), {elapsed:.2f}s)"
        )
    return 0 if report.ok else 1


def _parse_tenants(specs: list[str], dataset: str) -> list:
    """``NAME[=RPS[:CONNECTIONS]]`` CLI specs -> TenantSpec list."""
    from repro.bench.load import TenantSpec

    tenants = []
    for spec in specs or ["default=50"]:
        name, _, shape = spec.partition("=")
        rps, _, conns = shape.partition(":")
        try:
            tenants.append(
                TenantSpec(
                    name,
                    rps=float(rps) if rps else 50.0,
                    connections=int(conns) if conns else 1,
                    datasets=(dataset,),
                )
            )
        except ValueError as exc:
            raise SystemExit(f"bad --tenant {spec!r}: {exc}")
    return tenants


def cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "trace":
        # a workload trace, not a hypergraph: seeded timestamped ops
        # replayable by repro.bench.load (see docs/LOAD.md)
        from repro.bench.load import (
            WorkloadGenerator,
            WorkloadSpec,
            write_trace,
        )

        spec = WorkloadSpec(
            tenants=tuple(_parse_tenants(args.tenant, args.trace_dataset)),
            duration_s=args.duration,
            seed=args.seed,
            num_keys=args.num_keys,
        )
        ops = WorkloadGenerator(spec).schedule()
        write_trace(args.output, ops, spec)
        tenants = ", ".join(
            f"{t.name}@{t.rps:g}rps" for t in spec.tenants
        )
        print(f"wrote {args.output} ({len(ops)} ops over "
              f"{spec.duration_s:g}s: {tenants}; seed={spec.seed})")
        return 0
    if args.kind in _GENERATORS:
        el = _GENERATORS[args.kind](args)
    else:  # a Table I stand-in by name
        el = load(args.kind)
    _write(args.output, el)
    print(f"wrote {args.output} "
          f"({el.num_vertices(0)} edges, {el.num_vertices(1)} nodes, "
          f"{len(el)} incidences)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NWHy reproduction: hypergraph analytics from the shell",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="Table-I style statistics of a file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output (incl. size/degree dists)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("convert", help="convert between .mtx and .hygra")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("cc", help="exact connected components")
    p.add_argument("file")
    p.add_argument("--representation", default="adjoin",
                   choices=["adjoin", "bipartite"])
    p.add_argument("--algorithm", default="afforest",
                   choices=["afforest", "label_propagation",
                            "shiloach_vishkin"])
    p.set_defaults(func=cmd_cc)

    p = sub.add_parser("bfs", help="exact BFS from a hypernode/hyperedge")
    p.add_argument("file")
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--edge", action="store_true",
                   help="source is a hyperedge ID")
    p.add_argument("--representation", default="adjoin",
                   choices=["adjoin", "bipartite"])
    p.set_defaults(func=cmd_bfs)

    p = sub.add_parser("slinegraph", help="construct an s-line graph")
    p.add_argument("file")
    p.add_argument("-s", type=int, default=1)
    p.add_argument("--algorithm", default="hashmap",
                   choices=["naive", "intersection", "hashmap",
                            "queue_hashmap", "queue_intersection", "matrix"])
    p.add_argument("-o", "--output", default=None,
                   help="write the line graph as .mtx/.hygra")
    p.set_defaults(func=cmd_slinegraph)

    p = sub.add_parser("metrics", help="s-measure report (Aksoy et al.)")
    p.add_argument("file")
    p.add_argument("-s", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--table", action="store_true",
                   help="one aligned table instead of per-s summaries")
    p.add_argument("--json", action="store_true",
                   help="full reports as one JSON document")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("toplex", help="maximal hyperedges (Algorithm 3)")
    p.add_argument("file")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_toplex)

    p = sub.add_parser("trace", help="export a simulated schedule trace")
    p.add_argument("file")
    p.add_argument("-o", "--output", default="trace.json")
    p.add_argument("--algorithm", default="cc",
                   choices=["cc", "bfs", "slinegraph"])
    p.add_argument("--threads", type=int, default=8)
    p.add_argument("--scheduler", default="work_stealing",
                   choices=["work_stealing", "static"])
    p.add_argument("--partitioner", default="cyclic",
                   choices=["cyclic", "blocked"])
    p.add_argument("--source", type=int, default=0)
    p.add_argument("-s", type=int, default=2)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "profile",
        help="run a named workload under tracing + metrics (repro.obs)",
    )
    p.add_argument("--workload", default="slinegraph",
                   choices=["slinegraph", "smetrics", "service"])
    p.add_argument("--dataset", default="rand1",
                   help="file path or Table I stand-in name")
    p.add_argument("-s", type=int, default=2)
    p.add_argument("--threads", type=int, default=8)
    p.add_argument("--algorithm", default="hashmap",
                   choices=["naive", "intersection", "hashmap",
                            "queue_hashmap", "queue_intersection"])
    p.add_argument("-o", "--out", default=None,
                   help="write the merged chrome trace here (e.g. "
                        "trace.json)")
    p.add_argument("--json", action="store_true",
                   help="full summary as one JSON document")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("dot", help="Graphviz export (bipartite or s-line)")
    p.add_argument("file")
    p.add_argument("--linegraph", action="store_true")
    p.add_argument("-s", type=int, default=1)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("table1", help="regenerate Table I over the stand-ins")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("verify",
                       help="fast self-check of the paper's headline claims")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="regenerate a paper figure's panel")
    p.add_argument("--figure", type=int, required=True, choices=[7, 8, 9])
    p.add_argument("--dataset", default="rand1")
    p.add_argument("--threads", type=int, nargs="+",
                   default=[1, 2, 4, 8, 16, 32, 64])
    p.add_argument("-s", type=int, default=2, help="s for figure 9")
    p.add_argument("--backend", default=None,
                   choices=["simulated", "threaded"],
                   help="execution backend for pure phases (default: "
                        "simulated; figures are identical either way)")
    p.add_argument("--workers", type=int, default=None,
                   help="real worker pool size (default: bounded cpu count)")
    p.add_argument("--kernel", default=None,
                   choices=["auto", "naive", "hashmap", "intersection",
                            "bitset"],
                   help="counting kernel for figure 9 builders (auto = "
                        "degree-bucketed dispatcher; default: builder's "
                        "own choice)")
    p.add_argument("--json", action="store_true",
                   help="results as one JSON document")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("serve",
                       help="serve resident hypergraphs over TCP (JSON lines)")
    p.add_argument("--dataset", action="append", default=[],
                   metavar="NAME[=SOURCE]",
                   help="register a dataset at startup; SOURCE is a file "
                        "path or Table I stand-in name (default: NAME)")
    p.add_argument("--store", action="append", default=[],
                   metavar="[NAME=]DIR",
                   help="open a durable store directory (repro.store) at "
                        "startup: mmap the snapshot, replay the WAL tail, "
                        "rehydrate hot line graphs (default NAME: the "
                        "directory's basename)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="0 binds an ephemeral port (printed at startup)")
    p.add_argument("--budget-mb", type=float, default=64.0, dest="budget_mb",
                   help="s-line-graph cache budget in MiB")
    p.add_argument("--threads", type=int, default=4,
                   help="simulated threads for batch dispatch")
    p.add_argument("--backend", default=None,
                   choices=["simulated", "threaded"],
                   help="execution backend for batch dispatch (default: "
                        "$REPRO_BACKEND or simulated)")
    p.add_argument("--workers", type=int, default=None,
                   help="real worker pool size (default: $REPRO_WORKERS "
                        "or bounded cpu count)")
    p.add_argument("--shards", type=int, default=1,
                   help="partition each dataset's line-graph build across "
                        "N hyperedge-range shards (>1 enables the sharded "
                        "engine; answers stay bit-identical)")
    p.add_argument("--frontend", default="async", choices=["async"],
                   help="connection front door: the asyncio server with "
                        "pipelining and admission control (the only one)")
    p.add_argument("--max-inflight", type=int, default=8,
                   dest="max_inflight",
                   help="concurrent engine executions")
    p.add_argument("--quota", action="append", default=[],
                   metavar="TENANT=RATE[:BURST]",
                   help="per-tenant token-bucket admission: requests "
                        "carrying this tenant id past RATE req/s (burst "
                        "up to BURST, default RATE) get a structured "
                        "quota_exceeded response; TENANT '*' sets a "
                        "default bucket shape for unlisted tenants "
                        "(repeatable)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("query",
                       help="send JSON queries to a running `repro serve`")
    p.add_argument("--connect", required=True, metavar="HOST:PORT")
    p.add_argument("query", nargs="*",
                   help="query JSON objects (default: read lines from stdin)")
    p.add_argument("--batch", action="store_true",
                   help="send all queries as one batch request")
    p.add_argument("--backend", default=None,
                   choices=["simulated", "threaded"],
                   help="server-side execution backend for this batch "
                        "(requires --batch)")
    p.add_argument("--workers", type=int, default=None,
                   help="server-side worker pool size for this batch "
                        "(requires --batch)")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("update",
                       help="apply batched mutations to a hypergraph file")
    p.add_argument("file")
    p.add_argument("--ops", required=True,
                   help="JSON file: a list of mutation records "
                        '({"op": "add_edge", "members": [...]}, ...) or a '
                        "list of such lists (one batch each)")
    p.add_argument("-o", "--output", default=None,
                   help="write the compacted hypergraph here "
                        "(.mtx/.hygra/.csv)")
    p.add_argument("-s", type=int, nargs="*", default=[],
                   help="maintain these s-line graphs incrementally and "
                        "report patch/rebuild outcomes")
    p.set_defaults(func=cmd_update)

    p = sub.add_parser(
        "store",
        help="durable store: build / inspect / compact (repro.store)",
    )
    store_sub = p.add_subparsers(dest="store_command", required=True)
    sp = store_sub.add_parser(
        "build", help="freeze a dataset into a store directory"
    )
    sp.add_argument("source",
                    help="file path (.mtx/.hygra/.csv/.json) or Table I "
                         "stand-in name")
    sp.add_argument("directory", help="store directory to create/overwrite")
    sp.add_argument("--name", default=None,
                    help="dataset name recorded in the manifest "
                         "(default: derived from SOURCE)")
    sp.add_argument("--warm-s", type=int, nargs="*", default=[],
                    dest="warm_s", metavar="S",
                    help="persist these s-line graphs as hot cache entries "
                         "for warm restarts")
    sp.add_argument("--no-adjoin", action="store_true", dest="no_adjoin",
                    help="skip persisting the adjoin CSR")
    sp.add_argument("--compress", action="store_true",
                    help="persist CSR adjacency columns delta+varint "
                         "encoded (smaller slab; open decodes once)")
    sp.set_defaults(func=cmd_store)
    sp = store_sub.add_parser(
        "inspect", help="print a store's manifest/WAL/recovery state"
    )
    sp.add_argument("directory")
    sp.add_argument("--json", action="store_true",
                    help="machine-readable output")
    sp.add_argument("--verify", action="store_true",
                    help="checksum every slab array (exit 1 on mismatch)")
    sp.set_defaults(func=cmd_store)
    sp = store_sub.add_parser(
        "compact", help="fold the WAL into a fresh snapshot (checkpoint)"
    )
    sp.add_argument("directory")
    sp.set_defaults(func=cmd_store)

    p = sub.add_parser(
        "check",
        help="invariant lint pass (R001-R304) over Python sources",
    )
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to lint (default: src)")
    p.add_argument("--rules", nargs="*", default=None, metavar="RXXX",
                   help="run only these rule codes (default: all)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--show-suppressed", action="store_true",
                   dest="show_suppressed",
                   help="also print findings silenced by noqa comments")
    p.add_argument("--list-suppressions", action="store_true",
                   dest="list_suppressions",
                   help="print the noqa inventory with justifications "
                        "(exit 1 if any suppression is stale)")
    p.add_argument("--conformance", action="store_true",
                   help="print the protocol-conformance diff (SPEC vs "
                        "implementation) as a markdown table and exit")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("generate",
                       help="generate a hypergraph file or a workload trace")
    p.add_argument("kind",
                   help="uniform | powerlaw | community | trace | "
                        "<Table I name>")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--edges", type=int, default=1000)
    p.add_argument("--nodes", type=int, default=1000)
    p.add_argument("--mean-size", type=float, default=8.0, dest="mean_size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tenant", action="append", default=[],
                   metavar="NAME[=RPS[:CONNECTIONS]]",
                   help="trace only: one tenant's traffic shape "
                        "(repeatable; default: one tenant at 50 rps)")
    p.add_argument("--duration", type=float, default=2.0,
                   help="trace only: workload length in seconds")
    p.add_argument("--num-keys", type=int, default=64, dest="num_keys",
                   help="trace only: Zipf keyspace size (vertex ids)")
    p.add_argument("--trace-dataset", default="load", dest="trace_dataset",
                   help="trace only: resident dataset name the ops target")
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) closed early: exit quietly
        import os

        try:
            sys.stdout.close()
        except (OSError, ValueError):
            pass  # double-close / already-broken pipe: nothing left to flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
