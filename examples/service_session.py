"""A service session — resident hypergraphs behind a cached query engine.

``repro.service`` keeps named hypergraphs loaded in a ``HypergraphStore``
and answers JSON query dicts through a ``QueryEngine`` whose s-line
graphs live in a byte-budgeted LRU cache.  The cache is *s-monotone*:
because every construction stores overlap counts as edge weights,
``L_s`` can be derived from a cached ``L_{s'}`` (s' < s) by filtering —
no second construction pass.  The same engine serves sockets via
``AsyncAnalyticsServer`` (``repro serve``); here we drive it in process
through an ``InProcessSession``.

Run:  python examples/service_session.py
"""

from repro.service import InProcessSession, QueryEngine, SLineGraphCache


def main() -> None:
    engine = QueryEngine(cache=SLineGraphCache(budget_bytes=64 * 1024 * 1024))
    client = InProcessSession(engine)

    # 1. register a resident dataset (Table I stand-in by name)
    card = client.query("register", name="orkut", source="orkut-group")["result"]
    print(f"registered 'orkut': {card['num_edges']} hyperedges, "
          f"{card['num_nodes']} hypernodes")

    # 2. warm the cache: s=1 is a cold build, s=2..4 derive from it
    served = client.query("warm", dataset="orkut", s_values=[1, 2, 3, 4])
    print(f"warm-up paths: {served['result']}")

    # 3. a batch of point queries, dispatched on the parallel runtime
    batch = client.batch([
        {"op": "s_degree", "dataset": "orkut", "s": 2, "v": 0},
        {"op": "s_connected_components", "dataset": "orkut", "s": 3},
        {"op": "s_distance", "dataset": "orkut", "s": 2, "src": 0, "dst": 5},
        {"op": "s_pagerank", "dataset": "orkut", "s": 1},
    ])
    for resp in batch:
        result = resp["result"]
        shown = f"len {len(result)}" if isinstance(result, list) else result
        print(f"  {resp['op']:24s} via {resp['via']:13s} -> {shown}")

    # 4. the metrics op exposes the session's counters
    m = client.metrics()["result"]
    cache = m["cache"]
    print(f"\ncache: {cache['hits']} hits, {cache['derives']} derives, "
          f"{cache['misses']} misses, "
          f"{cache['current_bytes']} / {cache['budget_bytes']} bytes")
    for op, c in sorted(m["ops"].items()):
        print(f"  {op:24s} x{c['count']}  mean {c['mean_ms']:.2f} ms")


if __name__ == "__main__":
    main()
