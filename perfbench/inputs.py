"""Seeded inputs of every workload.

The benchmark makes its inputs from ``--seed``; the program under test
only ever sees the generated COO arrays.  Shapes follow the Table I
stand-ins of :mod:`repro.io.datasets`; only the seed changes per run.

The seed must change the inputs without changing how much work they
are, or the spread between runs would measure the draw, not the program:
with plain Zipf draws the one or two largest hyperedges move the s-line
build by up to 40% from seed to seed.  So:

* the power-law shapes (livejournal, web) take their hyperedge sizes from
  the Zipf quantiles and let the seed decide every membership, through
  the library's Chung-Lu generator;
* the community shapes (orkut-group, com-orkut) draw their communities
  once, at the stand-in's own seed, and the run seed permutes hyperedge
  and hypernode IDs, which changes every traversal order, hash order and
  chunk boundary but not the overlaps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.load.workload import (
    DEFAULT_MIX,
    TenantSpec,
    WorkloadGenerator,
    WorkloadSpec,
)
from repro.io.generators import (
    chung_lu_hypergraph,
    community_hypergraph,
    uniform_random_hypergraph,
)
from repro.structures.edgelist import BiEdgeList

#: Pairs of hyperedges whose s-distance each analyst pass queries.
DISTANCE_PAIRS = 8


@dataclass(frozen=True)
class Shape:
    name: str
    kind: str  # 'powerlaw' | 'community' | 'uniform'
    params: tuple


SKEWED = (
    Shape("livejournal", "powerlaw", (3750, 1600, 28.0, 1.9)),
    Shape("web", "powerlaw", (6400, 13850, 20.0, 1.7)),
    Shape("orkut-group", "community", (1087, 350, 58.0, 0.8, 103)),
    Shape("com-orkut", "community", (7650, 1150, 7.0, 0.9, 101)),
)
SKEWED_S = (2, 4, 8)

#: Rand1's recipe at about 50k x 50k x 10.
UNIFORM = (Shape("rand1", "uniform", (50_000, 50_000, 10)),)
UNIFORM_S = (2, 3)

WORKLOADS = {"skewed": (SKEWED, SKEWED_S), "uniform": (UNIFORM, UNIFORM_S)}


def sub_seed(seed: int, *salt: int) -> int:
    """A 32-bit seed derived from the run seed and a salt path."""
    return int(np.random.SeedSequence([int(seed), *salt]).generate_state(1)[0])


def zipf_quantile_sizes(
    count: int, mean: float, exponent: float, cap: int
) -> np.ndarray:
    """Sizes at the Zipf quantiles, rescaled to ``mean`` and capped."""
    q = (np.arange(count, dtype=np.float64) + 0.5) / count
    raw = np.minimum((1.0 - q) ** (-1.0 / (exponent - 1.0)), cap)
    sizes = np.maximum(1, np.round(raw * mean / raw.mean())).astype(np.int64)
    return np.minimum(sizes, cap)


def generate(shape: Shape, seed: int) -> BiEdgeList:
    """The input of one shape for one seed (same seed, same arrays)."""
    if shape.kind == "powerlaw":
        num_edges, num_nodes, mean, exponent = shape.params
        rng = np.random.default_rng(seed)
        sizes = rng.permutation(
            zipf_quantile_sizes(num_edges, mean, exponent, num_nodes)
        )
        # node popularity ∝ 1/rank, as in powerlaw_hypergraph
        weights = 1.0 / np.arange(1, num_nodes + 1, dtype=np.float64)
        return chung_lu_hypergraph(
            sizes, weights[rng.permutation(num_nodes)], seed=seed
        )
    if shape.kind == "community":
        num, num_nodes, mean, locality, draw = shape.params
        el = community_hypergraph(
            num_communities=num, num_nodes=num_nodes,
            mean_community_size=mean, locality=locality, seed=draw,
        )
        rng = np.random.default_rng(seed)
        edge_ids, node_ids = rng.permutation(num), rng.permutation(num_nodes)
        return BiEdgeList(
            edge_ids[el.part0], node_ids[el.part1], n0=num, n1=num_nodes
        ).deduplicate()
    if shape.kind == "uniform":
        num_edges, num_nodes, size = shape.params
        return uniform_random_hypergraph(num_edges, num_nodes, size, seed=seed)
    raise ValueError(f"unknown shape kind {shape.kind!r}")


def generate_all(workload: str, seed: int) -> list[tuple[Shape, BiEdgeList]]:
    shapes, _ = WORKLOADS[workload]
    return [(sh, generate(sh, sub_seed(seed, i))) for i, sh in enumerate(shapes)]


def distance_pairs(
    el: BiEdgeList, seed: int, index: int, s: int
) -> list[tuple[int, int]]:
    """Seeded hyperedge pairs among hyperedges of size >= s."""
    sizes = np.bincount(el.part0, minlength=el.num_vertices(0))
    candidates = np.flatnonzero(sizes >= s)
    rng = np.random.default_rng(sub_seed(seed, index, s, 7))
    picks = rng.choice(candidates, size=(DISTANCE_PAIRS, 2))
    return [(int(a), int(b)) for a, b in picks]


# -- serve traffic -----------------------------------------------------------------
#
# The traffic is the repository's own load model, ``repro.bench.load``:
# ``WorkloadGenerator`` streams with ``TenantSpec``'s defaults (Zipf key
# popularity at theta 1.1, ``update`` bursts of four ``add_edge`` records
# of two or three Zipf-drawn members) and ``DEFAULT_MIX`` restricted to
# each phase's ops (lookups 55:25 ``s_degree``:``s_neighbors``, heavy ops
# 8:7 ``s_connected_components``:``s_distance``).  Keys are hyperedge IDs.

LOOKUP_OPS = ("s_degree", "s_neighbors")
HEAVY_OPS = ("s_connected_components", "s_distance")
#: Lookups hit the hot s=2 entry; heavy ops mix hits and s-monotone derives.
LOOKUP_S = 2
#: Heavy ops cycle s over these: hits on s=2, s-monotone derives above.
HEAVY_S = (2, 3, 4)
#: Both workloads serve the web stand-in: the skewed analyst input of that
#: shape, the same arrays.  Serving Rand1 was tried for uniform: its
#: patched s=2 entry is rebuilt on the next read after each update, so the
#: churn-read p50 landed at 0.3, 4 or 160-200 ms from run to run, and a
#: restart (lazy first answer) took 8-13 s.
SERVE_INDEX = 1
SERVE = SKEWED[SERVE_INDEX]


def served_input(seed: int) -> BiEdgeList:
    """The served dataset for a run seed."""
    return generate(SERVE, sub_seed(seed, SERVE_INDEX))


def _tenant(name: str, ops: tuple[str, ...], dataset: str, s: int) -> TenantSpec:
    return TenantSpec(name=name, mix={op: DEFAULT_MIX[op] for op in ops},
                      datasets=(dataset,), s=s)


def _take(tenants, num_keys: int, seed: int, count: int) -> list[dict]:
    """``count`` payloads, taken from the tenants' streams in turn."""
    gen = WorkloadGenerator(
        WorkloadSpec(tenants=tuple(tenants), seed=seed, num_keys=num_keys)
    )
    streams = [gen.stream(t) for t in tenants]
    return [next(streams[i % len(streams)]) for i in range(count)]


def lookup_stream(dataset: str, num_edges: int, count: int,
                  seed: int) -> list[dict]:
    """Zipf-keyed ``s_degree``/``s_neighbors`` lookups on the hot entry."""
    return _take([_tenant("lookup", LOOKUP_OPS, dataset, LOOKUP_S)],
                 num_edges, seed, count)


def heavy_stream(dataset: str, num_edges: int, count: int,
                 seed: int) -> list[dict]:
    """Heavy ops, cycling s over :data:`HEAVY_S`."""
    tenants = [_tenant(f"heavy-s{s}", HEAVY_OPS, dataset, s)
               for s in HEAVY_S]
    return _take(tenants, num_edges, seed, count)


def mutation_batches(dataset: str, num_edges: int, count: int,
                     seed: int) -> list[list[dict]]:
    """The ``ops`` of ``count`` seeded ``update`` requests."""
    tenant = _tenant("update", ("update",), dataset, LOOKUP_S)
    return [p["ops"] for p in _take([tenant], num_edges, seed, count)]
