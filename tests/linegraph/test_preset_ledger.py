"""Pinned simulated ledger and counters of every s-line preset.

The Fig. 9 reproducers read makespans off these builds and the
heuristic comparisons read the pair counters, so the build pipeline
must keep both bit-identical.  Each preset runs with its default kernel
on a 16-thread simulated runtime over one seeded uniform and one seeded
skewed input at s = 1 and 2; the constants below were recorded before
the preset table replaced the per-algorithm driver modules.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import nwhy_runtime
from repro.io.generators import powerlaw_hypergraph, uniform_random_hypergraph
from repro.linegraph import slinegraph_ensemble, to_two_graph
from repro.obs import MetricsRegistry
from repro.structures.biadjacency import BiAdjacency

INPUTS = {
    "uniform": lambda: uniform_random_hypergraph(160, 120, 5, seed=2027),
    "skewed": lambda: powerlaw_hypergraph(160, 120, 6.0, 1.8, seed=2027),
}

#: ordered simulated phase names per preset (input- and s-independent)
PHASES = {
    "naive": ("naive_pairs",),
    "intersection": ("intersection",),
    "hashmap": ("hashmap_count",),
    "queue_hashmap": (
        "enqueue_ids", "queue_hashmap", "merge_offsets", "merge_results_copy",
    ),
    "queue_intersection": (
        "enqueue_pairs", "merge_pair_queue_offsets", "merge_pair_queue_copy",
        "intersect_pairs",
    ),
    "threaded": ("hashmap_count",),
    "ensemble": ("ensemble_count",),
}

#: (preset, input, s) -> (total_work, makespan, counter label,
#: (candidate, pruned, emitted) pairs, {kernel: (tasks, candidates, emitted)})
PINNED = {
    ('naive', 'uniform', 1): (
        63840.0, 3990.0, 'naive', (12720, 10194, 2526),
        {'naive': (64, 12720, 2526)},
    ),
    ('naive', 'uniform', 2): (
        63840.0, 3990.0, 'naive', (12720, 12537, 183),
        {'naive': (64, 12720, 183)},
    ),
    ('naive', 'skewed', 1): (
        19493.0, 1447.5, 'naive', (12720, 9819, 2901),
        {'naive': (64, 12720, 2901)},
    ),
    ('naive', 'skewed', 2): (
        9474.5, 811.0, 'naive', (2701, 2093, 608),
        {'naive': (64, 2701, 608)},
    ),
    ('intersection', 'uniform', 1): (
        19898.5, 1390.5, 'intersection', (2526, 0, 2526),
        {'intersection': (64, 2526, 2526)},
    ),
    ('intersection', 'uniform', 2): (
        19898.5, 1390.5, 'intersection', (2526, 2343, 183),
        {'intersection': (64, 2526, 183)},
    ),
    ('intersection', 'skewed', 1): (
        18015.0, 1920.5, 'intersection', (2901, 0, 2901),
        {'intersection': (64, 2901, 2901)},
    ),
    ('intersection', 'skewed', 2): (
        14747.5, 1169.5, 'intersection', (2182, 1574, 608),
        {'intersection': (64, 2182, 608)},
    ),
    ('hashmap', 'uniform', 1): (
        7431.5, 510.5, 'hashmap', (2526, 0, 2526),
        {'dispatch': (64, 0, 0), 'hashmap': (64, 2526, 2526)},
    ),
    ('hashmap', 'uniform', 2): (
        7431.5, 510.5, 'hashmap', (2526, 2343, 183),
        {'dispatch': (64, 0, 0), 'hashmap': (64, 2526, 183)},
    ),
    ('hashmap', 'skewed', 1): (
        10541.5, 1183.5, 'hashmap', (2901, 0, 2901),
        {'dispatch': (64, 0, 0), 'hashmap': (64, 2901, 2901)},
    ),
    ('hashmap', 'skewed', 2): (
        8625.0, 775.0, 'hashmap', (2182, 1574, 608),
        {'dispatch': (64, 0, 0), 'hashmap': (64, 2182, 608)},
    ),
    ('queue_hashmap', 'uniform', 1): (
        10276.0, 686.5, 'queue_hashmap', (2526, 0, 2526),
        {'dispatch': (64, 0, 0), 'hashmap': (64, 2526, 2526)},
    ),
    ('queue_hashmap', 'uniform', 2): (
        7917.0, 539.5, 'queue_hashmap', (2526, 2343, 183),
        {'dispatch': (64, 0, 0), 'hashmap': (64, 2526, 183)},
    ),
    ('queue_hashmap', 'skewed', 1): (
        13761.5, 973.5, 'queue_hashmap', (2901, 0, 2901),
        {'dispatch': (64, 0, 0), 'hashmap': (64, 2901, 2901)},
    ),
    ('queue_hashmap', 'skewed', 2): (
        9623.0, 751.5, 'queue_hashmap', (2182, 1574, 608),
        {'dispatch': (55, 0, 0), 'hashmap': (55, 2182, 608)},
    ),
    ('queue_intersection', 'uniform', 1): (
        25129.5, 1632.5, 'queue_intersection', (2526, 0, 2526),
        {'intersection': (128, 2526, 2526)},
    ),
    ('queue_intersection', 'uniform', 2): (
        25129.5, 1632.5, 'queue_intersection', (2526, 2343, 183),
        {'intersection': (128, 2526, 183)},
    ),
    ('queue_intersection', 'skewed', 1): (
        23999.5, 2130.0, 'queue_intersection', (2901, 0, 2901),
        {'intersection': (128, 2901, 2901)},
    ),
    ('queue_intersection', 'skewed', 2): (
        17847.5, 1423.5, 'queue_intersection', (2182, 1574, 608),
        {'intersection': (128, 2182, 608)},
    ),
    ('threaded', 'uniform', 1): (
        7431.5, 510.5, 'hashmap', (2526, 0, 2526),
        {'dispatch': (64, 0, 0), 'hashmap': (64, 2526, 2526)},
    ),
    ('threaded', 'uniform', 2): (
        7431.5, 510.5, 'hashmap', (2526, 2343, 183),
        {'dispatch': (64, 0, 0), 'hashmap': (64, 2526, 183)},
    ),
    ('threaded', 'skewed', 1): (
        10541.5, 1183.5, 'hashmap', (2901, 0, 2901),
        {'dispatch': (64, 0, 0), 'hashmap': (64, 2901, 2901)},
    ),
    ('threaded', 'skewed', 2): (
        8625.0, 775.0, 'hashmap', (2182, 1574, 608),
        {'dispatch': (64, 0, 0), 'hashmap': (64, 2182, 608)},
    ),
    ('ensemble', 'uniform', 1): (
        7431.5, 510.5, 'ensemble', (2526, 0, 2526),
        {'dispatch': (64, 0, 0), 'hashmap': (64, 2526, 2526)},
    ),
    ('ensemble', 'uniform', 2): (
        7431.5, 510.5, 'ensemble', (2526, 2343, 183),
        {'dispatch': (64, 0, 0), 'hashmap': (64, 2526, 183)},
    ),
    ('ensemble', 'skewed', 1): (
        10541.5, 1183.5, 'ensemble', (2901, 0, 2901),
        {'dispatch': (64, 0, 0), 'hashmap': (64, 2901, 2901)},
    ),
    ('ensemble', 'skewed', 2): (
        8625.0, 775.0, 'ensemble', (2182, 1574, 608),
        {'dispatch': (64, 0, 0), 'hashmap': (64, 2182, 608)},
    ),
}


def measure(preset: str, h, s: int) -> tuple:
    """One build's phases and its :data:`PINNED` row."""
    metrics = MetricsRegistry()
    with nwhy_runtime(16) as rt:
        rt.new_run()
        if preset == "ensemble":
            slinegraph_ensemble(h, [s], runtime=rt, metrics=metrics)
        else:
            to_two_graph(h, s, preset, runtime=rt, metrics=metrics)
        ledger = rt.ledger
    pairs: dict = {}
    kernels: dict = {}
    for rec in metrics.snapshot():
        name, labels, value = rec["name"], rec["labels"], int(rec["value"])
        if name.startswith("slinegraph_"):
            pairs[labels["algorithm"], name.split("_")[1]] = value
        elif name.startswith("linegraph_kernel_"):
            field = name.split("_")[2]
            kernels.setdefault(labels["kernel"], {})[field] = value
    (label,) = {algorithm for algorithm, _ in pairs}
    return tuple(p.name for p in ledger.phases), (
        ledger.total_work,
        ledger.makespan,
        label,
        tuple(pairs[label, k] for k in ("candidate", "pruned", "emitted")),
        {
            k: (c["tasks"], c["candidates"], c["emitted"])
            for k, c in kernels.items()
        },
    )


@pytest.fixture(scope="module")
def hypergraphs():
    return {
        name: BiAdjacency.from_biedgelist(make())
        for name, make in INPUTS.items()
    }


@pytest.mark.parametrize(
    "key", sorted(PINNED), ids=lambda k: "-".join(map(str, k))
)
def test_preset_ledger_is_pinned(hypergraphs, key):
    preset, name, s = key
    phases, row = measure(preset, hypergraphs[name], s)
    assert phases == PHASES[preset]
    assert row == PINNED[key]
