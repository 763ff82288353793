"""Connected components: label propagation, Shiloach–Vishkin, Afforest.

The three CC engines the paper discusses (§III-C.2, §V):

* **label propagation** (Orzan [22], Yan et al. [28]) — every vertex
  repeatedly takes the minimum label in its closed neighborhood; the
  algorithm behind HyperCC and HygraCC;
* **Shiloach–Vishkin** [24] — min-hooking + pointer jumping;
* **Afforest** (Sutton et al. [27]) — link a small neighbor sample, skip
  the giant component discovered by sampling, finish the rest; the engine
  behind AdjoinCC.

All variants return a canonical labeling: ``labels[v]`` is the smallest
vertex ID in *v*'s component, so different engines (and different simulated
schedules) produce byte-identical outputs.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.atomics import write_min
from repro.parallel.runtime import ParallelRuntime, TaskResult
from repro.structures.csr import CSR

from .traversal import gather_neighbors

__all__ = [
    "cc_label_propagation",
    "cc_shiloach_vishkin",
    "cc_afforest",
    "connected_components",
    "compress_labels",
    "group_components",
]


def _canonicalize(parent: np.ndarray) -> np.ndarray:
    """Full pointer-jumping: flatten the parent forest to root labels."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent = grand


def cc_label_propagation(
    graph: CSR, runtime: ParallelRuntime | None = None
) -> np.ndarray:
    """Min-label propagation over an undirected (symmetric) CSR.

    Each round, every vertex pushes its label onto its neighbors and the
    minimum wins (atomic ``write_min`` semantics).  Terminates when a round
    changes nothing.  O(diameter) rounds.
    """
    n = graph.num_vertices()
    labels = np.arange(n, dtype=np.int64)
    if n == 0:
        return labels
    rounds = 0
    while True:
        rounds += 1
        if runtime is None:
            src, dst = graph.neighborhood_pairs()
            changed = write_min(labels, dst, labels[src])
        else:
            chunks = runtime.partition(n)
            parts = runtime.parallel_for(
                chunks,
                lambda c: _lp_task(graph, labels, c),
                phase=f"lp_round_{rounds}",
            )
            changed = sum(parts)
        if not changed:
            break
    return labels


def _lp_task(graph: CSR, labels: np.ndarray, chunk: np.ndarray) -> TaskResult:
    src, dst = gather_neighbors(graph, chunk)
    changed = write_min(labels, dst, labels[src])
    return TaskResult(changed, float(dst.size + chunk.size))


def cc_shiloach_vishkin(
    graph: CSR, runtime: ParallelRuntime | None = None
) -> np.ndarray:
    """Shiloach–Vishkin connectivity: min-hooking + pointer jumping [24]."""
    n = graph.num_vertices()
    parent = np.arange(n, dtype=np.int64)
    if graph.num_edges() == 0:
        return parent
    src, dst = graph.neighborhood_pairs()
    rounds = 0
    while True:
        rounds += 1
        pu, pv = parent[src], parent[dst]
        mask = pu != pv
        if not mask.any():
            break
        hi = np.where(pu > pv, pu, pv)[mask]
        lo = np.where(pu > pv, pv, pu)[mask]
        changed = write_min(parent, hi, lo)
        if runtime is not None:
            runtime.serial_phase(0.0, phase=f"sv_round_{rounds}")
            chunks = runtime.partition(n)
            runtime.parallel_for(
                chunks, lambda c: TaskResult(None, float(c.size)), phase="sv_jump"
            )
        parent = _canonicalize(parent)
        if not changed:
            break
    return _canonicalize(parent)


def cc_afforest(
    graph: CSR,
    runtime: ParallelRuntime | None = None,
    neighbor_rounds: int = 2,
    sample_size: int = 1024,
    seed: int = 42,
) -> np.ndarray:
    """Afforest [27]: sample-link, skip the giant component, finish the rest.

    Phase 1 links each vertex to its first ``neighbor_rounds`` neighbors.
    Phase 2 samples components to find the (likely) largest one, ``c``.
    Phase 3 processes the *remaining* neighbor lists only for vertices not
    already in ``c`` — skipping most of the edge work on real-world graphs
    with a dominant giant component (the optimization AdjoinCC leverages).
    """
    n = graph.num_vertices()
    parent = np.arange(n, dtype=np.int64)
    if n == 0:
        return parent
    degrees = graph.degrees()

    def link_edges(u: np.ndarray, w: np.ndarray, phase: str) -> int:
        """Min-hook both endpoints' roots repeatedly until stable."""
        nonlocal parent
        total = 0
        rounds = 0
        while True:
            rounds += 1
            pu, pw = parent[u], parent[w]
            mask = pu != pw
            if not mask.any():
                break
            hi = np.where(pu > pw, pu, pw)[mask]
            lo = np.where(pu > pw, pw, pu)[mask]
            changed = write_min(parent, hi, lo)
            parent = _canonicalize(parent)
            total += changed
            if not changed:
                break
        if runtime is not None and u.size:
            # hook scans are per-edge; compression touches every vertex
            runtime.parallel_for(
                runtime.partition(u.size),
                lambda c: TaskResult(None, float(c.size * rounds)),
                phase=f"{phase}_hook",
            )
            runtime.parallel_for(
                runtime.partition(n),
                lambda c: TaskResult(None, float(c.size)),
                phase=f"{phase}_compress",
            )
        return total

    # Phase 1: neighbor-sample linking.
    for r in range(neighbor_rounds):
        has_r = np.flatnonzero(degrees > r)
        if has_r.size == 0:
            break
        nbr_r = graph.indices[graph.indptr[has_r] + r]
        if runtime is not None:
            runtime.parallel_for(
                runtime.partition(has_r),
                lambda c: TaskResult(None, float(c.size)),
                phase=f"afforest_sample_{r}",
            )
        link_edges(has_r, nbr_r, phase=f"afforest_link_{r}")

    # Phase 2: estimate the giant component by sampling labels.
    rng = np.random.default_rng(seed)
    probe = (
        parent
        if n <= sample_size
        else parent[rng.integers(0, n, size=sample_size)]
    )
    values, counts = np.unique(probe, return_counts=True)
    giant = int(values[np.argmax(counts)])

    # Phase 3: finish the remaining adjacency of vertices outside `giant`.
    todo = np.flatnonzero((parent != giant) & (degrees > neighbor_rounds))
    if todo.size:
        starts = graph.indptr[todo] + neighbor_rounds
        counts_rem = graph.indptr[todo + 1] - starts
        from .traversal import multi_slice

        rem_targets = multi_slice(graph.indices, starts, counts_rem)
        rem_sources = np.repeat(todo, counts_rem)
        if runtime is not None:
            runtime.parallel_for(
                runtime.partition(todo),
                lambda c: TaskResult(
                    None,
                    float(
                        (graph.indptr[c + 1] - graph.indptr[c] - neighbor_rounds)
                        .clip(min=0)
                        .sum()
                        + c.size
                    ),
                ),
                phase="afforest_finish",
            )
        link_edges(rem_sources, rem_targets, phase="afforest_finish_link")
    return _canonicalize(parent)


_ENGINES = {
    "label_propagation": cc_label_propagation,
    "shiloach_vishkin": cc_shiloach_vishkin,
    "afforest": cc_afforest,
}


def connected_components(
    graph: CSR,
    algorithm: str = "afforest",
    runtime: ParallelRuntime | None = None,
) -> np.ndarray:
    """Dispatch to a CC engine by name; canonical min-ID labels out."""
    try:
        engine = _ENGINES[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown CC algorithm {algorithm!r}; choose from {sorted(_ENGINES)}"
        ) from None
    return engine(graph, runtime=runtime)


def compress_labels(labels: np.ndarray) -> np.ndarray:
    """Renumber arbitrary component labels to compact ``0..k-1`` (stable)."""
    _, compact = np.unique(labels, return_inverse=True)
    return compact.astype(np.int64)


def group_components(
    labels: np.ndarray, return_singletons: bool = False
) -> list[np.ndarray]:
    """Component labels → the components, as int64 arrays of vertex IDs.

    The one shape every s-component answer takes: members ascend inside
    each component, components are ordered by their smallest member, and
    single-vertex components are dropped unless ``return_singletons``.
    Any labeling works, canonical or not.  One stable ``argsort`` lays
    each component's vertices out contiguously and in ascending order;
    the components are the runs of equal labels.
    """
    labels = np.asarray(labels)
    n = labels.size
    if n == 0:
        return []
    order = np.argsort(labels, kind="stable").astype(np.int64, copy=False)
    ranked = labels[order]
    bounds = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [n]))
    if not return_singletons:
        keep = ends - starts > 1
        starts, ends = starts[keep], ends[keep]
    by_first = np.argsort(order[starts])
    return [
        order[a:b]
        for a, b in zip(starts[by_first].tolist(), ends[by_first].tolist())
    ]
