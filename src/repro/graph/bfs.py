"""Breadth-first search: top-down, bottom-up, and direction-optimizing.

The three variants NWGraph provides and the paper's AdjoinBFS builds on
(§III-C.2, citing Beamer et al. [5]):

* **top-down** expands the frontier's out-edges;
* **bottom-up** scans *unvisited* vertices for any parent in the frontier —
  cheaper when the frontier covers most of the graph;
* **direction-optimizing** switches between the two with Beamer's α/β
  heuristic;
* **bidirectional** grows one top-down search from each end of a
  source–target query and stops when they meet, so a short answer costs
  two small neighbourhoods instead of a whole traversal.

All variants are level-synchronous and vectorized per level; when a
:class:`~repro.parallel.runtime.ParallelRuntime` is supplied, each level is
chunked through it so the simulated scheduler sees the real per-chunk edge
work (this is how Fig. 8's scaling curves are produced).
"""

from __future__ import annotations

import numpy as np

from repro.parallel.runtime import ParallelRuntime, TaskResult
from repro.structures.csr import CSR

from .traversal import frontier_edge_count, gather_neighbors

__all__ = [
    "bfs_bidirectional",
    "bfs_bottom_up",
    "bfs_direction_optimizing",
    "bfs_top_down",
]

# Beamer's published defaults.
ALPHA = 15.0
BETA = 18.0


def _expand_top_down(
    graph: CSR,
    frontier: np.ndarray,
    dist: np.ndarray,
    parent: np.ndarray,
    level: int,
) -> tuple[np.ndarray, int]:
    """One vectorized top-down step; returns (next frontier, edges touched)."""
    sources, targets = gather_neighbors(graph, frontier)
    fresh = dist[targets] < 0
    sources, targets = sources[fresh], targets[fresh]
    # first-writer-wins among duplicates == successful CAS
    uniq, first = np.unique(targets, return_index=True)
    dist[uniq] = level
    parent[uniq] = sources[first]
    return uniq, int(fresh.size)


def _expand_bottom_up(
    graph: CSR,
    in_frontier: np.ndarray,
    dist: np.ndarray,
    parent: np.ndarray,
    level: int,
    candidates: np.ndarray,
) -> tuple[np.ndarray, int]:
    """One bottom-up step over ``candidates`` (the unvisited vertex set)."""
    sources, targets = gather_neighbors(graph, candidates)
    hits = in_frontier[targets]
    src_hit, par_hit = sources[hits], targets[hits]
    uniq, first = np.unique(src_hit, return_index=True)
    dist[uniq] = level
    parent[uniq] = par_hit[first]
    return uniq, int(targets.size)


def bfs_top_down(
    graph: CSR,
    source: int,
    runtime: ParallelRuntime | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Classic level-synchronous top-down BFS.

    Returns ``(dist, parent)``; unreachable vertices get ``dist == -1`` and
    ``parent == -1``.  This is also the algorithm HygraBFS uses
    (:mod:`repro.baselines.hygra`).
    """
    n = graph.num_vertices()
    dist = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    parent[source] = source
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        if runtime is None:
            frontier, _ = _expand_top_down(graph, frontier, dist, parent, level)
        else:
            chunks = runtime.partition(frontier)
            parts = runtime.parallel_for(
                chunks,
                lambda c: _task_top_down(graph, c, dist, parent, level),
                phase=f"bfs_td_level_{level}",
            )
            frontier = _merge_frontier(parts)
    return dist, parent


def bfs_bidirectional(graph: CSR, source: int, target: int) -> list[int]:
    """One shortest ``source``–``target`` path; ``[]`` if unreachable.

    ``graph`` must be symmetric (an undirected graph's CSR), since the
    backward search walks out-edges too.  Two level-synchronous top-down
    searches run, one from each end.  Each round expands one full level
    of the side whose frontier has fewer out-edges (the forward side on a
    tie).  Once a level reaches vertices the other side has already
    seen, the path through the one with the least ``level +
    other_dist[v]`` (lowest ID on a tie) is shortest: the searches had
    not met before, so no path is shorter than that sum.  When either
    frontier empties first, the ends are disconnected.  Every choice
    depends on the graph alone, so repeated calls return the same path.
    """
    if source == target:
        return [int(source)]
    n = graph.num_vertices()
    dist = np.full((2, n), -1, dtype=np.int64)
    parent = np.full((2, n), -1, dtype=np.int64)
    frontier = [np.array([source], dtype=np.int64),
                np.array([target], dtype=np.int64)]
    for side, end in enumerate((source, target)):
        dist[side, end] = 0
        parent[side, end] = end
    level = [0, 0]
    while frontier[0].size and frontier[1].size:
        side = int(
            frontier_edge_count(graph, frontier[1])
            < frontier_edge_count(graph, frontier[0])
        )
        level[side] += 1
        frontier[side], _ = _expand_top_down(
            graph, frontier[side], dist[side], parent[side], level[side]
        )
        met = frontier[side][dist[1 - side, frontier[side]] >= 0]
        if met.size:
            via = int(met[np.argmin(dist[1 - side, met])])
            return _walk(parent[0], via)[::-1] + _walk(parent[1], via)[1:]
    return []


def _walk(parent: np.ndarray, v: int) -> list[int]:
    """``v`` and its ancestors up to the search root."""
    path = [v]
    while parent[path[-1]] != path[-1]:
        path.append(int(parent[path[-1]]))
    return path


def _task_top_down(graph, chunk, dist, parent, level):
    nxt, work = _expand_top_down(graph, chunk, dist, parent, level)
    return TaskResult(nxt, work + chunk.size)


def _merge_frontier(parts: list[np.ndarray]) -> np.ndarray:
    """Merge per-chunk next-frontiers; dedupe across chunks (shared targets)."""
    if not parts:
        return np.empty(0, dtype=np.int64)
    merged = np.concatenate(parts)
    return np.unique(merged)


def bfs_bottom_up(
    graph: CSR,
    source: int,
    runtime: ParallelRuntime | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pure bottom-up BFS (every level scans the unvisited set).

    Mainly useful for testing and for graphs whose frontiers are large from
    level 1; the direction-optimizing variant below chooses per level.
    """
    n = graph.num_vertices()
    dist = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    parent[source] = source
    in_frontier = np.zeros(n, dtype=bool)
    in_frontier[source] = True
    level = 0
    frontier_size = 1
    while frontier_size:
        level += 1
        candidates = np.flatnonzero(dist < 0)
        if runtime is None:
            nxt, _ = _expand_bottom_up(
                graph, in_frontier, dist, parent, level, candidates
            )
        else:
            chunks = runtime.partition(candidates)
            parts = runtime.parallel_for(
                chunks,
                lambda c: _task_bottom_up(
                    graph, in_frontier, dist, parent, level, c
                ),
                phase=f"bfs_bu_level_{level}",
            )
            nxt = _merge_frontier(parts)
        in_frontier[:] = False
        in_frontier[nxt] = True
        frontier_size = nxt.size
    return dist, parent


def _task_bottom_up(graph, in_frontier, dist, parent, level, chunk):
    nxt, work = _expand_bottom_up(graph, in_frontier, dist, parent, level, chunk)
    return TaskResult(nxt, work + chunk.size)


def bfs_direction_optimizing(
    graph: CSR,
    source: int,
    runtime: ParallelRuntime | None = None,
    alpha: float = ALPHA,
    beta: float = BETA,
) -> tuple[np.ndarray, np.ndarray]:
    """Beamer's direction-optimizing BFS (the AdjoinBFS engine).

    Switch top-down → bottom-up when the frontier's out-edge count exceeds
    ``unexplored_edges / alpha``; switch back when the frontier shrinks
    below ``n / beta`` vertices.
    """
    n = graph.num_vertices()
    total_edges = graph.num_edges()
    dist = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    parent[source] = source
    frontier = np.array([source], dtype=np.int64)
    in_frontier = np.zeros(n, dtype=bool)
    in_frontier[source] = True
    unexplored = total_edges
    level = 0
    bottom_up = False
    while frontier.size:
        level += 1
        scout = frontier_edge_count(graph, frontier)
        if not bottom_up and scout > unexplored / alpha:
            bottom_up = True
        elif bottom_up and frontier.size < n / beta:
            bottom_up = False
        unexplored -= scout
        if bottom_up:
            candidates = np.flatnonzero(dist < 0)
            if runtime is None:
                nxt, _ = _expand_bottom_up(
                    graph, in_frontier, dist, parent, level, candidates
                )
            else:
                parts = runtime.parallel_for(
                    runtime.partition(candidates),
                    lambda c: _task_bottom_up(
                        graph, in_frontier, dist, parent, level, c
                    ),
                    phase=f"bfs_do_bu_level_{level}",
                )
                nxt = _merge_frontier(parts)
        else:
            if runtime is None:
                nxt, _ = _expand_top_down(graph, frontier, dist, parent, level)
            else:
                parts = runtime.parallel_for(
                    runtime.partition(frontier),
                    lambda c: _task_top_down(graph, c, dist, parent, level),
                    phase=f"bfs_do_td_level_{level}",
                )
                nxt = _merge_frontier(parts)
        in_frontier[:] = False
        in_frontier[nxt] = True
        frontier = nxt
    return dist, parent
