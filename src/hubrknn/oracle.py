"""Brute-force BFS ground truth for distances and reverse kNN.

One full BFS per object (or per vertex), sharing no code with the labels it
checks. Used by the test suite, by ``query --oracle`` for debugging index
results, and for the bench's BFS balls. The BFS is direction-optimizing
(Beamer, Asanovic and Patterson, SC 2012): level d is the set of unseen
vertices with a neighbor in level d-1, which is exactly the set at distance
d, so rows equal a queue BFS's. A push level gathers the frontier's
neighbors and keeps the unseen ones; once the frontier is at least an eighth
of the unseen set (``_PUSH_RATIO``), a pull level tests each unseen vertex,
stopping at its first neighbor in the frontier. A PA 3000/12 row takes about
0.7-1.1 ms, where a queue BFS took 3.6-4.1 ms.
"""

from __future__ import annotations

from itertools import chain

from .errors import ConfigError
from .graph import Graph
from .labels import INFINITY
from .offline import ObjectSet

_PUSH_RATIO = 8  # 16 measured alike on PA graphs; 2 and 4 were slower


class DistanceRow:
    __slots__ = ("dist",)

    def __init__(self, dist: tuple[int, ...]):
        self.dist = dist  # INFINITY for unreachable vertices


def _check_vertex(graph: Graph, v: int) -> None:
    if not 0 <= v < graph.vertex_count:
        raise ConfigError(f"vertex {v} out of range for {graph.vertex_count} vertices")


def bfs_distances(graph: Graph, source: int) -> DistanceRow:
    _check_vertex(graph, source)
    adjacency = graph.adjacency
    dist = [INFINITY] * graph.vertex_count
    dist[source] = 0
    unseen = set(range(graph.vertex_count))
    unseen.remove(source)
    frontier = {source}
    d = 0
    while frontier:
        d += 1
        if len(frontier) * _PUSH_RATIO < len(unseen):
            frontier = unseen.intersection(chain.from_iterable(map(adjacency.__getitem__, frontier)))
        else:
            frontier = {v for v in unseen if not frontier.isdisjoint(adjacency[v])}
        unseen -= frontier
        for v in frontier:
            dist[v] = d
    return DistanceRow(tuple(dist))


def oracle_rknn(
    graph: Graph, objects: ObjectSet, q: int, k: int
) -> list[tuple[int, int]]:
    """Members (objectIndex, dist) with dist(p, q) <= dist(p, p_k), by index.

    One BFS per object; the same row yields both the k-th-neighbor threshold
    and the object-to-query distance.
    """
    _check_vertex(graph, q)
    members = []
    vertices = objects.vertices
    for i, p in enumerate(vertices):
        row = bfs_distances(graph, p).dist
        others = sorted(row[v] for j, v in enumerate(vertices) if j != i)
        threshold = others[k - 1] if k <= len(others) else INFINITY
        if row[q] <= threshold:
            members.append((i, row[q]))
    return members
