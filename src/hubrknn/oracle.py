"""Brute-force BFS ground truth for distances and reverse kNN.

Deliberately slow and simple: one BFS per object (or per vertex). Used by
the test suite and exposed on the CLI behind ``query --oracle`` for
debugging index results; ``bfs_distances`` also draws the bench's BFS
balls.
"""

from __future__ import annotations

from collections import deque

from .graph import Graph
from .labels import INFINITY
from .offline import ObjectSet


class DistanceRow:
    __slots__ = ("dist",)

    def __init__(self, dist: tuple[int, ...]):
        self.dist = dist  # INFINITY for unreachable vertices

    def __eq__(self, other: object) -> bool:
        return self.dist == other.dist if type(other) is DistanceRow else NotImplemented

    def __hash__(self) -> int:
        return hash(self.dist)


def bfs_distances(graph: Graph, source: int) -> DistanceRow:
    dist = [INFINITY] * graph.vertex_count
    dist[source] = 0
    queue = deque([source])
    adjacency = graph.adjacency
    while queue:
        v = queue.popleft()
        nd = dist[v] + 1
        for w in adjacency[v]:
            if dist[w] == INFINITY:
                dist[w] = nd
                queue.append(w)
    return DistanceRow(tuple(dist))


def oracle_rknn(
    graph: Graph, objects: ObjectSet, q: int, k: int
) -> list[tuple[int, int]]:
    """Members (objectIndex, dist) with dist(p, q) <= dist(p, p_k), by index.

    One BFS per object; the same row yields both the k-th-neighbor threshold
    and the object-to-query distance.
    """
    members = []
    vertices = objects.vertices
    for i, p in enumerate(vertices):
        row = bfs_distances(graph, p).dist
        others = sorted(row[v] for j, v in enumerate(vertices) if j != i)
        threshold = others[k - 1] if k <= len(others) else INFINITY
        if row[q] <= threshold:
            members.append((i, row[q]))
    return members
