"""Seeded benchmark inputs: edge list, object sets and query streams.

Nothing here imports hubrknn. All vertices are the generator's own IDs
(0..n-1), which are the raw IDs written to the edge-list file; the program
under test sees only that file and these vertex lists.
"""

from __future__ import annotations

import random
from collections import deque


def pa_edges(n: int, attach: int, seed: int) -> list[tuple[int, int]]:
    """Preferential-attachment edges in generation order.

    Makes the same draws, in the same order, as
    ``tests/graphgen.preferential_attachment_graph``, so parsing the written
    file gives that graph (n=8000, attach=12, seed=1234: 95,864 edges).
    """
    rng = random.Random(seed)
    edges = []
    endpoints = [0]  # vertex repeated once per incident edge
    for v in range(1, n):
        picks: set[int] = set()
        for _ in range(min(attach, v)):
            w = endpoints[rng.randrange(len(endpoints))]
            if w in picks or w == v:
                w = rng.randrange(v)
            picks.add(w)
        for w in picks:
            edges.append((w, v))
            endpoints.append(w)
            endpoints.append(v)
    return edges


def write_edge_list(edges: list[tuple[int, int]], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(f"{u} {v}\n" for u, v in edges))


def object_count(density: float, n: int) -> int:
    return max(2, round(density * n))


def uniform_objects(n: int, density: float, rng: random.Random) -> list[int]:
    return sorted(rng.sample(range(n), object_count(density, n)))


def ball_objects(
    edges: list[tuple[int, int]], n: int, density: float, ball: float, rng: random.Random
) -> list[int]:
    """Objects drawn uniformly from the first ``ball * n`` vertices a BFS
    from a random root reaches (neighbours visited in ascending ID)."""
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    size = round(ball * n)
    root = rng.randrange(n)
    seen = {root}
    order = [root]
    queue = deque([root])
    while queue and len(order) < size:
        for w in sorted(adjacency[queue.popleft()]):
            if w not in seen:
                seen.add(w)
                order.append(w)
                queue.append(w)
    members = order[:size]
    count = object_count(density, n)
    if count > len(members):
        raise ValueError(f"ball of {len(members)} vertices cannot hold {count} objects")
    return sorted(rng.sample(members, count))


def query_stream(n: int, length: int, rng: random.Random) -> list[int]:
    """Query vertices drawn uniformly over V, with repetition."""
    return [rng.randrange(n) for _ in range(length)]
