"""Seeded random graph generators for tests; connected by construction."""

import random

from hubrknn import Graph


def random_connected_graph(n: int, extra_edges: int, seed: int) -> Graph:
    """Uniform-ish random graph: random spanning tree plus extra edges."""
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(extra_edges):
        edges.append((rng.randrange(n), rng.randrange(n)))  # dups/loops dropped
    return Graph.from_edges(edges)


def preferential_attachment_graph(n: int, attach: int, seed: int) -> Graph:
    """Each new vertex attaches to `attach` earlier ones, degree-biased."""
    rng = random.Random(seed)
    edges = []
    endpoints = [0]  # vertex repeated once per incident edge
    for v in range(1, n):
        picks = set()
        for _ in range(min(attach, v)):
            # degree-proportional pick, falling back to uniform on collision
            w = endpoints[rng.randrange(len(endpoints))]
            if w in picks or w == v:
                w = rng.randrange(v)
            picks.add(w)
        for w in picks:
            edges.append((w, v))
            endpoints.append(w)
            endpoints.append(v)
    return Graph.from_edges(edges)


def grid_graph(rows: int, cols: int) -> Graph:
    """The rows x cols grid; vertex r * cols + c."""
    return Graph.from_edges(
        [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
        + [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    )
