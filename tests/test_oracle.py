import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hubrknn.oracle
from hubrknn import (
    INFINITY,
    ConfigError,
    Graph,
    ObjectSet,
    bfs_distances,
    build_pll_labels,
    hl_distance,
    oracle_rknn,
    parse_edge_list,
)

from fixtures import label_pairs
from graphgen import preferential_attachment_graph, random_connected_graph


def test_bfs_path_graph():
    g = parse_edge_list("0 1\n1 2")
    assert list(bfs_distances(g, 0).dist) == [0, 1, 2]


def test_bfs_fixture_depths_match_root_hub(tree14, tree14_labels):
    row = bfs_distances(tree14, 0).dist
    for v in range(14):
        # vertex 0 is the first landmark, so every label holds (0, depth)
        assert label_pairs(tree14_labels, v)[0] == (0, row[v])


def test_bfs_unreachable_is_infinity():
    g = Graph.from_edges([(0, 1), (2, 3)])
    assert bfs_distances(g, 0).dist[3] == INFINITY


def reference_bfs(graph: Graph, source: int) -> tuple[int, ...]:
    """The plain queue BFS that ``bfs_distances`` must equal, row for row."""
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
    return tuple(dist)


def shaped_graph(shape: str, n: int, extra: int, seed: int) -> Graph:
    """A path, a star, two unjoined random halves or a random graph on n
    vertices; a loop at every vertex keeps the isolated ones (loops are
    dropped), so n=1 is a single vertex."""
    rng = random.Random(seed)
    if shape == "path":
        edges = [(v, v + 1) for v in range(n - 1)]
    elif shape == "star":
        edges = [(0, v) for v in range(n)]
    elif shape == "halves":  # no edge joins vertices below n // 2 to those above
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(extra)]
        edges = [(u, w) for u, w in pairs if (u < n // 2) == (w < n // 2)]
    else:
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(extra)]
    return Graph.from_edges(edges + [(v, v) for v in range(n)])


# 0 pushes on every level and 10**9 pulls on every level, so both level
# kinds are checked on every graph whatever the switch rule picks.
@given(st.sampled_from(["path", "star", "halves", "random"]),
       st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=120),
       st.integers(min_value=0, max_value=2**32),
       st.sampled_from([hubrknn.oracle._PUSH_RATIO, 0, 10**9]))
@settings(max_examples=300, deadline=None)
def test_bfs_matches_reference_from_every_source(shape, n, extra, seed, ratio):
    g = shaped_graph(shape, n, extra, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hubrknn.oracle, "_PUSH_RATIO", ratio)
        for s in range(g.vertex_count):
            assert bfs_distances(g, s).dist == reference_bfs(g, s)


def test_bfs_matches_reference_on_pa3000():
    g = preferential_attachment_graph(3000, 12, seed=1234)
    for s in random.Random(23).sample(range(3000), 200):
        assert bfs_distances(g, s).dist == reference_bfs(g, s)


@pytest.mark.parametrize("v", [-1, 3])
def test_oracle_rejects_out_of_range_vertex(v):
    g = parse_edge_list("0 1\n1 2")
    message = rf"^vertex {v} out of range for 3 vertices$"
    with pytest.raises(ConfigError, match=message):
        bfs_distances(g, v)
    with pytest.raises(ConfigError, match=message):
        oracle_rknn(g, ObjectSet((0, 1)), v, 1)


def test_bfs_edge_difference_invariant():
    g = random_connected_graph(60, 90, seed=2)
    row = bfs_distances(g, 5).dist
    for v in range(g.vertex_count):
        for w in g.adjacency[v]:
            assert abs(row[v] - row[w]) <= 1


def oracle_knn(
    graph: Graph, objects: ObjectSet, i: int, k: int
) -> list[tuple[int, int]]:
    """Object i's k nearest other objects by BFS, ties by object index."""
    row = bfs_distances(graph, objects.vertices[i]).dist
    candidates = sorted(
        (row[p], j) for j, p in enumerate(objects.vertices) if j != i and row[p] < INFINITY
    )
    return [(j, d) for d, j in candidates[:k]]


def test_oracle_knn_fixture(tree14, tree14_objects):
    assert oracle_knn(tree14, tree14_objects, 2, 1) == [(0, 4)]
    assert oracle_knn(tree14, tree14_objects, 0, 1) == [(1, 1)]


def test_oracle_rknn_fixture(tree14, tree14_objects):
    assert oracle_rknn(tree14, tree14_objects, 0, 1) == [(0, 1), (2, 3)]


def test_oracle_rknn_empty_far_query():
    # a pendant chain keeps the query far from both clustered objects
    g = parse_edge_list("0 1\n0 2\n0 3\n3 4\n4 5\n5 6")
    objects = ObjectSet((1, 2))
    assert oracle_rknn(g, objects, 6, 1) == []


def oracle_rknn_via_knn(
    graph: Graph, objects: ObjectSet, q: int, k: int
) -> list[tuple[int, int]]:
    """Second route to the same answer: per-object kNN thresholds plus one
    BFS from the query vertex. Exists to cross-check oracle_rknn."""
    row_q = bfs_distances(graph, q).dist
    members = []
    for i, p in enumerate(objects.vertices):
        knn = oracle_knn(graph, objects, i, k)
        threshold = knn[k - 1][1] if len(knn) >= k else INFINITY
        if row_q[p] <= threshold:
            members.append((i, row_q[p]))
    return members


def test_oracle_two_routes_agree():
    rng = random.Random(4)
    for seed in range(5):
        g = random_connected_graph(50 + 10 * seed, 80, seed=seed)
        n = g.vertex_count
        objects = ObjectSet(tuple(sorted(rng.sample(range(n), 8))))
        for k in (1, 2, 3):
            for _ in range(10):
                q = rng.randrange(n)
                assert oracle_rknn(g, objects, q, k) == oracle_rknn_via_knn(
                    g, objects, q, k
                )


def test_oracle_cross_checks_hub_labels():
    g = random_connected_graph(48, 60, seed=8)
    labels = build_pll_labels(g)
    rng = random.Random(9)
    for _ in range(200):
        s, t = rng.randrange(48), rng.randrange(48)
        assert hl_distance(labels, s, t) == bfs_distances(g, s).dist[t]
