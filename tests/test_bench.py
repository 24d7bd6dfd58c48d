import io
import logging
import math
import random

import pytest

from hubrknn import INFINITY, ConfigError, Graph, ObjectSet, bfs_distances, build_pll_labels
from hubrknn.bench import (
    CSV_COLUMNS,
    SweepConfig,
    _ceil_count,
    generate_ball_objects,
    generate_random_objects,
    run_sweep,
)

from fixtures import TREE14_RKNN_TOTAL_PAIRS, TREE14_TO_MANY_PAIRS
from graphgen import preferential_attachment_graph, random_connected_graph

# Wall-clock columns are excluded from determinism comparisons.
TIME_COLUMNS = frozenset(
    {
        "knn_backward_ms",
        "batch_knn_ms",
        "rknn_labels_ms",
        "offline_total_ms",
        "online_mean_ms",
        "online_median_ms",
    }
)


def reference_ball_objects(graph: Graph, density: float, ball: float, seed: int) -> ObjectSet:
    """``generate_ball_objects`` as a level-by-level BFS: every full level
    joins the ball, and the last one is cut by ascending vertex ID."""
    n = graph.vertex_count
    ball_size = _ceil_count(ball, n)
    size = _ceil_count(density, n)
    rng = random.Random(seed)
    root = rng.randrange(n)
    members: list[int] = []
    visited = [False] * n
    visited[root] = True
    level = [root]
    while level and len(members) < ball_size:
        quota = ball_size - len(members)
        if len(level) > quota:
            level = sorted(level)[:quota]
        members.extend(level)
        nxt = []
        for v in level:
            for w in graph.adjacency[v]:
                if not visited[w]:
                    visited[w] = True
                    nxt.append(w)
        level = nxt
    if len(members) < ball_size:
        raise ConfigError(
            f"BFS from root {root} reached only {len(members)} of "
            f"{ball_size} requested ball vertices"
        )
    members.sort()
    return ObjectSet(tuple(sorted(rng.sample(members, size))))


def test_random_objects_full_density(tree14):
    assert generate_random_objects(tree14, 1.0, seed=0).vertices == tuple(range(14))


def test_random_objects_deterministic(tree14):
    a = generate_random_objects(tree14, 0.3, seed=42).vertices
    b = generate_random_objects(tree14, 0.3, seed=42).vertices
    assert a == b
    c = generate_random_objects(tree14, 0.3, seed=43).vertices
    assert a != c  # overwhelmingly likely for this seed pair


def test_random_objects_sizes_exact():
    g = random_connected_graph(40, 60, seed=1)
    for trial in range(1000):
        density = 0.05 + (trial % 19) * 0.05
        got = len(generate_random_objects(g, density, seed=trial))
        assert got == math.ceil(round(density * 40, 9))


def test_random_objects_rejects_tiny_density(tree14):
    with pytest.raises(ConfigError):
        generate_random_objects(tree14, 0.01, seed=0)


def test_ball_objects_whole_graph_is_uniform_subset(tree14):
    obj = generate_ball_objects(tree14, 0.5, 1.0, seed=5)
    assert len(obj) == 7
    assert all(0 <= v < 14 for v in obj.vertices)


def test_ball_equals_density_takes_whole_ball(tree14):
    obj = generate_ball_objects(tree14, 0.25, 0.25, seed=3)
    assert len(obj) == 4  # ceil(0.25 * 14)


def test_ball_objects_stay_within_radius():
    g = random_connected_graph(200, 300, seed=6)
    obj = generate_ball_objects(g, 0.05, 0.2, seed=6)
    # recover the root the generator drew, then bound member depth
    root = random.Random(6).randrange(200)
    row = bfs_distances(g, root).dist
    ball_size = _ceil_count(0.2, 200)
    radius = sorted(row)[ball_size - 1]
    assert all(row[v] <= radius for v in obj.vertices)


@pytest.mark.parametrize(
    "graph",
    [
        preferential_attachment_graph(300, 3, seed=11),
        preferential_attachment_graph(500, 1, seed=12),
        random_connected_graph(400, 100, seed=13),
        random_connected_graph(250, 0, seed=14),
    ],
    ids=["pa300x3", "pa500x1", "random400", "tree250"],
)
def test_ball_objects_match_the_level_by_level_bfs(graph):
    n = graph.vertex_count
    cut = 0  # cases whose ball ends inside a BFS level
    for seed in range(12):
        for density, ball in [(0.01, 0.05), (0.02, 0.13), (0.05, 0.3), (0.1, 0.5), (0.2, 1.0)]:
            got = generate_ball_objects(graph, density, ball, seed).vertices
            assert got == reference_ball_objects(graph, density, ball, seed).vertices
            root = random.Random(seed).randrange(n)
            dist = bfs_distances(graph, root).dist
            radius = sorted(dist)[_ceil_count(ball, n) - 1]
            cut += sum(d <= radius for d in dist) > _ceil_count(ball, n)
    assert cut > 0


def test_ball_objects_name_the_unreached_vertices():
    # a 6-vertex path plus a separate 4-vertex path: no ball of 8 exists
    g = Graph.from_edges([(v, v + 1) for v in range(5)] + [(v, v + 1) for v in range(10, 13)])
    for seed in range(4):
        with pytest.raises(ConfigError) as want:
            reference_ball_objects(g, 0.2, 0.8, seed)
        with pytest.raises(ConfigError) as got:
            generate_ball_objects(g, 0.2, 0.8, seed)
        assert str(got.value) == str(want.value)


def test_ball_objects_rejects_undersized_ball(tree14):
    with pytest.raises(ConfigError):
        generate_ball_objects(tree14, 0.5, 0.1, seed=0)


def test_ball_objects_rejects_tiny_density(tree14):
    with pytest.raises(ConfigError, match="^density 0.05 yields 1 objects; need at least 2$"):
        generate_ball_objects(tree14, 0.05, 0.5, seed=0)


def test_sweep_config_validation():
    with pytest.raises(ConfigError):
        SweepConfig(densities=(0.0,), ks=(1,))
    with pytest.raises(ConfigError):
        SweepConfig(densities=(0.1,), ks=(0,))
    with pytest.raises(ConfigError):
        SweepConfig(densities=(0.1,), ks=(1,), balls=(1.5,))
    for counts in ({"sets_per_point": 0}, {"queries_per_set": 0}):
        with pytest.raises(ConfigError, match="^sets_per_point and queries_per_set must be"):
            SweepConfig(densities=(0.1,), ks=(1,), **counts)


def test_sweep_fixture_single_point(tree14, tree14_labels):
    config = SweepConfig(
        densities=(3 / 14,), ks=(1,), balls=(1.0,), sets_per_point=1,
        queries_per_set=5, seed=0,
    )
    sink = io.StringIO()
    records = run_sweep(tree14, tree14_labels, config, sink=sink, graph_name="tree14")
    assert len(records) == 1
    rec = records[0]
    assert rec.object_count == 3
    assert 0 < rec.epsilon <= 1
    lines = sink.getvalue().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    # The file format spelled out, so a reordered record field fails here.
    assert lines[0] == (
        "graph,density,k,ball,object_count,sets,queries,"
        "knn_backward_ms,batch_knn_ms,rknn_labels_ms,offline_total_ms,"
        "online_mean_ms,online_median_ms,epsilon,knn_backward_pairs,"
        "knn_result_pairs,rknn_pairs,to_many_pairs,model_bytes,pairs_scanned_mean"
    )
    assert len(lines) == 2


def test_sweep_fixture_epsilon_matches_structures(tree14, tree14_labels):
    """With the fixture objects forced, epsilon must equal the hand count."""
    from hubrknn import ObjectSet, epsilon, offline_preprocess

    index = offline_preprocess(tree14_labels, ObjectSet((4, 10, 12)), 1)
    assert epsilon(index) == TREE14_RKNN_TOTAL_PAIRS / TREE14_TO_MANY_PAIRS


def test_sweep_skips_infeasible_points(tree14, tree14_labels):
    config = SweepConfig(
        densities=(0.15,), ks=(1, 8), balls=(1.0,), sets_per_point=1,
        queries_per_set=2, seed=0,
    )
    records = run_sweep(tree14, tree14_labels, config)
    # D=0.15 gives 3 objects; k=8 needs 9 -> one record survives
    assert [r.k for r in records] == [1]


def test_sweep_skips_a_ball_smaller_than_its_objects(tree14, tree14_labels, caplog):
    """D=0.5 gives 7 objects on tree14, and B=0.1 a ball of 2 vertices."""
    config = SweepConfig(
        densities=(0.5,), ks=(1,), balls=(0.1,), sets_per_point=1, queries_per_set=1, seed=0,
    )
    sink = io.StringIO()
    with caplog.at_level(logging.WARNING, logger="hubrknn.bench"):
        records = run_sweep(tree14, tree14_labels, config, sink=sink)
    assert records == []
    assert sink.getvalue().splitlines() == [",".join(CSV_COLUMNS)]
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", "skipping D=0.5 k=1 B=0.1: ball too small")
    ]


def test_sweep_deterministic_modulo_time_columns():
    g = random_connected_graph(120, 200, seed=14)
    labels = build_pll_labels(g)
    config = SweepConfig(
        densities=(0.1, 0.2), ks=(1, 2), balls=(1.0, 0.5),
        sets_per_point=2, queries_per_set=3, seed=99,
    )
    out_a, out_b = io.StringIO(), io.StringIO()
    run_sweep(g, labels, config, sink=out_a)
    run_sweep(g, labels, config, sink=out_b)
    keep = [i for i, c in enumerate(CSV_COLUMNS) if c not in TIME_COLUMNS]
    rows_a = [line.split(",") for line in out_a.getvalue().splitlines()]
    rows_b = [line.split(",") for line in out_b.getvalue().splitlines()]
    assert len(rows_a) == len(rows_b) == 1 + 2 * 2 * 2
    for ra, rb in zip(rows_a, rows_b):
        assert [ra[i] for i in keep] == [rb[i] for i in keep]


def test_sweep_substage_times_sum_to_total(tree14, tree14_labels):
    config = SweepConfig(
        densities=(0.3,), ks=(1,), balls=(1.0,), sets_per_point=2,
        queries_per_set=2, seed=1,
    )
    (rec,) = run_sweep(tree14, tree14_labels, config)
    parts = rec.knn_backward_ms + rec.batch_knn_ms + rec.rknn_labels_ms
    assert parts == pytest.approx(rec.offline_total_ms, abs=1e-6)
