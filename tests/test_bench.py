import io
import math

import pytest

from hubrknn import ConfigError, bfs_distances, build_pll_labels
from hubrknn.bench import (
    CSV_COLUMNS,
    TIME_COLUMNS,
    SweepConfig,
    generate_ball_objects,
    generate_random_objects,
    run_sweep,
)

from fixtures import TREE14_RKNN_TOTAL_PAIRS, TREE14_TO_MANY_PAIRS
from graphgen import random_connected_graph


def test_random_objects_full_density(tree14):
    assert generate_random_objects(tree14, 1.0, seed=0).vertices == tuple(range(14))


def test_random_objects_deterministic(tree14):
    a = generate_random_objects(tree14, 0.3, seed=42)
    b = generate_random_objects(tree14, 0.3, seed=42)
    assert a == b
    c = generate_random_objects(tree14, 0.3, seed=43)
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
    import random as _random

    from hubrknn.bench import _ceil_count

    root = _random.Random(6).randrange(200)
    row = bfs_distances(g, root).dist
    ball_size = _ceil_count(0.2, 200)
    radius = sorted(row)[ball_size - 1]
    assert all(row[v] <= radius for v in obj.vertices)


def test_ball_objects_rejects_undersized_ball(tree14):
    with pytest.raises(ConfigError):
        generate_ball_objects(tree14, 0.5, 0.1, seed=0)


def test_sweep_config_validation():
    with pytest.raises(ConfigError):
        SweepConfig(densities=(0.0,), ks=(1,))
    with pytest.raises(ConfigError):
        SweepConfig(densities=(0.1,), ks=(0,))
    with pytest.raises(ConfigError):
        SweepConfig(densities=(0.1,), ks=(1,), balls=(1.5,))


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
