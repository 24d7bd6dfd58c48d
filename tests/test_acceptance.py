"""Acceptance suite: ten end-to-end criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Every criterion asserts
at zero tolerance unless its description states a timing bound; timing
bounds are deliberately generous and exist to catch algorithmic regressions,
not hardware variance.
"""

import io
import math
import random
import time
from contextlib import contextmanager

import pytest

from hubrknn import (
    INFINITY,
    FormatError,
    ObjectSet,
    OfflineIndex,
    bfs_distances,
    build_pll_labels,
    degree_ordering,
    hl_distance,
    load_index,
    load_labels,
    offline_preprocess,
    rknn_query,
    save_index,
    save_labels,
)
from hubrknn.bench import SweepConfig, run_sweep

from fixtures import (
    TREE14_KNN_BACKWARD_K1,
    TREE14_KNN_RESULTS_K1,
    TREE14_LABELS,
    TREE14_RKNN_BACKWARD_K1,
    TREE14_TOTAL_PAIRS,
    as_hub_dict,
    label_pairs,
)
from graphgen import preferential_attachment_graph, random_connected_graph


@contextmanager
def verdict(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {number:02d} FAIL  {title}")
        raise
    print(f"\n[acceptance] {number:02d} PASS  {title}")


# --- shared instances ---------------------------------------------------


def _desk_graphs():
    """50 seeded connected graphs, n in [32, 256], two generator families."""
    graphs = []
    for i in range(25):
        rng = random.Random(1000 + i)
        n = rng.randint(32, 256)
        graphs.append(random_connected_graph(n, rng.randint(n // 2, 2 * n), seed=i))
    for i in range(25):
        rng = random.Random(2000 + i)
        n = rng.randint(32, 256)
        graphs.append(preferential_attachment_graph(n, rng.choice([1, 2, 3]), seed=i))
    return graphs


@pytest.fixture(scope="module")
def desk_instances():
    """Per graph: labels plus, per density, an object set and its BFS rows."""
    t0 = time.perf_counter()
    instances = []
    for gi, g in enumerate(_desk_graphs()):
        labels = build_pll_labels(g)
        n = g.vertex_count
        per_density = {}
        for density in (0.05, 0.1, 0.3):
            size = max(math.ceil(round(density * n, 9)), 2)
            rng = random.Random(7000 + 13 * gi + int(density * 100))
            objects = ObjectSet(tuple(sorted(rng.sample(range(n), size))))
            rows = [bfs_distances(g, p).dist for p in objects.vertices]
            per_density[density] = (objects, rows)
        instances.append((g, labels, per_density))
    build_s = time.perf_counter() - t0
    return instances, build_s


@pytest.fixture(scope="module")
def mid_graph():
    """Seeded 4096-vertex random graph with labels, for criteria 6 and 7."""
    g = preferential_attachment_graph(4096, 3, seed=77)
    return g, build_pll_labels(g)


# --- criteria -----------------------------------------------------------


def test_criterion_1_golden_labels(tree14):
    with verdict(1, "golden fixture labels (39 pairs, exact, < 1 s)"):
        t0 = time.perf_counter()
        labels = build_pll_labels(tree14, degree_ordering(tree14))
        elapsed = time.perf_counter() - t0
        assert labels.total_pairs == TREE14_TOTAL_PAIRS
        for v in range(14):
            assert label_pairs(labels, v) == TREE14_LABELS[v]
        assert elapsed < 1.0


def test_criterion_2_golden_offline(tree14_labels, tree14_objects):
    with verdict(2, "golden fixture offline substages (exact tables)"):
        index = OfflineIndex(tree14_objects, tree14_labels, 1)
        assert as_hub_dict(index.knn_backward.lists) == TREE14_KNN_BACKWARD_K1
        assert index.rows == TREE14_KNN_RESULTS_K1
        assert index.worst == [row[-1][1] for row in TREE14_KNN_RESULTS_K1]
        assert as_hub_dict(index.rknn_backward.lists) == TREE14_RKNN_BACKWARD_K1


def test_criterion_3_golden_online(tree14_labels, tree14_objects):
    with verdict(3, "golden fixture online answer {1, inf, 3}"):
        index = offline_preprocess(tree14_labels, tree14_objects, 1)
        answer = rknn_query(index, tree14_labels, 0)
        assert answer.distances == [1, INFINITY, 3]
        assert answer.members() == [(0, 1), (2, 3)]


def test_criterion_4_oracle_equivalence(desk_instances):
    with verdict(4, "reverse-kNN equals BFS oracle on 50 desk graphs (< 2 min)"):
        instances, build_s = desk_instances
        t0 = time.perf_counter()
        checked = 0
        for gi, (g, labels, per_density) in enumerate(instances):
            n = g.vertex_count
            for density, (objects, rows) in per_density.items():
                thresholds = {}
                for k in (1, 2, 4, 8):
                    if len(objects) < k + 1:
                        continue
                    for i, row in enumerate(rows):
                        others = sorted(
                            row[p]
                            for j, p in enumerate(objects.vertices)
                            if j != i
                        )
                        thresholds[(k, i)] = others[k - 1]
                    index = offline_preprocess(labels, objects, k)
                    qrng = random.Random(9000 + gi * 31 + k)
                    for _ in range(20):
                        q = qrng.randrange(n)
                        got = dict(rknn_query(index, labels, q).members())
                        expected = {
                            i: rows[i][q]
                            for i in range(len(objects))
                            if rows[i][q] <= thresholds[(k, i)]
                        }
                        assert got == expected, (
                            f"graph {gi} D={density} k={k} q={q}"
                        )
                        checked += 1
        elapsed = build_s + (time.perf_counter() - t0)
        assert checked >= 50 * 3 * 20  # every graph and density contributed
        assert elapsed < 120.0, f"criterion 4 took {elapsed:.1f}s"


def test_criterion_5_knn_consistency(desk_instances):
    with verdict(5, "batch kNN distances equal BFS oracle on the same instances"):
        instances, _ = desk_instances
        for gi, (g, labels, per_density) in enumerate(instances):
            for density, (objects, rows) in per_density.items():
                for k in (1, 2, 4, 8):
                    if len(objects) < k + 1:
                        continue
                    knn_rows = OfflineIndex(objects, labels, k).rows
                    for i, row in enumerate(rows):
                        truth = sorted(
                            row[p]
                            for j, p in enumerate(objects.vertices)
                            if j != i
                        )[:k]
                        got = knn_rows[i]
                        assert [d for _, d in got] == truth
                        for idx, d in got:
                            assert d == row[objects.vertices[idx]]


def test_criterion_6_cover_property(mid_graph):
    with verdict(6, "hub distance equals BFS (exhaustive <= 128, sampled at 4096)"):
        for seed in range(4):
            if seed % 2:
                g = random_connected_graph(32 + 32 * seed, 100, seed=seed)
            else:
                g = preferential_attachment_graph(32 + 32 * seed, 2, seed=seed)
            assert g.vertex_count <= 128
            labels = build_pll_labels(g)
            for s in range(g.vertex_count):
                row = bfs_distances(g, s).dist
                for t in range(g.vertex_count):
                    assert hl_distance(labels, s, t) == row[t]

        g, labels = mid_graph
        rng = random.Random(5)
        rows = {}
        for _ in range(1000):
            s, t = rng.randrange(4096), rng.randrange(4096)
            if s not in rows:
                rows[s] = bfs_distances(g, s).dist
            assert hl_distance(labels, s, t) == rows[s][t]


def test_criterion_7_epsilon_bound_and_trend(mid_graph):
    with verdict(7, "epsilon <= 1 on every sweep record; (D, k) trend reported"):
        g, labels = mid_graph
        config = SweepConfig(
            densities=(0.01, 0.05, 0.2),
            ks=(1, 4, 16),
            balls=(1.0,),
            sets_per_point=2,
            queries_per_set=5,
            seed=123,
        )
        records = run_sweep(g, labels, config, graph_name="pa4096")
        assert len(records) == 9
        for rec in records:
            assert 0 < rec.epsilon <= 1.0
        print("\n    epsilon by (D, k) on pa4096 — expected smaller toward", end="")
        print(" larger D / smaller k:")
        for rec in records:
            print(f"      D={rec.density:<5} k={rec.k:<3} eps={rec.epsilon:.4f}")


def test_criterion_8_index_file_determinism():
    with verdict(8, "index files byte-identical across independent runs, 10 seeds"):
        g = preferential_attachment_graph(512, 3, seed=11)
        labels = build_pll_labels(g)
        saved = io.BytesIO()
        save_labels(labels, saved)
        for seed in range(10):
            rng = random.Random(seed)
            objects = ObjectSet(tuple(sorted(rng.sample(range(512), 48))))
            blobs = []
            for run_labels in (labels, load_labels(io.BytesIO(saved.getvalue()))):
                index = offline_preprocess(run_labels, objects, 8)
                sink = io.BytesIO()
                save_index(index, sink)
                blobs.append(sink.getvalue())
            assert blobs[0] == blobs[1], f"seed {seed} diverged between runs"


def test_criterion_9_performance_smoke():
    title = "performance smoke on ~1e5 edges (build<60s offline<5s online<5ms)"
    with verdict(9, title):
        g = preferential_attachment_graph(8000, 12, seed=1234)
        assert 80_000 <= g.edge_count <= 120_000

        t0 = time.perf_counter()
        labels = build_pll_labels(g)
        build_s = time.perf_counter() - t0

        objects = ObjectSet(tuple(range(0, 8000, 100)))  # D = 0.01
        t0 = time.perf_counter()
        index = offline_preprocess(labels, objects, 8)
        offline_s = time.perf_counter() - t0

        rng = random.Random(4321)
        queries = [rng.randrange(8000) for _ in range(10_000)]
        t0 = time.perf_counter()
        for q in queries:
            rknn_query(index, labels, q)
        online_mean_ms = (time.perf_counter() - t0) / len(queries) * 1e3

        print(
            f"\n    build {build_s:.1f}s | offline {offline_s * 1e3:.0f}ms | "
            f"online mean {online_mean_ms:.3f}ms | "
            f"labels/vertex {labels.avg_label_size():.0f}"
        )
        assert build_s < 60.0
        assert offline_s < 5.0
        assert online_mean_ms < 5.0


def test_criterion_10_serialization(tree14_labels, tree14_objects):
    with verdict(10, "byte-identical round trips; flipped magic rejected"):
        sink = io.BytesIO()
        save_labels(tree14_labels, sink)
        label_bytes = sink.getvalue()
        again = io.BytesIO()
        save_labels(load_labels(io.BytesIO(label_bytes)), again)
        assert again.getvalue() == label_bytes

        index = offline_preprocess(tree14_labels, tree14_objects, 1)
        sink = io.BytesIO()
        save_index(index, sink)
        index_bytes = sink.getvalue()
        again = io.BytesIO()
        save_index(load_index(io.BytesIO(index_bytes), tree14_labels), again)
        assert again.getvalue() == index_bytes

        flipped = bytearray(label_bytes)
        flipped[0] ^= 0x01
        with pytest.raises(FormatError):
            load_labels(io.BytesIO(bytes(flipped)))
        flipped = bytearray(index_bytes)
        flipped[0] ^= 0x01
        with pytest.raises(FormatError):
            load_index(io.BytesIO(bytes(flipped)), tree14_labels)
