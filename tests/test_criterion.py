"""RkNN and kNN answers on the criterion graph, pinned and checked.

PA 3000/12 (graph seed 1234, degree order) carries two indexes: the dense
one (600 uniform objects, k=8) and a sparse one (30 uniform objects, k=16,
the D=0.01 shape, where most label hubs can yield a member). A fixed stream
of 200 query vertices is answered on both. One sha256 pins every
``rknn_query`` answer (distances and ``pairs_scanned``) and every
``knn_query`` row, so a change to the sweeps that alters any answer or the
pair count fails here. The same answers are checked against one
``bfs_distances`` row per object, so the digest cannot pin a wrong answer.

Two more digests pin what offline substages 1 and 2 produce: the bytes of
the dense index file, and the ``kth`` entries of 18 churn-shaped object
sets (D 0.2/0.05/0.01, uniform or drawn from a 30% BFS ball, k 8/1/16).

The object sets and the stream come from the seeds below alone.
"""

import hashlib
import io
import random

import pytest

from hubrknn import (
    INFINITY,
    ObjectSet,
    OfflineIndex,
    bfs_distances,
    knn_query,
    rknn_query,
    save_index,
)
from hubrknn.bench import generate_ball_objects, generate_random_objects

SHAPES = {"dense": (600, 8, 2601), "sparse": (30, 16, 2602)}  # objects, k, object seed
STREAM_SEED, STREAM_LENGTH = 2603, 200
ANSWERS_SHA256 = "bbc71829a8cfdeaf7c1fded98d181c2f1bfdc1f3ef5040c8a8c16958bf7f70ea"
DENSE_INDEX_SHA256 = "4ce2eca3795fc59dfd720a4d9d8231c52f8dbb1f578c56f29fc5309c80313af2"
CHURN_SETS = [(d, ball) for d in (0.2, 0.05, 0.01) for ball in (1.0, 0.3)]  # density, ball share
CHURN_SEED = 2604  # set i draws from CHURN_SEED + i
CHURN_KS = (8, 1, 16)
CHURN_KTH_SHA256 = "23a57bbef32290ce4998810b1c78f4bd8195aa224a08889fad313b3dc73bfa87"


@pytest.fixture(scope="module")
def answers(pa3k_labels):
    """Per shape: the object vertices, k and each stream query's
    (q, rknn distances, pairs scanned, knn row)."""
    n = pa3k_labels.vertex_count
    rng = random.Random(STREAM_SEED)
    stream = [rng.randrange(n) for _ in range(STREAM_LENGTH)]
    out = {}
    for name, (m, k, seed) in SHAPES.items():
        vertices = tuple(random.Random(seed).sample(range(n), m))
        index = OfflineIndex(ObjectSet(vertices), pa3k_labels, k)
        rows = []
        for q in stream:
            answer = rknn_query(index, pa3k_labels, q)
            rows.append((q, answer.distances, answer.pairs_scanned,
                         knn_query(index.knn_backward, pa3k_labels, q, k)))
        out[name] = (vertices, k, rows)
    return out


def test_answers_on_the_criterion_graph_are_pinned(answers):
    digest = hashlib.sha256(repr(sorted(answers.items())).encode()).hexdigest()
    assert digest == ANSWERS_SHA256


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_answers_on_the_criterion_graph_match_bfs(pa3k, answers, shape):
    vertices, k, rows = answers[shape]
    truth = [bfs_distances(pa3k, p).dist for p in vertices]  # object i -> every vertex
    worst = [
        sorted(row[p] for j, p in enumerate(vertices) if j != i)[k - 1]
        for i, row in enumerate(truth)
    ]
    members = 0
    for q, distances, _, knn_row in rows:
        to_q = [row[q] for row in truth]
        assert distances == [d if d <= w else INFINITY for d, w in zip(to_q, worst)]
        assert knn_row == [(i, d) for d, i in sorted(zip(to_q, range(len(to_q))))[:k]]
        members += sum(d < INFINITY for d in distances)
    assert members > 0


def test_dense_index_file_is_pinned(pa3k_labels):
    m, k, seed = SHAPES["dense"]
    vertices = tuple(random.Random(seed).sample(range(pa3k_labels.vertex_count), m))
    sink = io.BytesIO()
    save_index(OfflineIndex(ObjectSet(vertices), pa3k_labels, k), sink)
    assert hashlib.sha256(sink.getvalue()).hexdigest() == DENSE_INDEX_SHA256


def test_kth_of_the_churn_sets_is_pinned(pa3k, pa3k_labels):
    kth = []
    for i, (density, ball) in enumerate(CHURN_SETS):
        seed = CHURN_SEED + i
        if ball >= 1.0:
            objects = generate_random_objects(pa3k, density, seed)
        else:
            objects = generate_ball_objects(pa3k, density, ball, seed)
        kth.extend(OfflineIndex(objects, pa3k_labels, k).kth for k in CHURN_KS)
    assert hashlib.sha256(repr(kth).encode()).hexdigest() == CHURN_KTH_SHA256
