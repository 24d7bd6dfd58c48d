"""RkNN and kNN answers on the criterion graph, pinned and checked.

PA 3000/12 (graph seed 1234, degree order) carries two indexes: the dense
one (600 uniform objects, k=8) and a sparse one (30 uniform objects, k=16,
the D=0.01 shape, where most label hubs can yield a member). A fixed stream
of 200 query vertices is answered on both. One sha256 pins every
``rknn_query`` answer (distances and ``pairs_scanned``) and every
``knn_query`` row, so a change to the sweeps that alters any answer or the
pair count fails here. The same answers are checked against one
``bfs_distances`` row per object, so the digest cannot pin a wrong answer.

The object sets and the stream come from the seeds below alone.
"""

import hashlib
import random

import pytest

from hubrknn import INFINITY, ObjectSet, OfflineIndex, bfs_distances, knn_query, rknn_query

SHAPES = {"dense": (600, 8, 2601), "sparse": (30, 16, 2602)}  # objects, k, object seed
STREAM_SEED, STREAM_LENGTH = 2603, 200
ANSWERS_SHA256 = "bbc71829a8cfdeaf7c1fded98d181c2f1bfdc1f3ef5040c8a8c16958bf7f70ea"


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
