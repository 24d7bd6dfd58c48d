import io
import random

import pytest

from hubrknn import (
    INFINITY,
    ConfigError,
    Graph,
    LabelSet,
    ObjectSet,
    OfflineIndex,
    bfs_distances,
    build_pll_labels,
    hl_distance,
    knn_query,
    load_index,
    object_distances,
    offline_preprocess,
    oracle_rknn,
    rknn_query,
    save_index,
)
from hubrknn.offline import _knn_row

from fixtures import TREE14_RKNN_Q0
from graphgen import preferential_attachment_graph, random_connected_graph


def test_rknn_fixture_golden(tree14_labels, tree14_objects):
    index = offline_preprocess(tree14_labels, tree14_objects, 1)
    answer = rknn_query(index, tree14_labels, 0)
    expected = [d if d is not None else INFINITY for d in TREE14_RKNN_Q0]
    assert answer.distances == expected
    assert answer.members() == [(0, 1), (2, 3)]


def test_query_on_object_vertex_is_member_at_zero(tree14_labels, tree14_objects):
    index = offline_preprocess(tree14_labels, tree14_objects, 1)
    for i, p in enumerate(tree14_objects.vertices):
        assert rknn_query(index, tree14_labels, p).distances[i] == 0


def test_rknn_rejects_out_of_range_vertex(tree14_labels, tree14_objects):
    index = offline_preprocess(tree14_labels, tree14_objects, 1)
    with pytest.raises(ConfigError, match="^vertex 14 out of range for 14 vertices$"):
        rknn_query(index, tree14_labels, 14)


def test_rknn_rejects_mismatched_labels(tree14_labels, tree14_objects):
    index = offline_preprocess(tree14_labels, tree14_objects, 1)
    other = build_pll_labels(random_connected_graph(14, 13, seed=1))
    # same hubs, vertex count and pair count; every non-zero distance + 1
    shifted = LabelSet(
        tree14_labels.hubs, [bytes(d + 1 if d else 0 for d in ds) for ds in tree14_labels.dists]
    )
    assert (shifted.vertex_count, shifted.total_pairs) == (14, 39)
    # an equal copy is still not the LabelSet the index is bound to
    copy = LabelSet(list(tree14_labels.hubs), list(tree14_labels.dists))
    assert copy == tree14_labels
    for labels in (other, shifted, copy):
        with pytest.raises(ConfigError):
            rknn_query(index, labels, 0)


def _instances():
    for seed in range(6):
        if seed % 2:
            g = random_connected_graph(40 + 30 * seed, 80 + 40 * seed, seed=seed)
        else:
            g = preferential_attachment_graph(40 + 30 * seed, 2, seed=seed)
        yield seed, g


@pytest.mark.parametrize("k", [1, 2, 4])
def test_rknn_matches_oracle_characterization(k):
    for seed, g in _instances():
        labels = build_pll_labels(g)
        n = g.vertex_count
        rng = random.Random(seed * 101 + k)
        objects = ObjectSet(tuple(sorted(rng.sample(range(n), max(k + 1, n // 8)))))
        index = offline_preprocess(labels, objects, k)
        for _ in range(15):
            q = rng.randrange(n)
            got = dict(rknn_query(index, labels, q).members())
            expected = dict(oracle_rknn(g, objects, q, k))
            assert got == expected, f"seed={seed} k={k} q={q}"


@pytest.mark.parametrize("k", [1, 2, 4])
def test_rknn_from_loaded_index_matches_oracle(k):
    """The early exit needs slack-ordered lists, also after save -> load."""
    rng = random.Random(9000 + k)
    for _ in range(8):
        n = rng.randrange(2 * k + 20, 120)
        seed = rng.randrange(1 << 30)
        if rng.random() < 0.5:
            g = random_connected_graph(n, rng.randrange(n, 3 * n), seed=seed)
        else:
            g = preferential_attachment_graph(n, rng.randrange(1, 4), seed=seed)
        labels = build_pll_labels(g)
        # unsorted: object index order differs from vertex order
        objects = ObjectSet(tuple(rng.sample(range(n), rng.randrange(k + 1, n // 2))))
        sink = io.BytesIO()
        save_index(offline_preprocess(labels, objects, k), sink)
        index = load_index(io.BytesIO(sink.getvalue()), labels)
        worst = index.worst
        for lst in index.rknn_backward.lists:
            keys = [(d - worst[i], i) for i, d in lst]
            assert keys == sorted(keys)
        for q in rng.sample(range(n), 12):
            got = dict(rknn_query(index, labels, q).members())
            expected = dict(oracle_rknn(g, objects, q, k))
            assert got == expected, f"n={n} seed={seed} k={k} q={q}"


def test_rknn_monotone_in_k():
    g = random_connected_graph(120, 240, seed=33)
    labels = build_pll_labels(g)
    rng = random.Random(7)
    objects = ObjectSet(tuple(sorted(rng.sample(range(120), 20))))
    for k in (1, 2, 4):
        small = offline_preprocess(labels, objects, k)
        large = offline_preprocess(labels, objects, k + 1)
        for q in rng.sample(range(120), 25):
            members_small = {i for i, _ in rknn_query(small, labels, q).members()}
            members_large = {i for i, _ in rknn_query(large, labels, q).members()}
            assert members_small <= members_large


def test_rknn_scan_count_matches_label_hub_lists(tree14_labels, tree14_objects):
    index = offline_preprocess(tree14_labels, tree14_objects, 1)
    lists = index.rknn_backward.lists
    for q in range(14):
        answer = rknn_query(index, tree14_labels, q)
        expected = sum(len(lists[h]) for h in tree14_labels.hubs[q])
        assert answer.pairs_scanned == expected


def _reference_rknn(index, q):
    """Every pair of every list of q's label hubs, with no skip and no stop."""
    labels, worst = index.labels, index.worst
    out = [INFINITY] * len(index.objects)
    for h, d in zip(labels.hubs[q], labels.dists[q]):
        for idx, dp in index.rknn_backward.lists[h]:
            if d + dp <= worst[idx]:
                out[idx] = min(out[idx], d + dp)
    return out


def test_rknn_hub_test_at_its_edges():
    """A graph with each kind of list the hub test ``d <= lim[h]`` meets.

    No list's first pair can fail at d = 0: substage 3 keeps only pairs of
    slack <= 0, so a hub with a pair has lim >= 0. Hub 3's list, the
    triangle 3-5-6's apex over objects 5 and 6 (k=1), has lim 0: its first
    pair fails at d = 1, where 5 and 6 reach it. Hub 0's list has lim 2: it
    passes at d = 2, its bound and the largest distance in the labels of 5,
    6, 7, 9 and 10, and fails at 8's d = 3. Hubs 2 and 10 have no pair.
    """
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (3, 5), (3, 6), (5, 6), (4, 7), (7, 8),
             (1, 9), (2, 10)]
    labels = build_pll_labels(Graph.from_edges(edges))
    index = offline_preprocess(labels, ObjectSet((5, 6, 8, 9)), 1)
    assert index.rknn_backward.lim == [2, 3, -1, 0, 3, 1, 1, 4, 5, 4, -1]
    reach = [dict(zip(labels.hubs[q], labels.dists[q])) for q in range(11)]
    assert [reach[q][3] for q in (3, 5, 6)] == [0, 1, 1]
    for q in (5, 6, 7, 9, 10):
        assert reach[q][0] == max(reach[q].values()) == index.rknn_backward.lim[0]
    assert reach[8][0] == 3
    assert [q for q in range(11) if {2, 10} & reach[q].keys()] == [2, 10]
    lists = index.rknn_backward.lists
    for q in range(11):
        answer = rknn_query(index, labels, q)
        assert answer.distances == _reference_rknn(index, q)
        assert answer.distances == object_distances(index, q, index.worst)
        assert answer.pairs_scanned == sum(len(lists[h]) for h in labels.hubs[q])
    assert rknn_query(index, labels, 10).members() == [(2, 5), (3, 4)]  # both at worst, via hub 0


# --- kNN queries ---


def test_knn_fixture_vertex9(tree14_labels, tree14_objects):
    knnlab = OfflineIndex(tree14_objects, tree14_labels, 1).knn_backward
    # vertex 9 hangs off vertex 3; its nearest object is 4, three hops away
    assert knn_query(knnlab, tree14_labels, 9, 1) == [(0, 3)]


def test_knn_query_at_object_vertex(tree14_labels, tree14_objects):
    knnlab = OfflineIndex(tree14_objects, tree14_labels, 1).knn_backward
    for i, p in enumerate(tree14_objects.vertices):
        assert knn_query(knnlab, tree14_labels, p, 1) == [(i, 0)]


def test_knn_query_caps_k(tree14_labels, tree14_objects):
    knnlab = OfflineIndex(tree14_objects, tree14_labels, 1).knn_backward
    for k in (2, 0):
        with pytest.raises(ConfigError) as err:
            knn_query(knnlab, tree14_labels, 0, k)
        assert str(err.value) == f"k={k} outside [1, 1] supported by this index"


def test_knn_rejects_out_of_range_vertex(tree14_labels, tree14_objects):
    index = offline_preprocess(tree14_labels, tree14_objects, 1)
    with pytest.raises(ConfigError, match="^vertex -1 out of range for 14 vertices$"):
        knn_query(index.knn_backward, tree14_labels, -1, 1)


def test_knn_rejects_mismatched_labels(tree14_labels, tree14_objects):
    knnlab = OfflineIndex(tree14_objects, tree14_labels, 1).knn_backward
    assert knnlab.labels is tree14_labels
    # same hubs, vertex count and pair count; every non-zero distance + 1
    shifted = LabelSet(
        tree14_labels.hubs, [bytes(d + 1 if d else 0 for d in ds) for ds in tree14_labels.dists]
    )
    # the sweep itself cannot tell: it answers wrongly for 9 of 14 vertices
    wrong = [
        q for q in range(14)
        if _knn_row(shifted, q, 1, knnlab) != _knn_row(tree14_labels, q, 1, knnlab)
    ]
    assert len(wrong) == 9
    # an equal copy is still not the LabelSet the lists were built from
    copy = LabelSet(list(tree14_labels.hubs), list(tree14_labels.dists))
    assert copy == tree14_labels
    for labels in (shifted, copy):
        with pytest.raises(ConfigError):
            knn_query(knnlab, labels, 9, 1)
    assert knn_query(knnlab, tree14_labels, 9, 1) == [(0, 3)]


def _short_instances():
    """Distances of a few hops, so ties at the k-th distance are common."""
    yield 11, preferential_attachment_graph(150, 4, seed=11)


@pytest.mark.parametrize(
    "instances, k",
    [pytest.param(_instances, k, id=str(k)) for k in (1, 3, 8, 16)]
    + [pytest.param(_short_instances, k, id=f"pa-{k}") for k in (1, 3, 8, 16)],
)
def test_knn_matches_oracle_distances(instances, k):
    for seed, g in instances():
        labels = build_pll_labels(g)
        n = g.vertex_count
        rng = random.Random(seed * 7 + k)
        objects = ObjectSet(tuple(sorted(rng.sample(range(n), max(k + 2, n // 6)))))
        knnlab = OfflineIndex(objects, labels, k).knn_backward
        for _ in range(12):
            q = rng.randrange(n)
            got = knn_query(knnlab, labels, q, k)
            row = bfs_distances(g, q).dist
            truth = sorted((row[p], j) for j, p in enumerate(objects.vertices))
            assert got == [(j, d) for d, j in truth[:k]]


# --- one-shot answers through the objects' labels ---


def _assert_one_shot_matches_the_sweeps(index, queries):
    """At each q, object_distances bounded by ``worst`` is the RkNN sweep's
    answer; unbounded it is hl_distance to every object, and its k smallest
    finite (dist, idx) entries are the kNN row."""
    labels, k = index.labels, index.k
    for q in queries:
        assert object_distances(index, q, index.worst) == rknn_query(index, labels, q).distances
        distances = object_distances(index, q)
        assert distances == [hl_distance(labels, q, p) for p in index.objects.vertices]
        row = sorted((d, i) for i, d in enumerate(distances) if d < INFINITY)[:k]
        assert [(i, d) for d, i in row] == knn_query(index.knn_backward, labels, q, k)


@pytest.mark.parametrize("k", [1, 2])
def test_object_distances_match_the_sweeps_on_tree14(tree14_labels, tree14_objects, k):
    index = offline_preprocess(tree14_labels, tree14_objects, k)
    _assert_one_shot_matches_the_sweeps(index, range(14))


@pytest.fixture(scope="module")
def pa300_labels():
    return build_pll_labels(preferential_attachment_graph(300, 4, seed=5))


@pytest.mark.parametrize("density", [0.05, 0.2, 0.6])
@pytest.mark.parametrize("k", [1, 2, 8])
def test_object_distances_match_the_sweeps_on_pa300(pa300_labels, density, k):
    rng = random.Random(int(density * 100) * 31 + k)
    vertices = tuple(rng.sample(range(300), int(300 * density)))
    index = offline_preprocess(pa300_labels, ObjectSet(vertices), k)
    others = rng.sample(sorted(set(range(300)) - set(vertices)), 40)
    _assert_one_shot_matches_the_sweeps(index, [*vertices, *others])


def test_object_distances_reject_out_of_range_vertex(tree14_labels, tree14_objects):
    index = offline_preprocess(tree14_labels, tree14_objects, 1)
    with pytest.raises(ConfigError, match="^vertex 14 out of range for 14 vertices$"):
        object_distances(index, 14)
