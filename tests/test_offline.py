import io
import random
import struct

import pytest

from hubrknn import (
    ConfigError,
    FormatError,
    KnnResultTable,
    ObjectSet,
    RknnBackwardLabels,
    batch_knn,
    bfs_distances,
    build_knn_backward_labels,
    build_pll_labels,
    build_rknn_backward_labels,
    epsilon,
    index_stats,
    load_index,
    offline_preprocess,
    parse_object_file,
    save_index,
    to_many_pairs,
)
from hubrknn.offline import _knn_row

from fixtures import (
    TREE14_KNN_BACKWARD_K1,
    TREE14_KNN_RESULTS_K1,
    TREE14_RKNN_BACKWARD_K1,
    TREE14_RKNN_TOTAL_PAIRS,
    TREE14_TO_MANY_PAIRS,
    as_hub_dict,
)
from graphgen import preferential_attachment_graph, random_connected_graph


def make_instance(n=128, extra=192, objects=16, seed=0):
    g = random_connected_graph(n, extra, seed=seed)
    labels = build_pll_labels(g)
    rng = random.Random(seed + 1)
    obj = ObjectSet(tuple(sorted(rng.sample(range(g.vertex_count), objects))))
    return g, labels, obj


def make_pa_instance(seed, objects=40):
    """Distances of a few hops, so most kNN rows tie at the k-th distance."""
    g = preferential_attachment_graph(150, 4, seed=seed)
    labels = build_pll_labels(g)
    rng = random.Random(seed + 1)
    obj = ObjectSet(tuple(sorted(rng.sample(range(g.vertex_count), objects))))
    return g, labels, obj


# --- substage 1: kNN backward labels ---


def test_knn_backward_fixture_golden(tree14_labels, tree14_objects):
    knnlab = build_knn_backward_labels(tree14_labels, tree14_objects, 1)
    assert as_hub_dict(knnlab.lists) == TREE14_KNN_BACKWARD_K1


def test_knn_backward_requires_enough_objects(tree14_labels):
    with pytest.raises(ConfigError):
        build_knn_backward_labels(tree14_labels, ObjectSet((4,)), 1)


def test_duplicate_objects_rejected():
    with pytest.raises(ConfigError):
        ObjectSet((4, 4, 10))


@pytest.mark.parametrize("k", [1, 3, 8])
def test_knn_backward_matches_naive_scan(k):
    _, labels, obj = make_instance(seed=3)
    knnlab = build_knn_backward_labels(labels, obj, k)
    by_hub = {}
    for i, p in enumerate(obj.vertices):
        for h, d in zip(labels.hubs[p], labels.dists[p]):
            by_hub.setdefault(h, []).append((d, i))
    for h in range(labels.vertex_count):
        expected = [(i, d) for d, i in sorted(by_hub.get(h, []))[: k + 1]]
        assert knnlab.lists[h] == expected


# --- substage 2: batch kNN ---


def test_batch_knn_fixture_golden(tree14_labels, tree14_objects):
    knnlab = build_knn_backward_labels(tree14_labels, tree14_objects, 1)
    table = batch_knn(tree14_labels, tree14_objects, knnlab)
    assert table.rows == TREE14_KNN_RESULTS_K1


def test_adjacent_pair_mutual_nn():
    from hubrknn import Graph

    g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
    labels = build_pll_labels(g)
    obj = ObjectSet((0, 1))
    index = offline_preprocess(labels, obj, 1)
    assert index.knn_results.rows == [[(1, 1)], [(0, 1)]]
    assert index.knn_results.worst == [1, 1]


@pytest.mark.parametrize(
    "instance, k",
    [pytest.param(make_instance, k, id=str(k)) for k in (1, 2, 4, 8)]
    + [pytest.param(make_pa_instance, k, id=f"pa-{k}") for k in (1, 2, 4, 8, 16)],
)
def test_batch_knn_matches_bfs_oracle(instance, k):
    g, labels, obj = instance(seed=k)
    knnlab = build_knn_backward_labels(labels, obj, k)
    table = batch_knn(labels, obj, knnlab)
    for i, p in enumerate(obj.vertices):
        row = bfs_distances(g, p).dist
        truth = sorted((row[q], j) for j, q in enumerate(obj.vertices) if j != i)
        # exact row: ascending by (distance, object index), so equal
        # distances keep the smaller index and no index repeats
        assert table.rows[i] == [(j, d) for d, j in truth[:k]]


class RecordingLists(list):
    """Per-hub lists that record which hubs a sweep reads, in order."""

    def __init__(self, lists):
        super().__init__(lists)
        self.read = []

    def __getitem__(self, h):
        self.read.append(h)
        return super().__getitem__(h)


@pytest.mark.parametrize("k", [1, 4, 8])
def test_knn_row_sweeps_by_label_distance_and_stops_early(k):
    _, labels, obj = make_pa_instance(seed=5)
    knnlab = build_knn_backward_labels(labels, obj, k)
    sources = [(p, i) for i, p in enumerate(obj.vertices)]
    sources += [(v, -1) for v in range(0, labels.vertex_count, 7)]
    stopped = 0
    for source, skip in sources:
        lists = RecordingLists(knnlab.lists)
        row = _knn_row(labels, source, skip, k, lists)
        assert row == _knn_row(labels, source, skip, k, knnlab.lists)
        label = dict(zip(labels.hubs[source], labels.dists[source]))
        read = [label[h] for h in lists.read]
        # ascending label distance, and no hub beyond the k-th distance
        assert read == sorted(read)
        assert all(d <= row[-1][1] for d in read)
        stopped += len(read) < len(label)
    assert stopped  # the stop rule was exercised


# --- substage 3: RkNN backward labels ---


def test_rknn_backward_fixture_golden(tree14_labels, tree14_objects):
    knnlab = build_knn_backward_labels(tree14_labels, tree14_objects, 1)
    table = batch_knn(tree14_labels, tree14_objects, knnlab)
    rknn = build_rknn_backward_labels(tree14_labels, tree14_objects, table)
    assert as_hub_dict(rknn.lists) == TREE14_RKNN_BACKWARD_K1
    assert rknn.total_pairs == TREE14_RKNN_TOTAL_PAIRS
    # the filtered pair: object 1 (vertex 10) at hub 0 with distance 2
    assert (1, 2) not in rknn.lists[0]


def test_rknn_backward_vacuous_filter_keeps_everything(tree14_labels, tree14_objects):
    huge = KnnResultTable(1, [[(1, 10_000)], [(0, 10_000)], [(0, 10_000)]])
    rknn = build_rknn_backward_labels(tree14_labels, tree14_objects, huge)
    assert rknn.total_pairs == to_many_pairs(tree14_labels, tree14_objects)


def test_rknn_backward_matches_naive_filter():
    _, labels, obj = make_instance(seed=21)
    k = 2
    knnlab = build_knn_backward_labels(labels, obj, k)
    table = batch_knn(labels, obj, knnlab)
    rknn = build_rknn_backward_labels(labels, obj, table)
    expected = set()
    for i, p in enumerate(obj.vertices):
        for h, d in zip(labels.hubs[p], labels.dists[p]):
            if d <= table.worst[i]:
                expected.add((h, i, d))
    got = {
        (h, i, d) for h, lst in enumerate(rknn.lists) for i, d in lst
    }
    assert got == expected
    # per-hub order is by (slack, object index), slack = dist - kth distance
    for lst in rknn.lists:
        keys = [(d - table.worst[i], i) for i, d in lst]
        assert keys == sorted(keys)


# --- composition ---


def test_offline_preprocess_assembles_all_tables(tree14_labels, tree14_objects):
    index = offline_preprocess(tree14_labels, tree14_objects, 1)
    assert as_hub_dict(index.knn_backward.lists) == TREE14_KNN_BACKWARD_K1
    assert index.knn_results.rows == TREE14_KNN_RESULTS_K1
    assert as_hub_dict(index.rknn_backward.lists) == TREE14_RKNN_BACKWARD_K1
    assert index.timings.total_s >= 0


def test_offline_preprocess_idempotent(tree14_labels, tree14_objects):
    a = offline_preprocess(tree14_labels, tree14_objects, 1)
    b = offline_preprocess(tree14_labels, tree14_objects, 1)
    assert a.knn_results == b.knn_results
    assert a.rknn_backward == b.rknn_backward
    assert a.knn_backward == b.knn_backward


def test_epsilon_bounds(tree14_labels, tree14_objects):
    index = offline_preprocess(tree14_labels, tree14_objects, 1)
    eps = epsilon(index)
    assert eps == TREE14_RKNN_TOTAL_PAIRS / TREE14_TO_MANY_PAIRS
    assert 0 < eps <= 1


def test_index_stats_reports_counts(tree14_labels, tree14_objects):
    stats = index_stats(offline_preprocess(tree14_labels, tree14_objects, 1))
    assert stats.rknn_pairs == TREE14_RKNN_TOTAL_PAIRS
    assert stats.to_many_pairs == TREE14_TO_MANY_PAIRS
    assert stats.knn_result_pairs == 3
    assert stats.model_bytes == 5 * (stats.knn_backward_pairs + 3 + stats.rknn_pairs)


# --- serialization ---


def test_index_roundtrip(tree14_labels, tree14_objects):
    index = offline_preprocess(tree14_labels, tree14_objects, 1)
    sink = io.BytesIO()
    save_index(index, sink)
    data = sink.getvalue()
    loaded = load_index(io.BytesIO(data), tree14_labels)
    assert loaded.k == 1
    assert loaded.objects == tree14_objects
    assert loaded.knn_results == index.knn_results
    assert loaded.rknn_backward == index.rknn_backward
    again = io.BytesIO()
    save_index(loaded, again)
    assert again.getvalue() == data


def test_index_load_rejects_bad_magic(tree14_labels, tree14_objects):
    index = offline_preprocess(tree14_labels, tree14_objects, 1)
    sink = io.BytesIO()
    save_index(index, sink)
    data = bytearray(sink.getvalue())
    data[0] ^= 0xFF
    with pytest.raises(FormatError):
        load_index(io.BytesIO(bytes(data)), tree14_labels)


def test_index_load_rejects_foreign_labels(tree14_labels, tree14_objects):
    index = offline_preprocess(tree14_labels, tree14_objects, 1)
    sink = io.BytesIO()
    save_index(index, sink)

    other_graph = random_connected_graph(14, 10, seed=2)
    other_labels = build_pll_labels(other_graph)
    with pytest.raises(FormatError):
        load_index(io.BytesIO(sink.getvalue()), other_labels)


def test_index_load_rejects_out_of_order_section(tree14_labels, tree14_objects):
    index = offline_preprocess(tree14_labels, tree14_objects, 1)
    sink = io.BytesIO()
    save_index(index, sink)
    data = sink.getvalue()
    # hub 0's section follows the header, the objects and the kNN rows
    start = 4 + 1 + 4 + 4 + 4 * 3 + 5 * 3 + 4
    first, second = data[start:start + 5], data[start + 5:start + 10]
    assert [first, second] == [struct.pack("<IB", 2, 3), struct.pack("<IB", 0, 1)]
    swapped = data[:start] + second + first + data[start + 10:]
    with pytest.raises(FormatError, match="section 0 "):
        load_index(io.BytesIO(swapped), tree14_labels)


def test_index_load_rejects_version_1(tree14_labels, tree14_objects):
    index = offline_preprocess(tree14_labels, tree14_objects, 1)
    sink = io.BytesIO()
    save_index(index, sink)
    data = bytearray(sink.getvalue())
    assert data[4] == 2
    data[4] = 1  # version 1 files hold the RkNN sections in object-index order
    with pytest.raises(FormatError, match="version 1"):
        load_index(io.BytesIO(bytes(data)), tree14_labels)


def test_index_load_rejects_truncation(tree14_labels, tree14_objects):
    index = offline_preprocess(tree14_labels, tree14_objects, 1)
    sink = io.BytesIO()
    save_index(index, sink)
    with pytest.raises(FormatError):
        load_index(io.BytesIO(sink.getvalue()[:-1]), tree14_labels)


def _tree14_index_bytes(index):
    sink = io.BytesIO()
    save_index(index, sink)
    return sink.getvalue()


def test_index_load_rejects_wrong_knn_row_distance(tree14_labels, tree14_objects):
    data = bytearray(_tree14_index_bytes(offline_preprocess(tree14_labels, tree14_objects, 1)))
    # object 2's row (k=1) is its last 5 bytes before the RkNN sections
    pos = 4 + 1 + 4 + 4 + 4 * 3 + 5 * 2 + 4
    assert data[pos] == 4
    data[pos] = 5
    with pytest.raises(FormatError, match="row 2 "):
        load_index(io.BytesIO(bytes(data)), tree14_labels)


def test_index_load_rejects_each_dropped_rknn_pair(tree14_labels, tree14_objects):
    index = offline_preprocess(tree14_labels, tree14_objects, 1)
    lists = index.rknn_backward.lists
    dropped = 0
    for h, lst in enumerate(lists):
        for j in range(len(lst)):
            fewer = [list(other) for other in lists]
            del fewer[h][j]
            index.rknn_backward = RknnBackwardLabels(fewer)
            assert index.rknn_backward.total_pairs == TREE14_RKNN_TOTAL_PAIRS - 1
            with pytest.raises(FormatError, match=f"section {h} "):
                load_index(io.BytesIO(_tree14_index_bytes(index)), tree14_labels)
            dropped += 1
    assert dropped == TREE14_RKNN_TOTAL_PAIRS


def test_index_load_rejects_every_single_byte_change(tree14_labels, tree14_objects):
    data = _tree14_index_bytes(offline_preprocess(tree14_labels, tree14_objects, 1))
    assert len(data) == 136
    for pos in range(len(data)):
        with pytest.raises(FormatError):
            load_index(io.BytesIO(data[:pos]), tree14_labels)
        for delta in range(1, 256):
            changed = bytearray(data)
            changed[pos] = (changed[pos] + delta) % 256
            try:
                load_index(io.BytesIO(bytes(changed)), tree14_labels)
            except FormatError:
                continue
            pytest.fail(f"byte {pos} changed by {delta} loaded without error")


# --- object file parsing ---


def test_parse_object_file():
    assert parse_object_file("# objs\n4\n10\n\n12\n") == [4, 10, 12]


def test_parse_object_file_rejects_garbage():
    from hubrknn import ParseError

    with pytest.raises(ParseError) as err:
        parse_object_file("4\nbogus\n")
    assert "line 2" in str(err.value)
