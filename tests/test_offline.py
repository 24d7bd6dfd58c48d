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
    hl_distance,
    index_stats,
    knn_query,
    load_index,
    offline_preprocess,
    parse_object_file,
    rknn_query,
    save_index,
    to_many_pairs,
)
from hubrknn.bench import generate_ball_objects, generate_random_objects
from hubrknn.labels import INFINITY
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


def reference_by_hub(labels, objects, bound, offset, keep=None):
    """The dense by-hub regrouping, as a reference: every hub's list is
    sorted, cut and mapped, empty or not."""
    m = len(objects)
    top = -min(offset)
    lists = [[] for _ in range(labels.vertex_count)]
    for i, p in enumerate(objects.vertices):
        base = (offset[i] + top) * m + i
        for h, d in zip(labels.hubs[p], labels.dists[p]):
            if d <= bound[i]:
                lists[h].append(d * m + base)
    for keys in lists:
        keys.sort()
        if keep is not None:
            del keys[keep:]
    return [[(c % m, c // m - offset[c % m] - top) for c in keys] for keys in lists]


def _index_bytes(index):
    sink = io.BytesIO()
    save_index(index, sink)
    return sink.getvalue()


def reference_save_index(index):
    """The index file written field by field and one RkNN section per hub."""
    sink = io.BytesIO()
    sink.write(b"RHIX")
    sink.write(struct.pack("<B", 2))
    sink.write(struct.pack("<I", index.k))
    sink.write(struct.pack("<I", len(index.objects)))
    for v in index.objects.vertices:
        sink.write(struct.pack("<I", v))
    for row in index.knn_results.rows:
        sink.write(b"".join(struct.pack("<IB", idx, d) for idx, d in row))
    for lst in index.rknn_backward.lists:
        sink.write(struct.pack("<I", len(lst)))
        sink.write(b"".join(struct.pack("<IB", idx, d) for idx, d in lst))
    return sink.getvalue()


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
    _, pa_labels, pa_objects = make_pa_instance(seed=2)
    for labels, objects, k in [(tree14_labels, tree14_objects, 1), (pa_labels, pa_objects, 8)]:
        index = offline_preprocess(labels, objects, k)
        sink = io.BytesIO()
        save_index(index, sink)
        data = sink.getvalue()
        loaded = load_index(io.BytesIO(data), labels)
        assert loaded.k == k
        assert loaded.objects == objects
        assert loaded.knn_results == index.knn_results
        assert loaded.rknn_backward == index.rknn_backward
        # a loaded index rebuilds substage 1 once, equal to the built lists
        assert loaded.knn_backward == index.knn_backward
        assert loaded.knn_backward is loaded.knn_backward
        assert index_stats(loaded) == index_stats(index)
        for q in range(labels.vertex_count):
            expected = knn_query(index.knn_backward, labels, q, k)
            assert knn_query(loaded.knn_backward, labels, q, k) == expected
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


def test_index_load_names_truncated_and_trailing_sections(tree14_labels, tree14_objects):
    data = _index_bytes(offline_preprocess(tree14_labels, tree14_objects, 1))
    with pytest.raises(FormatError, match="truncated"):
        load_index(io.BytesIO(data[:-1]), tree14_labels)
    with pytest.raises(FormatError, match="trailing bytes"):
        load_index(io.BytesIO(data + b"\0"), tree14_labels)


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


@pytest.fixture(scope="module")
def pa1800():
    g = preferential_attachment_graph(1800, 3, seed=31)
    return g, build_pll_labels(g)


@pytest.mark.parametrize("density", [0.2, 0.05, 0.01])
@pytest.mark.parametrize("ball", [1.0, 0.3])
def test_sparse_regrouping_and_encoding_match_dense_references(pa1800, density, ball):
    """Substages 1 and 3 and the index bytes equal the dense references."""
    g, labels = pa1800
    seed = int(density * 1000 + ball * 10)
    if ball == 1.0:
        objects = generate_random_objects(g, density, seed)
    else:
        objects = generate_ball_objects(g, density, ball, seed)
    m = len(objects)
    for k in (1, 8, 16):
        index = offline_preprocess(labels, objects, k)
        assert index.knn_backward.lists == reference_by_hub(
            labels, objects, [INFINITY] * m, [0] * m, k + 1
        )
        worst = index.knn_results.worst
        assert index.rknn_backward.lists == reference_by_hub(
            labels, objects, worst, [-w for w in worst]
        )
        data = _index_bytes(index)
        assert data == reference_save_index(index)
        loaded = load_index(io.BytesIO(data), labels)
        assert loaded.rknn_backward == index.rknn_backward
    # few objects leave most hubs without a pair
    if density == 0.01:
        assert sum(not lst for lst in index.rknn_backward.lists) > g.vertex_count // 2


def test_sparse_index_load_rejects_every_single_byte_change():
    """A few objects on a small graph: most RkNN sections are empty, so the
    file holds runs of zero counts. Every truncation and every single-byte
    change raises FormatError.

    No object here has two others at its nearest distance; with such a tie,
    a swapped last row entry loads (next test).
    """
    g = preferential_attachment_graph(30, 1, seed=0)
    labels = build_pll_labels(g)
    objects = ObjectSet(tuple(sorted(random.Random(1).sample(range(30), 3))))
    index = offline_preprocess(labels, objects, 1)
    data = _index_bytes(index)
    sections = data[13 + 4 * 3 + 5 * 3 :]
    assert b"\0" * 8 in sections  # a run of two empty sections or more
    assert sum(not lst for lst in index.rknn_backward.lists) > 20
    vertices = objects.vertices
    for i, p in enumerate(vertices):
        at_worst = [hl_distance(labels, p, v) for v in vertices].count(index.knn_results.worst[i])
        assert at_worst == 1
    for pos in range(len(data)):
        with pytest.raises(FormatError):
            load_index(io.BytesIO(data[:pos]), labels)
        for delta in range(1, 256):
            changed = bytearray(data)
            changed[pos] = (changed[pos] + delta) % 256
            try:
                load_index(io.BytesIO(bytes(changed)), labels)
            except FormatError:
                continue
            pytest.fail(f"byte {pos} changed by {delta} loaded without error")


def test_index_load_accepts_a_tied_swap_of_the_last_row_entry():
    """Known gap: of a kNN row, only the last entry's distance is checked
    against the labels. Its object index swapped for another object at the
    same distance loads; queries read only the distance and answer alike."""
    g = preferential_attachment_graph(40, 2, seed=0)
    labels = build_pll_labels(g)
    objects = ObjectSet(tuple(sorted(random.Random(0).sample(range(40), 4))))
    index = offline_preprocess(labels, objects, 1)
    vertices = objects.vertices
    i, j = next(
        (i, j)
        for i, row in enumerate(index.knn_results.rows)
        for j, v in enumerate(vertices)
        if j not in (i, row[-1][0])
        and hl_distance(labels, vertices[i], v) == index.knn_results.worst[i]
    )
    data = bytearray(_index_bytes(index))
    struct.pack_into("<I", data, 13 + 4 * 4 + 5 * i, j)
    loaded = load_index(io.BytesIO(bytes(data)), labels)
    assert loaded.knn_results.rows[i] == [(j, index.knn_results.worst[i])]
    assert loaded.knn_results != index.knn_results
    for q in range(labels.vertex_count):
        assert rknn_query(loaded, labels, q) == rknn_query(index, labels, q)


# --- object file parsing ---


def test_parse_object_file():
    assert parse_object_file("# objs\n4\n10\n\n12\n") == [4, 10, 12]


def test_parse_object_file_rejects_garbage():
    from hubrknn import ParseError

    with pytest.raises(ParseError) as err:
        parse_object_file("4\nbogus\n")
    assert "line 2" in str(err.value)
