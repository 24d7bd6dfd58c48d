import io
import random
import struct
import zlib
from functools import partial

import pytest

import hubrknn.offline
from hubrknn import (
    ConfigError,
    FormatError,
    Graph,
    KnnBackwardLabels,
    LabelSet,
    ObjectSet,
    OfflineIndex,
    bfs_distances,
    build_pll_labels,
    epsilon,
    hl_distance,
    index_stats,
    knn_query,
    load_index,
    load_labels,
    offline_preprocess,
    parse_object_file,
    rknn_query,
    save_index,
    save_labels,
    to_many_pairs,
)
from hubrknn.bench import generate_ball_objects, generate_random_objects
from hubrknn.labels import INFINITY
from hubrknn.offline import _knn_row

from fixtures import (
    TREE14_EDGES,
    TREE14_KNN_BACKWARD_K1,
    TREE14_KNN_RESULTS_K1,
    TREE14_OBJECTS,
    TREE14_RKNN_BACKWARD_K1,
    TREE14_RKNN_TOTAL_PAIRS,
    TREE14_TO_MANY_PAIRS,
    as_hub_dict,
    batch_rows,
    knn_pairs,
)
from graphgen import grid_graph, preferential_attachment_graph, random_connected_graph


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


def assert_same_lists(a, b):
    """Indexes a and b hold the same kNN backward labels (``k``, ``m``,
    ``lists``, ``first``) and RkNN backward labels (``lists``, ``lim``,
    ``lens``)."""
    ka, kb = a.knn_backward, b.knn_backward
    assert (ka.k, ka.m, ka.lists, ka.first) == (kb.k, kb.m, kb.lists, kb.first)
    ra, rb = a.rknn_backward, b.rknn_backward
    assert (ra.lists, ra.lim, ra.lens) == (rb.lists, rb.lim, rb.lens)


def answer_fields(answer):
    return answer.distances, answer.pairs_scanned


def _index_bytes(index):
    sink = io.BytesIO()
    save_index(index, sink)
    return sink.getvalue()


def reference_save_index(index):
    """The v6 index file written field by field, its checksum by zlib.crc32;
    the labels are named by the last four bytes of their label file, and
    each object's batch kNN row by its last entry."""
    label_file = io.BytesIO()
    save_labels(index.labels, label_file)
    fields = [b"RHIX", struct.pack("<B", 6), label_file.getvalue()[-4:]]
    fields += [struct.pack("<I", index.k), struct.pack("<I", len(index.objects))]
    fields += [struct.pack("<I", v) for v in index.objects.vertices]
    fields += [struct.pack("<IB", *row[-1]) for row in batch_rows(index)]
    data = b"".join(fields)
    return data + struct.pack("<I", zlib.crc32(data))


# magic, version byte, the labels' checksum, k, object count
OBJECTS_AT = 4 + 1 + 4 + 4 + 4


def _load_resealed(data, labels):
    """load_index of an index file changed in place, its CRC recomputed, so
    the change reaches the checks behind the CRC."""
    body = bytes(data[:-4])
    return load_index(io.BytesIO(body + struct.pack("<I", zlib.crc32(body))), labels)


def make_pa_instance(seed, objects=40):
    """Distances of a few hops, so most kNN rows tie at the k-th distance."""
    g = preferential_attachment_graph(150, 4, seed=seed)
    labels = build_pll_labels(g)
    rng = random.Random(seed + 1)
    obj = ObjectSet(tuple(sorted(rng.sample(range(g.vertex_count), objects))))
    return g, labels, obj


# --- substage 1: kNN backward labels ---


def test_knn_backward_fixture_golden(tree14_labels, tree14_objects):
    knnlab = OfflineIndex(tree14_objects, tree14_labels, 1).knn_backward
    assert as_hub_dict(knn_pairs(knnlab)) == TREE14_KNN_BACKWARD_K1


def test_knn_backward_requires_enough_objects(tree14_labels):
    with pytest.raises(ConfigError):
        OfflineIndex(ObjectSet((4,)), tree14_labels, 1)


@pytest.mark.parametrize(
    "vertices, k, message",
    [
        ((0, 1, 2), 0, "k must be >= 1, got 0"),
        ((0, 1, 2), 3, "need at least k+1 = 4 objects, got 3"),
        ((0, 1, 4), 1, "vertex 4 out of range for 4 vertices"),
    ],
)
def test_offline_index_checks_its_inputs_when_made(vertices, k, message):
    labels = build_pll_labels(Graph.from_edges([(0, 1), (2, 3)]))
    with pytest.raises(ConfigError) as err:
        OfflineIndex(ObjectSet(vertices), labels, k)
    assert str(err.value) == message


def test_offline_index_kth_needs_k_reachable_objects():
    """Substage 2 fails, when first read, on an object that reaches fewer
    than k others: here 0 and 1 reach each other but not 2."""
    labels = build_pll_labels(Graph.from_edges([(0, 1), (2, 3)]))
    index = OfflineIndex(ObjectSet((0, 1, 2)), labels, 2)
    with pytest.raises(ConfigError, match="^object 0 reaches only 1 of 2 required neighbors$"):
        index.kth
    with pytest.raises(ConfigError, match="^object 0 reaches only 1 of 2 required neighbors$"):
        offline_preprocess(labels, ObjectSet((0, 1, 2)), 2)


def test_duplicate_objects_rejected():
    with pytest.raises(ConfigError):
        ObjectSet((4, 4, 10))


@pytest.mark.parametrize("k", [1, 3, 8])
def test_knn_backward_matches_naive_scan(k):
    _, labels, obj = make_instance(seed=3)
    pairs = knn_pairs(OfflineIndex(obj, labels, k).knn_backward)
    by_hub = {}
    for i, p in enumerate(obj.vertices):
        for h, d in zip(labels.hubs[p], labels.dists[p]):
            by_hub.setdefault(h, []).append((d, i))
    for h in range(labels.vertex_count):
        expected = [(i, d) for d, i in sorted(by_hub.get(h, []))[: k + 1]]
        assert pairs[h] == expected


# --- substage 2: batch kNN ---


def test_batch_knn_fixture_golden(tree14_labels, tree14_objects):
    index = OfflineIndex(tree14_objects, tree14_labels, 1)
    assert batch_rows(index) == TREE14_KNN_RESULTS_K1
    assert index.kth == [row[-1] for row in TREE14_KNN_RESULTS_K1]


def test_adjacent_pair_mutual_nn():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
    labels = build_pll_labels(g)
    obj = ObjectSet((0, 1))
    index = offline_preprocess(labels, obj, 1)
    assert batch_rows(index) == [[(1, 1)], [(0, 1)]]
    assert index.kth == [(1, 1), (0, 1)]
    assert index.worst == [1, 1]


@pytest.mark.parametrize(
    "instance, k",
    [pytest.param(make_instance, k, id=str(k)) for k in (1, 2, 4, 8)]
    + [pytest.param(make_pa_instance, k, id=f"pa-{k}") for k in (1, 2, 4, 8, 16)],
)
def test_batch_knn_matches_bfs_oracle(instance, k):
    g, labels, obj = instance(seed=k)
    index = OfflineIndex(obj, labels, k)
    rows = batch_rows(index)
    for i, p in enumerate(obj.vertices):
        row = bfs_distances(g, p).dist
        truth = sorted((row[q], j) for j, q in enumerate(obj.vertices) if j != i)
        # exact row: ascending by (distance, object index), so equal
        # distances keep the smaller index and no index repeats
        assert rows[i] == [(j, d) for d, j in truth[:k]]
    assert index.kth == [row[-1] for row in rows]


class RecordingLists(list):
    """Per-hub lists that record, in order, each hub a sweep reads and each
    key it reads from that hub's list."""

    def __init__(self, lists):
        super().__init__(lists)
        self.read = []  # (hub, None) when the hub's list is fetched, then (hub, key) per key

    def __getitem__(self, h):
        self.read.append((h, None))
        return self._recorded(h, super().__getitem__(h))

    def _recorded(self, h, keys):
        for c in keys:
            self.read.append((h, c))
            yield c


@pytest.mark.parametrize("k", [1, 4, 8])
def test_knn_row_sweeps_by_label_distance_and_stops_early(k):
    """Replays each recorded sweep: hubs come in ascending label distance;
    a hub's list is entered exactly when its label distance times m plus
    the list's first key (INFINITY * m for an empty list) lies below the
    sweep's bound, the k-th smallest key found so far (one per object), and
    a list key is read only while that bound lies above it; the sweep reads
    on until that bound stops it; and the row is the k smallest keys found,
    ascending."""
    _, labels, obj = make_pa_instance(seed=5)
    knnlab = OfflineIndex(obj, labels, k).knn_backward
    m = knnlab.m
    # objects ask for k + 1 as batch kNN does; other vertices for k
    sources = [(p, k + 1) for p in obj.vertices]
    sources += [(v, k) for v in range(0, labels.vertex_count, 7)]
    stopped = skipped = 0
    for source, want in sources:
        lists = RecordingLists(knnlab.lists)
        recorded = KnnBackwardLabels(k, m, lists, knnlab.first, labels)
        row = _knn_row(labels, source, want, recorded)
        assert row == _knn_row(labels, source, want, knnlab)
        label = list(zip(labels.hubs[source], labels.dists[source]))
        found = {}  # idx -> its smallest key read so far

        def bound():
            keys = sorted(found.values())
            return keys[want - 1] if len(keys) >= want else INFINITY * m

        reads = iter(lists.read + [(None, None)])
        h, c = next(reads)
        for hub, d in label:
            head = knnlab.lists[hub][0] if knnlab.lists[hub] else INFINITY * m
            assert (h == hub) == (d * m + head < bound())
            if h != hub:
                if d * m >= bound():  # the sweep stopped before this hub
                    stopped += 1
                    break
                skipped += 1  # passed by its head, its list not entered
                continue
            h, c = next(reads)
            keys = iter(knnlab.lists[hub])
            for expected in keys:
                assert (h, c) == (hub, expected)  # read in list order, none skipped
                h, c = next(reads)
                key = d * m + expected
                if key >= bound():
                    stopped += next(keys, None) is not None
                    break  # and no key of this list is read after it
                found[key % m] = min(found.get(key % m, key), key)
        assert (h, c) == (None, None)  # nothing read out of the replayed order
        assert row == sorted(found.values())[:want]
    assert stopped and skipped  # the stop rule and the head test were exercised


@pytest.mark.parametrize(
    "instance, k",
    [("tree14", 1)] + [("pa", k) for k in (1, 8, 16)],
)
def test_batch_row_is_query_row_without_self(tree14_labels, tree14_objects, instance, k):
    """Object i's batch row is the kNN query at its vertex for k + 1, less
    a leading (i, 0); the query runs on an index built for k + 1. TREE14
    holds 3 objects, so it runs at k=1 only."""
    if instance == "tree14":
        labels, obj = tree14_labels, tree14_objects
    else:
        _, labels, obj = make_pa_instance(seed=7)
    rows = batch_rows(OfflineIndex(obj, labels, k))
    wider = OfflineIndex(obj, labels, k + 1).knn_backward
    for i, p in enumerate(obj.vertices):
        assert [(i, 0)] + rows[i] == knn_query(wider, labels, p, k + 1)


# --- substage 3: RkNN backward labels ---


def test_rknn_backward_fixture_golden(tree14_labels, tree14_objects):
    index = OfflineIndex(tree14_objects, tree14_labels, 1)
    assert index.worst == [row[-1][1] for row in batch_rows(index)]
    rknn = index.rknn_backward
    assert as_hub_dict(rknn.lists) == TREE14_RKNN_BACKWARD_K1
    assert rknn.total_pairs == TREE14_RKNN_TOTAL_PAIRS
    # the filtered pair: object 1 (vertex 10) at hub 0 with distance 2
    assert (1, 2) not in rknn.lists[0]


def test_rknn_backward_vacuous_filter_keeps_everything(tree14_labels, tree14_objects):
    kth = [(1, 10_000), (0, 10_000), (0, 10_000)]  # substage 3 filters by the kth it is given
    index = OfflineIndex(tree14_objects, tree14_labels, 1, kth)
    assert index.worst == [10_000] * 3
    rknn = index.rknn_backward
    assert rknn.total_pairs == to_many_pairs(tree14_labels, tree14_objects)


def test_rknn_backward_matches_naive_filter():
    _, labels, obj = make_instance(seed=21)
    k = 2
    index = OfflineIndex(obj, labels, k)
    worst = [row[-1][1] for row in batch_rows(index)]
    rknn = index.rknn_backward
    expected = set()
    for i, p in enumerate(obj.vertices):
        for h, d in zip(labels.hubs[p], labels.dists[p]):
            if d <= worst[i]:
                expected.add((h, i, d))
    got = {
        (h, i, d) for h, lst in enumerate(rknn.lists) for i, d in lst
    }
    assert got == expected
    # per-hub order is by (slack, object index), slack = dist - kth distance
    for lst in rknn.lists:
        keys = [(d - worst[i], i) for i, d in lst]
        assert keys == sorted(keys)


@pytest.mark.parametrize(
    "instance, k",
    [("tree14", 1)] + [("pa", k) for k in (1, 8, 16)],
)
def test_list_heads_match_their_lists(tree14_labels, tree14_objects, instance, k):
    """On a built index and on one loaded over its objects' labels alone,
    ``first[h]`` is hub h's first kNN key, or INFINITY * m for an empty
    list; ``lens`` are the RkNN lists' lengths and ``total_pairs`` their
    sum."""
    if instance == "tree14":
        labels, obj = tree14_labels, tree14_objects
    else:
        _, labels, obj = make_pa_instance(seed=28)
    built = offline_preprocess(labels, obj, k)
    label_file = io.BytesIO()
    save_labels(labels, label_file)
    part = load_labels(io.BytesIO(label_file.getvalue()), obj.vertices)
    loaded = load_index(io.BytesIO(_index_bytes(built)), part)
    for index in (built, loaded):
        knn = index.knn_backward
        assert knn.first == [lst[0] if lst else INFINITY * knn.m for lst in knn.lists]
        assert any(knn.lists) and not all(knn.lists)  # both kinds of head occur
        rknn = index.rknn_backward
        assert rknn.lens == list(map(len, rknn.lists))
        assert rknn.total_pairs == sum(rknn.lens)
    assert_same_lists(loaded, built)


# --- composition ---


def test_offline_preprocess_assembles_all_tables(tree14_labels, tree14_objects):
    index = offline_preprocess(tree14_labels, tree14_objects, 1)
    assert as_hub_dict(knn_pairs(index.knn_backward)) == TREE14_KNN_BACKWARD_K1
    assert index.kth == [row[-1] for row in TREE14_KNN_RESULTS_K1]
    assert batch_rows(index) == TREE14_KNN_RESULTS_K1
    assert index.worst == [row[-1][1] for row in TREE14_KNN_RESULTS_K1]
    assert as_hub_dict(index.rknn_backward.lists) == TREE14_RKNN_BACKWARD_K1
    assert index.timings.total_s >= 0


def test_offline_preprocess_builds_substage_3_once(tree14_labels, tree14_objects, monkeypatch):
    """offline_preprocess regroups by hub twice (substages 1 and 3) and
    sweeps one kNN row per object, in its timed spans, and the built
    index's queries reuse them; load_index does neither, and a loaded index
    builds its RkNN lists at its first query. A kNN query is one sweep of
    the same ``_knn_row``."""
    calls = {"_by_hub": 0, "_knn_row": 0}

    def counted(name):
        build = getattr(hubrknn.offline, name)

        def call(*args):
            calls[name] += 1
            return build(*args)

        return call

    for name in calls:
        monkeypatch.setattr(hubrknn.offline, name, counted(name))
    index = offline_preprocess(tree14_labels, tree14_objects, 1)
    assert calls == {"_by_hub": 2, "_knn_row": 3}
    assert index.timings.rknn_labels_s > 0
    answer = rknn_query(index, tree14_labels, 0)
    assert calls == {"_by_hub": 2, "_knn_row": 3}
    sink = io.BytesIO()
    save_index(index, sink)
    loaded = load_index(io.BytesIO(sink.getvalue()), tree14_labels)
    assert calls == {"_by_hub": 2, "_knn_row": 3}
    assert answer_fields(rknn_query(loaded, tree14_labels, 0)) == answer_fields(answer)
    rknn_query(loaded, tree14_labels, 5)
    assert calls == {"_by_hub": 3, "_knn_row": 3}
    knn_query(index.knn_backward, tree14_labels, 0, 1)
    assert calls == {"_by_hub": 3, "_knn_row": 4}
    knn_query(loaded.knn_backward, tree14_labels, 0, 1)
    assert calls == {"_by_hub": 4, "_knn_row": 5}


def test_offline_preprocess_idempotent(tree14_labels, tree14_objects):
    a = offline_preprocess(tree14_labels, tree14_objects, 1)
    b = offline_preprocess(tree14_labels, tree14_objects, 1)
    assert a.kth == b.kth
    assert_same_lists(a, b)


@pytest.mark.parametrize("name", ["knn_backward", "kth", "worst", "rknn_backward"])
def test_lazy_attributes_are_read_only(tree14_labels, tree14_objects, name):
    """Assigning a substage attribute raises, before and after its first
    read, so none can go stale behind the ones built from it."""
    built = offline_preprocess(tree14_labels, tree14_objects, 1)
    expected = [answer_fields(rknn_query(built, tree14_labels, q)) for q in range(14)]
    for index in (OfflineIndex(tree14_objects, tree14_labels, 1),
                  OfflineIndex(tree14_objects, tree14_labels, 1, [(1, 1), (0, 1), (0, 4)])):
        with pytest.raises(AttributeError, match=f"^OfflineIndex.{name} is read-only$"):
            setattr(index, name, [])
        value = getattr(index, name)
        with pytest.raises(AttributeError, match=f"^OfflineIndex.{name} is read-only$"):
            setattr(index, name, [])
        assert getattr(index, name) is value
        assert [answer_fields(rknn_query(index, tree14_labels, q)) for q in range(14)] == expected


def test_equal_label_sets_give_the_same_index(tree14, tree14_objects):
    """Two label sets that are equal but not the same object give indexes
    with the same lists and ``kth``; another k gives others."""
    a_labels, b_labels = build_pll_labels(tree14), build_pll_labels(tree14)
    assert a_labels == b_labels and a_labels is not b_labels
    a = offline_preprocess(a_labels, tree14_objects, 1)
    b = offline_preprocess(b_labels, tree14_objects, 1)
    assert a.knn_backward.labels is not b.knn_backward.labels
    assert_same_lists(a, b)
    assert a.kth == b.kth
    c = offline_preprocess(a_labels, tree14_objects, 2)
    assert c.knn_backward.lists != a.knn_backward.lists
    assert c.kth != a.kth
    assert c.rknn_backward.lists != a.rknn_backward.lists


def test_object_set_rejects_duplicate_and_negative_vertices():
    for vertices, message in (((1, 1), "duplicate vertices"), ((1, -1), "negative vertex IDs")):
        with pytest.raises(ConfigError, match=f"^object set contains {message}$"):
            ObjectSet(vertices)


def test_epsilon_bounds(tree14_labels, tree14_objects):
    index = offline_preprocess(tree14_labels, tree14_objects, 1)
    eps = epsilon(index)
    assert eps == TREE14_RKNN_TOTAL_PAIRS / TREE14_TO_MANY_PAIRS
    assert 0 < eps <= 1


def test_index_stats_reports_counts(tree14_labels, tree14_objects):
    stats = index_stats(offline_preprocess(tree14_labels, tree14_objects, 1))
    assert stats["rknn_pairs"] == TREE14_RKNN_TOTAL_PAIRS
    assert stats["to_many_pairs"] == TREE14_TO_MANY_PAIRS
    assert stats["knn_result_pairs"] == 3
    assert stats["model_bytes"] == 5 * (stats["knn_backward_pairs"] + 3 + stats["rknn_pairs"])


# --- serialization ---


def test_index_roundtrip(tree14_labels, tree14_objects):
    _, pa_labels, pa_objects = make_pa_instance(seed=2)
    for labels, objects, k in [(tree14_labels, tree14_objects, 1), (pa_labels, pa_objects, 8)]:
        index = offline_preprocess(labels, objects, k)
        sink = io.BytesIO()
        save_index(index, sink)
        data = sink.getvalue()
        assert len(data) == OBJECTS_AT + 9 * len(objects) + 4  # one k-th neighbor per object
        loaded = load_index(io.BytesIO(data), labels)
        assert loaded.k == k
        assert loaded.objects.vertices == objects.vertices
        assert loaded.kth == index.kth
        assert batch_rows(loaded) == batch_rows(index)
        assert loaded.worst == index.worst
        # a loaded index rebuilds substages 1 and 3 once, equal to the built lists
        assert_same_lists(loaded, index)
        assert loaded.knn_backward is loaded.knn_backward
        assert index_stats(loaded) == index_stats(index)
        for q in range(labels.vertex_count):
            expected = knn_query(index.knn_backward, labels, q, k)
            assert knn_query(loaded.knn_backward, labels, q, k) == expected
        again = io.BytesIO()
        save_index(loaded, again)
        assert again.getvalue() == data
        # labels with only the objects' labels decoded load the same index
        label_file = io.BytesIO()
        save_labels(labels, label_file)
        part = load_labels(io.BytesIO(label_file.getvalue()), objects.vertices)
        from_part = load_index(io.BytesIO(data), part)
        assert from_part.kth == index.kth
        assert batch_rows(from_part) == batch_rows(index)
        assert_same_lists(from_part, index)
        assert index_stats(from_part) == index_stats(index)


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


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
def test_index_load_rejects_old_versions(tree14_labels, tree14_objects, version):
    data = bytearray(_index_bytes(offline_preprocess(tree14_labels, tree14_objects, 1)))
    assert data[4] == 6
    # versions 1 and 2 store RkNN sections and no checksum; the checksums of
    # versions 3 and 4 carry on over the objects' labels, in hub order and
    # in distance order; version 5 stores all k entries of every kNN row
    data[4] = version
    with pytest.raises(FormatError, match=f"version {version}"):
        load_index(io.BytesIO(bytes(data)), tree14_labels)


def test_index_load_rejects_truncation(tree14_labels, tree14_objects):
    index = offline_preprocess(tree14_labels, tree14_objects, 1)
    sink = io.BytesIO()
    save_index(index, sink)
    with pytest.raises(FormatError):
        load_index(io.BytesIO(sink.getvalue()[:-1]), tree14_labels)


def test_index_load_names_truncation_and_trailing_bytes(tree14_labels, tree14_objects):
    data = _index_bytes(offline_preprocess(tree14_labels, tree14_objects, 1))
    # the CRC is checked first, so a cut file fails as a cut label file does
    message = "index-file checksum mismatch: the file is corrupt or truncated"
    for cut in (data[:-1], data[: OBJECTS_AT + 4], data + b"\0"):
        with pytest.raises(FormatError) as err:
            load_index(io.BytesIO(cut), tree14_labels)
        assert str(err.value) == message
    # too short for the framing and the header fields
    for cut in (data[:5], data[: OBJECTS_AT + 3]):
        with pytest.raises(FormatError, match="^truncated stream$"):
            load_index(io.BytesIO(cut), tree14_labels)
    # the body's own length is checked behind the CRC
    with pytest.raises(FormatError, match="^truncated stream$"):
        _load_resealed(data[:-5] + data[-4:], tree14_labels)
    with pytest.raises(FormatError, match="^truncated stream$"):
        _load_resealed(data[:OBJECTS_AT - 1] + data[-4:], tree14_labels)
    with pytest.raises(FormatError, match="^trailing bytes after the last k-th-neighbor entry$"):
        _load_resealed(data[:-4] + b"\0" + data[-4:], tree14_labels)


def test_index_load_rejects_wrong_knn_row_distance(tree14_labels, tree14_objects):
    data = bytearray(_index_bytes(offline_preprocess(tree14_labels, tree14_objects, 1)))
    # object 2's stored k-th neighbor is the last 5 bytes before the checksum
    pos = OBJECTS_AT + 4 * 3 + 5 * 2 + 4
    assert data[pos] == 4
    data[pos] = 5
    with pytest.raises(FormatError, match="index-file checksum mismatch"):
        load_index(io.BytesIO(bytes(data)), tree14_labels)
    with pytest.raises(FormatError) as err:
        _load_resealed(data, tree14_labels)
    assert str(err.value) == (
        "k-th-neighbor entry 2 does not match labels: object 0 is not at distance 5"
    )


def _set_u32(at, value):
    return lambda data: struct.pack_into("<I", data, at, value)


def _set_byte(at, value):
    return lambda data: data.__setitem__(at, value)


# (k, change to the TREE14 index file, message). The stored k-th neighbors
# are (1, 1), (0, 1), (0, 4) for k=1 and (2, 4), (2, 5), (1, 5) for k=2.
STRUCTURAL_CASES = {
    "k-zero": (1, _set_u32(9, 0), "index header has k=0 but only 3 objects"),
    "k-too-large": (1, _set_u32(9, 3), "index header has k=3 but only 3 objects"),
    "few-objects": (2, _set_u32(13, 2), "index header has k=2 but only 2 objects"),
    "object-out-of-range": (
        1, _set_u32(OBJECTS_AT + 4, 14), "index vertex 14 out of range for 14 vertices"
    ),
    "duplicate-objects": (
        1, _set_u32(OBJECTS_AT + 4, 4), "object set contains duplicate vertices"
    ),
    "row-index-past-m": (
        1, _set_u32(OBJECTS_AT + 12 + 5, 3), "k-th-neighbor entry 1 references index 3"
    ),
    "row-names-itself": (
        1, _set_u32(OBJECTS_AT + 12 + 5, 1), "k-th-neighbor entry 1 references index 1"
    ),
    "last-entry-distance": (
        2,
        _set_byte(OBJECTS_AT + 12 + 5 + 4, 6),
        "k-th-neighbor entry 1 does not match labels: object 2 is not at distance 6",
    ),
}


@pytest.mark.parametrize("case", list(STRUCTURAL_CASES))
def test_index_load_runs_every_structural_check_behind_the_crc(
    tree14_labels, tree14_objects, case
):
    """Each check behind the CRC, reached by a file with its CRC recomputed."""
    k, change, message = STRUCTURAL_CASES[case]
    data = bytearray(_index_bytes(offline_preprocess(tree14_labels, tree14_objects, k)))
    change(data)
    with pytest.raises(FormatError, match="index-file checksum mismatch"):
        load_index(io.BytesIO(bytes(data)), tree14_labels)
    with pytest.raises(FormatError) as err:
        _load_resealed(data, tree14_labels)
    assert str(err.value) == message


def _tree14(k):
    return build_pll_labels(Graph.from_edges(TREE14_EDGES)), ObjectSet(TREE14_OBJECTS), k


def _sparse_pa30():
    """PA 30/1 with 3 objects: most hubs keep no RkNN pair."""
    labels = build_pll_labels(preferential_attachment_graph(30, 1, seed=0))
    objects = ObjectSet(tuple(sorted(random.Random(1).sample(range(30), 3))))
    return labels, objects, 1


def _tied_pa40():
    """PA 40/2 with 4 objects: an object has two others at its nearest
    distance, so its row's last entry could name either."""
    labels = build_pll_labels(preferential_attachment_graph(40, 2, seed=0))
    objects = ObjectSet(tuple(sorted(random.Random(0).sample(range(40), 4))))
    return labels, objects, 1


@pytest.mark.parametrize(
    "instance, size",
    [
        pytest.param(partial(_tree14, 1), 48, id="tree14-k1"),
        pytest.param(partial(_tree14, 2), 48, id="tree14-k2"),
        pytest.param(_sparse_pa30, 48, id="sparse-pa30"),
        pytest.param(_tied_pa40, 57, id="tied-pa40"),
    ],
)
def test_index_load_rejects_every_single_byte_change(instance, size):
    """Every truncation and every single-byte change raises FormatError,
    also for k=2 and in a k-th neighbor that ties. A file is the header,
    then per object its vertex and its k-th neighbor, then the CRC."""
    labels, objects, k = instance()
    data = _index_bytes(offline_preprocess(labels, objects, k))
    assert len(data) == size == OBJECTS_AT + 9 * len(objects) + 4
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


def test_index_load_rejects_a_tied_swap_of_the_last_row_entry():
    """A last row entry swapped for another object at the same distance
    passes the row checks, and the file's CRC rejects it."""
    labels, objects, k = _tied_pa40()
    index = offline_preprocess(labels, objects, k)
    vertices = objects.vertices
    i, j = next(
        (i, j)
        for i, (last, _) in enumerate(index.kth)
        for j, v in enumerate(vertices)
        if j not in (i, last)
        and hl_distance(labels, vertices[i], v) == index.worst[i]
    )
    data = bytearray(_index_bytes(index))
    struct.pack_into("<I", data, OBJECTS_AT + 4 * 4 + 5 * i, j)
    with pytest.raises(FormatError, match="^index-file checksum mismatch"):
        load_index(io.BytesIO(bytes(data)), labels)


def test_index_load_rejects_labels_that_pass_the_row_check():
    """Labels of the graph with six edges added keep every kNN row's last
    distance, but the rows and RkNN lists they rebuild answer wrongly; the
    label checksum the index names rejects them."""
    g = preferential_attachment_graph(120, 2, seed=0)
    rng = random.Random(0)
    adjacency = [set(nbrs) for nbrs in g.adjacency]
    added = 0
    while added < 6:
        u, v = rng.sample(range(120), 2)
        if v not in adjacency[u]:
            adjacency[u].add(v)
            adjacency[v].add(u)
            added += 1
    changed = build_pll_labels(Graph([sorted(a) for a in adjacency], g.raw_ids))
    objects = ObjectSet(tuple(random.Random(0).sample(range(120), 12)))
    index = offline_preprocess(build_pll_labels(g), objects, 2)
    vertices = objects.vertices
    for i, (idx, d) in enumerate(index.kth):
        assert hl_distance(changed, vertices[i], vertices[idx]) == d
    assert batch_rows(offline_preprocess(changed, objects, 2)) != batch_rows(index)
    with pytest.raises(FormatError, match="^index was built from other labels"):
        load_index(io.BytesIO(_index_bytes(index)), changed)


def test_index_load_rejects_labels_changed_outside_the_objects(tree14_labels, tree14_objects):
    """Labels that differ from the index's only in a non-object vertex's
    label are another label file, and the index names its own."""
    data = _index_bytes(offline_preprocess(tree14_labels, tree14_objects, 1))
    v = 11
    assert v not in tree14_objects.vertices
    dists = list(tree14_labels.dists)
    dists[v] = dists[v][:-1] + bytes([dists[v][-1] + 1])  # still distance-major
    changed = LabelSet(list(tree14_labels.hubs), dists)
    sink = io.BytesIO()
    save_labels(changed, sink)
    changed = load_labels(io.BytesIO(sink.getvalue()))  # a valid label file
    with pytest.raises(FormatError) as err:
        load_index(io.BytesIO(data), changed)
    assert str(err.value) == (
        f"index was built from other labels: it names label checksum "
        f"{tree14_labels.checksum():08x}, these labels have {changed.checksum():08x}"
    )


@pytest.fixture(scope="module")
def pa1800():
    g = preferential_attachment_graph(1800, 3, seed=31)
    return g, build_pll_labels(g)


def _assert_regroupings_match_references(labels, objects):
    """Substages 1 and 3, on the built index and on one loaded from its
    file, and the index bytes equal the dense references at k 1, 8, 16;
    returns the last built index."""
    m = len(objects)
    for k in (1, 8, 16):
        index = offline_preprocess(labels, objects, k)
        data = _index_bytes(index)
        assert data == reference_save_index(index)
        loaded = load_index(io.BytesIO(data), labels)
        for built in (index, loaded):
            assert knn_pairs(built.knn_backward) == reference_by_hub(
                labels, objects, [INFINITY] * m, [0] * m, k + 1
            )
            worst = built.worst
            assert built.rknn_backward.lists == reference_by_hub(
                labels, objects, worst, [-w for w in worst]
            )
    return index


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
    index = _assert_regroupings_match_references(labels, objects)
    # few objects leave most hubs without a pair
    if density == 0.01:
        assert sum(not lst for lst in index.rknn_backward.lists) > g.vertex_count // 2


def _shape_instance(shape):
    """Labels and objects of PA 150/4 (40 objects), a 256-vertex path (all
    of it) or a 20x30 grid (120 objects)."""
    if shape == "pa":
        _, labels, objects = make_pa_instance(seed=33)
    elif shape == "path256":
        labels = build_pll_labels(Graph.from_edges([(v, v + 1) for v in range(255)]))
        objects = ObjectSet(tuple(range(256)))
    else:
        g = grid_graph(20, 30)
        labels = build_pll_labels(g)
        objects = generate_random_objects(g, 0.2, 30)
    return labels, objects


@pytest.mark.parametrize("shape", ["path256", "grid20x30"])
def test_regrouping_matches_dense_references_off_pa_shapes(shape):
    """The shapes PA labels never produce: on a 256-vertex path every label
    distance holds one hub, so each (object, distance) block is one pair;
    a 20x30 grid spreads its labels over tens of distances, so the
    regroupings fill many buckets."""
    labels, objects = _shape_instance(shape)
    if shape == "path256":
        assert all(len(set(ds)) == len(ds) for ds in labels.dists)
    else:
        assert len(set().union(*map(labels.dists.__getitem__, objects.vertices))) > 30
    _assert_regroupings_match_references(labels, objects)


@pytest.mark.parametrize("shape, k", [("pa", 4), ("path256", 2), ("grid20x30", 8)])
def test_index_load_accepts_an_entry_iff_hl_distance_matches(shape, k):
    """A k-th-neighbor entry (idx, d) changed in a built index's file, the
    CRC recomputed, loads exactly when ``hl_distance`` between the two
    objects is d: entries moved to d +- 1 and d +- 2, to a random other
    object and to a random d in 0..4, in 40 sampled rows."""
    labels, objects = _shape_instance(shape)
    index = offline_preprocess(labels, objects, k)
    data = _index_bytes(index)
    assert load_index(io.BytesIO(data), labels).kth == index.kth
    vertices, m = objects.vertices, len(objects)
    rng = random.Random(k)
    verdicts = {True: 0, False: 0}
    for i in rng.sample(range(m), min(m, 40)):
        idx, d = index.kth[i]
        other = rng.choice([j for j in range(m) if j not in (i, idx)])
        for j, e in [(idx, d - 2), (idx, d - 1), (idx, d + 1), (idx, d + 2),
                     (other, d), (idx, rng.randint(0, 4))]:
            if e < 0:
                continue
            changed = bytearray(data)
            struct.pack_into("<IB", changed, OBJECTS_AT + 4 * m + 5 * i, j, e)
            accepted = hl_distance(labels, vertices[i], vertices[j]) == e
            verdicts[accepted] += 1
            if accepted:
                assert _load_resealed(changed, labels).kth[i] == (j, e)
                continue
            with pytest.raises(FormatError) as err:
                _load_resealed(changed, labels)
            assert str(err.value) == (
                f"k-th-neighbor entry {i} does not match labels: object {j} "
                f"is not at distance {e}"
            )
    assert verdicts[True] and verdicts[False]


def test_index_load_walks_each_entry_once_against_its_targets_dict(monkeypatch):
    """The load's distance check costs one ``_label_walk`` per entry, bounded
    at d + 1, against one dict per distinct k-th neighbor, that neighbor's
    label: a fresh dict per entry gives the same verdicts, only slower."""
    labels, objects = _shape_instance("pa")
    index = offline_preprocess(labels, objects, 4)
    data = _index_bytes(index)
    calls = []
    walk = hubrknn.offline._label_walk

    def recorded(to_s, hubs, dists, best):
        calls.append((to_s, best))
        return walk(to_s, hubs, dists, best)

    monkeypatch.setattr(hubrknn.offline, "_label_walk", recorded)
    load_index(io.BytesIO(data), labels)
    assert len(calls) == len(index.kth)
    assert [best for _, best in calls] == [d + 1 for _, d in index.kth]
    by_target = {}
    for (idx, _), (to_s, _) in zip(index.kth, calls):
        assert by_target.setdefault(objects.vertices[idx], to_s) is to_s
    assert len({id(to_s) for to_s, _ in calls}) == len(by_target) < len(calls)
    for t, to_t in by_target.items():
        assert to_t == dict(zip(labels.hubs[t], labels.dists[t]))


# --- object file parsing ---


def test_parse_object_file():
    assert parse_object_file("# objs\n4\n10\n\n12\n") == [4, 10, 12]


def test_parse_object_file_rejects_garbage():
    from hubrknn import ParseError

    with pytest.raises(ParseError) as err:
        parse_object_file("4\nbogus\n")
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("text", ["", "# objs\n\n"])
def test_parse_object_file_rejects_an_empty_set(text):
    from hubrknn import ParseError

    with pytest.raises(ParseError, match="^empty object set: input contains no vertices$"):
        parse_object_file(text)
