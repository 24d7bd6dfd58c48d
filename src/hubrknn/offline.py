"""Offline preprocessing for reverse-kNN queries over hub labels.

Runs once per object set, in three substages:

1. Regroup the objects' forward labels by hub, keeping only the k+1
   nearest object pairs per hub (kNN backward labels). Capacity is k+1, not
   k, because an object is by definition its own nearest neighbor and must
   be skippable later without starving the result.
2. Compute each object's k nearest other objects with a one-to-many sweep
   over those per-hub lists (batch kNN). The sweep visits the object's
   label in ascending label distance and stops at the first hub farther
   than the current k-th distance; kNN queries use the same sweep.
3. Regroup the objects' forward labels by hub again, dropping every pair
   whose distance exceeds that object's k-th-neighbor distance (RkNN
   backward labels). That filter is what keeps online queries cheap. Each
   hub's pairs are ordered by slack, distance minus that k-th-neighbor
   distance, so the pairs a query can use form a prefix of the list.

Substages 1 and 3 share one regrouping (``_by_hub``); they differ only in
the per-object distance bound, the sort offset and the cut. Apart from
making one empty list per hub and a few C-level passes over those lists,
the offline work scales with the objects' label pairs, not with the vertex
count.

An ``OfflineIndex`` is made from the labels, the objects and their kNN rows
(substage 2). ``offline_preprocess`` hands it substage 1's lists and reads
its substage 3; a loaded index builds each on first use, so a one-shot
answer that reads only the objects' labels (``online.object_distances``)
builds neither. The index file stores only the objects and the rows, sealed
like a label file, and names its labels by their label file's checksum.
"""

from __future__ import annotations

import struct
import time
from bisect import insort
from functools import cached_property
from itertools import chain, compress
from typing import IO

from .errors import ConfigError, FormatError
from .labels import _PAIR, _U32, INFINITY, LabelSet, _seal, _unseal, hl_distance

_MAGIC = b"RHIX"
_VERSION = 5
_HEADER = struct.Struct("<III")  # the labels' checksum, k, object count


class ObjectSet:
    """Distinct object vertices; list position is the canonical object index."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple[int, ...]):
        if len(set(vertices)) != len(vertices):
            raise ConfigError("object set contains duplicate vertices")
        if any(v < 0 for v in vertices):
            raise ConfigError("object set contains negative vertex IDs")
        self.vertices = vertices

    def __eq__(self, other: object) -> bool:
        return self.vertices == other.vertices if type(other) is ObjectSet else NotImplemented

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)


class KnnBackwardLabels:
    """Per-hub lists of the k+1 nearest (objectIndex, dist) pairs.

    ``labels`` is the label set the lists were built from, the only one
    ``knn_query`` accepts with them; equality compares ``k`` and the lists.
    """

    __slots__ = ("k", "lists", "labels")

    def __init__(self, k: int, lists: list[list[tuple[int, int]]], labels: LabelSet):
        self.k = k
        self.lists = lists  # hub -> [(idx, dist)] ascending by (dist, idx)
        self.labels = labels

    def __eq__(self, other: object) -> bool:
        if type(other) is not KnnBackwardLabels:
            return NotImplemented
        return (self.k, self.lists) == (other.k, other.lists)

    def total_pairs(self) -> int:
        return sum(len(lst) for lst in self.lists)


class RknnBackwardLabels:
    """Per-hub (objectIndex, dist) pairs surviving the k-th-neighbor filter;
    equality compares the lists."""

    __slots__ = ("lists", "total_pairs")

    def __init__(self, lists: list[list[tuple[int, int]]]):
        # hub -> [(idx, dist)] ascending by (dist - worst[idx], idx), where
        # worst[idx] is object idx's k-th-neighbor distance
        self.lists = lists
        self.total_pairs = sum(map(len, lists))

    def __eq__(self, other: object) -> bool:
        return self.lists == other.lists if type(other) is RknnBackwardLabels else NotImplemented


class OfflineTimings:
    __slots__ = ("knn_backward_s", "batch_knn_s", "rknn_labels_s")

    def __init__(self, knn_backward_s: float = 0.0, batch_knn_s: float = 0.0,
                 rknn_labels_s: float = 0.0):
        self.knn_backward_s = knn_backward_s
        self.batch_knn_s = batch_knn_s
        self.rknn_labels_s = rknn_labels_s

    def __eq__(self, other: object) -> bool:
        if type(other) is not OfflineTimings:
            return NotImplemented
        return (self.knn_backward_s, self.batch_knn_s, self.rknn_labels_s) == (
            other.knn_backward_s, other.batch_knn_s, other.rknn_labels_s
        )

    @property
    def total_s(self) -> float:
        return self.knn_backward_s + self.batch_knn_s + self.rknn_labels_s


class OfflineIndex:
    """Everything the online phase needs for one object set and one k.

    ``rows[i]`` holds object i's k nearest other objects as (objectIndex,
    dist), ascending by distance, and ``worst[i]`` the last one's distance.
    Built (``offline_preprocess``) and loaded (``load_index``) indexes come
    from this one constructor, which builds no per-hub list: a loaded index
    builds ``rknn_backward`` (substage 3) and ``knn_backward`` (substage 1)
    from the labels on first access.
    """

    def __init__(self, objects: ObjectSet, rows: list[list[tuple[int, int]]], labels: LabelSet):
        self.objects = objects
        self.rows = rows
        self.labels = labels
        self.k = len(rows[0])
        _check_objects(labels, objects, self.k)
        self.worst = [row[-1][1] for row in rows]
        self.timings = OfflineTimings()

    @cached_property
    def rknn_backward(self) -> RknnBackwardLabels:
        return build_rknn_backward_labels(self.labels, self.objects, self.worst)

    @cached_property
    def knn_backward(self) -> KnnBackwardLabels:
        return build_knn_backward_labels(self.labels, self.objects, self.k)


def _check_objects(labels: LabelSet, objects: ObjectSet, k: int) -> None:
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if len(objects) < k + 1:
        raise ConfigError(
            f"need at least k+1 = {k + 1} objects, got {len(objects)}"
        )
    n = labels.vertex_count
    for v in objects.vertices:
        if v >= n:
            raise ConfigError(f"object vertex {v} out of range for {n} vertices")


def _by_hub(
    labels: LabelSet,
    objects: ObjectSet,
    bound: list[int],
    offset: list[int],
    keep: int | None = None,
) -> list[list[tuple[int, int]]]:
    """The objects' label pairs regrouped by hub; substages 1 and 3.

    Object i's pair (h, d) goes to hub h iff d <= bound[i]. Each hub's list
    is ascending by (d + offset[i], i) and cut to its first ``keep`` pairs.
    Only the hubs that receive a pair are sorted, cut and mapped, so the
    Python work follows the object pairs, not the vertex count.
    """
    m = len(objects)
    top = -min(offset)
    # Each kept pair is first an int key (d + offset[i] + top) * m + i, so a
    # hub's keys sort by plain int comparison. Every hub then shares one
    # (idx, dist) tuple per distinct key: an object has few distinct
    # distances, so the lists point into a small set of tuples that stays in
    # cache during the online sweep. One tuple per pair, made object by
    # object and scattered over memory, measured slower to query.
    lists: list[list] = [[] for _ in range(labels.vertex_count)]
    for i, p in enumerate(objects.vertices):
        b = bound[i]
        base = (offset[i] + top) * m + i
        for h, d in zip(labels.hubs[p], labels.dists[p]):
            if d <= b:
                lists[h].append(d * m + base)
    touched = list(compress(range(len(lists)), lists))  # hubs with a pair, at C level
    for h in touched:
        keys = lists[h]
        keys.sort()
        if keep is not None:
            del keys[keep:]
    pair = {
        c: (c % m, c // m - offset[c % m] - top)
        for c in set(chain.from_iterable(map(lists.__getitem__, touched)))
    }
    # Fresh lists, made hub after hub, in place of the key lists: measured
    # faster to query than the key lists refilled in place.
    for h in touched:
        lists[h] = list(map(pair.__getitem__, lists[h]))
    return lists


def build_knn_backward_labels(
    labels: LabelSet, objects: ObjectSet, k: int
) -> KnnBackwardLabels:
    """Substage 1: k+1 nearest object pairs per hub, ties by object index.

    The by-hub regrouping of all object pairs is built in full, then each
    hub's list is sorted and cut to k+1.
    """
    _check_objects(labels, objects, k)
    m = len(objects)
    lists = _by_hub(labels, objects, [INFINITY] * m, [0] * m, k + 1)
    return KnnBackwardLabels(k, lists, labels)


def _knn_row(
    labels: LabelSet,
    source: int,
    skip: int,
    k: int,
    knn_lists: list[list[tuple[int, int]]],
) -> list[tuple[int, int]]:
    """One bounded one-to-many sweep; shared by batch kNN and kNN queries.

    Returns at most k (idx, dist) pairs, ascending by (dist, idx), each
    object index once at its smallest distance found. Object index ``skip``
    is never reported (-1 skips nothing).

    The source label is swept as stored, in ascending label distance, and
    the sweep stops at the first hub whose label distance exceeds the
    current k-th distance: every pair of that hub and of all later ones is
    at least that far, so none can enter or improve the row.
    """
    best: list[tuple[int, int]] = []  # (dist, idx), ascending, at most k
    found: dict[int, int] = {}  # idx -> its dist in best
    worst = INFINITY  # best[-1][0] once best holds k pairs
    for h, d in zip(labels.hubs[source], labels.dists[source]):
        if d > worst:
            break  # label distances ascend; no later hub can reach the row
        for idx, dp in knn_lists[h]:
            if idx == skip:
                continue
            d2 = d + dp
            if d2 > worst:
                break  # hub list ascends by distance; nothing better follows
            old = found.get(idx)
            if old is None:
                item = (d2, idx)
                if len(best) == k:
                    if item > best[-1]:
                        continue
                    del found[best.pop()[1]]
                insort(best, item)
                found[idx] = d2
            elif d2 < old:
                best.remove((old, idx))
                insort(best, (d2, idx))
                found[idx] = d2
            if len(best) == k:
                worst = best[-1][0]
    return [(i, d) for d, i in best]


def batch_knn(
    labels: LabelSet,
    objects: ObjectSet,
    knn_backward: KnnBackwardLabels,
) -> list[list[tuple[int, int]]]:
    """Substage 2: every object's k nearest other objects as (objectIndex,
    dist), ascending by distance; k from the lists."""
    k = knn_backward.k
    _check_objects(labels, objects, k)
    vertices = objects.vertices
    lists = knn_backward.lists

    def row(i: int) -> list[tuple[int, int]]:
        result = _knn_row(labels, vertices[i], i, k, lists)
        if len(result) < k:
            raise ConfigError(
                f"object {i} reaches only {len(result)} of {k} required neighbors"
            )
        return result

    return [row(i) for i in range(len(vertices))]


def build_rknn_backward_labels(
    labels: LabelSet,
    objects: ObjectSet,
    worst: list[int],
) -> RknnBackwardLabels:
    """Substage 3: regroup object labels by hub, filtered by ``worst``, each
    object's k-th-neighbor distance.

    Each hub's list is ordered by slack ``dist - worst[idx]``, ties by
    index. A query reaching the hub at distance d can use a pair iff its
    slack is <= -d, so the online sweep stops at the first pair that fails.
    """
    return RknnBackwardLabels(_by_hub(labels, objects, worst, [-w for w in worst]))


def offline_preprocess(labels: LabelSet, objects: ObjectSet, k: int) -> OfflineIndex:
    """Run the three substages in order, so the index holds every list;
    substage 3 is the index's own ``rknn_backward``, read in its timed span."""
    t0 = time.perf_counter()
    knn_backward = build_knn_backward_labels(labels, objects, k)
    t1 = time.perf_counter()
    rows = batch_knn(labels, objects, knn_backward)
    t2 = time.perf_counter()
    index = OfflineIndex(objects, rows, labels)
    index.rknn_backward  # builds and caches substage 3
    t3 = time.perf_counter()
    index.timings = OfflineTimings(t1 - t0, t2 - t1, t3 - t2)
    index.knn_backward = knn_backward  # substage 1's lists, not rebuilt
    return index


def to_many_pairs(labels: LabelSet, objects: ObjectSet) -> int:
    """Pair count of the unpruned by-hub regrouping of all object labels."""
    return sum(len(labels.hubs[p]) for p in objects.vertices)


def epsilon(index: OfflineIndex) -> float:
    """Pruning ratio: kept RkNN pairs over the unpruned pair count (<= 1)."""
    return index.rknn_backward.total_pairs / to_many_pairs(index.labels, index.objects)


def index_stats(index: OfflineIndex) -> dict[str, float]:
    """The index's pair counts, keyed by the bench CSV's column names."""
    knn_backward_pairs = index.knn_backward.total_pairs()
    knn_result_pairs = index.k * len(index.objects)
    rknn_pairs = index.rknn_backward.total_pairs
    return {
        "knn_backward_pairs": knn_backward_pairs,
        "knn_result_pairs": knn_result_pairs,
        "rknn_pairs": rknn_pairs,
        "to_many_pairs": to_many_pairs(index.labels, index.objects),
        "epsilon": epsilon(index),
        # The 5-bytes-per-pair model (object index u32, distance u8) over the
        # three structures an index holds in memory; not the index file's size.
        "model_bytes": _PAIR.size * (knn_backward_pairs + knn_result_pairs + rknn_pairs),
    }


def save_index(index: OfflineIndex, sink: IO[bytes]) -> None:
    """Serialize the objects and the kNN rows, sealed, in one write."""
    vertices = index.objects.vertices
    pack = _PAIR.pack
    body = b"".join([
        _HEADER.pack(index.labels.checksum(), index.k, len(vertices)),
        struct.pack(f"<{len(vertices)}I", *vertices),
        b"".join(pack(idx, d) for row in index.rows for idx, d in row),
    ])
    sink.write(_seal(_MAGIC, _VERSION, body))


def _read_index_header(data: bytes) -> tuple[int, int, tuple[int, ...], bytes]:
    """The label checksum, k and objects an index file names, and its kNN
    rows' bytes. Checks the framing, the header and the exact body length
    (naming a truncation or trailing bytes)."""
    (named, k, obj_count), body, _ = _unseal(data, _MAGIC, _VERSION, "index", _HEADER)
    if k < 1 or obj_count < k + 1:
        raise FormatError(f"index header has k={k} but only {obj_count} objects")
    rows_at = _U32.size * obj_count
    end = rows_at + obj_count * k * _PAIR.size
    if len(body) < end:
        raise FormatError("truncated stream")
    if len(body) > end:
        raise FormatError("trailing bytes after the last kNN row")
    return named, k, struct.unpack_from(f"<{obj_count}I", body), body[rows_at:]


def load_index(source: IO[bytes], labels: LabelSet) -> OfflineIndex:
    """Read an index file and verify it belongs to the given labels.

    Checks, in order: the file (``_read_index_header``); that the label
    checksum it names is ``labels.checksum()``; the objects' range and
    distinctness; each kNN row's range and distance order, and that its
    last entry, the k-th-neighbor distance the queries read, equals the
    label distance between its two objects. No per-hub list is built:
    the index builds them from the labels on first access, so ``labels``
    needs only the objects' labels decoded. Mismatched, corrupt or
    truncated inputs fail with FormatError. The index is bound to this
    ``labels`` object, which ``rknn_query`` must be passed.
    """
    named, k, vertices, rows_data = _read_index_header(source.read())
    if named != labels.checksum():
        raise FormatError(
            f"index was built from other labels: it names label checksum {named:08x}, "
            f"these labels have {labels.checksum():08x}"
        )
    n = labels.vertex_count
    obj_count = len(vertices)
    for v in vertices:
        if v >= n:
            raise FormatError(f"index object vertex {v} out of range for {n} vertices")
    try:
        objects = ObjectSet(vertices)
    except ConfigError as exc:
        raise FormatError(str(exc)) from None

    pairs = list(_PAIR.iter_unpack(rows_data))
    rows = [pairs[i * k : (i + 1) * k] for i in range(obj_count)]
    for i, row in enumerate(rows):
        prev = -1
        for idx, d in row:
            if idx >= obj_count or idx == i:
                raise FormatError(f"kNN result row {i} references index {idx}")
            if d < prev:
                raise FormatError(f"kNN result row {i} is not distance-sorted")
            prev = d
        idx, d = row[-1]
        if hl_distance(labels, vertices[i], vertices[idx]) != d:
            raise FormatError(
                f"kNN result row {i} does not match labels: object {idx} "
                f"is not at distance {d}"
            )

    return OfflineIndex(objects, rows, labels)
