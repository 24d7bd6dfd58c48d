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

``OfflineIndex(objects, labels, k)`` checks its inputs once and holds each
substage as a lazy attribute (``knn_backward``, ``rows``, ``rknn_backward``),
built from the labels on first access. ``offline_preprocess`` reads the
three in order and times them. The index file stores only the objects and
each one's k-th nearest neighbor (``kth``), the one kNN-row entry queries
read, sealed like a label file and naming its labels by their checksum;
``load_index`` hands the index the ``kth`` it read, so a one-shot answer
(``online.object_distances``) builds no kNN row and no per-hub list.
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
_VERSION = 6
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

    @property
    def total_s(self) -> float:
        return self.knn_backward_s + self.batch_knn_s + self.rknn_labels_s


class OfflineIndex:
    """Everything the online phase needs for one object set and one k.

    The constructor checks k, the object count and the objects' vertex range
    and builds nothing; each substage is a lazy attribute, built from
    ``labels`` on first access:

    - ``knn_backward`` (substage 1);
    - ``rows`` (substage 2): ``rows[i]`` holds object i's k nearest other
      objects as (objectIndex, dist), ascending by distance; ``kth[i]`` is
      the last of them and ``worst[i]`` its distance;
    - ``rknn_backward`` (substage 3).

    ``load_index`` is the only code that assigns one of them: it sets
    ``kth`` before anything reads it.
    """

    def __init__(self, objects: ObjectSet, labels: LabelSet, k: int):
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        if len(objects) < k + 1:
            raise ConfigError(f"need at least k+1 = {k + 1} objects, got {len(objects)}")
        n = labels.vertex_count
        for v in objects.vertices:
            if v >= n:
                raise ConfigError(f"object vertex {v} out of range for {n} vertices")
        self.objects = objects
        self.labels = labels
        self.k = k
        self.timings = OfflineTimings()

    @cached_property
    def knn_backward(self) -> KnnBackwardLabels:
        """Substage 1: k+1 nearest object pairs per hub, ties by object index."""
        m = len(self.objects)
        lists = _by_hub(self.labels, self.objects, [INFINITY] * m, [0] * m, self.k + 1)
        return KnnBackwardLabels(self.k, lists, self.labels)

    @cached_property
    def rows(self) -> list[list[tuple[int, int]]]:
        """Substage 2 (batch kNN): one ``_knn_row`` per object, skipping itself."""
        labels, k, lists = self.labels, self.k, self.knn_backward.lists

        def row(i: int, p: int) -> list[tuple[int, int]]:
            result = _knn_row(labels, p, i, k, lists)
            if len(result) < k:
                raise ConfigError(
                    f"object {i} reaches only {len(result)} of {k} required neighbors"
                )
            return result

        return [row(i, p) for i, p in enumerate(self.objects.vertices)]

    @cached_property
    def kth(self) -> list[tuple[int, int]]:
        """Each object's k-th nearest other object, as (objectIndex, dist)."""
        return [row[-1] for row in self.rows]

    @cached_property
    def worst(self) -> list[int]:
        return [d for _, d in self.kth]

    @cached_property
    def rknn_backward(self) -> RknnBackwardLabels:
        """Substage 3: the objects' label pairs regrouped by hub, filtered by
        ``worst``, each object's k-th-neighbor distance.

        Each hub's list is ordered by slack ``dist - worst[idx]``, ties by
        index. A query reaching the hub at distance d can use a pair iff its
        slack is <= -d, so the online sweep stops at the first pair that fails.
        """
        worst = self.worst
        return RknnBackwardLabels(_by_hub(self.labels, self.objects, worst, [-w for w in worst]))


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


def offline_preprocess(labels: LabelSet, objects: ObjectSet, k: int) -> OfflineIndex:
    """The index of ``objects``, its three substages built in order and timed
    in ``index.timings``."""
    index = OfflineIndex(objects, labels, k)
    t0 = time.perf_counter()
    index.knn_backward
    t1 = time.perf_counter()
    index.rows
    t2 = time.perf_counter()
    index.rknn_backward
    t3 = time.perf_counter()
    index.timings = OfflineTimings(t1 - t0, t2 - t1, t3 - t2)
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
    to_many = to_many_pairs(index.labels, index.objects)
    return {
        "knn_backward_pairs": knn_backward_pairs,
        "knn_result_pairs": knn_result_pairs,
        "rknn_pairs": rknn_pairs,
        "to_many_pairs": to_many,
        "epsilon": rknn_pairs / to_many,  # epsilon(index), from the counts above
        # The 5-bytes-per-pair model (object index u32, distance u8) over the
        # three structures an index holds in memory; not the index file's size.
        "model_bytes": _PAIR.size * (knn_backward_pairs + knn_result_pairs + rknn_pairs),
    }


def save_index(index: OfflineIndex, sink: IO[bytes]) -> None:
    """Serialize the objects and their ``kth`` entries, sealed, in one write."""
    vertices = index.objects.vertices
    body = b"".join([
        _HEADER.pack(index.labels.checksum(), index.k, len(vertices)),
        struct.pack(f"<{len(vertices)}I", *vertices),
        *(_PAIR.pack(idx, d) for idx, d in index.kth),
    ])
    sink.write(_seal(_MAGIC, _VERSION, body))


def _read_index_header(data: bytes) -> tuple[int, int, tuple[int, ...], bytes]:
    """The label checksum, k and objects an index file names, and the bytes
    of their ``kth`` entries. Checks the framing, the header and the exact
    body length (naming a truncation or trailing bytes)."""
    (named, k, obj_count), body, _ = _unseal(data, _MAGIC, _VERSION, "index", _HEADER)
    if k < 1 or obj_count < k + 1:
        raise FormatError(f"index header has k={k} but only {obj_count} objects")
    kth_at = _U32.size * obj_count
    end = kth_at + obj_count * _PAIR.size
    if len(body) < end:
        raise FormatError("truncated stream")
    if len(body) > end:
        raise FormatError("trailing bytes after the last kNN row")
    return named, k, struct.unpack_from(f"<{obj_count}I", body), body[kth_at:]


def load_index(source: IO[bytes], labels: LabelSet) -> OfflineIndex:
    """Read an index file and verify it belongs to the given labels.

    Checks, in order: the file (``_read_index_header``); that the label
    checksum it names is ``labels.checksum()``; the objects' distinctness
    and range; and for each object its stored k-th neighbor: an index in
    range other than its own, at exactly the label distance between the
    two objects. The index gets the checked ``kth`` and builds its kNN rows
    and per-hub lists from the labels on first access, so ``labels`` needs
    only the objects' labels decoded. Mismatched, corrupt or truncated
    inputs fail with FormatError. The index is bound to this ``labels``
    object, which ``rknn_query`` must be passed.
    """
    named, k, vertices, kth_data = _read_index_header(source.read())
    if named != labels.checksum():
        raise FormatError(
            f"index was built from other labels: it names label checksum {named:08x}, "
            f"these labels have {labels.checksum():08x}"
        )
    try:
        objects = ObjectSet(vertices)
    except ConfigError as exc:
        raise FormatError(str(exc)) from None
    try:
        index = OfflineIndex(objects, labels, k)  # the header checked k
    except ConfigError as exc:
        raise FormatError(f"index {exc}") from None  # a vertex out of range

    kth = list(_PAIR.iter_unpack(kth_data))
    for i, (idx, d) in enumerate(kth):
        if idx >= len(vertices) or idx == i:
            raise FormatError(f"kNN result row {i} references index {idx}")
        if hl_distance(labels, vertices[i], vertices[idx]) != d:
            raise FormatError(
                f"kNN result row {i} does not match labels: object {idx} "
                f"is not at distance {d}"
            )
    index.kth = kth
    return index
