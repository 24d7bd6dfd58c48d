"""Reverse-kNN and kNN queries over hub labels: the offline index and the
online sweeps that read its per-hub lists.

The offline phase runs once per object set (m objects), in three substages:

1. kNN backward labels: the objects' forward labels regrouped by hub,
   keeping the k+1 nearest object pairs per hub. Each pair (idx, dist) is
   one int key ``dist * m + idx``, so a hub's ascending keys are its pairs in
   (dist, idx) order; ``first[h]`` is hub h's first key, ``INFINITY * m`` for
   an empty list. Capacity is k+1, not k, because an object is by definition
   its own nearest neighbor.
2. Batch kNN: each object's k-th nearest other object, the last of the k+1
   nearest keys that ``_knn_row`` finds for it, the first being itself at
   key ``idx``.
3. RkNN backward labels: the objects' forward labels regrouped by hub
   again, dropping every pair whose distance exceeds that object's
   k-th-neighbor distance ``worst[idx]``. That filter is what keeps online
   queries cheap. Each hub's (idx, dist) pairs are ordered by slack
   ``dist - worst[idx]``, ties by index, and ``lim[h]`` is minus the first
   pair's slack, -1 for an empty list.

Substages 1 and 3 share one regrouping (``_by_hub``) of each object's
(object, distance) blocks, one shared item per block appended to its hubs
in bucket order, so no list is sorted; they differ in the distance bound,
the bucket offset and the item. Apart from making one empty list per hub
and a few C-level passes over those lists, the offline work scales with the
objects' label pairs, not with the vertex count.

Both sweeps walk a vertex's forward label as stored, in ascending label
distance d, and use each list's order to stop early:

- ``_knn_row`` (batch kNN and ``knn_query``) keeps the k smallest candidate
  keys ``d * m + c`` over the kNN lists. It stops at the first hub whose
  ``d * m`` alone reaches the k-th key, does not enter a hub whose
  ``d * m + first[h]`` does, and stops a list at its first key that does.
- ``rknn_query`` puts an object in the answer when ``d + dist`` is within
  its k-th-neighbor distance, ties counting as members: a pair qualifies iff
  its slack is <= -d. It skips hub h when ``d > lim[h]`` and stops a list at
  its first pair that fails, since every later pair fails too.

``OfflineIndex(objects, labels, k)`` checks its inputs once and holds each
substage as a lazy, read-only attribute (``knn_backward``, ``kth``,
``rknn_backward``), built from the labels on first access.
``offline_preprocess`` reads the three in order and times them. The index
file stores the objects and their ``kth``, sealed like a label file and
naming its labels by their checksum; ``load_index`` hands the index the
``kth`` it read, so a one-shot answer (``object_distances``, which walks the
objects' own labels) runs no kNN sweep and builds no per-hub list.
"""

from __future__ import annotations

import struct
import time
from bisect import bisect_right, insort
from collections import defaultdict
from functools import cached_property
from itertools import compress
from typing import IO, Callable

from .errors import ConfigError, FormatError
from .graph import ObjectSet, _check_vertex
from .labels import _PAIR, _U32, INFINITY, LabelSet, _label_walk, _seal, _unseal

_MAGIC = b"RHIX"
_VERSION = 6
_HEADER = struct.Struct("<III")  # the labels' checksum, k, object count


class KnnBackwardLabels:
    """Substage 1's per-hub key lists and their heads ``first``.

    ``labels`` is the label set the lists were built from, the only one
    ``knn_query`` accepts with them.
    """

    __slots__ = ("k", "m", "lists", "first", "labels")

    def __init__(self, k: int, m: int, lists: list[list[int]], first: list[int], labels: LabelSet):
        self.k = k
        self.m = m
        self.lists = lists  # hub -> keys, ascending, so by (dist, idx)
        self.first = first
        self.labels = labels

    def total_pairs(self) -> int:
        return sum(len(lst) for lst in self.lists)


class RknnBackwardLabels:
    """Substage 3's per-hub (objectIndex, dist) lists, each hub's ``lim``
    and list length ``lens``."""

    __slots__ = ("lists", "lim", "lens", "total_pairs")

    def __init__(self, lists: list[list[tuple[int, int]]], lim: list[int]):
        self.lists = lists  # hub -> [(idx, dist)] ascending by (dist - worst[idx], idx)
        self.lim = lim  # hub -> worst[i0] - d0 of its first pair (i0, d0); -1 if none
        self.lens = list(map(len, lists))  # hub -> its list's length
        self.total_pairs = sum(self.lens)


class OfflineTimings:
    __slots__ = ("knn_backward_s", "batch_knn_s", "rknn_labels_s")

    def __init__(self, knn_backward_s: float, batch_knn_s: float, rknn_labels_s: float):
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
    - ``kth`` (substage 2): ``kth[i]`` is object i's k-th nearest other
      object as (objectIndex, dist), and ``worst[i]`` its distance;
    - ``rknn_backward`` (substage 3).

    A ``kth`` given to the constructor (``load_index`` gives the one it read
    and checked) stands in for substage 2. The lazy attributes are read-only:
    assigning one raises AttributeError, so none can go stale behind another.
    """

    def __init__(self, objects: ObjectSet, labels: LabelSet, k: int,
                 kth: list[tuple[int, int]] | None = None):
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        if len(objects) < k + 1:
            raise ConfigError(f"need at least k+1 = {k + 1} objects, got {len(objects)}")
        for v in objects.vertices:
            _check_vertex(labels.vertex_count, v)
        self.objects = objects
        self.labels = labels
        self.k = k
        if kth is not None:
            vars(self)["kth"] = kth

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(getattr(OfflineIndex, name, None), cached_property):
            raise AttributeError(f"OfflineIndex.{name} is read-only")
        object.__setattr__(self, name, value)

    @cached_property
    def knn_backward(self) -> KnnBackwardLabels:
        """Substage 1, ties by object index; the blocks' keys ``d * m + i``
        arrive in order, so lists are only cut."""
        m, keep = len(self.objects), self.k + 1
        lists, touched = _by_hub(self.labels, self.objects, [INFINITY] * m, [0] * m,
                                 lambda i, d: d * m + i)
        first = [INFINITY * m] * len(lists)
        for h in touched:
            del lists[h][keep:]
            first[h] = lists[h][0]
        return KnnBackwardLabels(self.k, m, lists, first, self.labels)

    @cached_property
    def kth(self) -> list[tuple[int, int]]:
        """Substage 2 (batch kNN): the last of each object's k+1 nearest
        ``_knn_row`` keys, as (objectIndex, dist); the first is itself, the
        one object at distance 0."""
        labels, k, knn, m = self.labels, self.k, self.knn_backward, len(self.objects)
        kth = []
        for i, p in enumerate(self.objects.vertices):
            keys = _knn_row(labels, p, k + 1, knn)
            if len(keys) <= k:
                raise ConfigError(
                    f"object {i} reaches only {len(keys) - 1} of {k} required neighbors"
                )
            key = keys[-1]
            kth.append((key % m, key // m))
        return kth

    @cached_property
    def worst(self) -> list[int]:
        return [d for _, d in self.kth]

    @cached_property
    def rknn_backward(self) -> RknnBackwardLabels:
        """Substage 3: the objects' label pairs regrouped by hub, filtered and
        ordered by slack against ``worst``, each object's k-th-neighbor
        distance."""
        worst = self.worst
        # One (idx, dist) tuple per block, shared by the block's hubs: an
        # object has few distinct distances, so the lists point into a small
        # set of tuples that stays in cache during the online sweep. One
        # tuple per pair measured slower to query.
        lists, touched = _by_hub(self.labels, self.objects, worst, [-w for w in worst],
                                 lambda i, d: (i, d))
        lim = [-1] * len(lists)
        for h in touched:
            i0, d0 = lists[h][0]
            lim[h] = worst[i0] - d0
        return RknnBackwardLabels(lists, lim)


def _by_hub(
    labels: LabelSet, objects: ObjectSet, bound: list[int], offset: list[int],
    item: Callable[[int, int], object],
) -> tuple[list[list[object]], list[int]]:
    """The objects' label pairs regrouped by hub; substages 1 and 3.

    Labels are distance-major, so object i's pairs at one distance d are a
    block, found with one bisect, and those with d <= bound[i] a prefix of
    blocks. Walking the objects in index order, each block's one ``item(i,
    d)`` goes into the bucket ``d + offset[i]``; the buckets are then
    appended to the blocks' hubs in ascending order, so each hub's list
    comes out in (d + offset[i], i) order with no sort. Also returns the
    hubs with an item: the Python work follows the object pairs.
    """
    buckets: defaultdict[int, list] = defaultdict(list)  # d + offset[i] -> [(item, hubs)]
    for i, p in enumerate(objects.vertices):
        label, ds = labels.hubs[p], labels.dists[p]
        at, end, shift = 0, bisect_right(ds, bound[i]), offset[i]
        while at < end:
            d = ds[at]
            stop = bisect_right(ds, d, at, end)
            buckets[d + shift].append((item(i, d), label[at:stop]))
            at = stop
    lists: list[list[object]] = [[] for _ in range(labels.vertex_count)]
    for s in sorted(buckets):
        for it, block in buckets[s]:
            for h in block:
                lists[h].append(it)
    return lists, list(compress(range(len(lists)), lists))  # hubs with an item, at C level


def _knn_row(labels: LabelSet, source: int, k: int, knn: KnnBackwardLabels) -> list[int]:
    """One bounded one-to-many sweep; shared by batch kNN and kNN queries.

    Returns at most k keys ``dist * m + idx``, ascending, so by (dist, idx),
    each object index once at its smallest distance found. Every key of a
    hub is at least its ``d * m + first[h]``, and label distances and lists
    ascend, so no key the sweep passes can enter or improve the row.
    """
    knn_lists, first, m = knn.lists, knn.first, knn.m
    best: list[int] = []  # keys, ascending, at most k
    found: dict[int, int] = {}  # idx -> its key in best
    bound = INFINITY * m  # best[-1] once best holds k keys; above any key before
    for h, d in zip(labels.hubs[source], labels.dists[source]):
        base = d * m
        if base >= bound:
            break  # label distances ascend; no later hub can reach the row
        if base + first[h] >= bound:
            continue  # the list's first key already reaches the row's bound
        for c in knn_lists[h]:
            key = base + c
            if key >= bound:
                break  # hub list ascends; nothing better follows
            idx = c % m
            old = found.get(idx)
            if old is None:
                if len(best) == k:
                    del found[best.pop() % m]
            elif key < old:
                best.remove(old)
            else:
                continue
            insort(best, key)
            found[idx] = key
            if len(best) == k:
                bound = best[-1]
    return best


def offline_preprocess(labels: LabelSet, objects: ObjectSet, k: int) -> OfflineIndex:
    """The index of ``objects``, its three substages built in order and timed
    in ``index.timings``."""
    index = OfflineIndex(objects, labels, k)
    t0 = time.perf_counter()
    index.knn_backward
    t1 = time.perf_counter()
    index.kth
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
        # The paper's offline cost model, 5 bytes per pair (object index u32,
        # distance u8) over substage 1's lists, the k*m batch kNN result and
        # substage 3's lists; neither the index file's size nor memory.
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
        raise FormatError("trailing bytes after the last k-th-neighbor entry")
    return named, k, struct.unpack_from(f"<{obj_count}I", body), body[kth_at:]


def load_index(source: IO[bytes], labels: LabelSet) -> OfflineIndex:
    """Read an index file and verify it belongs to the given labels.

    Checks, in order: the file (``_read_index_header``); that the label
    checksum it names is ``labels.checksum()``; the objects' distinctness
    and range; and for each object its stored k-th neighbor: an index in
    range other than its own, at exactly the label distance between the
    two objects. That distance check makes a dict of each distinct
    neighbor's label once and walks the object's own label against it,
    bounded at ``d + 1`` (the walk stops past the stored distance d); the
    dicts are local, so nothing is kept after the load. The index gets the
    checked ``kth`` and builds its per-hub lists from the labels on first
    access, so ``labels`` needs only the objects' labels decoded.
    Mismatched, corrupt or truncated inputs fail with FormatError. The
    index is bound to this ``labels`` object, which ``rknn_query`` must be
    passed.
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
    kth = list(_PAIR.iter_unpack(kth_data))
    try:
        index = OfflineIndex(objects, labels, k, kth)  # the header checked k
    except ConfigError as exc:
        raise FormatError(f"index {exc}") from None  # a vertex out of range

    hubs, dists = labels.hubs, labels.dists
    to_target: dict[int, dict[int, int]] = {}  # neighbor vertex -> its label as a dict
    for i, (idx, d) in enumerate(kth):
        if idx >= len(vertices) or idx == i:
            raise FormatError(f"k-th-neighbor entry {i} references index {idx}")
        t, p = vertices[idx], vertices[i]
        to_t = to_target.get(t)
        if to_t is None:
            to_t = to_target[t] = dict(zip(hubs[t], dists[t]))
        # the walk gives min(distance, d + 1), which is d iff hl_distance is
        if _label_walk(to_t, hubs[p], dists[p], d + 1) != d:
            raise FormatError(
                f"k-th-neighbor entry {i} does not match labels: object {idx} "
                f"is not at distance {d}"
            )
    return index


class RknnAnswer:
    """Distances from the query vertex to every object; INFINITY = non-member.

    ``pairs_scanned`` counts the pairs in the RkNN lists of q's label hubs,
    whether or not the sweep entered them, which is what the online cost
    model is stated in: the sum of their ``rknn_backward.lens``. It is not
    the number of pairs examined, which the sweep's skip rules cut short.
    """

    __slots__ = ("distances", "pairs_scanned")

    def __init__(self, distances: list[int], pairs_scanned: int):
        self.distances = distances
        self.pairs_scanned = pairs_scanned

    def members(self) -> list[tuple[int, int]]:
        """(objectIndex, dist) for every finite entry, in index order."""
        return [(i, d) for i, d in enumerate(self.distances) if d < INFINITY]


def _check_k(k: int, supported: int) -> None:
    """k must be 1 to ``supported``, the k the index was built for."""
    if not 1 <= k <= supported:
        raise ConfigError(f"k={k} outside [1, {supported}] supported by this index")


def object_distances(index: OfflineIndex, q: int, bound: list[int] | None = None) -> list[int]:
    """q's distance to every object, or INFINITY past ``bound[i]``, from one
    dict of q's label and the objects' labels; builds no backward list.

    Each object's label gets ``hl_distance``'s walk from ``bound[i] + 1``.
    Bounded by ``index.worst`` this is ``rknn_query(...).distances``;
    unbounded, it is ``hl_distance`` to each object, and its k smallest
    finite (dist, idx) are ``knn_query``'s row.
    """
    labels = index.labels
    _check_vertex(labels.vertex_count, q)
    to_q = dict(zip(labels.hubs[q], labels.dists[q]))
    out = []
    for i, p in enumerate(index.objects.vertices):
        b = INFINITY if bound is None else bound[i]
        best = _label_walk(to_q, labels.hubs[p], labels.dists[p], b + 1)
        out.append(best if best <= b else INFINITY)
    return out


def rknn_query(index: OfflineIndex, labels: LabelSet, q: int) -> RknnAnswer:
    """All objects having q among their k nearest objects, with distances.

    ``pairs_scanned`` is one C-level sum of ``rknn_backward.lens`` over q's hubs.
    ``labels`` must be ``index.labels`` itself; any other is a ConfigError.
    """
    if labels is not index.labels:
        raise ConfigError("label set is not the one this index was built or loaded with")
    _check_vertex(labels.vertex_count, q)

    out = [INFINITY] * len(index.objects)
    worst = index.worst
    rknn = index.rknn_backward
    rknn_lists, lim = rknn.lists, rknn.lim
    hubs = labels.hubs[q]
    for h, d in zip(hubs, labels.dists[q]):
        if d > lim[h]:
            continue  # the list's first pair fails, so every pair does
        for idx, dp in rknn_lists[h]:
            d2 = d + dp
            if d2 > worst[idx]:
                break  # slack order: no later pair of this list qualifies
            if d2 < out[idx]:
                out[idx] = d2
    return RknnAnswer(out, sum(map(rknn.lens.__getitem__, hubs)))


def knn_query(
    knn_backward: KnnBackwardLabels,
    labels: LabelSet,
    q: int,
    k: int,
) -> list[tuple[int, int]]:
    """The k nearest objects to q as (objectIndex, dist), ascending.

    The batch stage's sweep, which keeps a query placed on an object vertex:
    that object comes first, at distance 0. k may be anything up to the k
    the backward labels were built for. ``labels`` must be
    ``knn_backward.labels`` itself; any other is a ConfigError.
    """
    if labels is not knn_backward.labels:
        raise ConfigError("label set is not the one these kNN backward labels were built from")
    _check_vertex(labels.vertex_count, q)
    _check_k(k, knn_backward.k)
    m = knn_backward.m
    return [(c % m, c // m) for c in _knn_row(labels, q, k, knn_backward)]
