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
the per-object distance bound, the sort offset and the cut.
"""

from __future__ import annotations

import struct
import time
from bisect import insort
from dataclasses import dataclass, field
from itertools import chain
from typing import IO, Iterable

from .errors import ConfigError, FormatError, ParseError
from .labels import _PAIR, INFINITY, LabelSet, _read_exact, hl_distance

_MAGIC = b"RHIX"
_VERSION = 2
_U32 = struct.Struct("<I")


@dataclass(frozen=True)
class ObjectSet:
    """Distinct object vertices; list position is the canonical object index."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ConfigError("object set contains duplicate vertices")
        if any(v < 0 for v in self.vertices):
            raise ConfigError("object set contains negative vertex IDs")

    def __len__(self) -> int:
        return len(self.vertices)


class KnnBackwardLabels:
    """Per-hub lists of the k+1 nearest (objectIndex, dist) pairs."""

    __slots__ = ("k", "lists")

    def __init__(self, k: int, lists: list[list[tuple[int, int]]]):
        self.k = k
        self.lists = lists  # hub -> [(idx, dist)] ascending by (dist, idx)

    def total_pairs(self) -> int:
        return sum(len(lst) for lst in self.lists)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnnBackwardLabels):
            return NotImplemented
        return self.k == other.k and self.lists == other.lists

    __hash__ = None  # type: ignore[assignment]


class KnnResultTable:
    """Row i holds object i's k nearest other objects, ascending by distance."""

    __slots__ = ("k", "rows", "worst")

    def __init__(self, k: int, rows: list[list[tuple[int, int]]]):
        self.k = k
        self.rows = rows
        self.worst = [row[-1][1] for row in rows]  # k-th neighbor distance

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnnResultTable):
            return NotImplemented
        return self.k == other.k and self.rows == other.rows

    __hash__ = None  # type: ignore[assignment]


class RknnBackwardLabels:
    """Per-hub (objectIndex, dist) pairs surviving the k-th-neighbor filter."""

    __slots__ = ("lists", "total_pairs")

    def __init__(self, lists: list[list[tuple[int, int]]]):
        # hub -> [(idx, dist)] ascending by (dist - worst[idx], idx), where
        # worst[idx] is object idx's k-th-neighbor distance
        self.lists = lists
        self.total_pairs = sum(map(len, lists))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RknnBackwardLabels):
            return NotImplemented
        return self.lists == other.lists

    __hash__ = None  # type: ignore[assignment]


@dataclass
class OfflineTimings:
    knn_backward_s: float = 0.0
    batch_knn_s: float = 0.0
    rknn_labels_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.knn_backward_s + self.batch_knn_s + self.rknn_labels_s


@dataclass
class OfflineIndex:
    """Everything the online phase needs for one object set and one k."""

    k: int
    objects: ObjectSet
    knn_results: KnnResultTable
    rknn_backward: RknnBackwardLabels
    labels: LabelSet
    knn_backward: KnnBackwardLabels | None = None
    timings: OfflineTimings = field(default_factory=OfflineTimings)

    @property
    def labels_fingerprint(self) -> tuple[int, int]:
        return (self.labels.vertex_count, self.labels.total_pairs)


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
    for keys in lists:
        keys.sort()
        if keep is not None:
            del keys[keep:]
    pair = {
        c: (c % m, c // m - offset[c % m] - top)
        for c in set(chain.from_iterable(lists))
    }
    for h, keys in enumerate(lists):
        lists[h] = list(map(pair.__getitem__, keys))
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
    return KnnBackwardLabels(k, lists)


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

    The source label is swept in ascending label distance (ties in hub
    order), and the sweep stops at the first hub whose label distance
    exceeds the current k-th distance: every pair of that hub and of all
    later ones is at least that far, so none can enter or improve the row.
    """
    best: list[tuple[int, int]] = []  # (dist, idx), ascending, at most k
    found: dict[int, int] = {}  # idx -> its dist in best
    worst = INFINITY  # best[-1][0] once best holds k pairs
    hubs = labels.hubs[source]
    # A list copy of the distance bytes: list.__getitem__ is a cheaper sort
    # key and subscript than bytes'. A stable key sort of positions measured
    # 3x cheaper than sorting (dist, hub) tuples.
    dists = list(labels.dists[source])
    for j in sorted(range(len(dists)), key=dists.__getitem__):
        d = dists[j]
        if d > worst:
            break  # label distances ascend; no later hub can reach the row
        for idx, dp in knn_lists[hubs[j]]:
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
) -> KnnResultTable:
    """Substage 2: every object's k nearest other objects, k from the lists."""
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

    return KnnResultTable(k, [row(i) for i in range(len(vertices))])


def build_rknn_backward_labels(
    labels: LabelSet,
    objects: ObjectSet,
    knn_results: KnnResultTable,
) -> RknnBackwardLabels:
    """Substage 3: regroup object labels by hub, filtered by worst_dist.

    Each hub's list is ordered by slack ``dist - worst[idx]``, ties by
    index. A query reaching the hub at distance d can use a pair iff its
    slack is <= -d, so the online sweep stops at the first pair that fails.
    """
    _check_objects(labels, objects, knn_results.k)
    worst = knn_results.worst
    return RknnBackwardLabels(_by_hub(labels, objects, worst, [-w for w in worst]))


def offline_preprocess(labels: LabelSet, objects: ObjectSet, k: int) -> OfflineIndex:
    """Run the three substages in order and assemble the index."""
    timings = OfflineTimings()
    t0 = time.perf_counter()
    knn_backward = build_knn_backward_labels(labels, objects, k)
    t1 = time.perf_counter()
    knn_results = batch_knn(labels, objects, knn_backward)
    t2 = time.perf_counter()
    rknn_backward = build_rknn_backward_labels(labels, objects, knn_results)
    t3 = time.perf_counter()
    timings.knn_backward_s = t1 - t0
    timings.batch_knn_s = t2 - t1
    timings.rknn_labels_s = t3 - t2
    return OfflineIndex(
        k=k,
        objects=objects,
        knn_results=knn_results,
        rknn_backward=rknn_backward,
        labels=labels,
        knn_backward=knn_backward,
        timings=timings,
    )


def to_many_pairs(labels: LabelSet, objects: ObjectSet) -> int:
    """Pair count of the unpruned by-hub regrouping of all object labels."""
    return sum(len(labels.hubs[p]) for p in objects.vertices)


def epsilon(index: OfflineIndex) -> float:
    """Pruning ratio: kept RkNN pairs over the unpruned pair count (<= 1)."""
    return index.rknn_backward.total_pairs / to_many_pairs(index.labels, index.objects)


@dataclass(frozen=True)
class IndexStats:
    k: int
    object_count: int
    knn_backward_pairs: int
    knn_result_pairs: int
    rknn_pairs: int
    to_many_pairs: int
    epsilon: float

    # Every stored pair costs one serialized (object index, distance) record.
    @property
    def model_bytes(self) -> int:
        pairs = self.knn_backward_pairs + self.knn_result_pairs + self.rknn_pairs
        return _PAIR.size * pairs


def index_stats(index: OfflineIndex) -> IndexStats:
    knn_backward_pairs = (
        index.knn_backward.total_pairs() if index.knn_backward is not None else 0
    )
    rknn_pairs = index.rknn_backward.total_pairs
    to_many = to_many_pairs(index.labels, index.objects)
    return IndexStats(
        k=index.k,
        object_count=len(index.objects),
        knn_backward_pairs=knn_backward_pairs,
        knn_result_pairs=index.k * len(index.objects),
        rknn_pairs=rknn_pairs,
        to_many_pairs=to_many,
        epsilon=rknn_pairs / to_many,
    )


def parse_object_file(source: str | IO[str] | Iterable[str]) -> list[int]:
    """Raw vertex IDs, one per line; '#' starts a comment."""
    lines = source.splitlines() if isinstance(source, str) else source
    out: list[int] = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            out.append(int(stripped))
        except ValueError:
            raise ParseError(
                f"line {lineno}: expected a vertex ID, got {stripped!r}"
            ) from None
    return out


def save_index(index: OfflineIndex, sink: IO[bytes]) -> None:
    """Serialize the query-time structures (kNN results + RkNN labels)."""
    sink.write(_MAGIC)
    sink.write(struct.pack("<B", _VERSION))
    sink.write(_U32.pack(index.k))
    sink.write(_U32.pack(len(index.objects)))
    for v in index.objects.vertices:
        sink.write(_U32.pack(v))
    pack = _PAIR.pack
    for row in index.knn_results.rows:
        sink.write(b"".join(pack(idx, d) for idx, d in row))
    for lst in index.rknn_backward.lists:
        sink.write(_U32.pack(len(lst)))
        sink.write(b"".join(pack(idx, d) for idx, d in lst))


def load_index(source: IO[bytes], labels: LabelSet) -> OfflineIndex:
    """Read an index file and verify it belongs to the given labels.

    The format carries no explicit fingerprint, so compatibility is checked
    the hard way. Each kNN row's last entry, the k-th-neighbor distance the
    queries read, must equal the label distance between its two objects.
    The RkNN sections are then rebuilt from the labels, the objects and
    those distances (substage 3), and every stored section must equal its
    rebuilt list, in the same slack order. Mismatched, corrupt or truncated
    inputs fail with FormatError.
    """
    magic = _read_exact(source, 4)
    if magic != _MAGIC:
        raise FormatError(f"bad index-file magic {magic!r}")
    (version,) = struct.unpack("<B", _read_exact(source, 1))
    if version != _VERSION:
        raise FormatError(f"unsupported index-file version {version}")
    (k,) = _U32.unpack(_read_exact(source, 4))
    (obj_count,) = _U32.unpack(_read_exact(source, 4))
    n = labels.vertex_count
    if k < 1 or obj_count < k + 1:
        raise FormatError(f"index header has k={k} but only {obj_count} objects")

    vertices = []
    for _ in range(obj_count):
        (v,) = _U32.unpack(_read_exact(source, 4))
        if v >= n:
            raise FormatError(f"index object vertex {v} out of range for {n} vertices")
        vertices.append(v)
    try:
        objects = ObjectSet(tuple(vertices))
    except ConfigError as exc:
        raise FormatError(str(exc)) from None

    rows: list[list[tuple[int, int]]] = []
    for i in range(obj_count):
        buf = _read_exact(source, k * _PAIR.size)
        row = list(_PAIR.iter_unpack(buf))
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
        rows.append(row)
    knn_results = KnnResultTable(k, rows)

    rknn_backward = build_rknn_backward_labels(labels, objects, knn_results)
    for h, expected in enumerate(rknn_backward.lists):
        (count,) = _U32.unpack(_read_exact(source, 4))
        buf = _read_exact(source, count * _PAIR.size)
        if list(_PAIR.iter_unpack(buf)) != expected:
            raise FormatError(
                f"RkNN section {h} does not match the one rebuilt from the "
                f"labels and kNN rows"
            )
    if source.read(1):
        raise FormatError("trailing bytes after the last RkNN section")
    return OfflineIndex(
        k=k,
        objects=objects,
        knn_results=knn_results,
        rknn_backward=rknn_backward,
        labels=labels,
    )
