"""Online phase: reverse-kNN and kNN queries against the offline structures.

A reverse-kNN query is a one-to-many sweep of the query vertex's forward
label over the RkNN backward labels. An object enters the answer only when
the candidate distance is within that object's k-th-neighbor distance, with
ties counting as members. Each hub's list is ordered by slack (pair distance
minus the object's k-th-neighbor distance), so the sweep of a list stops at
the first pair that does not qualify: every later pair fails too. The first
pair therefore decides whether a list can yield anything, and the sweep
skips hub h, without entering its list, when q reaches it at a label
distance d > ``rknn_backward.lim[h]`` (minus the first pair's slack; -1 for
a hub with no pair).

A kNN query is batch kNN's sweep (``offline._knn_row``) over the kNN
backward labels, its keys decoded to (objectIndex, dist) pairs. It passes a
hub the same way when its list's first key (``knn_backward.first[h]``)
cannot enter the row.

A process that answers once (the CLI) walks the objects' own labels instead
(``object_distances``): building the backward lists costs far more.
"""

from __future__ import annotations

from .errors import ConfigError
from .labels import INFINITY, LabelSet, _label_walk
from .offline import KnnBackwardLabels, OfflineIndex, _knn_row


class RknnAnswer:
    """Distances from the query vertex to every object; INFINITY = non-member.

    ``pairs_scanned`` counts the pairs in the RkNN lists of q's label hubs,
    whether or not the sweep entered them, which is what the online cost
    model is stated in: the sum of their ``rknn_backward.lens``. It is not
    the number of pairs examined: the sweep skips a hub whose first pair
    fails and stops a list at its first pair that fails.
    """

    __slots__ = ("distances", "pairs_scanned")

    def __init__(self, distances: list[int], pairs_scanned: int):
        self.distances = distances
        self.pairs_scanned = pairs_scanned

    def __eq__(self, other: object) -> bool:
        if type(other) is not RknnAnswer:
            return NotImplemented
        return (self.distances, self.pairs_scanned) == (other.distances, other.pairs_scanned)

    def members(self) -> list[tuple[int, int]]:
        """(objectIndex, dist) for every finite entry, in index order."""
        return [(i, d) for i, d in enumerate(self.distances) if d < INFINITY]


def _check_vertex(labels: LabelSet, q: int) -> None:
    n = labels.vertex_count
    if not 0 <= q < n:
        raise ConfigError(f"query vertex {q} out of range for {n} vertices")


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
    _check_vertex(labels, q)
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
    _check_vertex(labels, q)

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
    _check_vertex(labels, q)
    _check_k(k, knn_backward.k)
    m = knn_backward.m
    return [(c % m, c // m) for c in _knn_row(labels, q, k, knn_backward)]
