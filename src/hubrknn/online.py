"""Online phase: reverse-kNN and kNN queries against the offline structures.

A reverse-kNN query is a one-to-many sweep of the query vertex's forward
label over the RkNN backward labels. An object enters the answer only when
the candidate distance is within that object's k-th-neighbor distance, with
ties counting as members. Each hub's list is ordered by slack (pair distance
minus the object's k-th-neighbor distance), so the sweep of a list stops at
the first pair that does not qualify: every later pair fails too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .labels import INFINITY, LabelSet
from .offline import KnnBackwardLabels, OfflineIndex, _knn_row


@dataclass
class RknnAnswer:
    """Distances from the query vertex to every object; INFINITY = non-member.

    ``pairs_scanned`` counts the pairs in the backward-label lists the sweep
    touched, which is what the online cost model is stated in. It is not the
    number of pairs examined: the sweep of a list stops early.
    """

    distances: list[int]
    pairs_scanned: int = 0

    def members(self) -> list[tuple[int, int]]:
        """(objectIndex, dist) for every finite entry, in index order."""
        return [(i, d) for i, d in enumerate(self.distances) if d < INFINITY]

    def __len__(self) -> int:
        return len(self.distances)


def rknn_query(index: OfflineIndex, labels: LabelSet, q: int) -> RknnAnswer:
    """All objects having q among their k nearest objects, with distances.

    ``labels`` must be ``index.labels`` itself; any other is a ConfigError.
    """
    if labels is not index.labels:
        raise ConfigError("label set is not the one this index was built or loaded with")
    n = labels.vertex_count
    if not 0 <= q < n:
        raise ValueError(f"query vertex {q} out of range for {n} vertices")

    out = [INFINITY] * len(index.objects)
    worst = index.knn_results.worst
    rknn_lists = index.rknn_backward.lists
    scanned = 0
    for h, d in zip(labels.hubs[q], labels.dists[q]):
        lst = rknn_lists[h]
        scanned += len(lst)
        for idx, dp in lst:
            d2 = d + dp
            if d2 > worst[idx]:
                break  # slack order: no later pair of this list qualifies
            if d2 < out[idx]:
                out[idx] = d2
    return RknnAnswer(out, scanned)


def knn_query(
    knn_backward: KnnBackwardLabels,
    labels: LabelSet,
    q: int,
    k: int,
) -> list[tuple[int, int]]:
    """The k nearest objects to q as (objectIndex, dist), ascending.

    Same sweep as the batch stage but without the skip-self rule, so a query
    placed on an object vertex finds that object at distance 0. k may be
    anything up to the k the backward labels were built for.
    """
    n = labels.vertex_count
    if not 0 <= q < n:
        raise ValueError(f"query vertex {q} out of range for {n} vertices")
    if not 1 <= k <= knn_backward.k:
        raise ConfigError(
            f"k={k} outside [1, {knn_backward.k}] supported by these backward labels"
        )
    return _knn_row(labels, q, -1, k, knn_backward.lists)
