"""Golden fixture: a 14-vertex tree with three objects, hand-checked.

Expected structures below were derived by hand (BFS on the tree) and frozen;
they double as the reference for the binary-format tests.
"""

from hubrknn.offline import _knn_row

TREE14_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 4),
    (1, 5), (1, 6), (1, 7),
    (2, 8), (3, 9), (4, 10),
    (5, 11), (6, 12), (7, 13),
]

TREE14_TEXT = "# sample tree\n" + "\n".join(f"{u} {v}" for u, v in TREE14_EDGES) + "\n"

# Degree ordering is 0,1,...,13 (degrees 4,4,2,2,2,2,2,2,1,...,1; ID ties).
TREE14_ORDER = tuple(range(14))

TREE14_LABELS = {
    0: [(0, 0)],
    1: [(0, 1), (1, 0)],
    2: [(0, 1), (2, 0)],
    3: [(0, 1), (3, 0)],
    4: [(0, 1), (4, 0)],
    5: [(0, 2), (1, 1), (5, 0)],
    6: [(0, 2), (1, 1), (6, 0)],
    7: [(0, 2), (1, 1), (7, 0)],
    8: [(0, 2), (2, 1), (8, 0)],
    9: [(0, 2), (3, 1), (9, 0)],
    10: [(0, 2), (4, 1), (10, 0)],
    11: [(0, 3), (1, 2), (5, 1), (11, 0)],
    12: [(0, 3), (1, 2), (6, 1), (12, 0)],
    13: [(0, 3), (1, 2), (7, 1), (13, 0)],
}
TREE14_TOTAL_PAIRS = 39

# Objects sit on vertices 4, 10, 12; index order is canonical everywhere.
TREE14_OBJECTS = (4, 10, 12)

# k = 1 structures (kNN backward labels carry k+1 = 2 pairs per hub).
TREE14_KNN_BACKWARD_K1 = {
    0: [(0, 1), (1, 2)],
    1: [(2, 2)],
    4: [(0, 0), (1, 1)],
    6: [(2, 1)],
    10: [(1, 0)],
    12: [(2, 0)],
}

TREE14_KNN_RESULTS_K1 = [[(1, 1)], [(0, 1)], [(0, 4)]]

# Object 10's pair (hub 0, dist 2) is dropped: 2 > its 1-NN distance 1.
# Each hub's pairs ascend by (dist - 1-NN distance, index); 1-NN distances
# are [1, 1, 4], so at hub 0 object 2 (slack 3 - 4 = -1) precedes object 0
# (slack 1 - 1 = 0).
TREE14_RKNN_BACKWARD_K1 = {
    0: [(2, 3), (0, 1)],
    1: [(2, 2)],
    4: [(0, 0), (1, 1)],
    6: [(2, 1)],
    10: [(1, 0)],
    12: [(2, 0)],
}

TREE14_RKNN_TOTAL_PAIRS = 8
TREE14_TO_MANY_PAIRS = 9  # label sizes of vertices 4, 10, 12: 2 + 3 + 4

# Reverse-1NN from vertex 0: objects 4 and 12 at distances 1 and 3.
TREE14_RKNN_Q0 = [1, None, 3]  # None marks the infinity sentinel


def as_hub_dict(lists):
    """Per-hub list-of-lists -> {hub: pairs} with empty hubs dropped."""
    return {h: lst for h, lst in enumerate(lists) if lst}


def knn_pairs(knn_backward):
    """Per-hub kNN backward lists, each key ``dist * m + idx`` decoded to
    its (idx, dist) pair."""
    m = knn_backward.m
    return [[(c % m, c // m) for c in lst] for lst in knn_backward.lists]


def batch_rows(index):
    """Each object's k nearest other objects as (idx, dist) pairs, ascending:
    the batch kNN sweep of its k+1 nearest, decoded, less the first entry,
    which must be the object itself at distance 0."""
    m, k, knn = len(index.objects), index.k, index.knn_backward
    rows = []
    for i, p in enumerate(index.objects.vertices):
        row = [(c % m, c // m) for c in _knn_row(index.labels, p, k + 1, knn)]
        assert row[0] == (i, 0)
        rows.append(row[1:])
    return rows


def label_pairs(labels, v):
    """Vertex v's label as (hub, dist) pairs, ascending by hub.

    Labels are stored in (dist, hub) order; hub order keeps the goldens
    above and the reference comparisons independent of that order.
    """
    return sorted(zip(labels.hubs[v], labels.dists[v]))
