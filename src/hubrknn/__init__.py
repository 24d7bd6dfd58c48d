"""Reverse k-nearest-neighbor and kNN queries on large graphs via hub labels.

Pipeline: parse an edge list, build 2-hop labels with pruned landmark
labeling, preprocess an object set offline (three substages), then answer
reverse-kNN / kNN queries online in microseconds. See README.md for the
file formats and the CLI.
"""

from .errors import ConfigError, FormatError, ParseError
from .graph import (
    Graph,
    degree_ordering,
    largest_connected_component,
    parse_edge_list,
    parse_object_file,
)
from .labels import (
    INFINITY,
    MAX_DIST,
    LabelSet,
    build_pll_labels,
    hl_distance,
    load_labels,
    save_labels,
)
from .offline import (
    KnnBackwardLabels,
    ObjectSet,
    OfflineIndex,
    OfflineTimings,
    RknnAnswer,
    RknnBackwardLabels,
    epsilon,
    index_stats,
    knn_query,
    load_index,
    object_distances,
    offline_preprocess,
    rknn_query,
    save_index,
    to_many_pairs,
)
from .oracle import DistanceRow, bfs_distances, oracle_rknn

__version__ = "0.1.0"
