"""Reverse k-nearest-neighbor and kNN queries on large graphs via hub labels.

Pipeline: parse an edge list, build 2-hop labels with pruned landmark
labeling, preprocess an object set offline (three substages), then answer
reverse-kNN / kNN queries online in microseconds. See README.md for the
file formats and the CLI.
"""

from .bench import (
    CSV_COLUMNS,
    SweepConfig,
    SweepRecord,
    generate_ball_objects,
    generate_random_objects,
    run_sweep,
)
from .bounded import BoundedBuffer
from .errors import ConfigError, FormatError, ParseError
from .graph import (
    Graph,
    VertexOrdering,
    degree_ordering,
    largest_connected_component,
    parse_edge_list,
    serialize_edge_list,
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
    IndexStats,
    KnnBackwardLabels,
    KnnResultTable,
    ObjectSet,
    OfflineIndex,
    OfflineTimings,
    RknnBackwardLabels,
    batch_knn,
    build_knn_backward_labels,
    build_rknn_backward_labels,
    epsilon,
    index_stats,
    load_index,
    offline_preprocess,
    parse_object_file,
    save_index,
    to_many_pairs,
)
from .online import RknnAnswer, knn_query, rknn_query
from .oracle import DistanceRow, bfs_distances, oracle_knn, oracle_rknn

__version__ = "0.1.0"

__all__ = [
    "BoundedBuffer",
    "ConfigError",
    "CSV_COLUMNS",
    "DistanceRow",
    "FormatError",
    "Graph",
    "INFINITY",
    "IndexStats",
    "KnnBackwardLabels",
    "KnnResultTable",
    "LabelSet",
    "MAX_DIST",
    "ObjectSet",
    "OfflineIndex",
    "OfflineTimings",
    "ParseError",
    "RknnAnswer",
    "RknnBackwardLabels",
    "SweepConfig",
    "SweepRecord",
    "VertexOrdering",
    "batch_knn",
    "bfs_distances",
    "build_knn_backward_labels",
    "build_pll_labels",
    "build_rknn_backward_labels",
    "degree_ordering",
    "epsilon",
    "generate_ball_objects",
    "generate_random_objects",
    "hl_distance",
    "index_stats",
    "knn_query",
    "largest_connected_component",
    "load_index",
    "load_labels",
    "offline_preprocess",
    "oracle_knn",
    "oracle_rknn",
    "parse_edge_list",
    "parse_object_file",
    "rknn_query",
    "run_sweep",
    "save_index",
    "save_labels",
    "serialize_edge_list",
    "to_many_pairs",
]
