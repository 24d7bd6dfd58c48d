"""The benchmark's only call site into hubrknn.

Every call into the package, in-process or through the CLI, goes through a
method of ``Calls`` and, when tracing, inside a span named after the layer
it enters. A change to the package API therefore touches one method here.
"""

from __future__ import annotations

import subprocess
import sys

from hubrknn import (
    INFINITY,
    Graph,
    ObjectSet,
    bfs_distances,
    build_pll_labels,
    degree_ordering,
    epsilon,
    hl_distance,
    knn_query,
    largest_connected_component,
    load_index,
    load_labels,
    offline_preprocess,
    parse_edge_list,
    rknn_query,
    save_index,
    save_labels,
    to_many_pairs,
)

from spans import Tracer

# ``python -m hubrknn.cli`` prints nothing (cli.py has no __main__ guard), and
# the console script may not be installed, so the child calls run() itself.
CLI_ENTRY = "from hubrknn.cli import run; run()"
CLI_IMPORT = "import hubrknn.cli"


class Calls:
    def __init__(self, tracer: Tracer, cli_env: dict[str, str] | None = None):
        self.tracer = tracer
        self.span = tracer.span
        self.cli_env = cli_env

    # --- oracle (ground truth only; never timed) -----------------------------

    def truth_graph(self, edges: list[tuple[int, int]]) -> Graph:
        return largest_connected_component(Graph.from_edges(edges))

    def bfs_row(self, graph: Graph, v: int) -> tuple[int, ...]:
        return bfs_distances(graph, v).dist

    # --- graph and labels ------------------------------------------------------

    def build_label_file(self, edge_path, label_path, request: str):
        """What ``hubrknn build`` does: edge-list file to label file on disk."""
        with self.span("build", request):
            with self.span("graph.parse"):
                with open(edge_path, "r", encoding="utf-8") as f:
                    graph = parse_edge_list(f)
            with self.span("graph.lcc"):
                graph = largest_connected_component(graph)
            with self.span("graph.order"):
                ordering = degree_ordering(graph)
            with self.span("labels.build"):
                labels = build_pll_labels(graph, ordering)
            with self.span("labels.save"):
                with open(label_path, "wb") as f:
                    save_labels(labels, f)
        return graph, labels

    def load_labels(self, path, request: str | None = None):
        with self.span("labels.load", request):
            with open(path, "rb") as f:
                return load_labels(f)

    def hl_distance(self, labels, s: int, t: int) -> int:
        return hl_distance(labels, s, t)

    @staticmethod
    def dense_id(graph: Graph, raw: int) -> int:
        return graph.dense_id(raw)

    @staticmethod
    def raw_id(graph: Graph, v: int) -> int:
        return graph.raw_ids[v]

    @staticmethod
    def edge_count(graph: Graph) -> int:
        return graph.edge_count

    @staticmethod
    def label_pairs(labels) -> int:
        return labels.total_pairs

    @staticmethod
    def label_len(labels, v: int) -> int:
        return len(labels.hubs[v])

    # --- offline -----------------------------------------------------------------

    def preprocess_to_file(self, labels, vertices: tuple[int, ...], k: int, path, request: str):
        """An object set to an index file (``offline_preprocess`` + ``save_index``).

        The three substages become child spans of ``offline.preprocess``, with
        the durations ``offline_preprocess`` itself records in ``index.timings``.
        """
        objects = ObjectSet(vertices)
        with self.span("offline.preprocess", request):
            index = offline_preprocess(labels, objects, k)
            timings = index.timings
            self.tracer.children([
                ("offline.knn_backward", timings.knn_backward_s),
                ("offline.batch_knn", timings.batch_knn_s),
                ("offline.rknn_labels", timings.rknn_labels_s),
            ])
        with self.span("offline.save_index", request):
            with open(path, "wb") as f:
                save_index(index, f)
        return index

    def load_index(self, path, labels, request: str):
        with self.span("offline.load_index", request):
            with open(path, "rb") as f:
                return load_index(f, labels)

    @staticmethod
    def offline_counts(index, labels) -> dict[str, float]:
        return {
            "knn_backward_pairs": index.knn_backward.total_pairs(),
            "rknn_pairs": index.rknn_backward.total_pairs,
            "to_many_pairs": to_many_pairs(labels, index.objects),
            "epsilon": epsilon(index),
        }

    @staticmethod
    def object_vertices(index) -> tuple[int, ...]:
        return index.objects.vertices

    # --- online ------------------------------------------------------------------

    def rknn(self, index, labels, q: int, request: str):
        """Distances to every object (INFINITY = not a member), pairs scanned."""
        with self.span("online.rknn", request):
            answer = rknn_query(index, labels, q)
        return answer.distances, answer.pairs_scanned

    def knn(self, index, labels, q: int, request: str) -> list[tuple[int, int]]:
        """The index's k nearest objects to q as (objectIndex, dist)."""
        with self.span("online.knn", request):
            return knn_query(index.knn_backward, labels, q, index.k)

    # --- cli (fresh interpreter per call) -----------------------------------------

    def cli_query(self, edge_path, label_path, index_path, raw_q: int, request: str):
        """``hubrknn query`` in a fresh interpreter; returns the completed process."""
        argv = [
            sys.executable, "-c", CLI_ENTRY, "query", "--graph", str(edge_path),
            "--labels", str(label_path), "--index", str(index_path), "--vertex", str(raw_q),
        ]
        with self.span("cli.query", request):
            return self._child(argv)

    def cli_interpreter(self, request: str):
        """A bare interpreter that only imports ``hubrknn.cli``."""
        with self.span("cli.interpreter", request):
            return self._child([sys.executable, "-c", CLI_IMPORT])

    def _child(self, argv: list[str]):
        return subprocess.run(
            argv, env=self.cli_env, capture_output=True, text=True, timeout=120, check=False
        )
