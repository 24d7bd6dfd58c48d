"""Command-line interface.

Subcommands: build, preprocess, query, knn, bench, stats. Results go to
stdout, diagnostics to stderr. Exit codes: 0 success, 1 usage error, 2 data
error (bad files, format mismatches, infeasible parameters). A reader that
closes the output pipe early (``| head``) is not an error and exits 0.

Only raw (pre-densification) vertex IDs appear on this surface; every
subcommand that touches vertex IDs therefore takes ``--graph`` so the
raw-to-dense mapping can be rebuilt deterministically from the source file.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time

from .bench import SweepConfig, run_sweep
from .errors import ConfigError, FormatError, ParseError
from .graph import Graph, degree_ordering, largest_connected_component, parse_edge_list
from .labels import (
    _PAIR,
    INFINITY,
    LabelSet,
    build_pll_labels,
    load_labels,
    save_labels,
)
from .offline import (
    ObjectSet,
    OfflineIndex,
    index_stats,
    load_index,
    offline_preprocess,
    parse_object_file,
    save_index,
)
from .online import knn_query, rknn_query
from .oracle import oracle_rknn


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; we reserve 2 for data
    # errors, so turn usage problems into an exception handled in main().
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hubrknn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)

    p = sub.add_parser("build", help="construct hub labels")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--out", required=True, help="output label file")

    p = sub.add_parser(
        "preprocess", help="build the RkNN index for an object set"
    )
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--objects", required=True, help="file with one raw vertex ID per line")
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--out", required=True, help="output index file")

    p = sub.add_parser("query", help="reverse-kNN query")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--vertex", required=True, type=int, help="raw query vertex ID")
    p.add_argument("--all", action="store_true", help="print every object, inf included")
    p.add_argument("--oracle", action="store_true", help="answer by brute-force BFS instead")

    p = sub.add_parser("knn", help="k nearest objects to a vertex")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--vertex", required=True, type=int)
    p.add_argument("--k", required=True, type=int)

    p = sub.add_parser("bench", help="run a parameter sweep, emit CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--densities", default="0.001,0.01,0.1")
    p.add_argument("--ks", default="1,2,4,8,16,32")
    p.add_argument("--balls", default="1.0")
    p.add_argument("--sets", type=int, default=100)
    p.add_argument("--queries", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV path, or - for stdout")

    p = sub.add_parser("stats", help="graph / label / index statistics")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels")
    p.add_argument("--index")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (see --help)")
    except UsageError as exc:
        print(f"hubrknn: {exc}", file=sys.stderr)
        return 1

    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    try:
        return _dispatch(args)
    except UsageError as exc:
        print(f"hubrknn: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Python flushes stdout at exit; send it to devnull so that flush
        # cannot hit the closed pipe again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (ParseError, FormatError, ConfigError, ValueError, OSError) as exc:
        print(f"hubrknn: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


def _dispatch(args: argparse.Namespace) -> int:
    handler = {
        "build": _cmd_build,
        "preprocess": _cmd_preprocess,
        "query": _cmd_query,
        "knn": _cmd_knn,
        "bench": _cmd_bench,
        "stats": _cmd_stats,
    }[args.command]
    return handler(args)


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as f:
        graph = parse_edge_list(f)
    return largest_connected_component(graph)


def _load_labels_checked(path: str, graph: Graph) -> LabelSet:
    with open(path, "rb") as f:
        labels = load_labels(f)
    if labels.vertex_count != graph.vertex_count:
        raise FormatError(
            f"label file covers {labels.vertex_count} vertices but the graph "
            f"has {graph.vertex_count}"
        )
    return labels


def _load_indexed(args) -> tuple[Graph, OfflineIndex]:
    """The graph, and the index bound to the labels, of --graph/--labels/--index."""
    graph = _load_graph(args.graph)
    labels = _load_labels_checked(args.labels, graph)
    with open(args.index, "rb") as f:
        return graph, load_index(f, labels)


def _cmd_build(args) -> int:
    graph = _load_graph(args.graph)
    t0 = time.perf_counter()
    labels = build_pll_labels(graph, degree_ordering(graph))
    elapsed = time.perf_counter() - t0
    with open(args.out, "wb") as f:
        save_labels(labels, f)
    print(f"vertices\t{graph.vertex_count}")
    print(f"edges\t{graph.edge_count}")
    print(f"label_pairs\t{labels.total_pairs}")
    print(f"build_seconds\t{elapsed:.3f}")
    return 0


def _read_objects(path: str, graph: Graph) -> ObjectSet:
    with open(path, "r", encoding="utf-8") as f:
        raw_ids = parse_object_file(f)
    return ObjectSet(tuple(graph.dense_id(r) for r in raw_ids))


def _cmd_preprocess(args) -> int:
    graph = _load_graph(args.graph)
    labels = _load_labels_checked(args.labels, graph)
    objects = _read_objects(args.objects, graph)
    index = offline_preprocess(labels, objects, args.k)
    with open(args.out, "wb") as f:
        save_index(index, f)
    t = index.timings
    print(f"objects\t{len(objects)}")
    print(f"knn_backward_ms\t{t.knn_backward_s * 1e3:.3f}")
    print(f"batch_knn_ms\t{t.batch_knn_s * 1e3:.3f}")
    print(f"rknn_labels_ms\t{t.rknn_labels_s * 1e3:.3f}")
    print(f"offline_total_ms\t{t.total_s * 1e3:.3f}")
    return 0


def _cmd_query(args) -> int:
    graph, index = _load_indexed(args)
    q = graph.dense_id(args.vertex)

    if args.oracle:
        members = dict(oracle_rknn(graph, index.objects, q, index.k))
        distances = [members.get(i, INFINITY) for i in range(len(index.objects))]
    else:
        distances = rknn_query(index, index.labels, q).distances

    for i, dist in enumerate(distances):
        raw = graph.raw_ids[index.objects.vertices[i]]
        if dist < INFINITY:
            print(f"{raw}\t{dist}")
        elif args.all:
            print(f"{raw}\tinf")
    return 0


def _cmd_knn(args) -> int:
    graph, index = _load_indexed(args)
    q = graph.dense_id(args.vertex)
    for idx, dist in knn_query(index.knn_backward, index.labels, q, args.k):
        raw = graph.raw_ids[index.objects.vertices[idx]]
        print(f"{raw}\t{dist}")
    return 0


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise UsageError(f"expected a comma-separated float list, got {text!r}") from None


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise UsageError(f"expected a comma-separated int list, got {text!r}") from None


def _cmd_bench(args) -> int:
    graph = _load_graph(args.graph)
    labels = _load_labels_checked(args.labels, graph)
    config = SweepConfig(
        densities=_parse_floats(args.densities),
        ks=_parse_ints(args.ks),
        balls=_parse_floats(args.balls),
        sets_per_point=args.sets,
        queries_per_set=args.queries,
        seed=args.seed,
    )
    if args.out == "-":
        run_sweep(graph, labels, config, sink=sys.stdout, graph_name=args.graph)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as f:
            run_sweep(graph, labels, config, sink=f, graph_name=args.graph)
    return 0


def _cmd_stats(args) -> int:
    if args.index:
        if not args.labels:
            raise UsageError("--index requires --labels")
        graph, index = _load_indexed(args)
        labels = index.labels
    else:
        graph = _load_graph(args.graph)
        labels = _load_labels_checked(args.labels, graph) if args.labels else None
    print(f"vertices\t{graph.vertex_count}")
    print(f"edges\t{graph.edge_count}")
    print(f"avg_degree\t{graph.avg_degree():.2f}")

    if labels is not None:
        print(f"label_pairs\t{labels.total_pairs}")
        print(f"labels_per_vertex\t{labels.avg_label_size():.2f}")
        print(f"label_model_bytes\t{_PAIR.size * labels.total_pairs}")

    if args.index:
        stats = index_stats(index)
        print(f"k\t{stats.k}")
        print(f"objects\t{stats.object_count}")
        print(f"knn_backward_pairs\t{stats.knn_backward_pairs}")
        print(f"knn_result_pairs\t{stats.knn_result_pairs}")
        print(f"rknn_pairs\t{stats.rknn_pairs}")
        print(f"to_many_pairs\t{stats.to_many_pairs}")
        print(f"epsilon\t{stats.epsilon:.4f}")
        print(f"index_model_bytes\t{stats.model_bytes}")
    return 0


if __name__ == "__main__":
    run()
