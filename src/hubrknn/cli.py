"""Command-line interface.

Subcommands: build, preprocess, query, knn, bench, stats. Results go to
stdout, diagnostics to stderr. Exit codes: 0 success, 1 usage error, 2 data
error (bad files, format mismatches, infeasible parameters). A reader that
closes the output pipe early (``| head``) is not an error and exits 0.

Only raw (pre-densification) vertex IDs appear on this surface. A label
file carries the raw-ID table of its graph and the CRC-32 of the edge-list
text it was built from, so ``query``, ``knn`` and ``preprocess`` read
``--graph`` only to check that CRC, and map IDs through the table without
parsing it. ``build``, ``bench``, ``stats`` and ``query --oracle`` parse the
graph; every command that reads labels checks the same binding and fails
with a data error on labels built from another edge list. ``query`` and
``knn`` answer once per process, so they answer through the objects' labels
(``object_distances``) and build no backward list.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import time

from .errors import ConfigError, FormatError, ParseError
from .graph import (
    Graph,
    _chunks,
    largest_connected_component,
    parse_edge_list,
    parse_object_file,
    text_crc,
)
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
    _check_k,
    _read_index_header,
    index_stats,
    load_index,
    object_distances,
    offline_preprocess,
    save_index,
)
from .oracle import oracle_rknn


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; we reserve 2 for data
    # errors, so turn usage problems into an exception handled in main().
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hubrknn", description=__doc__.partition("\n")[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)

    p = sub.add_parser("build", help="construct hub labels")
    p.set_defaults(handler=_cmd_build)
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--out", required=True, help="output label file")

    p = sub.add_parser(
        "preprocess", help="build the RkNN index for an object set"
    )
    p.set_defaults(handler=_cmd_preprocess)
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--objects", required=True, help="file with one raw vertex ID per line")
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--out", required=True, help="output index file")

    p = sub.add_parser("query", help="reverse-kNN query")
    p.set_defaults(handler=_cmd_query)
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--vertex", required=True, type=int, help="raw query vertex ID")
    p.add_argument("--all", action="store_true", help="print every object, inf included")
    p.add_argument("--oracle", action="store_true", help="answer by brute-force BFS instead")

    p = sub.add_parser("knn", help="k nearest objects to a vertex")
    p.set_defaults(handler=_cmd_knn)
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--vertex", required=True, type=int)
    p.add_argument("--k", type=int, help="default: the index's k")

    p = sub.add_parser("bench", help="run a parameter sweep, emit CSV")
    p.set_defaults(handler=_cmd_bench)
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
    p.set_defaults(handler=_cmd_stats)
    p.add_argument("--graph", required=True)
    p.add_argument("--labels")
    p.add_argument("--index")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (see --help)")
        return args.handler(args)
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
    except (ValueError, OSError) as exc:  # ParseError, FormatError, ConfigError included
        print(f"hubrknn: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


class _Input:
    """``with _Input(path):`` re-raises an OSError, or an error of ``kinds``,
    raised inside with ``path: `` in front, so a data error names the file it
    came from, or the output file it could not write (``kinds=()``); the
    library's own messages do not know the path."""

    def __init__(self, path: str, kinds: tuple = (ParseError, FormatError)):
        self.path = path
        self.kinds = kinds

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, OSError):  # "No such file or directory", not its repr
            raise kind(f"{self.path}: {exc.strerror or exc}") from None
        if isinstance(exc, self.kinds):
            raise kind(f"{self.path}: {exc}") from None


def _load_graph(path: str) -> Graph:
    with _Input(path), open(path, "r", encoding="utf-8") as f:
        graph = parse_edge_list(f)
    return largest_connected_component(graph)


def _edge_list_crc(path: str) -> int:
    """The ``text_crc`` of --graph, read as ``parse_edge_list`` reads it
    (``_chunks``), so no more than one chunk is held at a time. A file of no
    characters is the ParseError that ``parse_edge_list`` raises for it."""
    crc = 0
    empty = True
    with _Input(path), open(path, "r", encoding="utf-8") as f:
        for chunk in _chunks(f):
            crc = text_crc(chunk, crc)
            empty = False
        if empty:
            parse_edge_list("")  # the "empty graph" error that build prints
    return crc


def _load_labels_bound(args, edge_list_crc: int, vertices=None, raw_vertices=()) -> LabelSet:
    """The labels of --labels (all of them, or those of ``vertices`` and of
    the raw IDs ``raw_vertices``), checked to be built from --graph, whose
    CRC is ``edge_list_crc``."""
    with _Input(args.labels):
        with open(args.labels, "rb") as f:
            labels = load_labels(f, vertices, raw_vertices)
        if labels.edge_list_crc != edge_list_crc:
            named = "none" if labels.edge_list_crc is None else f"{labels.edge_list_crc:08x}"
            raise FormatError(
                f"label file was built from another edge list: it names edge-list CRC {named}, "
                f"{args.graph} has {edge_list_crc:08x}; rebuild it with build"
            )
    return labels


def _load_indexed(args, edge_list_crc: int) -> tuple[OfflineIndex, int]:
    """The index of --labels/--index, bound to the edge list whose CRC is
    ``edge_list_crc``, and the dense --vertex; only the labels of the
    objects and of --vertex are decoded, the ones a query reads."""
    with _Input(args.index), open(args.index, "rb") as f:
        data = f.read()
        objects = _read_index_header(data)[2]
    labels = _load_labels_bound(args, edge_list_crc, objects, (args.vertex,))
    q = labels.dense_id(args.vertex)
    with _Input(args.index):
        return load_index(io.BytesIO(data), labels), q


def _cmd_build(args) -> int:
    graph = _load_graph(args.graph)
    t0 = time.perf_counter()
    labels = build_pll_labels(graph)
    elapsed = time.perf_counter() - t0
    with _Input(args.out, ()), open(args.out, "wb") as f:
        save_labels(labels, f)
    print(f"vertices\t{graph.vertex_count}")
    print(f"edges\t{graph.edge_count}")
    print(f"label_pairs\t{labels.total_pairs}")
    print(f"build_seconds\t{elapsed:.3f}")
    return 0


def _cmd_preprocess(args) -> int:
    edge_list_crc = _edge_list_crc(args.graph)
    with _Input(args.objects), open(args.objects, "r", encoding="utf-8") as f:
        raw_objects = parse_object_file(f)
    labels = _load_labels_bound(args, edge_list_crc, (), raw_objects)
    if args.k < 1:  # not the object file's fault
        raise ConfigError(f"k must be >= 1, got {args.k}")
    with _Input(args.objects, (ConfigError,)):  # a repeated ID, one not in the graph, too few
        objects = ObjectSet(tuple(map(labels.dense_id, raw_objects)))
        index = offline_preprocess(labels, objects, args.k)
    with _Input(args.out, ()), open(args.out, "wb") as f:
        save_index(index, f)
    t = index.timings
    print(f"objects\t{len(objects)}")
    print(f"knn_backward_ms\t{t.knn_backward_s * 1e3:.3f}")
    print(f"batch_knn_ms\t{t.batch_knn_s * 1e3:.3f}")
    print(f"rknn_labels_ms\t{t.rknn_labels_s * 1e3:.3f}")
    print(f"offline_total_ms\t{t.total_s * 1e3:.3f}")
    return 0


def _cmd_query(args) -> int:
    if args.oracle:
        graph = _load_graph(args.graph)
        index, q = _load_indexed(args, graph.edge_list_crc)
        members = dict(oracle_rknn(graph, index.objects, q, index.k))
        distances = [members.get(i, INFINITY) for i in range(len(index.objects))]
    else:
        index, q = _load_indexed(args, _edge_list_crc(args.graph))
        distances = object_distances(index, q, index.worst)

    raw_ids = index.labels.raw_ids
    for i, dist in enumerate(distances):
        raw = raw_ids[index.objects.vertices[i]]
        if dist < INFINITY:
            print(f"{raw}\t{dist}")
        elif args.all:
            print(f"{raw}\tinf")
    return 0


def _cmd_knn(args) -> int:
    index, q = _load_indexed(args, _edge_list_crc(args.graph))
    k = index.k if args.k is None else args.k
    _check_k(k, index.k)
    distances = object_distances(index, q)
    raw_ids = index.labels.raw_ids
    for dist, idx in sorted((d, i) for i, d in enumerate(distances) if d < INFINITY)[:k]:
        raw = raw_ids[index.objects.vertices[idx]]
        print(f"{raw}\t{dist}")
    return 0


def _parse_list(text: str, kind: type) -> tuple:
    """A comma-separated list of ``kind`` (int or float) values."""
    try:
        return tuple(kind(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise UsageError(
            f"expected a comma-separated {kind.__name__} list, got {text!r}"
        ) from None


def _cmd_bench(args) -> int:
    # imported here: bench pulls in csv, hashlib, logging and statistics,
    # which no other subcommand needs
    import logging

    from .bench import SweepConfig, run_sweep

    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")

    graph = _load_graph(args.graph)
    labels = _load_labels_bound(args, graph.edge_list_crc)
    config = SweepConfig(
        densities=_parse_list(args.densities, float),
        ks=_parse_list(args.ks, int),
        balls=_parse_list(args.balls, float),
        sets_per_point=args.sets,
        queries_per_set=args.queries,
        seed=args.seed,
    )
    if args.out == "-":
        run_sweep(graph, labels, config, sink=sys.stdout, graph_name=args.graph)
    else:
        with _Input(args.out, ()), open(args.out, "w", encoding="utf-8", newline="") as f:
            run_sweep(graph, labels, config, sink=f, graph_name=args.graph)
    return 0


def _cmd_stats(args) -> int:
    if args.index and not args.labels:
        raise UsageError("--index requires --labels")
    graph = _load_graph(args.graph)
    labels = _load_labels_bound(args, graph.edge_list_crc) if args.labels else None
    if args.index:
        with _Input(args.index), open(args.index, "rb") as f:
            index = load_index(f, labels)
    print(f"vertices\t{graph.vertex_count}")
    print(f"edges\t{graph.edge_count}")
    print(f"avg_degree\t{graph.avg_degree():.2f}")

    if labels is not None:
        print(f"label_pairs\t{labels.total_pairs}")
        print(f"labels_per_vertex\t{labels.avg_label_size():.2f}")
        print(f"label_model_bytes\t{_PAIR.size * labels.total_pairs}")

    if args.index:
        stats = index_stats(index)
        print(f"k\t{index.k}")
        print(f"objects\t{len(index.objects)}")
        for name in ("knn_backward_pairs", "knn_result_pairs", "rknn_pairs", "to_many_pairs"):
            print(f"{name}\t{stats[name]}")
        print(f"epsilon\t{stats['epsilon']:.4f}")
        print(f"index_model_bytes\t{stats['model_bytes']}")
    return 0


if __name__ == "__main__":
    run()
