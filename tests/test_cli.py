"""End-to-end CLI runs over temp files: the full build/preprocess/query flow."""

import hashlib
import io
import os
import pathlib
import random
import re
import subprocess
import sys
import zlib

import pytest

import hubrknn
import hubrknn.cli
from hubrknn.cli import main
from hubrknn.graph import _CHUNK

from fixtures import TREE14_EDGES, TREE14_TEXT
from graphgen import preferential_attachment_graph
from test_criterion import SHAPES


@pytest.fixture()
def workspace(tmp_path):
    graph = tmp_path / "tree.txt"
    graph.write_text(TREE14_TEXT)
    objects = tmp_path / "objects.txt"
    objects.write_text("# objects\n4\n10\n12\n")
    return {
        "graph": str(graph),
        "objects": str(objects),
        "labels": str(tmp_path / "tree.labels"),
        "index": str(tmp_path / "tree.index"),
        "tmp": tmp_path,
    }


def _pipeline(ws):
    assert main(["build", "--graph", ws["graph"], "--out", ws["labels"]]) == 0
    assert (
        main(
            [
                "preprocess",
                "--graph", ws["graph"],
                "--labels", ws["labels"],
                "--objects", ws["objects"],
                "--k", "1",
                "--out", ws["index"],
            ]
        )
        == 0
    )


def test_full_pipeline_query(workspace, capsys):
    _pipeline(workspace)
    capsys.readouterr()
    code = main(
        [
            "query",
            "--graph", workspace["graph"],
            "--labels", workspace["labels"],
            "--index", workspace["index"],
            "--vertex", "0",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["4\t1", "12\t3"]


def test_query_all_prints_inf(workspace, capsys):
    _pipeline(workspace)
    capsys.readouterr()
    main(
        [
            "query",
            "--graph", workspace["graph"],
            "--labels", workspace["labels"],
            "--index", workspace["index"],
            "--vertex", "0",
            "--all",
        ]
    )
    assert capsys.readouterr().out.splitlines() == ["4\t1", "10\tinf", "12\t3"]


def test_query_oracle_flag_agrees(workspace, capsys):
    _pipeline(workspace)
    capsys.readouterr()
    main(
        [
            "query",
            "--graph", workspace["graph"],
            "--labels", workspace["labels"],
            "--index", workspace["index"],
            "--vertex", "0",
            "--oracle",
        ]
    )
    assert capsys.readouterr().out.splitlines() == ["4\t1", "12\t3"]


def test_knn_subcommand(workspace, capsys):
    _pipeline(workspace)
    capsys.readouterr()
    code = main(
        [
            "knn",
            "--graph", workspace["graph"],
            "--labels", workspace["labels"],
            "--index", workspace["index"],
            "--vertex", "9",
            "--k", "1",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["4\t3"]


def test_knn_k_defaults_to_the_index_k(workspace, capsys):
    assert main(["build", "--graph", workspace["graph"], "--out", workspace["labels"]]) == 0
    preprocess = [
        "preprocess",
        "--graph", workspace["graph"],
        "--labels", workspace["labels"],
        "--objects", workspace["objects"],
        "--k", "2",
        "--out", workspace["index"],
    ]
    assert main(preprocess) == 0
    knn = [
        "knn",
        "--graph", workspace["graph"],
        "--labels", workspace["labels"],
        "--index", workspace["index"],
        "--vertex", "9",
    ]
    capsys.readouterr()
    assert main(knn) == 0
    assert capsys.readouterr().out.splitlines() == ["4\t3", "10\t4"]
    assert main(knn + ["--k", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == ["4\t3", "10\t4"]
    assert main(knn + ["--k", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["4\t3"]
    for bad in ("0", "3"):
        assert main(knn + ["--k", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"hubrknn: k={bad} outside [1, 2] supported by this index\n"


def test_stats_reports_label_counts(workspace, capsys):
    _pipeline(workspace)
    capsys.readouterr()
    code = main(
        [
            "stats",
            "--graph", workspace["graph"],
            "--labels", workspace["labels"],
            "--index", workspace["index"],
        ]
    )
    assert code == 0
    # loaded index: substage 1 rebuilt from the labels; 5 B per stored pair
    assert capsys.readouterr().out.splitlines() == [
        "vertices\t14",
        "edges\t13",
        "avg_degree\t1.86",
        "label_pairs\t39",
        "labels_per_vertex\t2.79",
        f"label_model_bytes\t{5 * 39}",
        "k\t1",
        "objects\t3",
        "knn_backward_pairs\t8",
        "knn_result_pairs\t3",
        "rknn_pairs\t8",
        "to_many_pairs\t9",
        "epsilon\t0.8889",
        f"index_model_bytes\t{5 * (8 + 3 + 8)}",
    ]


def test_mismatched_index_is_data_error(workspace, tmp_path, capsys):
    _pipeline(workspace)
    # labels for a different graph -> fingerprint validation must fail
    other_graph = tmp_path / "other.txt"
    other_graph.write_text("\n".join(f"{v} {v + 1}" for v in range(13)) + "\n")
    other_labels = tmp_path / "other.labels"
    assert main(["build", "--graph", str(other_graph), "--out", str(other_labels)]) == 0
    code = main(
        [
            "query",
            "--graph", str(other_graph),
            "--labels", str(other_labels),
            "--index", workspace["index"],
            "--vertex", "0",
        ]
    )
    assert code == 2
    assert "hubrknn:" in capsys.readouterr().err


def test_corrupted_labels_file_is_data_error(workspace, capsys):
    _pipeline(workspace)
    labels = pathlib.Path(workspace["labels"])
    data = bytearray(labels.read_bytes())
    data[0] ^= 0xFF
    labels.write_bytes(bytes(data))
    code = main(
        [
            "query",
            "--graph", workspace["graph"],
            "--labels", workspace["labels"],
            "--index", workspace["index"],
            "--vertex", "0",
        ]
    )
    assert code == 2


def _query_with_version(workspace, capsys, path, version):
    """Exit code and stderr of a query after the file's version byte is set."""
    _pipeline(workspace)
    data = bytearray(pathlib.Path(path).read_bytes())
    data[4] = version
    pathlib.Path(path).write_bytes(bytes(data))
    capsys.readouterr()
    code = main(
        [
            "query",
            "--graph", workspace["graph"],
            "--labels", workspace["labels"],
            "--index", workspace["index"],
            "--vertex", "0",
        ]
    )
    return code, capsys.readouterr().err


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
def test_old_version_index_file_is_data_error(workspace, capsys, version):
    # v1 and v2 store RkNN sections; v3 and v4 checksum the objects' labels;
    # v5 stores every kNN row entry
    code, err = _query_with_version(workspace, capsys, workspace["index"], version)
    assert code == 2
    assert f"hubrknn: {workspace['index']}: unsupported index-file version {version}" in err
    assert "Traceback" not in err


def test_index_with_labels_changed_outside_the_objects_is_data_error(workspace, capsys):
    """Labels that differ only in a non-object vertex's label name another
    label file than the index does."""
    _pipeline(workspace)
    with open(workspace["labels"], "rb") as f:
        labels = hubrknn.load_labels(f)
    with open(workspace["index"], "rb") as f:
        objects = hubrknn.load_index(f, labels).objects.vertices
    v = next(v for v in range(labels.vertex_count) if v not in objects and len(labels.hubs[v]) > 1)
    dists = list(labels.dists)
    dists[v] = dists[v][:-1] + bytes([dists[v][-1] + 1])  # still distance-major
    with open(workspace["labels"], "wb") as f:
        hubrknn.save_labels(
            hubrknn.LabelSet(labels.hubs, dists, labels.raw_ids, labels.edge_list_crc), f
        )
    capsys.readouterr()
    code = main(
        [
            "query",
            "--graph", workspace["graph"],
            "--labels", workspace["labels"],
            "--index", workspace["index"],
            "--vertex", "0",
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert f"hubrknn: {workspace['index']}: index was built from other labels" in err
    assert "Traceback" not in err


def test_old_version_label_file_is_data_error(workspace, capsys):
    # v1 stores labels in hub order with no checksum
    code, err = _query_with_version(workspace, capsys, workspace["labels"], 1)
    assert code == 2
    assert f"hubrknn: {workspace['labels']}: unsupported label-file version 1" in err
    assert "Traceback" not in err


def test_unknown_vertex_is_data_error(workspace, capsys):
    _pipeline(workspace)
    code = main(
        [
            "query",
            "--graph", workspace["graph"],
            "--labels", workspace["labels"],
            "--index", workspace["index"],
            "--vertex", "777",
        ]
    )
    assert code == 2
    assert "777" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["build", "--graph", "x"]) == 1  # --out missing
    capsys.readouterr()


def test_usage_error_in_a_command_exits_1(workspace, capsys):
    """A usage error found after parsing, while a command runs, is handled as
    one found by the parser."""
    assert main(["stats", "--graph", workspace["graph"], "--index", workspace["index"]]) == 1
    assert capsys.readouterr().err == "hubrknn: --index requires --labels\n"


def test_module_entry_point_runs_cli():
    src = os.path.dirname(os.path.dirname(hubrknn.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "hubrknn.cli"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 1
    assert "a subcommand is required" in proc.stderr


def test_closed_output_pipe_exits_0(workspace, monkeypatch, capsys):
    """`hubrknn query --all ... | head -1`: the reader leaving is no error."""
    _pipeline(workspace)
    capsys.readouterr()

    with open(workspace["tmp"] / "stdout", "w") as backing:

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return backing.fileno()

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(
            [
                "query",
                "--graph", workspace["graph"],
                "--labels", workspace["labels"],
                "--index", workspace["index"],
                "--vertex", "0",
                "--all",
            ]
        )
    assert code == 0
    assert capsys.readouterr().err == ""


def test_missing_file_is_data_error(tmp_path, capsys):
    code = main(["build", "--graph", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o")])
    assert code == 2


def test_non_utf8_input_is_data_error(workspace, capsys):
    """An edge list or object file that is not UTF-8 ends in one line on
    stderr and exit 2, for the commands that parse it and the one that
    only CRCs it."""
    _pipeline(workspace)
    bad = str(workspace["tmp"] / "bad.txt")
    pathlib.Path(bad).write_bytes(b"4\n1\xff\n")
    files = ["--labels", workspace["labels"]]
    for argv in (
        ["build", "--graph", bad, "--out", str(workspace["tmp"] / "bad.labels")],
        ["preprocess", "--graph", workspace["graph"], *files, "--objects", bad,
         "--k", "1", "--out", str(workspace["tmp"] / "bad.index")],
        ["query", "--graph", bad, *files, "--index", workspace["index"], "--vertex", "0"],
    ):
        assert _run(capsys, argv) == (
            2, "", f"hubrknn: {bad}: not UTF-8 text: invalid start byte (0xff)\n"
        ), argv[0]


def _not_utf8(path):
    path.write_bytes(b"4\n1\xff\n")
    return "not UTF-8 text: invalid start byte (0xff)"


def _malformed_line(path):
    path.write_text("4\nbogus\n12\n")
    return "line 2: "


def _truncated(path):
    path.write_bytes(path.read_bytes()[:-1])
    return "checksum mismatch: the file is corrupt or truncated"


def _missing(path):
    path.unlink()
    return "No such file or directory"


def _empty(path):
    """An empty text file holds no vertex, an empty binary file no magic. A
    command that only CRCs --graph says so as the commands that parse it."""
    path.write_bytes(b"")
    return "input contains no vertices" if path.suffix == ".txt" else "file magic b''"


def _repeated_id(path):
    path.write_text("4\n10\n4\n")
    return "object set contains duplicate vertices"


def _unknown_id(path):
    path.write_text("4\n99\n")
    return "vertex 99 is not in the graph"


def _foreign_edge_list(path):
    path.write_text(FOREIGN_TREE14)
    return "label file was built from another edge list"


BAD_INPUTS = [
    (command, option, fault)
    for command, options in (
        ("build", ("--graph",)),
        ("preprocess", ("--graph", "--labels", "--objects")),
        ("query", ("--graph", "--labels", "--index")),
        ("knn", ("--graph", "--labels", "--index")),
        ("stats", ("--graph", "--labels", "--index")),
        ("bench", ("--graph", "--labels")),
    )
    for option in options
    for fault in {
        "--graph": (_missing, _empty, _not_utf8)
        + ((_foreign_edge_list,) if command != "build" else ()),
        "--objects": (_missing, _empty, _not_utf8, _malformed_line, _repeated_id, _unknown_id),
        "--labels": (_missing, _empty, _truncated),
        "--index": (_missing, _empty, _truncated),
    }[option]
]


def _argv(ws, command, out_file):
    """A run of ``command`` on the workspace's files that writes to ``out_file``."""
    inputs = ["--graph", ws["graph"], "--labels", ws["labels"]]
    return {
        "build": ["build", "--graph", ws["graph"], "--out", out_file],
        "preprocess": ["preprocess", *inputs, "--objects", ws["objects"], "--k", "1",
                       "--out", out_file],
        "stats": ["stats", *inputs, "--index", ws["index"]],
        "bench": ["bench", *inputs, "--densities", "0.3", "--ks", "1", "--sets", "1",
                  "--queries", "1", "--out", out_file],
    }.get(command, [command, *inputs, "--index", ws["index"], "--vertex", "0"])


@pytest.mark.parametrize(
    "command, option, fault", BAD_INPUTS,
    ids=[f"{c}{o}-{f.__name__.strip('_')}" for c, o, f in BAD_INPUTS],
)
def test_data_error_names_its_input(workspace, capsys, command, option, fault):
    """A bad input file ends in exit 2 and one stderr line that names that
    file, in front of the library's own message. A --graph the labels were
    not built from is named in the label file's binding line."""
    _pipeline(workspace)
    path = pathlib.Path(workspace[option[2:]])
    message = fault(path)
    code, out, err = _run(capsys, _argv(workspace, command, str(workspace["tmp"] / "out")))
    assert (code, out) == (2, "")
    if fault is _foreign_edge_list:
        assert err == _binding_error(workspace["labels"], TREE14_TEXT, path.read_text(), path)
    else:
        assert err.startswith(f"hubrknn: {path}: ") and message in err
        assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("command", ["build", "preprocess", "bench"])
def test_output_in_a_missing_directory_is_named(workspace, capsys, command):
    """An output file that cannot be opened ends in exit 2 and one stderr
    line that names it, as a missing input does."""
    _pipeline(workspace)
    out_file = str(workspace["tmp"] / "missing" / "out")
    assert _run(capsys, _argv(workspace, command, out_file)) == (
        2, "", f"hubrknn: {out_file}: No such file or directory\n"
    )


@pytest.mark.parametrize(
    "objects, k, blamed, message",
    [
        pytest.param("4\n", "1", True, "need at least k+1 = 2 objects, got 1",
                     id="too-few-objects"),
        pytest.param("4\n10\n12\n", "3", True, "need at least k+1 = 4 objects, got 3",
                     id="too-few-for-k"),
        pytest.param("4\n", "0", False, "k must be >= 1, got 0", id="k-zero"),
        pytest.param("4\n10\n", "-2", False, "k must be >= 1, got -2", id="k-negative"),
    ],
)
def test_preprocess_names_the_object_file_it_has_too_few_of(
    workspace, capsys, objects, k, blamed, message
):
    """Fewer than k+1 objects is the object file's fault; a k below 1 is not."""
    assert main(["build", "--graph", workspace["graph"], "--out", workspace["labels"]]) == 0
    capsys.readouterr()
    pathlib.Path(workspace["objects"]).write_text(objects)
    argv = [
        "preprocess", "--graph", workspace["graph"], "--labels", workspace["labels"],
        "--objects", workspace["objects"], "--k", k, "--out", workspace["index"],
    ]
    named = f"{workspace['objects']}: " if blamed else ""
    assert _run(capsys, argv) == (2, "", f"hubrknn: {named}{message}\n")
    assert not os.path.exists(workspace["index"])


def test_preprocess_rejects_small_k_objects(workspace, capsys):
    assert main(["build", "--graph", workspace["graph"], "--out", workspace["labels"]]) == 0
    code = main(
        [
            "preprocess",
            "--graph", workspace["graph"],
            "--labels", workspace["labels"],
            "--objects", workspace["objects"],
            "--k", "3",
            "--out", workspace["index"],
        ]
    )
    assert code == 2  # 3 objects cannot support k=3
    capsys.readouterr()


def test_bench_subcommand_writes_csv(workspace, tmp_path, capsys):
    assert main(["build", "--graph", workspace["graph"], "--out", workspace["labels"]]) == 0
    csv_path = tmp_path / "sweep.csv"
    code = main(
        [
            "bench",
            "--graph", workspace["graph"],
            "--labels", workspace["labels"],
            "--densities", "0.3",
            "--ks", "1",
            "--balls", "1.0",
            "--sets", "1",
            "--queries", "3",
            "--seed", "7",
            "--out", str(csv_path),
        ]
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("graph,density,k,ball")
    capsys.readouterr()


@pytest.mark.parametrize(
    "option, value, kind",
    [("--densities", "0.1,x", "float"), ("--ks", "1,2.5", "int"), ("--balls", "one", "float")],
)
def test_bench_rejects_a_malformed_list(workspace, capsys, option, value, kind):
    assert main(["build", "--graph", workspace["graph"], "--out", workspace["labels"]]) == 0
    capsys.readouterr()
    code = main(
        [
            "bench",
            "--graph", workspace["graph"],
            "--labels", workspace["labels"],
            option, value,
            "--out", "-",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"hubrknn: expected a comma-separated {kind} list, got {value!r}" in err


def _run(capsys, argv):
    """Exit code, stdout and stderr of one CLI run."""
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _lookups(ws, vertex):
    """The query, query --all and knn argv of the workspace at a raw vertex."""
    files = ["--graph", ws["graph"], "--labels", ws["labels"], "--index", ws["index"]]
    at = ["--vertex", str(vertex)]
    return [["query", *files, *at], ["query", *files, *at, "--all"], ["knn", *files, *at]]


def test_query_and_knn_decode_only_the_labels_they_read(workspace, capsys, monkeypatch):
    """The labels of the query vertex and of the objects (4, 10, 12), no more."""
    _pipeline(workspace)
    loaded = []

    def spy(source, *rest):
        loaded.append(hubrknn.load_labels(source, *rest))
        return loaded[-1]

    monkeypatch.setattr(hubrknn.cli, "load_labels", spy)
    for vertex, decoded in ((0, {0, 4, 10, 12}), (4, {4, 10, 12})):
        for argv in _lookups(workspace, vertex):
            loaded.clear()
            assert _run(capsys, argv)[0] == 0
            (labels,) = loaded
            assert {v for v, hv in enumerate(labels.hubs) if hv is not None} == decoded
            assert labels.vertex_count == 14 and labels.total_pairs == 39


def test_partial_decode_answers_as_a_full_decode(workspace, capsys, monkeypatch):
    """query, query --all and knn print the same at every TREE14 vertex as
    when every label is decoded."""
    _pipeline(workspace)
    vertices = range(14)
    partial = [_run(capsys, argv) for v in vertices for argv in _lookups(workspace, v)]
    monkeypatch.setattr(hubrknn.cli, "load_labels", lambda source, *rest: hubrknn.load_labels(source))
    full = [_run(capsys, argv) for v in vertices for argv in _lookups(workspace, v)]
    assert partial == full
    assert all(code == 0 and err == "" for code, _, err in partial)
    assert partial[:3] == [(0, "4\t1\n12\t3\n", ""), (0, "4\t1\n10\tinf\n12\t3\n", ""),
                           (0, "4\t1\n", "")]


def _binding_error(labels_path, label_text, graph_text, graph_path):
    """stderr of a command given the labels at ``labels_path``, built from
    ``label_text``, and a --graph at ``graph_path`` holding ``graph_text``."""
    named, has = (zlib.crc32(text.encode()) for text in (label_text, graph_text))
    return (
        f"hubrknn: {labels_path}: label file was built from another edge list: "
        f"it names edge-list CRC "
        f"{named:08x}, {graph_path} has {has:08x}; rebuild it with build\n"
    )


@pytest.mark.parametrize("path_length", [20, 10])
def test_label_file_of_another_vertex_count_is_data_error(workspace, capsys, path_length):
    """Labels of a longer or a shorter graph fail by their edge-list CRC,
    also where the query vertex or an object lies beyond them."""
    _pipeline(workspace)
    other = workspace["tmp"] / "path.txt"
    text = "".join(f"{v} {v + 1}\n" for v in range(path_length - 1))
    other.write_text(text)
    assert main(["build", "--graph", str(other), "--out", workspace["labels"]]) == 0
    preprocess = [
        "preprocess",
        "--graph", workspace["graph"],
        "--labels", workspace["labels"],
        "--objects", workspace["objects"],
        "--k", "1",
        "--out", str(workspace["tmp"] / "other.index"),
    ]
    for argv in [*_lookups(workspace, 13), preprocess]:
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert err == _binding_error(workspace["labels"], text, TREE14_TEXT, workspace["graph"])


def _pa_workspace(tmp_path):
    """PA 300/4 as an edge-list file and 60 of its vertices as objects."""
    graph = preferential_attachment_graph(300, 4, seed=3)
    edges = tmp_path / "pa.txt"
    edges.write_text("".join(
        f"{graph.raw_ids[v]} {graph.raw_ids[w]}\n"
        for v in range(300) for w in graph.adjacency[v] if v < w
    ))
    objects = tmp_path / "pa-objects.txt"
    objects.write_text("".join(f"{r}\n" for r in random.Random(4).sample(graph.raw_ids, 60)))
    return {"graph": str(edges), "objects": str(objects),
            "labels": str(tmp_path / "pa.labels"), "index": str(tmp_path / "pa.index")}


@pytest.mark.parametrize("name, k", [("tree14", 1), ("pa300", 4)])
def test_preprocess_writes_the_index_of_the_fully_loaded_labels(workspace, capsys, name, k):
    """preprocess decodes only the objects' labels, and its index file is
    byte for byte the one written from every label."""
    ws = workspace if name == "tree14" else _pa_workspace(workspace["tmp"])
    assert main(["build", "--graph", ws["graph"], "--out", ws["labels"]]) == 0
    argv = ["preprocess", "--graph", ws["graph"], "--labels", ws["labels"],
            "--objects", ws["objects"], "--k", str(k), "--out", ws["index"]]
    assert _run(capsys, argv)[0] == 0
    with open(ws["graph"]) as f:
        graph = hubrknn.largest_connected_component(hubrknn.parse_edge_list(f))
    with open(ws["objects"]) as f:
        objects = hubrknn.ObjectSet(tuple(map(graph.dense_id, hubrknn.parse_object_file(f))))
    with open(ws["labels"], "rb") as f:
        labels = hubrknn.load_labels(f)
    expected = io.BytesIO()
    hubrknn.save_index(hubrknn.offline_preprocess(labels, objects, k), expected)
    with open(ws["index"], "rb") as f:
        assert f.read() == expected.getvalue()


def _every_reader(ws, vertex):
    """The argv of each command that reads labels alongside --graph."""
    files = ["--graph", ws["graph"], "--labels", ws["labels"]]
    return [
        *_lookups(ws, vertex),
        ["query", *files, "--index", ws["index"], "--vertex", str(vertex), "--oracle"],
        ["preprocess", *files, "--objects", ws["objects"], "--k", "1",
         "--out", str(ws["tmp"] / "again.index")],
        ["stats", *files],
        ["stats", *files, "--index", ws["index"]],
    ]


FOREIGN_TREE14 = "".join(f"{v} {v + 1}\n" for v in range(13))  # a path on the same 14 IDs


@pytest.mark.parametrize("kind", ["reordered", "foreign"])
def test_labels_of_another_edge_list_are_data_error(workspace, capsys, kind):
    """Labels built from TREE14 refuse a --graph of the same 14 vertices
    whose text differs: its lines reversed (another raw-to-dense mapping of
    the same graph) or another graph. No command answers."""
    _pipeline(workspace)
    if kind == "reordered":
        text = "".join(reversed(TREE14_TEXT.splitlines(keepends=True)))
    else:
        text = FOREIGN_TREE14
    pathlib.Path(workspace["graph"]).write_text(text)
    for vertex in (0, 7, 13):
        for argv in _every_reader(workspace, vertex):
            code, out, err = _run(capsys, argv)
            assert (code, out, err) == (
                2, "", _binding_error(workspace["labels"], TREE14_TEXT, text, workspace["graph"])
            ), argv


def test_labels_without_an_edge_list_are_data_error(workspace, capsys):
    """Labels of a graph never parsed from text save and load, and every
    command refuses them."""
    _pipeline(workspace)
    labels = hubrknn.build_pll_labels(hubrknn.Graph.from_edges(TREE14_EDGES))
    assert labels.edge_list_crc is None
    with open(workspace["labels"], "wb") as f:
        hubrknn.save_labels(labels, f)
    with open(workspace["labels"], "rb") as f:
        assert hubrknn.load_labels(f) == labels
    crc = zlib.crc32(TREE14_TEXT.encode())
    for argv in _every_reader(workspace, 0):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == (
            f"hubrknn: {workspace['labels']}: label file was built from another edge list: "
            f"it names edge-list CRC none, {workspace['graph']} has {crc:08x}; "
            "rebuild it with build\n"
        )


def test_query_knn_and_preprocess_never_parse_the_graph(workspace, capsys, monkeypatch):
    """They read --graph only for its CRC and answer as before."""
    _pipeline(workspace)
    index = pathlib.Path(workspace["index"]).read_bytes()
    expected = [_run(capsys, argv) for argv in _lookups(workspace, 9)]
    assert expected == [(0, "", ""), (0, "4\tinf\n10\tinf\n12\tinf\n", ""), (0, "4\t3\n", "")]

    def refuse(*args):
        raise AssertionError("the graph was parsed")

    monkeypatch.setattr(hubrknn.cli, "parse_edge_list", refuse)
    monkeypatch.setattr(hubrknn.cli, "largest_connected_component", refuse)
    os.remove(workspace["index"])
    preprocess = [
        "preprocess", "--graph", workspace["graph"], "--labels", workspace["labels"],
        "--objects", workspace["objects"], "--k", "1", "--out", workspace["index"],
    ]
    assert _run(capsys, preprocess)[0] == 0
    assert pathlib.Path(workspace["index"]).read_bytes() == index
    assert [_run(capsys, argv) for argv in _lookups(workspace, 9)] == expected


def test_query_and_knn_build_no_backward_list(workspace, capsys, monkeypatch):
    """A loaded index holds no per-hub list. query, query --all and knn
    answer as before with the by-hub regrouping (substages 1 and 3) and the
    kNN row sweep (substage 2) refusing; stats --index and index_stats build
    and count the lists on demand."""
    _pipeline(workspace)
    expected = [_run(capsys, argv) for v in range(14) for argv in _lookups(workspace, v)]
    assert expected[:3] == [(0, "4\t1\n12\t3\n", ""), (0, "4\t1\n10\tinf\n12\t3\n", ""),
                            (0, "4\t1\n", "")]
    with open(workspace["labels"], "rb") as f:
        labels = hubrknn.load_labels(f)
    with open(workspace["index"], "rb") as f:
        index = hubrknn.load_index(f, labels)
    assert not {"rknn_backward", "knn_backward"} & set(vars(index))

    def refuse(*args):
        raise AssertionError("a backward list was built")

    monkeypatch.setattr(hubrknn.offline, "_by_hub", refuse)
    monkeypatch.setattr(hubrknn.offline, "_knn_row", refuse)
    assert [_run(capsys, argv) for v in range(14) for argv in _lookups(workspace, v)] == expected
    stats = [
        "stats", "--graph", workspace["graph"], "--labels", workspace["labels"],
        "--index", workspace["index"],
    ]
    with pytest.raises(AssertionError, match="a backward list was built"):
        main(stats)
    monkeypatch.undo()
    code, out, _ = _run(capsys, stats)
    assert code == 0 and "knn_backward_pairs\t8\n" in out and "rknn_pairs\t8\n" in out
    counts = hubrknn.index_stats(index)
    assert (counts["knn_backward_pairs"], counts["rknn_pairs"]) == (8, 8)
    assert {"rknn_backward", "knn_backward"} <= set(vars(index))


@pytest.mark.parametrize("kind", ["lf", "crlf", "crlf-across-chunks"])
def test_edge_list_crc_is_the_crc_the_parse_records(tmp_path, kind):
    """The CLI CRCs --graph chunk by chunk, as parse_edge_list reads it; the
    long file has a CRLF whose "\r" ends the first chunk."""
    text = {
        "lf": TREE14_TEXT,
        "crlf": TREE14_TEXT.replace("\n", "\r\n"),
        "crlf-across-chunks": "#" + "x" * (_CHUNK - 2) + "\r\n"
        + "".join(f"{v} {v + 1}\r\n" for v in range(_CHUNK // 8)),
    }[kind]
    if kind == "crlf-across-chunks":
        assert text.index("\r") == _CHUNK - 1 and len(text) > 2 * _CHUNK
    path = tmp_path / "graph.txt"
    path.write_bytes(text.encode())
    with open(path, "r", encoding="utf-8") as f:
        parsed = hubrknn.parse_edge_list(f).edge_list_crc
    assert hubrknn.cli._edge_list_crc(str(path)) == parsed
    assert parsed == zlib.crc32(text.replace("\r\n", "\n").encode())


def _library_labels(graph_path, label_path):
    """Labels built as the benchmark builds them, file object to file object."""
    with open(graph_path, "r", encoding="utf-8") as f:
        graph = hubrknn.largest_connected_component(hubrknn.parse_edge_list(f))
    labels = hubrknn.build_pll_labels(graph, hubrknn.degree_ordering(graph))
    with open(label_path, "wb") as f:
        hubrknn.save_labels(labels, f)


@pytest.mark.parametrize("line_end", ["\n", "\r\n"])
def test_library_built_labels_answer_through_the_cli(workspace, capsys, line_end):
    """parse_edge_list on an open file records the CRC the CLI reads from
    the same file, comments and CRLF line ends included; the label file is
    the one build writes."""
    text = "# a comment\n% another\n\n" + TREE14_TEXT + "# trailing\n"
    pathlib.Path(workspace["graph"]).write_bytes(text.replace("\n", line_end).encode())
    _library_labels(workspace["graph"], workspace["labels"])
    library = pathlib.Path(workspace["labels"]).read_bytes()
    _pipeline(workspace)
    assert pathlib.Path(workspace["labels"]).read_bytes() == library
    assert [_run(capsys, argv) for argv in _lookups(workspace, 0)] == [
        (0, "4\t1\n12\t3\n", ""), (0, "4\t1\n10\tinf\n12\t3\n", ""), (0, "4\t1\n", "")
    ]


def test_raw_ids_up_to_u64_max_answer_and_wider_ones_fail_at_build(workspace, capsys):
    """Raw IDs are u64 in the label file: 2**64 - 1 round-trips to stdout,
    2**64 fails the build with a data error that names it."""
    top = 2**64 - 1
    big = {4: top, 10: top - 1, 0: 2**63}  # two objects and the query vertex
    text = "".join(f"{big.get(u, u)} {big.get(v, v)}\n" for u, v in TREE14_EDGES)
    pathlib.Path(workspace["graph"]).write_text(text)
    pathlib.Path(workspace["objects"]).write_text(f"{top}\n{top - 1}\n12\n")
    _pipeline(workspace)
    assert [_run(capsys, argv) for argv in _lookups(workspace, 2**63)] == [
        (0, f"{top}\t1\n12\t3\n", ""), (0, f"{top}\t1\n{top - 1}\tinf\n12\t3\n", ""),
        (0, f"{top}\t1\n", ""),
    ]
    pathlib.Path(workspace["graph"]).write_text(text + f"12 {2**64}\n")
    build = ["build", "--graph", workspace["graph"], "--out", workspace["labels"]]
    code, out, err = _run(capsys, build)
    assert (code, out) == (2, "")
    assert err == f"hubrknn: raw vertex ID {2**64} does not fit the label file's u64\n"


CLI_VERTICES = (0, 17, 1234, 2999)  # raw query vertices of the criterion graph
CLI_STDOUT_SHA256 = "b1583efbdbef5e4ca614b6d6cb951ad3d4ce89437c77714f2a0ac4da841f0890"
_TIMED_LINE = re.compile(r"^(build_seconds|\w+_ms)\t.*$", re.M)


def test_cli_stdout_on_the_criterion_graph_is_pinned(tmp_path, capsys, pa3k):
    """One sha256 over the stdout of ``build`` on PA 3000/12 (seed 1234),
    ``preprocess`` of both object sets of ``test_criterion.SHAPES``, then
    ``query``, ``query --all``, ``knn`` and ``knn --k 1`` on each index at
    four vertices, and ``stats --index``. The timing lines are masked."""
    edges = tmp_path / "pa3k.txt"
    edges.write_text("".join(
        f"{pa3k.raw_ids[v]} {pa3k.raw_ids[w]}\n"
        for v in range(pa3k.vertex_count) for w in pa3k.adjacency[v] if v < w
    ))
    graph, labels = ["--graph", str(edges)], ["--labels", str(tmp_path / "pa3k.labels")]
    runs = [["build", *graph, "--out", labels[1]]]
    for name, (m, k, seed) in sorted(SHAPES.items()):
        objects, index = tmp_path / f"{name}.txt", str(tmp_path / f"{name}.index")
        sample = random.Random(seed).sample(range(pa3k.vertex_count), m)
        objects.write_text("".join(f"{pa3k.raw_ids[v]}\n" for v in sample))
        runs.append(["preprocess", *graph, *labels, "--objects", str(objects),
                     "--k", str(k), "--out", index])
        files = [*graph, *labels, "--index", index]
        for vertex in CLI_VERTICES:
            at = ["--vertex", str(vertex)]
            runs += [["query", *files, *at], ["query", *files, *at, "--all"],
                     ["knn", *files, *at], ["knn", *files, *at, "--k", "1"]]
        runs.append(["stats", *files])
    outs = []
    for argv in runs:
        code, out, err = _run(capsys, argv)
        assert (code, err) == (0, ""), argv
        outs.append(_TIMED_LINE.sub(r"\1\t-", out))
    assert outs[0].startswith(f"vertices\t{pa3k.vertex_count}\n")
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == CLI_STDOUT_SHA256
