"""End-to-end CLI runs over temp files: the full build/preprocess/query flow."""

import os
import subprocess
import sys

import pytest

import hubrknn
from hubrknn.cli import main

from fixtures import TREE14_TEXT


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
    out = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
    assert out["vertices"] == "14"
    assert out["edges"] == "13"
    assert out["label_pairs"] == "39"
    assert out["labels_per_vertex"] == "2.79"
    assert out["rknn_pairs"] == "8"
    assert out["epsilon"] == "0.8889"
    # loaded index: substage 1 rebuilt from the labels; 5 B per stored pair
    assert out["knn_backward_pairs"] == "8"
    assert out["index_model_bytes"] == str(5 * (8 + 3 + 8))


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
    data = bytearray(open(workspace["labels"], "rb").read())
    data[0] ^= 0xFF
    open(workspace["labels"], "wb").write(bytes(data))
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


def test_version_1_index_file_is_data_error(workspace, capsys):
    _pipeline(workspace)
    data = bytearray(open(workspace["index"], "rb").read())
    data[4] = 1  # the version byte; v1 RkNN sections are not slack-ordered
    open(workspace["index"], "wb").write(bytes(data))
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
    assert code == 2
    err = capsys.readouterr().err
    assert "hubrknn: unsupported index-file version 1" in err
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
