"""Tests of the benchmark itself, on a tiny seeded instance.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH), str(SRC), str(ROOT / "tests")]

import inputs  # noqa: E402
from calls import Calls  # noqa: E402
from hostspeed import REFERENCE_PROBE_S, HostSpeed  # noqa: E402
from workloads import (  # noqa: E402
    COUNT_UNITS, END_TO_END, PER_LAYER, WORKLOADS, ObjectSpec, Run, Workload,
)

# A 150-vertex graph with a uniform and a ball object set.
TINY = Workload(
    "tiny", n=150, attach=3, sets=(ObjectSpec(0.1, (2,)), ObjectSpec(0.1, (1, 3), ball=0.5)),
    cycle_share=0.1, rknn_share=0.1, knn_share=0.1, cli_share=0.1, queries_per_set=2, builds=2,
)


def tiny_run(tmp_path: Path, traced: bool, calls_class=Calls, seed: int = 7) -> Run:
    run = Run(TINY, seed, 0.01, traced, tmp_path, SRC)
    run.calls = calls_class(run.tracer, run.calls.cli_env)
    return run


def test_generator_reproduces_test_graphgen():
    from graphgen import preferential_attachment_graph
    from hubrknn import Graph

    assert Graph.from_edges(inputs.pa_edges(300, 4, 7)) == preferential_attachment_graph(300, 4, 7)
    assert Graph.from_edges(inputs.pa_edges(8000, 12, 1234)).edge_count == 95_864


def test_every_metric_is_emitted_with_its_unit(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER

    run = tiny_run(tmp_path, traced=True)
    end_to_end, per_layer = run.execute()
    assert run.check.failed == 0 and run.check.attempted > 0
    assert set(end_to_end) == set(END_TO_END)
    assert set(per_layer) == set(PER_LAYER)
    assert all(value > 0 for value in end_to_end.values())


def test_host_speed_scales_by_the_probes_around_a_timing():
    speed = HostSpeed()
    speed.times = [i * 0.1 for i in range(200)]
    speed.durations = [REFERENCE_PROBE_S] * 100 + [2 * REFERENCE_PROBE_S] * 100
    assert speed.scaled(2.0, 3.0) == pytest.approx(1.0)
    assert speed.scaled(15.0, 17.0) == pytest.approx(1.0)  # 2 s at half speed

    sparse = HostSpeed()  # too few probes near the timing: the nearest ones
    sparse.times = [0.0, 10.0]
    sparse.durations = [REFERENCE_PROBE_S, 3 * REFERENCE_PROBE_S]
    assert sparse.scaled(0.0, 1.0) == pytest.approx(0.5)


def test_sampling_probes_inside_long_work():
    speed = HostSpeed()
    with speed.sampling() as taken:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(speed.durations) >= 3
    assert 0 < taken[0] < 0.3


class CorruptRknn(Calls):
    def rknn(self, index, labels, q, request):
        distances, scanned = super().rknn(index, labels, q, request)
        return [d + 1 for d in distances], scanned


class CorruptCli(Calls):
    def cli_query(self, *args, **kwargs):
        proc = super().cli_query(*args, **kwargs)
        proc.stdout = proc.stdout.replace("\t", "\t1", 1) or "0\t0\n"
        return proc


@pytest.mark.parametrize("calls_class", [CorruptRknn, CorruptCli])
def test_checker_flags_corrupted_answers(tmp_path, calls_class):
    run = tiny_run(tmp_path, traced=False, calls_class=calls_class)
    run.execute()
    assert run.check.failed > 0


def test_same_seed_gives_identical_counts(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = tiny_run(tmp_path / "a", traced=True)
    second = tiny_run(tmp_path / "b", traced=True)
    counts = [{k: v for k, v in run.execute()[1].items() if k in COUNT_UNITS}
              for run in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["offline.rknn_pairs"] > 0


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn-pa3k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
