"""Benchmark of the hubrknn pipeline: build, offline phase, online queries, CLI.

Run from the repository root:

    python3 perfbench/run.py --workload build-pa8k --seed 1234 --seconds 20 --trace 0

Prints every metric by name with its unit, then, as the last line, a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). Without ``--workload`` it runs every workload, each in its
own process, and ends with one JSON line whose metric names are prefixed by
the workload. Timings are at the reference host speed (see ``hostspeed.py``);
the wall-time figures are printed as a comment. Exits 1 if any answer
disagrees with BFS ground truth and 2 if the package source is not found.
Results (and the spans of traced runs) are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; default: all, one process each")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "hubrknn" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'hubrknn'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload is None:
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    return run_one(WORKLOADS[args.workload], args)


def run_one(workload, args) -> int:
    import hubrknn
    from workloads import END_TO_END, PER_LAYER, Run

    if Path(hubrknn.__file__).resolve().parent != SRC / "hubrknn":
        print(f"perfbench: imported hubrknn from {hubrknn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        run = Run(workload, args.seed, args.seconds, bool(args.trace), workdir, SRC)
        end_to_end, per_layer = run.execute()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    units = PER_LAYER if args.trace else END_TO_END
    values = per_layer if args.trace else end_to_end
    check = run.check
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as f:
        json.dump({"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "attempted": check.attempted, "failed": check.failed,
                   "samples": run.sample_counts(), "host_speed": run.speed.summary(),
                   "end_to_end": end_to_end, "end_to_end_wall": run.wall_end_to_end,
                   "per_layer": per_layer}, f, indent=1)
    if args.trace:
        run.tracer.write(OUT / f"trace-{tag}.json", {"workload": workload.name, "seed": args.seed})

    print(f"# {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# samples: {json.dumps(run.sample_counts())}")
    print(f"# host speed: {json.dumps(run.speed.summary())}")
    if not args.trace:
        wall = run.wall_end_to_end
        print("# wall time: " + ", ".join(
            f"{name} {wall[name]:.6g}" for name, unit in units.items() if unit in ("s", "us", "1/s")))
    for name, unit in units.items():
        print(f"{name}\t{values[name]:.6g}\t{unit}")
    print(f"ops\t{check.attempted}\tcount")
    print(f"ops_failed\t{check.failed}\tcount")
    correct = check.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


def run_all(names: list[str], args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        print(f"# {name}: {time.perf_counter() - t0:.1f} s wall, exit {proc.returncode}")
        worst = max(worst, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            total["correct"] = False
            continue
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))
    return worst


if __name__ == "__main__":
    sys.exit(main())
