"""Tracing overhead: a traced run's end-to-end metrics minus the untraced run's.

Both runs must have been made first, with the same workload and seed:

    python3 perfbench/run.py --workload query-dense-pa3k --seed 1 --trace 0
    python3 perfbench/run.py --workload query-dense-pa3k --seed 1 --trace 1
    python3 perfbench/overhead.py query-dense-pa3k 1
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / ".perfbench_out"


def main(workload: str, seed: str) -> None:
    plain, traced = (
        json.loads((OUT / f"result-{workload}-seed{seed}-trace{t}.json").read_text())["end_to_end"]
        for t in (0, 1)
    )
    print("metric\tuntraced\ttraced\tdifference\tshare")
    for name, base in plain.items():
        diff = traced[name] - base
        print(f"{name}\t{base:.6g}\t{traced[name]:.6g}\t{diff:+.6g}\t{diff / base:+.1%}")


if __name__ == "__main__":
    main(*sys.argv[1:3])
