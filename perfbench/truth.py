"""BFS ground truth and the answer checker.

Rows come from ``hubrknn.oracle.bfs_distances`` (through ``Calls``), one per
object vertex, computed in set-up. Every check runs outside the timed
regions. ``Checker`` counts each operation attempted and each one that raised
or disagreed with the truth.
"""

from __future__ import annotations

import sys

from calls import INFINITY, Calls


class Checker:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self._fail(f"wrong answer: {what}")

    def error(self, what: str, exc: BaseException) -> None:
        self.attempted += 1
        self._fail(f"raised: {what}: {exc!r}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= 10:
            print(f"perfbench: {message}", file=sys.stderr)


class Truth:
    """Exact RkNN/kNN answers for fixed object sets, from BFS rows.

    ``object_sets`` maps a set id to its (dense) object vertices, in object
    index order; ``ks`` maps the same id to the k values it is queried with.
    """

    def __init__(self, calls: Calls, graph, object_sets: dict, ks: dict):
        vertices = sorted({v for objs in object_sets.values() for v in objs})
        rows = {v: calls.bfs_row(graph, v) for v in vertices}
        self.rows = rows
        self.set_rows = {s: [rows[v] for v in objs] for s, objs in object_sets.items()}
        # The nearest object to p is p itself at 0, so sorted distances from p
        # to all objects hold its k-th nearest other object at position k.
        self.thresholds = {}
        for s, objs in object_sets.items():
            nearest = [sorted(row[v] for v in objs) for row in self.set_rows[s]]
            for k in ks[s]:
                self.thresholds[s, k] = [near[k] for near in nearest]

    def rknn(self, s, k: int, q: int) -> list[int]:
        return [
            row[q] if row[q] <= bound else INFINITY
            for row, bound in zip(self.set_rows[s], self.thresholds[s, k])
        ]

    def knn_ok(self, s, k: int, q: int, answer: list[tuple[int, int]]) -> bool:
        """Right sorted distance list, distinct objects, each at its true distance."""
        rows = self.set_rows[s]
        want = sorted(row[q] for row in rows)[:k]
        return (
            [d for _, d in answer] == want
            and len({i for i, _ in answer}) == len(answer)
            and all(rows[i][q] == d for i, d in answer)
        )

    def distance(self, s: int, t: int) -> int:
        """dist(s, t) for an object vertex s."""
        return self.rows[s][t]


def cli_text(distances: list[int], raw_objects: list[int]) -> str:
    """What ``hubrknn query`` prints for an answer: raw ID and distance per member."""
    return "".join(
        f"{raw}\t{d}\n" for raw, d in zip(raw_objects, distances) if d < INFINITY
    )
