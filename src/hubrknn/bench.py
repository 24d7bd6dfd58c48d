"""Sweep harness: seeded object sets, offline/online timing, CSV records.

A sweep walks a (density, k, ball) grid. For every grid point it draws
``sets_per_point`` object sets, runs the offline phase per set, fires
``queries_per_set`` random reverse-kNN queries per set, and aggregates one
CSV record. All randomness is derived from the configured seed, so two runs
emit identical rows except for the wall-clock columns.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import math
import random
import statistics
import time
from dataclasses import astuple, dataclass, fields
from typing import IO

from .errors import ConfigError
from .graph import Graph
from .labels import INFINITY, LabelSet
from .offline import ObjectSet, index_stats, offline_preprocess, rknn_query
from .oracle import bfs_distances

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SweepConfig:
    densities: tuple[float, ...]
    ks: tuple[int, ...]
    balls: tuple[float, ...] = (1.0,)
    sets_per_point: int = 100
    queries_per_set: int = 100
    seed: int = 0

    def __post_init__(self):
        for d in self.densities:
            if not 0 < d <= 1:
                raise ConfigError(f"density {d} outside (0, 1]")
        for b in self.balls:
            if not 0 < b <= 1:
                raise ConfigError(f"ball fraction {b} outside (0, 1]")
        for k in self.ks:
            if k < 1:
                raise ConfigError(f"k must be >= 1, got {k}")
        if self.sets_per_point < 1 or self.queries_per_set < 1:
            raise ConfigError("sets_per_point and queries_per_set must be positive")


@dataclass
class SweepRecord:
    graph: str
    density: float
    k: int
    ball: float
    object_count: int
    sets: int
    queries: int
    knn_backward_ms: float  # per-set means
    batch_knn_ms: float
    rknn_labels_ms: float
    offline_total_ms: float
    online_mean_ms: float
    online_median_ms: float
    epsilon: float
    knn_backward_pairs: float
    knn_result_pairs: float
    rknn_pairs: float
    to_many_pairs: float
    model_bytes: float  # index_stats' 5-bytes-per-pair model
    pairs_scanned_mean: float

    def row(self) -> list:
        return list(astuple(self))


CSV_COLUMNS = [f.name for f in fields(SweepRecord)]


def _ceil_count(fraction: float, n: int) -> int:
    # round() first so 0.1 * 40 = 4.000000000000001 still ceils to 4
    return math.ceil(round(fraction * n, 9))


def _cell_seed(seed: int, *parts) -> int:
    """Stable per-cell seed so skipped grid points never shift later draws."""
    key = repr((seed,) + parts).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "little")


def generate_random_objects(graph: Graph, density: float, seed: int) -> ObjectSet:
    """Uniform sample (without replacement) of ceil(density * |V|) vertices."""
    size = _ceil_count(density, graph.vertex_count)
    if size < 2:
        raise ConfigError(f"density {density} yields {size} objects; need at least 2")
    rng = random.Random(seed)
    return ObjectSet(tuple(sorted(rng.sample(range(graph.vertex_count), size))))


def generate_ball_objects(
    graph: Graph, density: float, ball: float, seed: int
) -> ObjectSet:
    """Objects drawn from a BFS ball around a random root.

    The ball is the first ceil(ball * |V|) vertices a BFS from the root
    reaches, ordered by (distance, vertex ID), so its last level is cut by
    ascending vertex ID. The object set is then a uniform subset of the
    ball of size ceil(density * |V|).
    """
    n = graph.vertex_count
    ball_size = _ceil_count(ball, n)
    size = _ceil_count(density, n)
    if size < 2:
        raise ConfigError(f"density {density} yields {size} objects; need at least 2")
    if ball_size < size:
        raise ConfigError(
            f"ball of {ball_size} vertices cannot hold {size} objects"
        )
    rng = random.Random(seed)
    root = rng.randrange(n)
    dist = bfs_distances(graph, root).dist
    reached = n - dist.count(INFINITY)
    if reached < ball_size:
        raise ConfigError(
            f"BFS from root {root} reached only {reached} of "
            f"{ball_size} requested ball vertices"
        )
    # stable sort: the first ball_size vertices by (distance, vertex ID)
    members = sorted(sorted(range(n), key=dist.__getitem__)[:ball_size])
    return ObjectSet(tuple(sorted(rng.sample(members, size))))


def run_sweep(
    graph: Graph,
    labels: LabelSet,
    config: SweepConfig,
    sink: IO[str] | None = None,
    graph_name: str = "graph",
) -> list[SweepRecord]:
    """Walk the grid and emit one SweepRecord (and CSV row) per point.

    Infeasible points (object set smaller than k+1, or ball smaller than the
    object set) are skipped with a warning. Label construction time is not
    part of any record; build the labels beforehand.
    """
    n = graph.vertex_count
    writer = None
    if sink is not None:
        writer = csv.writer(sink)
        writer.writerow(CSV_COLUMNS)

    records: list[SweepRecord] = []
    for density in config.densities:
        for k in config.ks:
            for ball in config.balls:
                size = _ceil_count(density, n)
                if size < k + 1:
                    log.warning(
                        "skipping D=%s k=%d B=%s: %d objects < k+1", density, k, ball, size
                    )
                    continue
                if ball < 1.0 and _ceil_count(ball, n) < size:
                    log.warning(
                        "skipping D=%s k=%d B=%s: ball too small", density, k, ball
                    )
                    continue
                record = _run_point(graph, labels, config, density, k, ball, graph_name)
                records.append(record)
                if writer is not None:
                    writer.writerow(record.row())
    return records


def _run_point(
    graph: Graph,
    labels: LabelSet,
    config: SweepConfig,
    density: float,
    k: int,
    ball: float,
    graph_name: str,
) -> SweepRecord:
    n = graph.vertex_count
    sub_times = [0.0, 0.0, 0.0]
    online_ms: list[float] = []
    scanned: list[int] = []
    stats: list[dict[str, float]] = []

    for s in range(config.sets_per_point):
        oseed = _cell_seed(config.seed, density, k, ball, s, "objects")
        if ball >= 1.0:
            objects = generate_random_objects(graph, density, oseed)
        else:
            objects = generate_ball_objects(graph, density, ball, oseed)

        index = offline_preprocess(labels, objects, k)
        sub_times[0] += index.timings.knn_backward_s
        sub_times[1] += index.timings.batch_knn_s
        sub_times[2] += index.timings.rknn_labels_s
        stats.append(index_stats(index))

        qrng = random.Random(_cell_seed(config.seed, density, k, ball, s, "queries"))
        for _ in range(config.queries_per_set):
            q = qrng.randrange(n)
            t0 = time.perf_counter()
            answer = rknn_query(index, labels, q)
            online_ms.append((time.perf_counter() - t0) * 1e3)
            scanned.append(answer.pairs_scanned)

    sets = config.sets_per_point
    return SweepRecord(
        graph=graph_name,
        density=density,
        k=k,
        ball=ball,
        object_count=_ceil_count(density, n),
        sets=sets,
        queries=config.queries_per_set,
        knn_backward_ms=1e3 * sub_times[0] / sets,
        batch_knn_ms=1e3 * sub_times[1] / sets,
        rknn_labels_ms=1e3 * sub_times[2] / sets,
        offline_total_ms=1e3 * sum(sub_times) / sets,
        online_mean_ms=statistics.mean(online_ms),
        online_median_ms=statistics.median(online_ms),
        pairs_scanned_mean=statistics.mean(scanned),
        # per-set means; float() because the mean of ints can be an int
        **{name: float(statistics.mean(st[name] for st in stats)) for name in stats[0]},
    )
