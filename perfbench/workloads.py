"""The three workloads and the pipeline each of them runs.

Every run goes through the same stages, so every workload reports every
metric; the workloads differ in graph size, object sets and in how the
measured seconds are shared between stages:

1. set-up (repeated): generate the edge-list file and object sets from the
   workload's graph seed, the query stream from ``--seed``; BFS
   ground-truth rows;
2. build: edge-list file to label file, then load it back (checked);
3. cycles: an object set is preprocessed to an index file, reloaded and
   asked its first RkNN query, then a few more RkNN and kNN queries;
4. serving: closed-loop RkNN and kNN queries, one client, no think time,
   on the first object set's index;
5. cold CLI: ``hubrknn query`` in a fresh interpreter on the files on disk;
6. memory: tracemalloc around loading the label and index files again.

Stages 1 and 2 are fixed work. Stages 3 to 5 are interleaved in rounds and
share ``--seconds`` by the workload's shares, each making at least one full
pass over its object sets, or ``COUNTED_QUERIES`` queries.

Every timing is recorded as its start and end and reported at the reference
host speed (``hostspeed``); the probes that measure the host's speed run
between the timed regions. Queries run in 10 ms batches, each bracketed by
probes that alone scale its calls; set-up, builds and CLI launches are also
probed from inside, by a timer signal.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import statistics
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import inputs
from calls import INFINITY, Calls
from hostspeed import WINDOW, HostSpeed
from spans import Tracer
from truth import Checker, Truth, cli_text

SETUP_REPEATS = 3
STREAM_LENGTH = 50_000  # queries in the seeded stream; a loop that gets to its end wraps
COUNTED_QUERIES = 1000  # the online.* counts are taken over a loop's first queries
# Queries run back to back in batches this long, each bracketed by host
# speed probes; answers are checked after each loop.
SERVE_BATCH_S = 0.01
HL_SAMPLES = 200  # hl_distance pairs checked against BFS after each build
MIN_CLI_LAUNCHES = 3
ROUNDS = 10  # rounds the timed stages are interleaved in
# Probes this many seconds either side of a timing scale it: a query batch
# is scaled by its bracketing probes alone, a cycle by the probes near it.
BATCH_WINDOW = 0.002
CYCLE_WINDOW = 0.05
MIB = 1 << 20
# The graphs and object sets are part of each workload and come from this
# seed; --seed draws the query stream and the hl_distance samples. Object
# sets drawn per --seed moved the kNN p99 by up to +-20% on one graph, more
# than any regression bound allows.
GRAPH_SEED = 1234

# (n, attach) -> (edges, label pairs) the build must give at GRAPH_SEED;
# label construction is deterministic, so a change here is a wrong answer.
REFERENCE_COUNTS = {
    (8000, 12): (95_864, 1_134_953),
    (3000, 12): (35_864, 298_389),
}


@dataclass(frozen=True)
class ObjectSpec:
    density: float  # objects as a share of |V|
    ks: tuple[int, ...]  # each k gets its own index
    ball: float = 1.0  # objects drawn from a BFS ball of this share of |V|; 1.0 = all of V


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why each was chosen."""

    name: str
    n: int
    attach: int
    sets: tuple[ObjectSpec, ...]  # sets[0] with its first k is the serving index
    cycle_share: float  # shares of --seconds for stages 3, 4 (RkNN, kNN) and 5
    rknn_share: float
    knn_share: float
    cli_share: float
    queries_per_set: int  # RkNN and kNN queries after each set's first answer
    builds: int  # timed label builds; any after the first run between rounds


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "build-pa8k",
            n=8000, attach=12, sets=(ObjectSpec(0.01, (8,)),),
            cycle_share=0.15, rknn_share=0.15, knn_share=0.2, cli_share=0.5,
            queries_per_set=4, builds=1,
        ),
        Workload(
            "query-dense-pa3k",
            n=3000, attach=12, sets=(ObjectSpec(0.2, (8,)),),
            cycle_share=0.25, rknn_share=0.4, knn_share=0.15, cli_share=0.2,
            queries_per_set=4, builds=3,
        ),
        Workload(
            "churn-pa3k",
            n=3000, attach=12,
            sets=tuple(
                ObjectSpec(d, (8, 1, 16), ball) for d in (0.2, 0.05, 0.01) for ball in (1.0, 0.3)
            ),
            cycle_share=0.8, rknn_share=0.0, knn_share=0.0, cli_share=0.2,
            queries_per_set=56, builds=3,
        ),
    )
}

# name -> unit, in report order.
END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "preprocess_s": "s",
    "first_answer_s": "s",
    "rknn_p50_us": "us",
    "rknn_p99_us": "us",
    "rknn_qps": "1/s",
    "knn_p50_us": "us",
    "knn_p99_us": "us",
    "cold_query_s": "s",
    "serving_mib": "MiB",
    "peak_rss_mib": "MiB",
}

# Per-layer timings: metric -> (span name, scale); the median self time of the spans.
SPAN_METRICS = {
    "graph.parse_s": ("graph.parse", 1.0),
    "graph.lcc_s": ("graph.lcc", 1.0),
    "graph.order_s": ("graph.order", 1.0),
    "labels.build_s": ("labels.build", 1.0),
    "labels.save_s": ("labels.save", 1.0),
    "labels.load_s": ("labels.load", 1.0),
    "offline.knn_backward_s": ("offline.knn_backward", 1.0),
    "offline.batch_knn_s": ("offline.batch_knn", 1.0),
    "offline.rknn_labels_s": ("offline.rknn_labels", 1.0),
    "offline.save_index_s": ("offline.save_index", 1.0),
    "offline.load_index_s": ("offline.load_index", 1.0),
    "online.rknn_self_us": ("online.rknn", 1e6),
    "online.knn_self_us": ("online.knn", 1e6),
    "cli.interpreter_s": ("cli.interpreter", 1.0),
    "cli.query_s": ("cli.query", 1.0),
}

# Per-layer counts; these repeat exactly for a fixed seed (the memory figures
# up to allocator noise).
COUNT_UNITS = {
    "graph.edges": "count",
    "labels.pairs": "count",
    "labels.file_bytes": "bytes",
    "labels.mib": "MiB",
    "labels.bytes_per_pair": "B/pair",
    "offline.index_mib": "MiB",
    "offline.index_file_bytes": "bytes",
    "offline.knn_backward_pairs": "count",
    "offline.rknn_pairs": "count",
    "offline.to_many_pairs": "count",
    "offline.epsilon": "ratio",
    "online.label_len_mean": "count",
    "online.pairs_scanned_mean": "count",
    "online.members_mean": "count",
    "online.useful_ratio": "ratio",
}

PER_LAYER = {
    **{name: ("us" if name.endswith("_us") else "s") for name in SPAN_METRICS},
    **COUNT_UNITS,
}


def p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100)[98] if len(values) > 1 else values[0]


Interval = tuple[float, float]  # perf_counter start and end of one timing


class Run:
    """One run of one workload; ``execute`` returns (end-to-end, per-layer) metrics."""

    def __init__(self, workload: Workload, seed: int, seconds: float, traced: bool,
                 workdir: Path, src: Path):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer(traced)
        self.speed = HostSpeed()
        cli_env = dict(os.environ, PYTHONPATH=str(src))
        self.calls = Calls(self.tracer, cli_env)
        self.check = Checker()
        self.workdir = workdir
        self.edge_path = workdir / "graph.txt"
        self.label_path = workdir / "graph.labels"
        self.setup_times: list[Interval] = []
        self.build_times: list[Interval] = []
        # Cycles: (object set, k) -> the start, index-file-written and
        # first-answer times of every cycle of that index.
        self.cycles: dict[tuple[int, int], list[tuple[float, float, float]]] = defaultdict(list)
        self.cli_times: list[Interval] = []
        # Query batches ("rknn", "knn"): each batch's start, end and the wall
        # time of every call in it.
        self.batches: dict[str, list[tuple[float, float, list[float]]]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self.online = defaultdict(int)  # sums over the first queries of each query loop
        self.positions = defaultdict(int)  # units (queries for the serving loops) done per stage
        self.cycle_list = [(i, k) for i, spec in enumerate(workload.sets) for k in spec.ks]
        self.next_request = 0

    def execute(self) -> tuple[dict[str, float], dict[str, float]]:
        """Runs on one CPU, with its CLI children: each vCPU of a shared host
        slows down at its own times, so the host speed probes must run where
        the timed work runs."""
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(cpus)})
        try:
            self._setup()
            self._build()
            self._timed_stages()
        finally:
            os.sched_setaffinity(0, cpus)
        self._memory()
        self.wall_end_to_end = self._end_to_end(scaled=False)
        return self._end_to_end(scaled=True), self._per_layer()

    # --- 1. set-up -------------------------------------------------------------

    def _sampled(self, work):
        """``work()`` and its interval, probing the host inside it; the end is
        moved back by the time the probes took."""
        with self.speed.sampling() as taken:
            t0 = time.perf_counter()
            result = work()
            t1 = time.perf_counter()
        return result, (t0, t1 - taken[0])

    def _setup(self) -> None:
        """One set-up; the repeats run between rounds of the timed stages."""
        _, interval = self._sampled(self._make_inputs)
        self.setup_times.append(interval)

    def _make_inputs(self) -> None:
        w, seed, calls = self.w, self.seed, self.calls
        edges = inputs.pa_edges(w.n, w.attach, GRAPH_SEED)
        inputs.write_edge_list(edges, self.edge_path)
        raw_sets = []
        for i, spec in enumerate(w.sets):
            rng = random.Random(f"{GRAPH_SEED}/objects/{i}")
            if spec.ball >= 1.0:
                raw_sets.append(inputs.uniform_objects(w.n, spec.density, rng))
            else:
                raw_sets.append(inputs.ball_objects(edges, w.n, spec.density, spec.ball, rng))
        raw_stream = inputs.query_stream(w.n, STREAM_LENGTH, random.Random(f"{seed}/queries"))

        graph = calls.truth_graph(edges)
        self.truth_graph = graph
        self.objects = [tuple(calls.dense_id(graph, r) for r in raw) for raw in raw_sets]
        self.stream = [calls.dense_id(graph, r) for r in raw_stream]
        self.truth = Truth(
            calls, graph, dict(enumerate(self.objects)),
            {i: spec.ks for i, spec in enumerate(w.sets)},
        )
        rng = random.Random(f"{seed}/hl")
        sources = sorted(self.truth.rows)
        self.hl_pairs = [
            (rng.choice(sources), rng.randrange(w.n)) for _ in range(HL_SAMPLES)
        ]

    # --- 2. build ----------------------------------------------------------------

    def _build(self) -> None:
        calls, check = self.calls, self.check
        (graph, built), interval = self._sampled(
            lambda: calls.build_label_file(self.edge_path, self.label_path, "build"))
        self.build_times.append(interval)
        check.expect(graph == self.truth_graph, "parsed graph differs from the generated one")
        labels = calls.load_labels(self.label_path, "labels-load")
        check.expect(labels == built, "label file does not load back to the built labels")
        del built
        for s, t in self.hl_pairs:
            got = calls.hl_distance(labels, s, t)
            check.expect(got == self.truth.distance(s, t), f"hl_distance({s}, {t}) = {got}")
        self.graph, self.labels = graph, labels
        self.counts["graph.edges"] = calls.edge_count(graph)
        self.counts["labels.pairs"] = calls.label_pairs(labels)
        reference = REFERENCE_COUNTS.get((self.w.n, self.w.attach))
        if reference is not None:
            got = (self.counts["graph.edges"], self.counts["labels.pairs"])
            check.expect(got == reference, f"(edges, label pairs) = {got}, want {reference}")
        self.counts["labels.file_bytes"] = os.path.getsize(self.label_path)

    def _rebuild(self) -> None:
        """Another timed build, between rounds, checked against the first."""
        (_, labels), interval = self._sampled(
            lambda: self.calls.build_label_file(self.edge_path, self.label_path, "rebuild"))
        self.build_times.append(interval)
        self.check.expect(labels == self.labels, "a further build gave other labels")

    # --- 3-5. timed stages, interleaved in rounds -------------------------------

    def _timed_stages(self) -> None:
        """Run stages 3-5 in rounds, each stage taking its share of every round.

        The stages are interleaved rather than run one after another, and
        every metric is a median (or percentile) over all of its timings, so
        each spans the whole run. The set-up repeats and the further builds
        run between rounds. Rounds go on past ``seconds`` until each stage
        has made one full pass.
        """
        w = self.w
        stages = [
            (share, unit)
            for share, unit in (
                (w.cycle_share, self._next_cycle),
                (w.rknn_share, self._next_rknn),
                (w.knn_share, self._next_knn),
                (w.cli_share, self._next_cli),
            )
            if share > 0
        ]
        between = (
            [self._setup] + [self._rebuild] * (w.builds - 1) + [self._setup] * (SETUP_REPEATS - 2)
        )
        after_round = {ROUNDS * (j + 1) // (len(between) + 1): f for j, f in enumerate(between)}
        spent = [0.0] * len(stages)
        round_s = self.seconds / ROUNDS
        done = 0
        while done < ROUNDS or not self._first_passes_done():
            done += 1
            if done - 1 in after_round:
                after_round[done - 1]()
            for i, (share, unit) in enumerate(stages):
                due = share * round_s * done
                while spent[i] < due:
                    t0 = time.perf_counter()
                    unit()
                    spent[i] += time.perf_counter() - t0
                    self.speed.tick()
        # Cycles end with a whole pass, so every index gets as many queries
        # as the others in every run.
        while self.positions["cycle"] % len(self.cycle_list):
            self._next_cycle()

    def _first_passes_done(self) -> bool:
        w = self.w
        return (
            self.positions["cycle"] >= len(self.cycle_list)
            and (w.rknn_share <= 0 or self.positions["rknn"] >= COUNTED_QUERIES)
            and (w.knn_share <= 0 or self.positions["knn"] >= COUNTED_QUERIES)
            and self.positions["cli"] >= MIN_CLI_LAUNCHES
        )

    def _advance(self, stage: str, count: int = 1) -> int:
        pos = self.positions[stage]
        self.positions[stage] = pos + count
        return pos

    def _queries(self, stage: str, count: int) -> list[int]:
        """The next ``count`` query vertices of a stage's walk through the stream."""
        pos = self._advance(stage, count)
        return [self.stream[(pos + j) % STREAM_LENGTH] for j in range(count)]

    def _next_cycle(self) -> None:
        """A new object set to its first answer, then a few more queries on it."""
        calls, labels = self.calls, self.labels
        pos = self._advance("cycle")
        s, k = self.cycle_list[pos % len(self.cycle_list)]
        first = pos < len(self.cycle_list)
        request = f"cycle{pos}-set{s}-k{k}"
        path = self.workdir / f"index-{s}-{k}.bin"
        qs = self._queries("cycle-queries", self.w.queries_per_set + 1)
        q = qs[0]
        self.speed.probe()
        try:
            t0 = time.perf_counter()
            index = calls.preprocess_to_file(labels, self.objects[s], k, path, request)
            t1 = time.perf_counter()
            loaded = calls.load_index(path, labels, request)
            distances, _ = calls.rknn(loaded, labels, q, request)
            t2 = time.perf_counter()
        except Exception as exc:  # counted as a failed operation; the run goes on
            self.check.error(request, exc)
            return
        self.cycles[s, k].append((t0, t1, t2))
        self.check.expect(distances == self.truth.rknn(s, k, q), f"{request} first answer")
        if first:
            for name, value in calls.offline_counts(index, labels).items():
                self.counts["offline." + name] += value
            self.counts["offline.sets"] += 1
        if pos == 0:
            self.serving = (index, loaded, path)
        self._rknn_loop(loaded, s, k, qs[1:], len(qs) if first else 0)
        self._knn_loop(index, s, k, qs[1:])

    def _walk(self, stage: str):
        """A stage's walk through the stream, one query vertex at a time."""
        while True:
            yield self.stream[self._advance(stage) % STREAM_LENGTH]

    def _next_rknn(self) -> None:
        counted = max(0, COUNTED_QUERIES - self.positions["rknn"])
        _, loaded, _ = self.serving
        self._rknn_loop(loaded, 0, self.w.sets[0].ks[0], self._walk("rknn"), counted,
                        one_batch=True)

    def _next_knn(self) -> None:
        index, _, _ = self.serving
        self._knn_loop(index, 0, self.w.sets[0].ks[0], self._walk("knn"), one_batch=True)

    def _request(self) -> str:
        self.next_request += 1
        return f"q{self.next_request}"

    def _serve(self, kind: str, call, qs, one_batch: bool) -> list:
        """Closed loop, one client, no think time: ``call(q, request)`` for each q,
        in batches of ``SERVE_BATCH_S`` seconds, until ``qs`` ends, or after
        one batch.

        Each batch is bracketed by host speed probes. Records each batch's
        interval and every call's wall time; returns
        ``(q, request, answer or exception)`` for checking after the loop.
        """
        results = []
        qs = iter(qs)
        more = True
        while more:
            durations = []
            self.speed.probe()
            start = t1 = time.perf_counter()
            more = False
            for q in qs:
                request = self._request()
                t0 = time.perf_counter()
                try:
                    answer = call(q, request)
                    t1 = time.perf_counter()
                    durations.append(t1 - t0)
                except Exception as exc:  # checked below, as a failed operation
                    answer = exc
                    t1 = time.perf_counter()
                results.append((q, request, answer))
                if t1 - start >= SERVE_BATCH_S:
                    more = not one_batch
                    break
            self.batches[kind].append((start, t1, durations))
            self.speed.probe()
        return results

    def _rknn_loop(self, index, s: int, k: int, qs, counted: int, one_batch: bool = False) -> None:
        """RkNN queries, checked; the first ``counted`` go into the online.* counts."""
        calls, labels, check = self.calls, self.labels, self.check
        results = self._serve(
            "rknn", lambda q, request: calls.rknn(index, labels, q, request), qs, one_batch)
        for i, (q, request, answer) in enumerate(results):
            if isinstance(answer, Exception):
                check.error(request, answer)
                continue
            distances, scanned = answer
            check.expect(distances == self.truth.rknn(s, k, q), f"rknn set {s} k={k} q={q}")
            if i < counted:
                online = self.online
                online["queries"] += 1
                online["label_len"] += calls.label_len(labels, q)
                online["scanned"] += scanned
                online["members"] += sum(1 for d in distances if d < INFINITY)

    def _knn_loop(self, index, s: int, k: int, qs, one_batch: bool = False) -> None:
        calls, labels, check = self.calls, self.labels, self.check
        results = self._serve(
            "knn", lambda q, request: calls.knn(index, labels, q, request), qs, one_batch)
        for q, request, answer in results:
            if isinstance(answer, Exception):
                check.error(request, answer)
            else:
                check.expect(self.truth.knn_ok(s, k, q, answer), f"knn set {s} k={k} q={q}")

    # --- 5. cold CLI ---------------------------------------------------------------

    def _next_cli(self) -> None:
        """A bare interpreter launch, then ``hubrknn query`` on the serving index."""
        calls, check = self.calls, self.check
        pos = self._advance("cli")
        _, loaded, index_path = self.serving
        k = self.w.sets[0].ks[0]
        request = f"cli{pos}"
        q = self.stream[pos % STREAM_LENGTH]
        raw_q = calls.raw_id(self.graph, q)
        bare = calls.cli_interpreter(request)
        check.expect(bare.returncode == 0, f"{request}: import failed: {bare.stderr[-300:]}")
        self.speed.tick()
        proc, interval = self._sampled(
            lambda: calls.cli_query(self.edge_path, self.label_path, index_path, raw_q, request))
        self.speed.tick()
        distances, _ = calls.rknn(loaded, self.labels, q, request)
        raw_objects = [calls.raw_id(self.graph, v) for v in calls.object_vertices(loaded)]
        check.expect(
            proc.returncode == 0
            and distances == self.truth.rknn(0, k, q)
            and proc.stdout == cli_text(distances, raw_objects),
            f"{request}: query --vertex {raw_q}: exit {proc.returncode} {proc.stderr[-300:]!r}",
        )
        self.cli_times.append(interval)

    # --- 6. memory -----------------------------------------------------------------

    def _memory(self) -> None:
        """Bytes retained by a freshly loaded LabelSet and OfflineIndex."""
        calls = Calls(Tracer(False))
        _, _, index_path = self.serving
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            labels = calls.load_labels(self.label_path)
            mid = tracemalloc.get_traced_memory()[0]
            index = calls.load_index(index_path, labels, "memory")
            end = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del labels, index
        self.counts["labels.mib"] = (mid - base) / MIB
        self.counts["labels.bytes_per_pair"] = (mid - base) / self.counts["labels.pairs"]
        self.counts["offline.index_mib"] = (end - mid) / MIB
        self.counts["offline.index_file_bytes"] = os.path.getsize(index_path)
        self.serving_mib = (end - base) / MIB

    # --- metrics -------------------------------------------------------------------

    def _end_to_end(self, scaled: bool) -> dict[str, float]:
        """The end-to-end metrics, at the reference speed or in wall time."""

        def slowdown(a: float, b: float, window: float) -> float:
            return self.speed.slowdown(a, b, window) if scaled else 1.0

        def median(intervals: list[Interval], window: float = WINDOW) -> float:
            return statistics.median([(b - a) / slowdown(a, b, window) for a, b in intervals])

        def per_index(end: int) -> float:
            """Geometric mean over the indexes of each one's median time from
            the cycle's start to its time ``end``: the indexes weigh alike,
            though their costs differ up to 45-fold. Both cycle timings are
            scaled by the probes around the whole cycle."""
            return statistics.geometric_mean([
                statistics.median(
                    [(c[end] - c[0]) / slowdown(c[0], c[2], CYCLE_WINDOW) for c in cycles])
                for cycles in self.cycles.values()
            ])

        def latencies(kind: str) -> list[float]:
            out = []
            for a, b, durations in self.batches[kind]:
                scale = 1e6 / slowdown(a, b, BATCH_WINDOW)
                out += [d * scale for d in durations]
            return out

        rknn, knn = latencies("rknn"), latencies("knn")
        rknn_seconds = sum((b - a) / slowdown(a, b, BATCH_WINDOW)
                           for a, b, _ in self.batches["rknn"])
        return {
            "setup_s": median(self.setup_times),
            "build_s": median(self.build_times),
            "preprocess_s": per_index(1),
            "first_answer_s": per_index(2),
            "rknn_p50_us": statistics.median(rknn),
            "rknn_p99_us": p99(rknn),
            "rknn_qps": len(rknn) / rknn_seconds,
            "knn_p50_us": statistics.median(knn),
            "knn_p99_us": p99(knn),
            "cold_query_s": median(self.cli_times),
            "serving_mib": self.serving_mib,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def _per_layer(self) -> dict[str, float]:
        out: dict[str, float] = {}
        self_times = self.tracer.self_times()
        slowdown = self.speed.slowdown
        for metric, (span, scale) in SPAN_METRICS.items():
            if self_times.get(span):
                scaled = [t / slowdown(a, b) for a, b, t in self_times[span]]
                out[metric] = statistics.median(scaled) * scale
        counts, online = self.counts, self.online
        for name in COUNT_UNITS:
            if name in counts:
                out[name] = counts[name]
        out["offline.epsilon"] = counts["offline.epsilon"] / counts["offline.sets"]
        queries = online["queries"]
        out["online.label_len_mean"] = online["label_len"] / queries
        out["online.pairs_scanned_mean"] = online["scanned"] / queries
        out["online.members_mean"] = online["members"] / queries
        out["online.useful_ratio"] = online["members"] / max(online["scanned"], 1)
        return out

    def sample_counts(self) -> dict[str, int]:
        """How many timings each end-to-end timing metric is taken over."""
        return {"setup_s": len(self.setup_times), "build_s": len(self.build_times),
                **dict.fromkeys(("preprocess_s", "first_answer_s"),
                                sum(map(len, self.cycles.values()))),
                "cold_query_s": len(self.cli_times),
                **{f"{kind}_us": sum(len(d) for _, _, d in self.batches[kind])
                   for kind in ("rknn", "knn")}}
