"""Host speed probe: scales wall timings to a reference host speed.

On a shared VM the speed of a CPU-bound Python loop flips between a fast
and a slow mode (about 1.5x slower) many times a second, and the share of
slow time drifts over seconds to minutes with what the neighbours run. That
drift moved every timing of a run alike, by more than any regression bound
allows. So the benchmark runs a fixed pure-Python probe between the timed
regions and divides each timing by the host's slowdown around it: the mean
duration of the probes within ``window`` seconds of the timing, over
``REFERENCE_PROBE_S``. A timing so scaled is the time the operation would
take on a host where the probe takes ``REFERENCE_PROBE_S``; a change to the
program moves it as it moves the wall time.

Long timings (set-up, build, a CLI child) are probed from inside as well:
a timer signal runs the probe every ``SAMPLE_PERIOD`` seconds while they
run, and the time the probes take is taken out of the timing. They are
scaled by the probes within ``WINDOW`` of them. Short ones are bracketed by
a probe just before and just after, and scaled by the probes within a small
window: a mode lasts tens of milliseconds, so the probes next to the timed
calls mostly see the mode they ran in, which a mean over seconds does not.

Measured on a 2-vCPU x86 VM (Python 3.11): over 2 s windows, the coefficient
of variation of ``offline_preprocess`` and ``knn_query`` times fell from
0.14-0.15 in wall time to 0.04 scaled by a 1 s window; for ``knn_query`` in
10 ms batches, each bracketed by probes, the 2 s medians and p99s varied
by 0.18 and 0.085 in wall time, 0.048 and 0.065 scaled by a 1 s window, and
0.025 and 0.024 scaled by the bracketing probes.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager
from itertools import accumulate

PROBE_PERIOD = 0.025  # seconds of wall time between probes
SAMPLE_PERIOD = 0.05  # seconds between probes inside a long timed region
WINDOW = 1.0  # default: probes this many seconds either side of a timing scale it
MIN_PROBES = 2  # fewer in the window: scale by the probes nearest the timing
# The probe's median duration on the VM the bounds were set on, so scaled
# timings read close to its wall times.
REFERENCE_PROBE_S = 0.0004

_A = tuple(range(0, 4000, 3))
_B = tuple(range(1, 4000, 2))


def _probe_work() -> int:
    """A merge-join of two sorted lists with dict stores, like a label scan."""
    seen = {}
    i = j = common = 0
    while i < len(_A) and j < len(_B):
        a, b = _A[i], _B[j]
        if a == b:
            common += 1
            seen[a] = common
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return common


class HostSpeed:
    def __init__(self):
        self.times: list[float] = []  # probe midpoints, ascending
        self.durations: list[float] = []
        self._prefix: list[float] | None = None
        self._due = 0.0

    def probe(self) -> None:
        """Time the probe's second run: a first run after other work is slower
        by its cold caches, which probes between timed regions would meet and
        back-to-back probes would not."""
        _probe_work()
        t0 = time.perf_counter()
        _probe_work()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)
        self._prefix = None
        self._due = t1 + PROBE_PERIOD

    def tick(self) -> None:
        """Probe if one is due; call between timed regions."""
        if time.perf_counter() >= self._due:
            self.probe()

    @contextmanager
    def sampling(self):
        """Probe every ``SAMPLE_PERIOD`` seconds from a timer signal, inside work
        too long to tick between. Yields a list whose one item is the time the
        probes have taken so far, to take out of the timing.

        The handler runs between bytecodes of the main thread, or while it
        waits for a child process, which shares its CPU.
        """
        taken = [0.0]

        def handler(signum, frame):
            t0 = time.perf_counter()
            self.probe()
            taken[0] += time.perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        try:
            yield taken
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def slowdown(self, start: float, end: float, window: float = WINDOW) -> float:
        """Mean probe duration around ``[start, end]`` over the reference."""
        if not self.durations:
            self.probe()
        if self._prefix is None:
            self._prefix = [0.0, *accumulate(self.durations)]
        lo = bisect.bisect_left(self.times, start - window)
        hi = bisect.bisect_right(self.times, end + window)
        if hi - lo < MIN_PROBES:
            middle = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(middle - MIN_PROBES // 2, len(self.durations) - MIN_PROBES))
            hi = min(len(self.durations), lo + MIN_PROBES)
        return (self._prefix[hi] - self._prefix[lo]) / (hi - lo) / REFERENCE_PROBE_S

    def scaled(self, start: float, end: float, window: float = WINDOW) -> float:
        """``end - start`` at the reference speed."""
        return (end - start) / self.slowdown(start, end, window)

    def summary(self) -> dict[str, float]:
        return {
            "probes": len(self.durations),
            "median_slowdown": statistics.median(self.durations) / REFERENCE_PROBE_S,
            "mean_slowdown": statistics.fmean(self.durations) / REFERENCE_PROBE_S,
        }
