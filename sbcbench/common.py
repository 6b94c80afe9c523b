"""Shared helpers: percentiles, host provenance, the host probe, memory.

Nothing here imports the program under test, so the self-tests and the
compare command run without it.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def percentile(values, q):
    """The ``q``-th percentile (0..100) with linear interpolation.

    Same convention as numpy's default: rank ``q/100 * (n - 1)`` in the
    sorted sample, interpolated between its neighbours.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    ordered = sorted(values)
    rank = q / 100 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values):
    return percentile(values, 50)


def geomean(values):
    """Geometric mean of positive numbers."""
    if not values:
        raise ValueError("geometric mean of an empty sample")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _commit():
    """The checkout's commit read from ``.git``, or ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def provenance(seed):
    """Where and on what a result was measured."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 0
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _commit(),
        "seed": seed,
        "platform": sys.platform,
    }


def reset_peak_rss(pid="self"):
    """Reset the kernel's peak-RSS mark (VmHWM) of a process.

    Returns False where the kernel refuses; the peak then also covers
    what ran before the reset.
    """
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb(pid="self"):
    """VmHWM of a process in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported by /proc")


class HostSpeed:
    """How fast the host runs Python right now.

    Between operations a run times a fixed calibration task: mask ANDs
    with popcounts and a set-based degree peel over a fixed random graph,
    the same kinds of work the solvers do, but none of the program's
    code.  The task runs twice with the collector off and the second,
    cache-warm pass counts, so the program's heap and working set do not
    bias it.  It is timed in the calling thread's CPU time: that follows
    the host's speed as wall time does, but leaves out the time the
    thread waits for a CPU, so a server process that keeps every core
    busy cannot lengthen it and divide its own cost out of the figures
    scaled by it.  :meth:`scale` turns a time taken at some moment into
    reference-host time: times the ratio of a reference probe time to
    the median probe time within ``window_s`` of that moment.
    """

    #: Calibration time on the reference host (ms).
    REFERENCE_MS = 1.5

    def __init__(self, window_s=3.0, every_s=0.3):
        #: A time is scaled by the calibrations within ``window_s`` of it;
        #: :meth:`sample` takes one at most every ``every_s``.
        self.window_s = window_s
        self.every_s = every_s
        rng = random.Random(12345)
        n = 700
        adjacency = [set() for _ in range(n)]
        for _ in range(6000):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                adjacency[u].add(v)
                adjacency[v].add(u)
        self._adjacency = adjacency
        self._masks = [sum(1 << w for w in near) for near in adjacency]
        self.samples = []
        self._last = -math.inf

    def _task(self):
        adjacency, masks = self._adjacency, self._masks
        total = 0
        for v in range(0, len(masks), 2):
            mask = masks[v]
            for w in adjacency[v]:
                total += (mask & masks[w]).bit_count()
        degree = {v: len(near) for v, near in enumerate(adjacency)}
        for v in range(0, len(adjacency), 3):
            for w in adjacency[v]:
                degree[w] -= 1
        return total

    def probe_ms(self, best_of=1):
        """Time of the calibration task in ms (the best of ``best_of``).

        It runs no program code, so a shift in this number between runs
        is the host's, not the program's."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._task()
            best = math.inf
            for _ in range(best_of):
                start = time.thread_time()
                self._task()
                best = min(best, time.thread_time() - start)
            return best * 1000.0
        finally:
            if enabled:
                gc.enable()

    def sample(self):
        """Take a calibration sample if none was taken lately."""
        now = time.perf_counter()
        if now - self._last >= self.every_s:
            self.samples.append((now, self.probe_ms()))
            self._last = time.perf_counter()

    def setup_s(self, steps, repeats=3):
        """Set-up time of ``steps``, in reference-host seconds.

        Each step is a callable that prepares its input untimed and
        returns the zero-argument call to time.  The steps run
        ``repeats`` times, interleaved, so that a slow spell of the host
        hits one sample of a step rather than all of them.  Returns the
        sum over the steps of each step's median, and the results of the
        last repetition.
        """
        timings = [[] for _ in steps]
        results = [None] * len(steps)
        self.calibrate()
        for _ in range(repeats):
            for i, step in enumerate(steps):
                call = step()
                self.sample()
                start = time.perf_counter()
                results[i] = call()
                timings[i].append((time.perf_counter() - start, start))
        self.calibrate()
        total = sum(median([self.scale(*t) for t in step_timings])
                    for step_timings in timings)
        return total, results

    def calibrate(self, count=5):
        """Take ``count`` samples now: around a set-up, which is too
        short for the samples taken between operations."""
        for _ in range(count):
            self.samples.append((time.perf_counter(), self.probe_ms()))
        self._last = time.perf_counter()

    def scale(self, value, at):
        """``value`` measured at ``at`` in reference-host terms."""
        near = [ms for t, ms in self.samples
                if abs(t - at) <= self.window_s]
        if not near:
            near = [ms for _t, ms in self.samples]
        return value * self.REFERENCE_MS / median(near)
