"""Workload ``solve_static``: one closed-loop caller solving a fixed pool.

Each operation runs ``mbc_star(tau=3)`` or ``pf_star`` on a fresh,
untimed copy of one pool graph.  The pool is the 14 stand-in recipes
drawn under the benchmark seed plus two upscaled draws.  Ego builds,
kernels, MDC/DCC, reductions and the heuristic do almost all the work;
the serve and dynamic layers do none.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import random
import time

import checker
import inputs
from common import HostSpeed, geomean, median, peak_rss_mb, percentile, \
    reset_peak_rss

TAU = 3
PROBLEMS = ("mbc", "pf")


def _host():
    # The host's speed flips between a fast and a slow state within a
    # second or so.  A solve takes 10-300 ms, long enough for each one to
    # be scaled by the calibrations taken right around it.
    return HostSpeed(window_s=0.3, every_s=0.1)


def _solve(problem, graph, engine="bitset"):
    """One solve on default settings; ``(value, left, right)``."""
    from repro.core.mbc_star import mbc_star
    from repro.core.pf import pf_star

    if problem == "mbc":
        clique = mbc_star(graph, TAU) if engine == "bitset" \
            else mbc_star(graph, TAU, engine=engine)
        return clique.size, clique.left, clique.right
    if engine == "bitset":
        beta, witness = pf_star(graph, return_witness=True)
    else:
        beta, witness = pf_star(graph, return_witness=True, engine=engine)
    return beta, witness.left, witness.right


def _problems(problem, signs, answer, pin):
    value, left, right = answer
    if problem == "mbc":
        return checker.mbc_problems(signs, left, right, value, TAU, pin)
    return checker.pf_problems(signs, left, right, value, pin)


class Pool:
    """The pool's edge-list texts, parsed graphs and pinned optima."""

    def __init__(self, seed):
        self.entries = inputs.static_pool(seed)
        self.texts = [inputs.edge_list_text(signs)
                      for _, signs in self.entries]
        self.pairs = [(i, problem) for i in range(len(self.entries))
                      for problem in PROBLEMS]
        self.graphs = self.signs = None
        self.pins = {}

    def parse_steps(self):
        """The program's set-up, one step per edge list to parse."""
        from repro.signed.io import read_edge_list

        def step(text):
            return functools.partial(read_edge_list, io.StringIO(text))

        return [functools.partial(step, text) for text in self.texts]

    def adopt(self, graphs):
        self.graphs = graphs
        # read_edge_list compacts vertex ids, so answers are checked
        # against the parsed graphs' own edges.
        self.signs = [inputs.signs_of(graph) for graph in graphs]

    def label(self, pair):
        return f"{self.entries[pair[0]][0]}/{pair[1]}"

    def heavy(self, pair):
        return pair[0] >= len(self.entries) - len(inputs.UPSCALED)

    def check(self, pair, answer):
        return _problems(pair[1], self.signs[pair[0]], answer,
                         self.pins[pair])

    def warm_up(self, order, host, report):
        """The untimed first round; its answers become the pins."""
        for pair in order:
            answer = _timed(self, pair, host)[1]
            self.pins[pair] = answer[0]
            report.check(self.label(pair), self.check(pair, answer))

    def confirm(self, report):
        """Refuse every pin the reference engine does not reproduce."""
        for pair in self.pairs:
            graph = self.graphs[pair[0]].copy()
            reference = _solve(pair[1], graph, "set")[0]
            if reference != self.pins[pair]:
                report.refuse(
                    f"{self.label(pair)}: default engine "
                    f"{self.pins[pair]} but the set engine {reference}")


def _round_order(pool, rng):
    order = list(pool.pairs)
    rng.shuffle(order)
    return order


def _timed(pool, pair, host, tracer=None):
    """One operation: ``((ms, when), answer)``; the time is scaled to
    the reference host once the run has calibration on both sides.  With
    a ``tracer`` the solve is the root span of the operation."""
    host.sample()
    graph = pool.graphs[pair[0]].copy()
    with tracer.op("solve") if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        answer = _solve(pair[1], graph)
        elapsed = (time.perf_counter() - start) * 1000.0
    return (elapsed, start), answer


def run(seed, seconds, report):
    pool = Pool(seed)
    rng = random.Random(inputs.derive(seed, "static", "order"))
    host = _host()
    gc.collect()
    reset_peak_rss()
    setup, graphs = host.setup_s(pool.parse_steps())
    pool.adopt(graphs)
    pool.warm_up(_round_order(pool, rng), host, report)

    samples = {pair: [] for pair in pool.pairs}
    deadline = time.perf_counter() + seconds
    first = True
    while first or time.perf_counter() < deadline:
        # The first round always completes, so every pair has a sample.
        for pair in _round_order(pool, rng):
            if not first and time.perf_counter() >= deadline:
                break
            elapsed, answer = _timed(pool, pair, host)
            samples[pair].append(elapsed)
            report.op("solve", pool.check(pair, answer), pool.label(pair))
        first = False
    host.sample()
    peak = peak_rss_mb()
    pool.confirm(report)
    samples = {pair: [host.scale(*timing) for timing in values]
               for pair, values in samples.items()}
    medians = {pair: median(values)
               for pair, values in samples.items() if values}
    # Whole rounds only: every pair weighs the same, whatever share of
    # the last round the deadline cut off.
    rounds = min(len(values) for values in samples.values())
    everything = [t for values in samples.values() for t in values[:rounds]]
    return {
        "setup_s": setup,
        "peak_rss_mb": peak,
        "geomean_ms": geomean(list(medians.values())),
        "p50_ms": median(everything),
        "tail_ms": percentile(everything, 90),
        "heavy_ms": geomean(
            [m for pair, m in medians.items() if pool.heavy(pair)]),
    }


def run_traced(seed, tracer, report):
    """Each operation of one round untraced and traced, in alternating
    order, so that neither side always runs on warm caches."""
    pool = Pool(seed)
    rng = random.Random(inputs.derive(seed, "static", "order"))
    host = _host()
    pool.adopt([step()() for step in pool.parse_steps()])
    pool.warm_up(_round_order(pool, rng), host, report)
    order = _round_order(pool, rng)
    plain, traced = [], []
    for i, pair in enumerate(order):
        for traced_turn in ((False, True) if i % 2 else (True, False)):
            if not traced_turn:
                plain.append(_timed(pool, pair, host)[0])
                continue
            tracer.install()
            try:
                timing, answer = _timed(pool, pair, host, tracer)
            finally:
                tracer.uninstall()
            traced.append(timing)
            report.op("solve", pool.check(pair, answer), pool.label(pair))
    host.sample()
    pool.confirm(report)
    overhead = sum(host.scale(*t) for t in traced) \
        / sum(host.scale(*t) for t in plain) - 1.0
    return {"solve": len(order)}, overhead
