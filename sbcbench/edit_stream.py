"""Workload ``edit_stream``: one closed-loop caller editing residents.

Ten resident ``DynamicSolver``s hold seeded draws of stand-in
recipes.  Each operation applies one edit to one resident and calls
``solve()``; every tenth operation on a resident also calls ``beta()``.
This writes beside reads: the dichromatic and kernel code runs only for
dirty egos, so a change that taxes edit bookkeeping or bound refresh
shows here and nowhere else.
"""

from __future__ import annotations

import functools
import gc
import random
import time

import checker
import inputs
from common import HostSpeed, geomean, median, peak_rss_mb, percentile, \
    reset_peak_rss

TAU = 3
BETA_EVERY = 10
#: Operations per resident whose answers are pinned after the run to
#: optima from both engines, drawn from the seed, on top of the last one;
#: and the same for the operations that called ``beta()``.
PINNED_SOLVES = 1
PINNED_BETAS = 1
#: Operations of a traced run, per resident: a fixed count, so the
#: per-operation counts repeat exactly between runs on one seed.
TRACED_OPS = 30


class Resident:
    """One resident: the solver, its edit stream and the shadow state."""

    def __init__(self, name, seed):
        self.name = name
        graph = inputs.draw(name, inputs.derive(seed, "resident", name))
        self.initial = inputs.signs_of(graph)
        clique, left = inputs.planted(name)
        self.stream = inputs.EditStream(
            dict(self.initial), clique, left,
            inputs.derive(seed, "edits", name))
        self.ops = 0
        self.solver = None
        #: Per operation: the edit, the reported size and beta (or None),
        #: and the problems its witness checks found.
        self.log = []

    def prime(self, graph):
        from repro.dynamic.solver import DynamicSolver

        solver = DynamicSolver(graph, TAU)
        return solver, solver.solve()


def apply(solver, edit):
    kind, u, v, sign = edit
    if kind == "add":
        solver.add_edge(u, v, sign)
    elif kind == "remove":
        solver.remove_edge(u, v)
    else:
        solver.flip_sign(u, v)


def _operation(solver, edit, with_beta):
    """One operation: ``((ms, when), solve result, beta answer)``."""
    start = time.perf_counter()
    apply(solver, edit)
    result = solver.solve()
    beta = solver.beta(return_witness=True) if with_beta else None
    return ((time.perf_counter() - start) * 1000.0, start), result, beta


def _check(resident, result, beta):
    """Witness checks against the live shadow; the values are pinned to
    optima after the run, by :func:`_pin`."""
    signs = resident.stream.signs
    clique = result.clique
    problems = checker.mbc_problems(
        signs, clique.left, clique.right, clique.size, TAU)
    if result.status.value != "optimal":
        problems.append(f"status {result.status.value}")
    if beta is not None:
        value, witness = beta
        problems += checker.pf_problems(
            signs, witness.left, witness.right, value)
    return problems


def _log(resident, edit, result, beta):
    resident.log.append((edit, result.clique.size,
                         None if beta is None else beta[0],
                         _check(resident, result, beta)))


def _sample(rng, indices, k):
    """The last of ``indices`` and ``k`` others drawn by ``rng``."""
    if not indices:
        return set()
    return {indices[-1], *rng.sample(indices[:-1], min(k, len(indices) - 1))}


def _pin(residents, seed, report):
    """Replay each resident's edits on a shadow, pin a seeded sample of
    its operations to optima from both engines, and report every
    operation: a value short of its optimum fails it."""
    for resident in residents:
        log = resident.log
        rng = random.Random(inputs.derive(seed, "pins", resident.name))
        chosen = {
            "mbc": _sample(rng, list(range(len(log))), PINNED_SOLVES),
            "pf": _sample(rng, [i for i, op in enumerate(log)
                                if op[2] is not None], PINNED_BETAS),
        }
        shadow = checker.Shadow(resident.initial)
        for i, (edit, size, beta, problems) in enumerate(log):
            shadow.apply(*edit)
            for problem, value in (("mbc", size), ("pf", beta)):
                if i not in chosen[problem]:
                    continue
                optimum, why = inputs.optimum(shadow.signs, problem, TAU)
                if optimum is None:
                    report.refuse(f"{resident.name} op {i}: {why}")
                elif value != optimum:
                    problems.append(
                        f"{problem} {value} but the optimum is {optimum}")
            report.op("edit", problems, f"{resident.name} op {i}")


def _prime_step(resident):
    """A set-up step: build the graph untimed, prime the resident."""
    return functools.partial(resident.prime, inputs.graph_of(resident.initial))


def run(seed, seconds, report):
    residents = [Resident(name, seed) for name in inputs.RESIDENTS]
    rng = random.Random(inputs.derive(seed, "edit_stream", "order"))
    host = HostSpeed()
    gc.collect()
    reset_peak_rss()
    setup, primed = host.setup_s(
        [functools.partial(_prime_step, r) for r in residents])
    for resident, (solver, result) in zip(residents, primed):
        resident.solver = solver
        report.check(f"{resident.name} primed", checker.mbc_problems(
            resident.initial, result.clique.left, result.clique.right,
            result.clique.size, TAU))
    del primed

    samples = {resident.name: [] for resident in residents}
    with_beta = {resident.name: [] for resident in residents}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        resident = rng.choice(residents)
        resident.ops += 1
        due = resident.ops % BETA_EVERY == 0
        edit = resident.stream.next()
        host.sample()
        timing, result, beta = _operation(resident.solver, edit, due)
        samples[resident.name].append(timing)
        if due:
            with_beta[resident.name].append(timing)
        _log(resident, edit, result, beta)
    host.sample()
    peak = peak_rss_mb()
    _pin(residents, seed, report)
    samples = {name: [host.scale(*t) for t in values]
               for name, values in samples.items()}
    everything = [t for values in samples.values() for t in values]
    return {
        "setup_s": setup,
        "peak_rss_mb": peak,
        "geomean_ms": geomean(
            [median(values) for values in samples.values() if values]),
        "p50_ms": median(everything),
        "tail_ms": percentile(everything, 99),
        "heavy_ms": geomean([median([host.scale(*t) for t in values])
                             for values in with_beta.values() if values]),
    }


def run_traced(seed, tracer, report):
    """The same edits on an untraced and a traced copy of each resident,
    in alternating order, so that neither side always runs second."""
    residents = [Resident(name, seed) for name in inputs.RESIDENTS]
    rng = random.Random(inputs.derive(seed, "edit_stream", "order"))
    host = HostSpeed()
    plain_set = [r.prime(inputs.graph_of(r.initial))[0] for r in residents]
    traced_set = [r.prime(inputs.graph_of(r.initial))[0] for r in residents]
    plain, traced = [], []
    schedule = [i for i in range(len(residents)) for _ in range(TRACED_OPS)]
    rng.shuffle(schedule)
    for step, i in enumerate(schedule):
        resident = residents[i]
        resident.ops += 1
        due = resident.ops % BETA_EVERY == 0
        edit = resident.stream.next()
        host.sample()
        for traced_turn in ((False, True) if step % 2 else (True, False)):
            if not traced_turn:
                plain.append(_operation(plain_set[i], edit, due)[0])
                continue
            tracer.install()
            try:
                with tracer.op("edit"):
                    timing, result, beta = _operation(
                        traced_set[i], edit, due)
            finally:
                tracer.uninstall()
            traced.append(timing)
        _log(resident, edit, result, beta)
    host.sample()
    _pin(residents, seed, report)
    overhead = sum(host.scale(*t) for t in traced) \
        / sum(host.scale(*t) for t in plain) - 1.0
    return {"edit": len(schedule)}, overhead
