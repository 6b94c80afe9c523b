"""Benchmark entry point.

    python3 sbcbench/run.py --workload solve_static --seed 1 --seconds 22 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with no tracing; ``--trace 1`` runs a fixed, seeded set of
operations under the outside-in layer tracer and reports the per-layer
metrics.  Metric names and units come from ``BENCHMARK.json``.  Every
answer is checked; the last line of standard output is the result
object, and the line before it the full record with provenance and the
per-class operation counts (``compare.py`` reads those records from a
file that standard output was appended to).
"""

from __future__ import annotations

import argparse
import json
import sys

from common import ROOT, SRC, HostSpeed, provenance

WORKLOADS = ("solve_static", "edit_stream", "serve_mixed")


class Report:
    """Operations attempted and failed per class, and check failures."""

    MAX_PROBLEMS = 20

    def __init__(self):
        self.attempted = {}
        self.failed = {}
        self.problems = []
        self.refused = []

    def _note(self, text):
        if len(self.problems) < self.MAX_PROBLEMS:
            self.problems.append(text)

    def op(self, cls, problems, label=""):
        """One measured operation and what its check found."""
        self.attempted[cls] = self.attempted.get(cls, 0) + 1
        if problems:
            self.failed[cls] = self.failed.get(cls, 0) + 1
            self._note(f"{cls} {label}: {'; '.join(problems)}")

    def check(self, label, problems):
        """An unmeasured check (warm-up answers, pinned states)."""
        if problems:
            self.refused.append(f"{label}: {'; '.join(problems)}")

    def refuse(self, why):
        """The pinned optima cannot be trusted."""
        self.refused.append(why)

    @property
    def correct(self):
        return not self.refused and not any(self.failed.values())


def layer_metrics(tracer, class_ops):
    """Per-operation layer figures from the tracer's totals."""
    ops = sum(class_ops.values())
    counts = tracer.counts

    def per_op(value, n=ops):
        return value / n if n else 0.0

    def ms(layer, cls=None):
        n = class_ops.get(cls, 0) if cls else ops
        return per_op(tracer.total_s(layer, cls) * 1000.0, n)

    def share(part, whole):
        return part / whole if whole else 0.0

    kernel_layers = ("kernels.core", "kernels.ordering", "kernels.color",
                     "kernels.bicore")
    metrics = {
        "signed.masks_ms": ms("signed.masks"),
        "signed.fingerprint_ms": ms("signed.fingerprint"),
        "signed.subgraph_ms": ms("signed.subgraph"),
        "reductions.vertex_ms": ms("reductions.vertex"),
        "reductions.polar_ms": ms("reductions.polar"),
        "heuristic.ms": ms("heuristic"),
        "heuristic.optimal_share": share(
            counts.get("heuristic.optimal", 0),
            counts.get("heuristic.mbc_ops", 0)),
        "kernels.core_ms": ms("kernels.core"),
        "kernels.ordering_ms": ms("kernels.ordering"),
        "kernels.color_ms": ms("kernels.color"),
        "kernels.bicore_ms": ms("kernels.bicore"),
        "kernels.calls": per_op(
            sum(tracer.calls(layer) for layer in kernel_layers)),
        "dichromatic.build_calls": per_op(
            tracer.calls("dichromatic.build")),
        "dichromatic.build_ms": ms("dichromatic.build"),
        "dichromatic.build_useful_share": share(
            counts.get("build.useful", 0),
            tracer.calls("dichromatic.build")),
        "dichromatic.mdc_calls": per_op(tracer.calls("dichromatic.mdc")),
        "dichromatic.mdc_ms": ms("dichromatic.mdc"),
        "dichromatic.mdc_nodes": per_op(counts.get("mdc.nodes", 0)),
        "dichromatic.mdc_improved_share": share(
            counts.get("mdc.found", 0), tracer.calls("dichromatic.mdc")),
        "dichromatic.dcc_calls": per_op(tracer.calls("dichromatic.dcc")),
        "dichromatic.dcc_ms": ms("dichromatic.dcc"),
        "dichromatic.dcc_nodes": per_op(counts.get("dcc.nodes", 0)),
        "dichromatic.dcc_found_share": share(
            counts.get("dcc.found", 0), tracer.calls("dichromatic.dcc")),
        "core.self_ms": ms("core"),
        "dynamic.edit_ms": ms("dynamic.edit"),
        "dynamic.solve_ms": ms("dynamic.solve"),
        "dynamic.beta_ms": ms("dynamic.beta"),
        "dynamic.dirty_per_edit": share(
            counts.get("dynamic.dirty", 0), counts.get("dynamic.edits", 0)),
        "dynamic.mdc_per_solve": share(
            counts.get("dynamic.solve_mdc", 0),
            counts.get("dynamic.solves", 0)),
        "dynamic.skip_share": share(
            counts.get("dynamic.skipped", 0),
            counts.get("dynamic.solves", 0)),
        "serve.resolve_ms": ms("serve.resolve"),
        "serve.edits_ms": ms("serve.edits"),
        "serve.cache_ms": ms("serve.cache"),
        "serve.hit_share": share(
            counts.get("cache.hits", 0), counts.get("cache.gets", 0)),
        "trace.coverage_share": tracer.coverage(),
    }
    for cls in ("hit", "cold", "resident"):
        metrics[f"serve.parse_ms.{cls}"] = ms("serve.parse", cls)
        metrics[f"serve.execute_ms.{cls}"] = ms("serve.execute", cls)
        # Client-side figures; only the serve workload measures them.
        metrics[f"serve.wait_ms.{cls}"] = 0.0
    metrics["serve.loop_lag_p99_ms"] = 0.0
    metrics["loadgen.late_p99_ms"] = 0.0
    return metrics


#: Workloads whose root spans the layer spans must nearly cover.
COVERED = {"solve_static": 0.9, "edit_stream": 0.9}


def _check_trace(workload, tracer, values, report):
    """Refuse a traced run whose layer figures cannot be trusted: a layer
    none of whose functions was found, or too little of the operations'
    time inside layer spans."""
    for layer in tracer.missing_layers():
        report.refuse(f"trace: no target of layer {layer} resolved")
    floor = COVERED.get(workload)
    if floor is not None and values["trace.coverage_share"] < floor:
        report.refuse(f"trace: coverage {values['trace.coverage_share']:.3f}"
                      f" below {floor}")


def _declared(trace):
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    declared = _declared(args.trace)

    import edit_stream
    import serve_mixed
    import static_solves
    from layertrace import LayerTracer

    module = {"solve_static": static_solves, "edit_stream": edit_stream,
              "serve_mixed": serve_mixed}[args.workload]
    report = Report()
    host = HostSpeed()
    probe_start = host.probe_ms(best_of=5)
    if args.trace:
        tracer = LayerTracer()
        class_ops, extra = module.run_traced(args.seed, tracer, report)
        if not isinstance(extra, dict):
            extra = {"trace.overhead_share": extra}
        values = layer_metrics(tracer, class_ops)
        values.update(extra)
        _check_trace(args.workload, tracer, values, report)
    else:
        values = module.run(args.seed, args.seconds, report)
    probe_end = host.probe_ms(best_of=5)
    if args.trace:
        values["host.probe_ms"] = (probe_start + probe_end) / 2

    attempted = sum(report.attempted.values())
    failed = sum(report.failed.values())
    if not attempted:
        print("error: no operation was attempted", file=sys.stderr)
        return 5
    missing = set(declared) - set(values)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}",
              file=sys.stderr)
        return 4
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared.items()}
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed),
        "host_probe_ms": {"start": probe_start, "end": probe_end},
        "attempted": report.attempted,
        "failed": report.failed,
        "problems": report.problems,
        "refused": report.refused,
        "unresolved": tracer.unresolved if args.trace else [],
        "correct": report.correct,
        "metrics": metrics,
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": report.correct,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
