"""Self-tests of the benchmark itself.

    python3 sbcbench/selftest.py

Checks that the answer checker rejects planted wrong answers, that the
percentile helper is right on known samples, that runs with a wrong
answer planted in them are not reported correct, and that two traced
runs on one seed report identical counts.  The last three run the
program and take a few minutes.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import subprocess
import sys
import unittest

import checker
from common import ROOT, SRC, geomean, percentile

#: A balanced clique {0, 1, 2} | {3, 4} plus a pendant edge.
SIGNS = {
    (0, 1): 1, (0, 2): 1, (1, 2): 1, (3, 4): 1,
    (0, 3): -1, (0, 4): -1, (1, 3): -1, (1, 4): -1, (2, 3): -1,
    (2, 4): -1, (4, 5): 1,
}
LEFT, RIGHT = [0, 1, 2], [3, 4]


class CheckerTest(unittest.TestCase):
    def test_accepts_the_right_answer(self):
        self.assertEqual(
            checker.mbc_problems(SIGNS, LEFT, RIGHT, 5, 2, 5), [])
        self.assertEqual(checker.pf_problems(SIGNS, LEFT, RIGHT, 2, 2), [])

    def test_rejects_a_dropped_vertex(self):
        self.assertTrue(
            checker.mbc_problems(SIGNS, LEFT[:-1], RIGHT, 5, 2, 5))
        self.assertTrue(checker.pf_problems(SIGNS, LEFT, RIGHT[:-1], 2, 2))

    def test_rejects_a_vertex_on_the_wrong_side(self):
        self.assertTrue(checker.mbc_problems(
            SIGNS, [0, 1], [2, 3, 4], 5, 2, 5))

    def test_rejects_a_negative_edge_inside_a_side(self):
        signs = dict(SIGNS)
        signs[(0, 1)] = -1
        self.assertTrue(checker.mbc_problems(signs, LEFT, RIGHT, 5, 2, 5))

    def test_rejects_a_missing_edge(self):
        signs = dict(SIGNS)
        del signs[(1, 2)]
        self.assertTrue(checker.mbc_problems(signs, LEFT, RIGHT, 5, 2, 5))

    def test_rejects_a_size_off_by_one(self):
        self.assertTrue(checker.mbc_problems(SIGNS, LEFT, RIGHT, 6, 2, 5))
        self.assertTrue(checker.mbc_problems(SIGNS, LEFT, RIGHT, 5, 2, 6))
        self.assertTrue(checker.pf_problems(SIGNS, LEFT, RIGHT, 3, 2))
        self.assertTrue(checker.pf_problems(SIGNS, LEFT, RIGHT, 2, 1))

    def test_rejects_a_side_below_tau(self):
        self.assertTrue(checker.mbc_problems(SIGNS, LEFT, RIGHT, 5, 3, 5))

    def test_shadow_replays_edits(self):
        shadow = checker.Shadow(SIGNS)
        shadow.apply("flip", 4, 5)
        shadow.apply("remove", 0, 1)
        shadow.apply("add", 1, 0, 1)
        self.assertEqual(shadow.signs[(4, 5)], -1)
        self.assertEqual(shadow.signs[(0, 1)], 1)
        with self.assertRaises(KeyError):
            shadow.apply("remove", 0, 5)


class PercentileTest(unittest.TestCase):
    def test_known_samples(self):
        self.assertEqual(percentile([3, 1, 2], 50), 2)
        self.assertEqual(percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(percentile(list(range(1, 101)), 99), 99.01)
        self.assertEqual(percentile([5], 90), 5)
        self.assertAlmostEqual(percentile([10, 20, 30, 40, 50], 90), 46.0)
        self.assertEqual(percentile([1, 2, 3, 4], 0), 1)
        self.assertEqual(percentile([1, 2, 3, 4], 100), 4)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            percentile([], 50)
        with self.assertRaises(ValueError):
            percentile([1], 101)

    def test_geomean(self):
        self.assertAlmostEqual(geomean([1, 4, 16]), 4.0)


class PlantedAnswerTest(unittest.TestCase):
    """A solver that drops a vertex from every default-engine answer."""

    def test_run_with_a_wrong_answer_is_not_correct(self):
        sys.path.insert(0, str(SRC))
        import static_solves
        module = importlib.import_module("repro.core.mbc_star")
        from repro.core.result import BalancedClique
        from run import Report

        original = module.mbc_star

        def dropping(graph, tau, *args, **kwargs):
            clique = original(graph, tau, *args, **kwargs)
            if kwargs.get("engine", "bitset") != "bitset" or \
                    not clique.left:
                return clique
            return BalancedClique.from_sides(
                set(sorted(clique.left)[1:]), set(clique.right))

        module.mbc_star = dropping
        try:
            report = Report()
            static_solves.run(7, 1.0, report)
        finally:
            module.mbc_star = original
        self.assertFalse(report.correct)
        self.assertTrue(any("set engine" in why for why in report.refused))


class PlantedEditAnswerTest(unittest.TestCase):
    """A resident that answers every other ``solve()`` with a valid but
    smaller clique: only the pinned optima can catch it."""

    def test_edit_run_with_short_answers_is_not_correct(self):
        sys.path.insert(0, str(SRC))
        import edit_stream
        from repro.core.result import BalancedClique
        from repro.dynamic.solver import DynamicSolver
        from run import Report

        original = DynamicSolver.solve
        calls = [0]

        def shrinking(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            calls[0] += 1
            left, right = sorted(result.clique.left), \
                sorted(result.clique.right)
            if calls[0] % 2 or max(len(left), len(right)) <= edit_stream.TAU:
                return result
            if len(left) > len(right):
                left = left[1:]
            else:
                right = right[1:]
            return dataclasses.replace(
                result, clique=BalancedClique.from_sides(left, right))

        DynamicSolver.solve = shrinking
        try:
            report = Report()
            edit_stream.run(7, 1.0, report)
        finally:
            DynamicSolver.solve = original
        self.assertFalse(report.correct)
        self.assertTrue(any("but the optimum is" in problem
                            for problem in report.problems))


class TraceHealthTest(unittest.TestCase):
    def test_a_layer_with_no_resolved_target_refuses_the_run(self):
        sys.path.insert(0, str(SRC))
        import layertrace
        from run import Report, _check_trace

        saved = layertrace.FUNCTIONS
        layertrace.FUNCTIONS = saved + [("repro.nowhere", "gone", "ghost")]
        try:
            tracer = layertrace.LayerTracer()
            tracer.install()
            tracer.uninstall()
            report = Report()
            _check_trace("solve_static", tracer,
                         {"trace.coverage_share": 0.95}, report)
        finally:
            layertrace.FUNCTIONS = saved
        self.assertEqual(tracer.unresolved, ["repro.nowhere:gone"])
        self.assertFalse(report.correct)
        self.assertIn("ghost", report.refused[0])

    def test_low_coverage_refuses_the_run(self):
        import layertrace
        from run import Report, _check_trace

        report = Report()
        _check_trace("edit_stream", layertrace.LayerTracer(),
                     {"trace.coverage_share": 0.5}, report)
        self.assertFalse(report.correct)
        report = Report()
        _check_trace("serve_mixed", layertrace.LayerTracer(),
                     {"trace.coverage_share": 0.5}, report)
        self.assertTrue(report.correct)


def _traced(workload, seed):
    output = subprocess.run(
        [sys.executable, str(ROOT / "sbcbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=ROOT).stdout
    return json.loads(output.strip().splitlines()[-1])["metrics"]


class TracedCountsTest(unittest.TestCase):
    COUNTS = ("kernels.calls", "dichromatic.build_calls",
              "dichromatic.mdc_calls", "dichromatic.dcc_calls",
              "dichromatic.mdc_nodes", "dichromatic.dcc_nodes",
              "dynamic.dirty_per_edit", "dynamic.mdc_per_solve")

    def test_counts_repeat_on_one_seed(self):
        for workload in ("solve_static", "edit_stream"):
            first, second = _traced(workload, 5), _traced(workload, 5)
            for name in self.COUNTS:
                self.assertEqual(first[name]["value"],
                                 second[name]["value"], (workload, name))
            self.assertGreater(first["kernels.calls"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
