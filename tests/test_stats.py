"""Tests for the SearchStats instrumentation."""

import pytest

from repro.core.mbc_star import mbc_star
from repro.core.pf import pf_star
from repro.core.stats import SearchStats
from repro.datasets.registry import load


class TestSearchStats:
    def test_defaults(self):
        stats = SearchStats()
        assert stats.instances == 0
        assert stats.sr1 is None
        assert stats.sr2 is None

    def test_record_reduction(self):
        stats = SearchStats()
        stats.record_reduction(100, 50, 20)
        assert stats.sr1 == pytest.approx(0.5)
        assert stats.sr2 == pytest.approx(0.8)

    def test_record_skips_empty_ego(self):
        stats = SearchStats()
        stats.record_reduction(0, 0, 0)
        assert stats.sr1 is None

    def test_averaging(self):
        stats = SearchStats()
        stats.record_reduction(100, 50, 50)   # SR1 = 0.5
        stats.record_reduction(100, 100, 100)  # SR1 = 0.0
        assert stats.sr1 == pytest.approx(0.25)

    def test_merge(self):
        a = SearchStats(instances=2, nodes=10)
        a.record_reduction(10, 5, 5)
        b = SearchStats(instances=3, nodes=7)
        b.record_reduction(10, 10, 10)
        a.merge(b)
        assert a.instances == 5
        assert a.nodes == 17
        assert len(a.sr1_samples) == 2

    def test_merge_keeps_max_heuristic_and_chains(self):
        a = SearchStats(heuristic_size=6)
        b = SearchStats(heuristic_size=4, vertices_examined=3)
        c = SearchStats(heuristic_size=9, vertices_examined=2)
        result = a.merge(b).merge(c)
        assert result is a
        assert a.heuristic_size == 9
        assert a.vertices_examined == 5

    def test_merged_folds_worker_reports(self):
        runs = []
        for i in range(4):
            run = SearchStats(instances=i, nodes=i * 10)
            run.record_reduction(100, 100 - i, 90 - i)
            runs.append(run)
        total = SearchStats.merged(runs)
        assert total.instances == sum(range(4))
        assert total.nodes == sum(i * 10 for i in range(4))
        assert len(total.sr1_samples) == 4
        assert SearchStats.merged([]).instances == 0

    def test_merge_on_identity_doubles(self):
        # Guard against aliasing: merging a stats object into a fresh
        # accumulator must not mutate the source's sample lists.
        source = SearchStats(instances=1)
        source.record_reduction(10, 5, 5)
        total = SearchStats()
        total.merge(source)
        total.merge(source)
        assert total.instances == 2
        assert len(total.sr1_samples) == 2
        assert len(source.sr1_samples) == 1


#: Bitset ``SearchStats`` of MBC* (tau=3) and PF* on two stand-ins at
#: full scale.  The SR1 samples are defined on the *unpeeled* network
#: g_u, so a sweep that peels before it builds must still report these
#: figures exactly; samples are pinned to six decimals.
GOLDEN_STATS = {
    ("bitcoin", "mbc"): (
        12, 161,
        [0.392857, 0.418182, 0.484375, 0.426667, 0.547945, 0.457447,
         0.485714, 0.295455, 0.277778, 0.268293, 0.170213, 0.140351],
        [0.5, 0.418182, 0.484375, 0.426667, 0.589041, 0.489362,
         0.714286, 0.386364, 0.416667, 0.317073, 0.234043, 0.210526]),
    ("bitcoin", "pf"): (
        3, 152,
        [0.0, 0.397059, 0.342246],
        [0.0, 0.794118, 0.807487]),
    ("referendum", "mbc"): (
        12, 236,
        [0.210526, 0.148148, 0.48, 0.25, 0.307692, 0.25, 0.197674,
         0.153846, 0.090909, 0.064815, 0.009346, 0.030769],
        [0.333333, 0.222222, 0.58, 0.461538, 0.446154, 0.407895,
         0.360465, 0.274725, 0.212121, 0.157407, 0.018692, 0.076923]),
    ("referendum", "pf"): (
        3, 226,
        [0.4, 0.410628, 0.417285],
        [0.485714, 0.972947, 0.980912]),
}


class TestGoldenBitsetStats:
    @pytest.mark.parametrize("key", sorted(GOLDEN_STATS))
    def test_table_iv_counters(self, key):
        name, problem = key
        graph = load(name, 1.0)
        stats = SearchStats()
        if problem == "mbc":
            mbc_star(graph, 3, stats=stats, engine="bitset")
        else:
            pf_star(graph, stats=stats, engine="bitset")
        instances, examined, sr1, sr2 = GOLDEN_STATS[key]
        assert stats.instances == instances
        assert stats.vertices_examined == examined
        assert stats.sr1_samples == pytest.approx(sr1, abs=1e-6)
        assert stats.sr2_samples == pytest.approx(sr2, abs=1e-6)
