"""Tests for MBC-Heu (Algorithm 3)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.balance import is_balanced_clique
from repro.core.heuristic import mbc_heuristic
from repro.core.pf import pf_star
from repro.datasets.registry import dataset_names, load
from repro.obs import get_tracer
from repro.signed.graph import SignedGraph

from .conftest import signed_graphs


class TestHeuristic:
    def test_finds_planted_clique(self, balanced_six):
        clique = mbc_heuristic(balanced_six, 3)
        assert clique.size == 6
        assert clique.polarization == 3

    def test_result_is_balanced_clique(self, toy_figure2):
        clique = mbc_heuristic(toy_figure2, 2)
        assert not clique.is_empty
        assert is_balanced_clique(
            toy_figure2, clique.vertices, tau=2)

    def test_empty_when_tau_unreachable(self, all_positive_clique):
        clique = mbc_heuristic(all_positive_clique, 1)
        assert clique.is_empty

    def test_tau_zero_nonempty(self, all_positive_clique):
        clique = mbc_heuristic(all_positive_clique, 0)
        assert clique.size >= 1

    def test_empty_graph(self):
        assert mbc_heuristic(SignedGraph(0), 0).is_empty

    def test_anchor_override(self, balanced_six):
        clique = mbc_heuristic(balanced_six, 0, anchor=6)
        assert 6 in clique.vertices

    def test_isolated_anchor(self):
        graph = SignedGraph(3)
        graph.add_edge(0, 1, 1)
        clique = mbc_heuristic(graph, 0, anchor=2)
        assert clique.vertices == {2}

    @given(signed_graphs(max_vertices=12),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=80, deadline=None)
    def test_result_always_valid(self, graph, tau):
        """Whatever the heuristic returns is a genuine balanced clique
        satisfying tau (or empty)."""
        clique = mbc_heuristic(graph, tau)
        if clique.is_empty:
            return
        assert is_balanced_clique(graph, clique.vertices, tau=tau)

    @given(signed_graphs(max_vertices=10))
    @settings(max_examples=40, deadline=None)
    def test_never_exceeds_optimum(self, graph):
        from repro.core.bruteforce import \
            brute_force_maximum_balanced_clique

        clique = mbc_heuristic(graph, 0)
        optimum = brute_force_maximum_balanced_clique(graph, 0)
        assert clique.size <= optimum.size


def _seeded_graph(seed: int) -> SignedGraph:
    rng = random.Random(seed)
    n = rng.randint(8, 40)
    density = rng.uniform(0.1, 0.7)
    graph = SignedGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                graph.add_edge(u, v, -1 if rng.random() < 0.5 else 1)
    return graph


class TestHeuristicPaths:
    """The greedy runs on cached masks or on adjacency sets; both must
    pick the same vertices (lowest id among equal degrees)."""

    @staticmethod
    def _both_paths(graph: SignedGraph, tau: int):
        assert graph.cached_adjacency_bits() is None
        by_sets = mbc_heuristic(graph, tau)
        assert graph.cached_adjacency_bits() is None
        graph.pos_adjacency_bits()
        graph.neg_adjacency_bits()
        assert graph.cached_adjacency_bits() is not None
        by_masks = mbc_heuristic(graph, tau)
        return by_sets, by_masks

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("tau", [0, 1, 2])
    def test_paths_agree_on_random_graphs(self, seed, tau):
        by_sets, by_masks = self._both_paths(_seeded_graph(seed), tau)
        assert (by_sets.left, by_sets.right) == \
            (by_masks.left, by_masks.right)

    @pytest.mark.parametrize("name", dataset_names())
    def test_paths_agree_on_stand_ins(self, name):
        for tau in (0, 3):
            by_sets, by_masks = self._both_paths(
                load(name, 0.3).copy(), tau)
            assert (by_sets.left, by_sets.right) == \
                (by_masks.left, by_masks.right)

    def test_pf_star_builds_no_input_graph_masks(self):
        graph = load("bitcoin", 0.3).copy()
        tracer = get_tracer(True)
        pf_star(graph, trace=tracer)
        kept = [r["attrs"]["kept"] for r in tracer.records
                if r["name"] == "vertex_reduction"]
        assert kept and kept[0] < graph.num_vertices
        widths = [r["attrs"]["n"] for r in tracer.records
                  if r["name"] == "adjacency_masks"]
        assert graph.num_vertices not in widths
        assert graph.cached_adjacency_bits() is None
