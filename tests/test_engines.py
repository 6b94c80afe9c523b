"""Differential tests: the registered kernel engines against each
other.

The kernel layer (:mod:`repro.kernels`) re-implements the hot path of
MDC/DCC/MBC*/PF* once per registered backend: ``bitset`` on int-mask
adjacency and ``numpy`` on uint64 mask matrices, both against the
``set`` reference.  All available engines must agree on every
*optimum* (clique sizes, polarization factors) on a broad family of
seeded random signed graphs; the returned cliques may differ between
the set engine and the mask engines when several optima exist, so each
is validated structurally via ``BalancedClique.from_vertices`` instead
of compared vertex-by-vertex.  The bitset and numpy engines share the
same lowest-id tie-breaks, so *their* witnesses are compared exactly.

A second group pins the kernel primitives themselves against their
set-based reference implementations on random dichromatic graphs, and
a third does the same for the vectorised numpy kernels against the
bitset primitives.  The engine axis is taken from the backend registry
(:data:`repro.kernels.ENGINE_REGISTRY` via
``tests.conftest.SOLVER_ENGINES``), so a new backend joins every
matrix by registering itself.
"""

import random

import pytest

from repro.core.gmbc import gmbc_star
from repro.core.mbc_star import mbc_star
from repro.core.pf import pf_binary_search, pf_star
from repro.core.reductions import edge_reduction, edge_reduction_fast
from repro.core.result import BalancedClique
from repro.dichromatic.build import build_dichromatic_network, \
    build_dichromatic_network_bits, build_dichromatic_network_matrix, \
    dichromatic_network_from_masks, ego_edge_counts_from_masks, \
    ego_network_edge_count
from repro.dichromatic.cores import bicore_active, \
    coloring_upper_bound_active, k_core_active
from repro.dichromatic.dcc import dichromatic_clique_witness
from repro.dichromatic.graph import DichromaticGraph
from repro.dichromatic.mdc import solve_mdc
from repro.kernels import ENGINE_REGISTRY, ENGINES, EngineSpec, \
    available_engines, engine_spec, npmask, register_engine, \
    validate_engine
from repro.kernels.active import bicore_active_mask, \
    coloring_upper_bound_active_mask, degeneracy_ordering_mask, \
    degree_in_active, ego_bicore_mask, ego_core_mask, intersect_active, \
    k_core_active_mask
from repro.kernels.bitset import bits_of, mask_of, masks_to_bytes
from repro.signed.graph import SignedGraph
from repro.unsigned.graph import UnsignedGraph

from .conftest import PARALLEL_ENGINES, SOLVER_ENGINES, requires_numpy


def random_signed_graph(seed: int) -> SignedGraph:
    """Seeded random signed graph with varying density and sign mix."""
    rng = random.Random(seed)
    n = rng.randint(6, 28)
    density = rng.uniform(0.15, 0.75)
    negative_ratio = rng.uniform(0.2, 0.8)
    graph = SignedGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                sign = -1 if rng.random() < negative_ratio else 1
                graph.add_edge(u, v, sign)
    return graph


def random_dichromatic_graph(seed: int) -> DichromaticGraph:
    rng = random.Random(seed)
    n = rng.randint(4, 24)
    is_left = [rng.random() < 0.5 for _ in range(n)]
    graph = DichromaticGraph(is_left)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < rng.uniform(0.2, 0.7):
                graph.add_edge(u, v)
    return graph


def assert_valid(clique: BalancedClique, graph: SignedGraph, tau: int):
    if clique.is_empty:
        return
    # from_vertices re-derives the two sides and validates that the
    # vertex set is a structurally balanced clique of the graph.
    rebuilt = BalancedClique.from_vertices(graph, clique.vertices)
    assert rebuilt.size == clique.size
    assert clique.satisfies(tau)


class TestMbcStarDifferential:
    @pytest.mark.parametrize("seed", range(50))
    def test_same_optimum_on_random_graphs(self, seed):
        graph = random_signed_graph(seed)
        tau = seed % 4
        by_set = mbc_star(graph, tau, engine="set")
        assert_valid(by_set, graph, tau)
        for engine in SOLVER_ENGINES:
            result = mbc_star(graph, tau, engine=engine)
            assert result.size == by_set.size, engine
            assert_valid(result, graph, tau)

    @pytest.mark.parametrize("seed", [3, 11, 27])
    def test_check_only_agrees_on_feasibility(self, seed):
        graph = random_signed_graph(seed)
        for tau in range(4):
            by_set = mbc_star(graph, tau, check_only=True, engine="set")
            for engine in SOLVER_ENGINES:
                result = mbc_star(
                    graph, tau, check_only=True, engine=engine)
                assert by_set.is_empty == result.is_empty, engine
                assert_valid(result, graph, tau)

    def test_unknown_engine_rejected(self):
        graph = random_signed_graph(0)
        with pytest.raises(ValueError, match="unknown engine"):
            mbc_star(graph, 1, engine="bitmap")
        with pytest.raises(ValueError, match="unknown engine"):
            validate_engine("")


class TestEngineRegistry:
    """The backend registry behind the ``engine=`` seam."""

    def test_engines_tuple_mirrors_registry(self):
        assert ENGINES == tuple(ENGINE_REGISTRY)
        assert set(available_engines()) <= set(ENGINES)
        # set and bitset have no runtime requirement — always usable.
        assert {"set", "bitset"} <= set(available_engines())

    def test_capability_descriptors(self):
        assert not engine_spec("set").supports_parallel
        assert engine_spec("bitset").supports_parallel
        assert engine_spec("numpy").supports_parallel
        # The optional backend must name its requirement for the
        # unavailable-engine error message.
        assert engine_spec("numpy").requirement

    def test_unknown_engine_lookup_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            engine_spec("bitmap")

    def test_numpy_availability_follows_probe(self):
        assert engine_spec("numpy").available() == npmask.HAVE_NUMPY

    def test_unavailable_engine_error_names_requirement(self):
        stub = register_engine(EngineSpec(
            name="stub-backend",
            description="always-unavailable test backend",
            representation="-",
            supports_parallel=False,
            probe=lambda: False,
            requirement="the stub runtime"))
        try:
            assert not stub.available()
            with pytest.raises(ValueError,
                               match="requires the stub runtime"):
                validate_engine("stub-backend")
        finally:
            del ENGINE_REGISTRY["stub-backend"]

    def test_serial_only_engine_rejected_for_fanout(self):
        graph = random_signed_graph(1)
        with pytest.raises(ValueError, match="serial-only"):
            mbc_star(graph, 1, engine="set", parallel=2)


class TestPfDifferential:
    @pytest.mark.parametrize("seed", range(0, 50, 2))
    def test_pf_star_same_factor(self, seed):
        graph = random_signed_graph(seed)
        by_set = pf_star(graph, engine="set")
        for engine in SOLVER_ENGINES:
            beta, witness = pf_star(
                graph, engine=engine, return_witness=True)
            assert beta == by_set, engine
            assert_valid(witness, graph, 0)
            assert witness.polarization == beta

    @pytest.mark.parametrize("seed", range(1, 40, 4))
    def test_pf_binary_search_same_factor(self, seed):
        graph = random_signed_graph(seed)
        by_set = pf_binary_search(graph, engine="set")
        for engine in SOLVER_ENGINES:
            assert pf_binary_search(graph, engine=engine) == by_set

    @pytest.mark.parametrize("seed", [5, 17])
    def test_pf_star_dorder_variant(self, seed):
        graph = random_signed_graph(seed)
        by_set = pf_star(graph, ordering="degeneracy", engine="set")
        for engine in SOLVER_ENGINES:
            assert pf_star(graph, ordering="degeneracy",
                           engine=engine) == by_set


class TestGmbcDifferential:
    @pytest.mark.parametrize("seed", [2, 9, 23, 31])
    def test_same_profile(self, seed):
        graph = random_signed_graph(seed)
        by_set = gmbc_star(graph, engine="set")
        for engine in SOLVER_ENGINES:
            results = gmbc_star(graph, engine=engine)
            # results[tau] is the maximum for threshold tau.
            assert len(by_set) == len(results), engine
            for tau, clique in enumerate(results):
                assert by_set[tau].size == clique.size
                assert_valid(clique, graph, tau)


class TestWorkerMatrix:
    """(engine x workers) differential matrix for the fan-out engine.

    workers=1 is the serial sweep; 2 and 4 fan out (in-process below
    ``MIN_POOL_TASKS``, real pools above it — both code paths are
    covered because the random graphs straddle the threshold).  The
    engine axis covers every available parallel-capable backend
    (bitset, plus numpy when installed).  All cells must report
    identical optimum sizes with structurally valid witnesses.
    """

    WORKERS = [1, 2, 4]

    @pytest.mark.parametrize("engine", PARALLEL_ENGINES)
    @pytest.mark.parametrize("seed", range(0, 24, 3))
    def test_mbc_star_same_optimum(self, seed, engine):
        graph = random_signed_graph(seed)
        tau = seed % 4
        reference = mbc_star(graph, tau, engine="set")
        for workers in self.WORKERS:
            clique = mbc_star(graph, tau, engine=engine,
                              parallel=workers)
            assert clique.size == reference.size
            assert_valid(clique, graph, tau)

    @pytest.mark.parametrize("engine", PARALLEL_ENGINES)
    @pytest.mark.parametrize("seed", range(1, 24, 5))
    def test_pf_star_same_factor(self, seed, engine):
        graph = random_signed_graph(seed)
        reference = pf_star(graph, engine="set")
        for workers in self.WORKERS:
            beta, witness = pf_star(graph, engine=engine,
                                    parallel=workers,
                                    return_witness=True)
            assert beta == reference
            assert_valid(witness, graph, 0)
            assert witness.polarization >= beta

    @pytest.mark.parametrize("engine", PARALLEL_ENGINES)
    @pytest.mark.parametrize("seed", [4, 13])
    def test_gmbc_star_same_profile(self, seed, engine):
        graph = random_signed_graph(seed)
        reference = [c.size for c in gmbc_star(graph, engine="set")]
        for workers in self.WORKERS:
            results = gmbc_star(graph, engine=engine,
                                parallel=workers)
            assert [c.size for c in results] == reference
            for tau, clique in enumerate(results):
                assert_valid(clique, graph, tau)


class TestEdgeReductionDifferential:
    @pytest.mark.parametrize("seed", range(25))
    def test_same_fixpoint(self, seed):
        # The reduction is monotone, so its fixpoint is unique: the
        # pass-based set version and the worklist mask version must
        # keep exactly the same edges.
        graph = random_signed_graph(seed)
        tau = seed % 5
        by_set = edge_reduction(graph, tau)
        by_bits = edge_reduction_fast(graph, tau)
        assert sorted(by_set.edges()) == sorted(by_bits.edges())

    @pytest.mark.parametrize("seed", [1, 8])
    def test_input_untouched(self, seed):
        graph = random_signed_graph(seed)
        before = sorted(graph.edges())
        edge_reduction_fast(graph, 3)
        assert sorted(graph.edges()) == before

    @pytest.mark.parametrize("seed", range(0, 30, 3))
    def test_mbc_star_with_er_same_optimum(self, seed):
        graph = random_signed_graph(seed)
        tau = 1 + seed % 3
        by_set = mbc_star(graph, tau, use_edge_reduction=True,
                          engine="set")
        by_bitset = mbc_star(graph, tau, use_edge_reduction=True,
                             engine="bitset")
        assert by_set.size == by_bitset.size
        assert_valid(by_bitset, graph, tau)


class TestNetworkBuilderDifferential:
    @pytest.mark.parametrize("seed", range(30))
    def test_same_network(self, seed):
        graph = random_signed_graph(seed)
        rng = random.Random(seed + 1000)
        u = rng.randrange(graph.num_vertices)
        allowed = set(rng.sample(
            range(graph.num_vertices),
            rng.randint(0, graph.num_vertices))) - {u}
        for allowed_set, allowed_mask in [
            (None, None), (allowed, mask_of(allowed)),
        ]:
            by_set = build_dichromatic_network(graph, u, allowed_set)
            by_bits = build_dichromatic_network_bits(
                graph, u, allowed_mask)
            assert by_set.origin == by_bits.origin
            assert by_set.is_left == by_bits.is_left
            assert sorted(by_set.edges()) == sorted(by_bits.edges())


def _ego_case(seed: int) -> "tuple[SignedGraph, int, int]":
    """A seeded graph, an anchor and a random allowed mask."""
    graph = random_signed_graph(seed)
    rng = random.Random(seed + 2000)
    u = rng.randrange(graph.num_vertices)
    allowed = set(rng.sample(
        range(graph.num_vertices),
        rng.randint(0, graph.num_vertices))) - {u}
    return graph, u, mask_of(allowed)


class TestEgoPeelKernels:
    """The global-id ego peels against peeling the built network."""

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("k", [-1, 0, 1, 2, 4, 7])
    def test_core_matches_built_network(self, seed, k):
        graph, u, allowed = _ego_case(seed)
        network = build_dichromatic_network_bits(graph, u, allowed)
        local = k_core_active_mask(
            network.adjacency_bits(), k, network.all_bits())
        expected = {network.origin[v] for v in bits_of(local)}
        got = ego_core_mask(graph.pos_adjacency_bits(),
                            graph.neg_adjacency_bits(), u, allowed, k)
        assert set(bits_of(got)) == expected

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize(
        "taus", [(0, 0), (0, 1), (1, 0), (1, 2), (2, 2), (3, 1), (4, 5)])
    def test_bicore_matches_built_network(self, seed, taus):
        graph, u, allowed = _ego_case(seed)
        tau_l, tau_r = taus
        network = build_dichromatic_network_bits(graph, u, allowed)
        local = bicore_active_mask(
            network.adjacency_bits(), network.left_bits(), tau_l, tau_r,
            network.all_bits())
        expected = {network.origin[v] for v in bits_of(local)}
        got = ego_bicore_mask(graph.pos_adjacency_bits(),
                              graph.neg_adjacency_bits(), u, allowed,
                              tau_l, tau_r)
        assert set(bits_of(got)) == expected

    @pytest.mark.parametrize("seed", range(30))
    def test_survivor_network_is_induced_subnetwork(self, seed):
        graph, u, allowed = _ego_case(seed)
        pos = graph.pos_adjacency_bits()
        neg = graph.neg_adjacency_bits()
        full = build_dichromatic_network_bits(graph, u, allowed)
        survivors = ego_core_mask(pos, neg, u, allowed, 2)
        part = dichromatic_network_from_masks(pos, neg, u, survivors)
        assert set(part.origin) == set(bits_of(survivors))
        # Local ids keep the full network's relative order, so the
        # search sees the same tie-breaks on the smaller network.
        assert part.origin == [v for v in full.origin
                               if survivors >> v & 1]
        assert [part.is_left[i] for i in range(part.num_vertices)] == [
            full.is_left[i] for i, v in enumerate(full.origin)
            if survivors >> v & 1]
        by_origin = {(full.origin[a], full.origin[b])
                     for a, b in full.edges()}
        expected = {(a, b) for a, b in by_origin
                    if survivors >> a & 1 and survivors >> b & 1}
        assert {(part.origin[a], part.origin[b])
                for a, b in part.edges()} == expected

    @pytest.mark.parametrize("seed", range(30))
    def test_edge_counts_describe_unpeeled_network(self, seed):
        graph, u, allowed = _ego_case(seed)
        allowed_set = set(bits_of(allowed))
        for mask, container in [(None, None), (allowed, allowed_set)]:
            counts = ego_edge_counts_from_masks(
                graph.pos_adjacency_bits(), graph.neg_adjacency_bits(),
                u, mask)
            network = build_dichromatic_network(graph, u, container)
            assert counts == (
                ego_network_edge_count(graph, u, container),
                network.num_edges)


class TestKernelPrimitives:
    @pytest.mark.parametrize("seed", range(25))
    def test_intersection_and_degree(self, seed):
        graph = random_dichromatic_graph(seed)
        adj = graph.adjacency_bits()
        rng = random.Random(seed)
        active = set(rng.sample(
            range(graph.num_vertices),
            rng.randint(0, graph.num_vertices)))
        active_mask = mask_of(active)
        for v in graph.vertices():
            expected = graph.neighbors(v) & active
            got = intersect_active(adj, v, active_mask)
            assert set(bits_of(got)) == expected
            assert degree_in_active(adj, v, active_mask) == len(expected)

    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("k", [0, 1, 2, 4])
    def test_k_core(self, seed, k):
        graph = random_dichromatic_graph(seed)
        adj = graph.adjacency_bits()
        expected = k_core_active(graph, k, graph.vertices())
        got = k_core_active_mask(adj, k, graph.all_bits())
        assert set(bits_of(got)) == expected

    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("taus", [(0, 0), (1, 2), (2, 2), (3, 1)])
    def test_bicore(self, seed, taus):
        graph = random_dichromatic_graph(seed)
        tau_l, tau_r = taus
        expected = bicore_active(
            graph, tau_l, tau_r, graph.vertices())
        got = bicore_active_mask(
            graph.adjacency_bits(), graph.left_bits(), tau_l, tau_r,
            graph.all_bits())
        assert set(bits_of(got)) == expected

    @pytest.mark.parametrize("seed", range(25))
    def test_coloring_bound_is_valid_clique_bound(self, seed):
        # Tie-breaking differs from the set version, so only the bound
        # property is compared: every clique fits under both bounds and
        # the two bounds rarely drift far apart.
        graph = random_dichromatic_graph(seed)
        bound_set = coloring_upper_bound_active(
            graph, graph.vertices())
        bound_mask = coloring_upper_bound_active_mask(
            graph.adjacency_bits(), graph.all_bits())
        omega = _max_clique_size(graph)
        assert bound_mask >= omega
        assert bound_set >= omega

    @pytest.mark.parametrize("seed", range(15))
    def test_degeneracy_ordering_mask_is_valid(self, seed):
        graph = random_dichromatic_graph(seed)
        adj = graph.adjacency_bits()
        order = degeneracy_ordering_mask(adj, graph.all_bits())
        assert sorted(order) == list(graph.vertices())
        # Degeneracy property: each vertex has at most `degeneracy`
        # neighbours among the vertices after it in the order.
        remaining = graph.all_bits()
        degeneracy = 0
        for v in order:
            remaining &= ~(1 << v)
            degeneracy = max(
                degeneracy, (adj[v] & remaining).bit_count())
        unsigned = UnsignedGraph.from_edges(
            graph.num_vertices, graph.edges())
        from repro.unsigned.cores import degeneracy as set_degeneracy
        assert degeneracy == set_degeneracy(unsigned)


@requires_numpy
class TestNumpyKernelPrimitives:
    """The vectorised npmask kernels against the bitset primitives.

    Bitset is itself pinned against the set references above, so
    matching it transitively matches the originals; rows and matrices
    are compared through their canonical int-mask images.
    """

    @pytest.mark.parametrize("seed", range(20))
    def test_intersection_degree_and_row_codec(self, seed):
        graph = random_dichromatic_graph(seed)
        n = graph.num_vertices
        adj = graph.adjacency_bits()
        mat = graph.adjacency_matrix()
        rng = random.Random(seed)
        active = set(rng.sample(range(n), rng.randint(0, n)))
        active_mask = mask_of(active)
        active_row = npmask.row_from_mask(active_mask, n)
        assert npmask.mask_from_row(active_row) == active_mask
        assert npmask.row_count(active_row) == len(active)
        assert list(npmask.row_indices(active_row, n)) == \
            sorted(active)
        for v in graph.vertices():
            got = npmask.intersect_active(mat, v, active_row)
            assert npmask.mask_from_row(got) == \
                intersect_active(adj, v, active_mask)
            assert npmask.degree_in_active(mat, v, active_row) == \
                degree_in_active(adj, v, active_mask)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("k", [0, 1, 2, 4])
    def test_k_core(self, seed, k):
        graph = random_dichromatic_graph(seed)
        expected = k_core_active_mask(
            graph.adjacency_bits(), k, graph.all_bits())
        got = npmask.k_core_active(
            graph.adjacency_matrix(), k, graph.all_row())
        assert npmask.mask_from_row(got) == expected

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("taus", [(0, 0), (1, 2), (2, 2), (3, 1)])
    def test_bicore(self, seed, taus):
        graph = random_dichromatic_graph(seed)
        tau_l, tau_r = taus
        expected = bicore_active_mask(
            graph.adjacency_bits(), graph.left_bits(), tau_l, tau_r,
            graph.all_bits())
        got = npmask.bicore_active(
            graph.adjacency_matrix(), graph.left_row(), tau_l, tau_r,
            graph.all_row())
        assert npmask.mask_from_row(got) == expected

    @pytest.mark.parametrize("seed", range(20))
    def test_coloring_bound_is_valid_clique_bound(self, seed):
        graph = random_dichromatic_graph(seed)
        bound = npmask.coloring_upper_bound_active(
            graph.adjacency_matrix(), graph.all_row())
        assert bound >= _max_clique_size(graph)

    @pytest.mark.parametrize("seed", range(15))
    def test_degeneracy_ordering_is_valid(self, seed):
        graph = random_dichromatic_graph(seed)
        adj = graph.adjacency_bits()
        order = npmask.degeneracy_ordering(
            graph.adjacency_matrix(), graph.all_row())
        assert sorted(order) == list(graph.vertices())
        remaining = graph.all_bits()
        degeneracy = 0
        for v in order:
            remaining &= ~(1 << v)
            degeneracy = max(
                degeneracy, (adj[v] & remaining).bit_count())
        mask_order = degeneracy_ordering_mask(adj, graph.all_bits())
        remaining = graph.all_bits()
        reference = 0
        for v in mask_order:
            remaining &= ~(1 << v)
            reference = max(
                reference, (adj[v] & remaining).bit_count())
        assert degeneracy == reference

    @pytest.mark.parametrize("seed", range(15))
    def test_matrix_blob_round_trip(self, seed):
        # Wire-format compatibility: a numpy matrix serialises to the
        # exact bytes masks_to_bytes produces, and rebuilds from them.
        graph = random_dichromatic_graph(seed)
        n = graph.num_vertices
        adj = graph.adjacency_bits()
        mat = graph.adjacency_matrix()
        blob = npmask.matrix_to_bytes(mat, n)
        assert blob == masks_to_bytes(adj, n)
        rebuilt = npmask.matrix_from_bytes(blob, n)
        assert npmask.masks_from_matrix(rebuilt, n) == adj

    def test_matrix_from_bytes_validates_length(self):
        with pytest.raises(ValueError):
            npmask.matrix_from_bytes(b"\x00", 9)

    def test_swar_popcount_fallback(self, monkeypatch):
        # Force the pre-numpy-2.0 path: popcounts must still be exact.
        monkeypatch.setattr(npmask, "_BITWISE_COUNT", None)
        rng = random.Random(42)
        for n in (0, 1, 63, 64, 65, 130):
            mask = rng.getrandbits(n) if n else 0
            row = npmask.row_from_mask(mask, n)
            assert npmask.row_count(row) == mask.bit_count()

    @pytest.mark.parametrize("seed", range(10))
    def test_network_builder_matches_bitset(self, seed):
        graph = random_signed_graph(seed)
        rng = random.Random(seed + 500)
        u = rng.randrange(graph.num_vertices)
        by_bits = build_dichromatic_network_bits(graph, u)
        by_np = build_dichromatic_network_matrix(graph, u)
        assert by_bits.origin == by_np.origin
        assert by_bits.is_left == by_np.is_left
        assert sorted(by_bits.edges()) == sorted(by_np.edges())


@requires_numpy
class TestNumpyWitnessParity:
    """bitset and numpy share tie-breaks, so their witnesses must be
    *identical*, not merely size-equal."""

    @pytest.mark.parametrize("seed", range(0, 40, 2))
    def test_mdc_identical_witness(self, seed):
        graph = random_dichromatic_graph(seed)
        for taus in [(0, 0), (1, 1), (2, 1), (1, 3)]:
            for must_exceed in (0, 2):
                by_bits = solve_mdc(graph, *taus, must_exceed,
                                    engine="bitset")
                by_np = solve_mdc(graph, *taus, must_exceed,
                                  engine="numpy")
                assert by_bits == by_np, (seed, taus, must_exceed)

    @pytest.mark.parametrize("seed", range(0, 40, 2))
    def test_dcc_identical_witness(self, seed):
        graph = random_dichromatic_graph(seed)
        for taus in [(0, 0), (1, 1), (2, 2), (3, 1)]:
            by_bits = dichromatic_clique_witness(
                graph, *taus, engine="bitset")
            by_np = dichromatic_clique_witness(
                graph, *taus, engine="numpy")
            assert by_bits == by_np, (seed, taus)

    @pytest.mark.parametrize("seed", range(0, 30, 3))
    def test_mbc_star_identical_witness(self, seed):
        graph = random_signed_graph(seed)
        tau = seed % 3
        by_bits = mbc_star(graph, tau, engine="bitset")
        by_np = mbc_star(graph, tau, engine="numpy")
        assert by_bits.left == by_np.left
        assert by_bits.right == by_np.right


def _max_clique_size(graph: DichromaticGraph) -> int:
    best = 0
    adj = graph.adjacency_bits()

    def expand(clique_size: int, candidates: int) -> None:
        nonlocal best
        if clique_size > best:
            best = clique_size
        rest = candidates
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if clique_size + candidates.bit_count() <= best:
                return
            expand(clique_size + 1, candidates & adj[v])
            candidates ^= low

    expand(0, graph.all_bits())
    return best
