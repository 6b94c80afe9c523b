"""Polarization factor algorithms (Section IV).

``beta(G)`` is the largest ``tau`` for which a balanced clique with
both sides of size ``>= tau`` exists.  Three solvers, mirroring the
paper's experimental line-up:

* :func:`pf_enumeration` (``PF-E``) — enumerate balanced cliques and
  track the best ``min(|C_L|, |C_R|)`` (with the natural size-bound
  pruning);
* :func:`pf_binary_search` (``PF-BS``) — binary search on ``tau``,
  deciding feasibility with MBC* in early-termination mode;
* :func:`pf_star` (``PF*``, Algorithm 4) — direct adaptation of MBC*:
  process vertices in reverse *polarization order* (``PDecompose``),
  and for each ask only the +1 question — "does ``g_u`` hold a
  dichromatic clique with ``tau* + 1`` vertices per side?" — via DCC,
  justified by Lemma 4.  ``ordering='degeneracy'`` gives the
  ``PF*-DOrder`` variant of Figure 9.
"""

from __future__ import annotations

from ..dichromatic.build import build_dichromatic_network, \
    build_dichromatic_network_matrix, dichromatic_network_from_masks, \
    ego_edge_count_from_matrix, ego_edge_counts_from_masks, \
    ego_network_edge_count
from ..dichromatic.cores import bicore_active
from ..dichromatic.dcc import dichromatic_clique_witness
from ..kernels import engine_spec, npmask, validate_engine
from ..kernels.active import degeneracy_ordering_mask, ego_bicore_mask
from ..obs import Tracer, current_tracer
from ..parallel.engine import pf_round_fanout, resolve_workers
from ..resilience.budget import Budget, BudgetExceeded
from ..signed.graph import SignedGraph
from ..unsigned.graph import UnsignedGraph
from ..unsigned.ordering import HigherRanked, degeneracy_ordering
from .heuristic import mbc_heuristic
from .mbc_star import mbc_star
from .reductions import polar_core_numbers, polarization_upper_bound, \
    vertex_reduction
from .result import BalancedClique
from .stats import SearchStats

__all__ = ["pf_enumeration", "pf_binary_search", "pf_star"]


def pf_enumeration(
    graph: SignedGraph,
    stats: SearchStats | None = None,
    node_limit: int | None = None,
    trace: Tracer | None = None,
    budget: "Budget | None" = None,
) -> int:
    """PF-E: polarization factor by exhaustive enumeration.

    An exhausted ``budget`` (anytime contract) returns the best
    polarization proven so far — unlike ``node_limit``, which is a
    hard error used by tests to bound runaway enumerations.
    """
    tracer = trace if trace is not None else current_tracer()
    with tracer.span("pf_enum", n=graph.num_vertices) as span:
        best = _pf_enumeration(graph, stats, node_limit, budget)
        span.set(beta=best)
        if tracer.enabled and budget is not None:
            span.set(status=budget.status.value)
    return best


def _pf_enumeration(
    graph: SignedGraph,
    stats: SearchStats | None,
    node_limit: int | None,
    budget: "Budget | None" = None,
) -> int:
    """The PF-E recursion behind :func:`pf_enumeration`."""
    best = 0
    nodes = 0

    def enum(
        c_left: set[int],
        c_right: set[int],
        p_left: set[int],
        p_right: set[int],
    ) -> None:
        nonlocal best, nodes
        nodes += 1
        if stats is not None:
            stats.nodes += 1
        if budget is not None:
            budget.spend()
        if node_limit is not None and nodes > node_limit:
            raise RuntimeError(
                f"PF-E exceeded node limit {node_limit}")
        polarization = min(len(c_left), len(c_right))
        if polarization > best:
            best = polarization
        # Upper bound on what this branch can still achieve.
        if min(len(c_left) + len(p_left),
               len(c_right) + len(p_right)) <= best:
            return
        while p_left or p_right:
            if min(len(c_left) + len(p_left),
                   len(c_right) + len(p_right)) <= best:
                return
            if not c_left and not c_right:
                v, to_left = min(p_left), True
            elif p_left and (not p_right or len(c_left) <= len(c_right)):
                v, to_left = min(p_left), True
            else:
                v, to_left = min(p_right), False
            if to_left:
                enum(
                    c_left | {v}, c_right,
                    graph.pos_neighbors(v) & p_left,
                    graph.neg_neighbors(v) & p_right)
            else:
                enum(
                    c_left, c_right | {v},
                    graph.neg_neighbors(v) & p_left,
                    graph.pos_neighbors(v) & p_right)
            p_left.discard(v)
            p_right.discard(v)

    vertices = set(graph.vertices())
    try:
        enum(set(), set(), set(vertices), set(vertices))
    except BudgetExceeded:
        pass  # anytime: return the best polarization proven so far
    return best


def pf_binary_search(
    graph: SignedGraph,
    stats: SearchStats | None = None,
    engine: str = "bitset",
    parallel: int = 0,
    trace: Tracer | None = None,
    budget: "Budget | None" = None,
) -> int:
    """PF-BS: binary search on ``tau``, feasibility via MBC*.

    Each probe runs MBC* in ``check_only`` mode (terminate as soon as
    both residual thresholds hit zero — the Section IV-B optimization).
    ``parallel`` is accepted for interface parity but the probes stay
    serial: ``check_only`` searches stop at the first witness.

    A ``budget`` is shared by all probes.  On exhaustion the returned
    value is the last *certified* ``tau`` — a probe that produced a
    real witness certifies its ``tau`` even when truncated afterwards,
    but a truncated probe that found nothing is inconclusive and never
    shrinks the search window.
    """
    tracer = trace if trace is not None else current_tracer()
    with tracer.span("pf_bs", n=graph.num_vertices,
                     engine=engine) as root:
        low = 0
        high = polarization_upper_bound(graph)
        while low < high:
            if budget is not None and budget.exhausted:
                break
            mid = (low + high + 1) // 2
            with tracer.span("probe", tau=mid) as probe:
                witness = mbc_star(
                    graph, mid, check_only=True, stats=stats,
                    engine=engine, parallel=parallel, trace=tracer,
                    budget=budget)
                feasible = witness.satisfies(mid) \
                    and not witness.is_empty
                probe.set(feasible=feasible)
            if feasible:
                low = mid
            elif budget is not None and budget.exhausted:
                break  # "infeasible" was not proven, only truncated
            else:
                high = mid - 1
        root.set(beta=low)
        if tracer.enabled and budget is not None:
            root.set(status=budget.status.value)
    return low


def pf_star(
    graph: SignedGraph,
    stats: SearchStats | None = None,
    ordering: str = "polarization",
    return_witness: bool = False,
    engine: str = "bitset",
    parallel: int = 0,
    trace: Tracer | None = None,
    budget: "Budget | None" = None,
) -> "int | tuple[int, BalancedClique]":
    """PF* (Algorithm 4): the dichromatic-clique-checking algorithm.

    Parameters
    ----------
    ordering:
        ``'polarization'`` (default, POrder from ``PDecompose``) or
        ``'degeneracy'`` (the ``PF*-DOrder`` variant).  The
        polarization order additionally enables the Lemma-5 early
        break: once ``pn(u) <= tau*``, no later vertex can improve.
    return_witness:
        Also return a balanced clique achieving the factor.
    engine:
        ``"bitset"`` (default) runs the per-vertex bicore reduction and
        DCC check on int-mask adjacency, ``"numpy"`` on vectorised
        uint64 mask matrices; ``"set"`` is the original adjacency-set
        path.
    parallel:
        Number of worker processes.  ``0``/``1`` run the serial sweep;
        larger values run the round-based fan-out of
        :func:`repro.parallel.engine.pf_round_fanout`, which asks the
        +1 questions of all still-viable vertices concurrently and
        iterates until the bar stops rising — the fixpoint is exactly
        ``beta(G)``.  Requires an engine with parallel support (bitset
        or numpy).
    budget:
        Optional :class:`repro.resilience.Budget` (anytime contract):
        the heuristic always runs, then the budget is checked per ego
        network / round and charged per branch-and-bound node inside
        the DCC probes.  On exhaustion the returned ``tau*`` is the
        last *proven* bar — its witness clique certifies it — and
        ``budget.status`` reads ``BUDGET_EXHAUSTED``.

    Returns
    -------
    int | tuple[int, BalancedClique]
        ``beta(G)``; with ``return_witness``, also a clique whose
        smaller side has exactly ``beta(G)`` vertices.  Under an
        exhausted budget these are a certified lower bound and its
        witness.
    """
    if ordering not in ("polarization", "degeneracy"):
        raise ValueError(f"unknown ordering {ordering!r}")
    validate_engine(engine)
    workers = resolve_workers(parallel)
    if workers > 1 and not engine_spec(engine).supports_parallel:
        raise ValueError(
            f"parallel execution requires an engine with parallel "
            f"support; engine {engine!r} is serial-only")

    tracer = trace if trace is not None else current_tracer()
    root = tracer.span(
        "pf_star", n=graph.num_vertices, engine=engine,
        workers=workers, ordering=ordering)
    with root:
        tau_star, witness = _pf_pipeline(
            graph, stats, ordering, engine, workers, tracer, budget)
        if tracer.enabled:
            root.set(beta=tau_star)
            if budget is not None:
                root.set(status=budget.status.value,
                         budget_nodes=budget.nodes)
    if return_witness:
        return tau_star, witness
    return tau_star


def _pf_pipeline(
    graph: SignedGraph,
    stats: SearchStats | None,
    ordering: str,
    engine: str,
    workers: int,
    tracer: Tracer,
    budget: "Budget | None",
) -> "tuple[int, BalancedClique]":
    """The PF* pipeline behind :func:`pf_star` (root span open)."""
    # Line 1: heuristic lower bound.
    with tracer.span("heuristic") as phase:
        heuristic = mbc_heuristic(graph, 0)
        tau_star = heuristic.polarization
        witness = heuristic
        phase.set(size=tau_star)
    if stats is not None:
        stats.heuristic_size = tau_star

    # First budget checkpoint: the heuristic above always runs, so a
    # truncated solve still returns a real witness for its bound.
    if budget is not None:
        try:
            budget.check()
        except BudgetExceeded:
            return tau_star, witness

    # Line 2: VertexReduction for tau* + 1.
    with tracer.span("vertex_reduction", n=graph.num_vertices) as phase:
        alive = vertex_reduction(graph, tau_star + 1)
        working, mapping = graph.subgraph(alive)
        phase.set(kept=working.num_vertices)

    # Line 3: total ordering.
    with tracer.span("ordering", kind=ordering) as phase:
        if ordering == "polarization":
            order, pn = polar_core_numbers(working)
        elif engine == "bitset":
            unsigned = UnsignedGraph.from_signed_bits(working)
            order = degeneracy_ordering_mask(
                unsigned.adjacency_bits(), unsigned.all_bits())
            pn = None
        elif engine == "numpy":
            unsigned_mat = (working.pos_adjacency_matrix()
                            | working.neg_adjacency_matrix())
            order = npmask.degeneracy_ordering(
                unsigned_mat, npmask.full_row(working.num_vertices))
            pn = None
        else:
            order = degeneracy_ordering(
                UnsignedGraph.from_signed(working))
            pn = None
        phase.set(n=len(order))
    rank = {v: position for position, v in enumerate(order)}

    # Parallel fan-out: rounds of concurrent +1 questions instead of
    # the serial sweep (identical beta(G); see repro.parallel).
    if workers > 1 and engine_spec(engine).supports_parallel:
        return pf_round_fanout(
            working, mapping, order, pn, tau_star, witness, workers,
            stats=stats, engine=engine, trace=tracer, budget=budget)

    # Lines 4-8: reverse-order sweep with DCC checks.  As in MBC*, the
    # bitset engine accumulates the higher-ranked filter as a mask of
    # already-processed vertices.
    with tracer.span("sweep", n=len(order)):
        allowed_mask = 0
        allowed_row = npmask.row_from_mask(
            0, working.num_vertices) if engine == "numpy" else None
        if engine == "bitset":
            pos_bits = working.pos_adjacency_bits()
            neg_bits = working.neg_adjacency_bits()
        for u in reversed(order):
            if pn is not None and pn[u] <= tau_star:
                # Lemma 5: pn(u) >= gamma(g_u); nothing later helps.
                break
            # Anytime contract: tau_star below is always proven by
            # ``witness``, so stopping here returns a certified bound.
            if budget is not None:
                try:
                    budget.check()
                except BudgetExceeded:
                    break
            with tracer.span("ego", v=mapping[u], bar=tau_star) as ego:
                this_allowed_mask = allowed_mask
                allowed_mask |= 1 << u
                if allowed_row is not None:
                    this_allowed_row = allowed_row.copy()
                    npmask.set_bit(allowed_row, u)
                if stats is not None:
                    stats.vertices_examined += 1
                # Line 6: (tau*+1, tau*+1)-core of g_u; thresholds
                # shifted because u (an L-vertex adjacent to everyone)
                # is excluded.  The bitset path peels g_u on the global
                # masks and builds the local network over the
                # survivors only, after the side-count check below.
                if engine == "bitset":
                    survivors = ego_bicore_mask(
                        pos_bits, neg_bits, u, this_allowed_mask,
                        tau_star, tau_star + 1)
                    left_count = (survivors & pos_bits[u]).bit_count()
                    right_count = survivors.bit_count() - left_count
                elif engine == "numpy":
                    network = build_dichromatic_network_matrix(
                        working, u, this_allowed_row)
                    adj_mat = network.adjacency_matrix()
                    left_row = network.left_row()
                    active_row = npmask.bicore_active(
                        adj_mat, left_row, tau_star, tau_star + 1,
                        network.all_row())
                    left_count = npmask.row_count(
                        active_row & left_row)
                    right_count = npmask.row_count(
                        active_row) - left_count
                else:
                    allowed = HigherRanked(rank, rank[u])
                    network = build_dichromatic_network(
                        working, u, allowed)
                    active = bicore_active(
                        network, tau_star, tau_star + 1,
                        set(network.vertices()))
                    left_count = sum(
                        1 for v in active if network.is_left[v])
                    right_count = len(active) - left_count
                # Line 7: u must itself survive in the core.
                if left_count < tau_star or right_count < tau_star + 1:
                    ego.set(pruned="core")
                    continue
                if engine == "bitset":
                    members = ((pos_bits[u] | neg_bits[u])
                               & this_allowed_mask).bit_count()
                    network = dichromatic_network_from_masks(
                        pos_bits, neg_bits, u, survivors)
                else:
                    members = network.num_vertices
                ego.set(n=members)
                if stats is not None:
                    stats.instances += 1
                    if engine == "bitset":
                        ego_edges, dichromatic_edges = \
                            ego_edge_counts_from_masks(
                                pos_bits, neg_bits, u, this_allowed_mask)
                        reduced = network.num_edges
                    elif engine == "numpy":
                        ego_edges = ego_edge_count_from_matrix(
                            working.pos_adjacency_matrix(),
                            working.neg_adjacency_matrix(),
                            u, this_allowed_row)
                        dichromatic_edges = network.num_edges
                        reduced = npmask.active_edge_count(
                            adj_mat, active_row)
                    else:
                        ego_edges = ego_network_edge_count(
                            working, u, allowed)
                        dichromatic_edges = network.num_edges
                        reduced = sum(
                            len(network.neighbors(v) & active)
                            for v in active) // 2
                    stats.record_reduction(
                        ego_edges, dichromatic_edges, reduced)
                # Line 8: one +1 feasibility question per vertex
                # (Lemma 4).
                try:
                    if engine == "bitset":
                        found = dichromatic_clique_witness(
                            network, tau_star, tau_star + 1,
                            stats=stats, engine=engine, trace=tracer,
                            budget=budget)
                    elif engine == "numpy":
                        found = dichromatic_clique_witness(
                            network, tau_star, tau_star + 1,
                            stats=stats, engine=engine,
                            active_row=active_row, trace=tracer,
                            budget=budget)
                    else:
                        found = dichromatic_clique_witness(
                            network, tau_star, tau_star + 1,
                            stats=stats, active=active, engine=engine,
                            trace=tracer, budget=budget)
                except BudgetExceeded:
                    break
                ego.set(found=found is not None)
                if found is not None:
                    tau_star += 1
                    left = {mapping[u]}
                    right: set[int] = set()
                    for v in found:
                        orig = mapping[network.origin[v]]
                        if network.is_left[v]:
                            left.add(orig)
                        else:
                            right.add(orig)
                    witness = BalancedClique.from_sides(left, right)

    return tau_star, witness
