"""MBC* — the paper's maximum balanced clique algorithm (Algorithm 2).

Pipeline:

1. ``VertexReduction`` of [13] (``EdgeReduction`` only in the
   ``MBC*-withER`` variant — the paper shows it is a net overhead);
2. ``MBC-Heu`` supplies an initial solution ``C*``;
3. reduce the graph to its ``|C*|``-core (signs ignored) and compute
   the degeneracy ordering;
4. for each vertex ``u`` in *reverse* degeneracy order, core-reduce
   the dichromatic network ``g_u`` over ``u``'s higher-ranked
   neighbours (the bitset engine peels it on the global masks and
   builds only the survivors), skip it when the colouring bound cannot
   beat ``|C*|``, and otherwise solve a maximum dichromatic clique
   instance (:func:`repro.dichromatic.mdc.solve_mdc`).

Every size bar below also folds in the feasibility bound
``|C| >= 2 * tau`` (both sides need ``tau`` vertices), which is what
lets gMBC* seed the search with ``(2 tau - 1)``-cores.
"""

from __future__ import annotations

from ..dichromatic.build import build_dichromatic_network, \
    build_dichromatic_network_matrix, dichromatic_network_from_masks, \
    ego_edge_count_from_matrix, ego_edge_counts_from_masks, \
    ego_network_edge_count
from ..dichromatic.cores import k_core_active
from ..dichromatic.mdc import solve_mdc
from ..kernels import engine_spec, npmask, validate_engine
from ..kernels.active import (
    coloring_upper_bound_active_mask,
    degeneracy_ordering_mask,
    ego_core_mask,
    k_core_active_mask,
)
from ..kernels.bitset import iter_bits
from ..obs import Tracer, current_tracer
from ..parallel.engine import mbc_ego_fanout, resolve_workers
from ..resilience.budget import Budget, BudgetExceeded
from ..signed.graph import SignedGraph
from ..unsigned.coloring import coloring_upper_bound
from ..unsigned.cores import k_core_subset
from ..unsigned.graph import UnsignedGraph
from ..unsigned.ordering import HigherRanked, degeneracy_ordering
from .heuristic import mbc_heuristic
from .reductions import edge_reduction, edge_reduction_fast, \
    vertex_reduction
from .result import EMPTY_RESULT, BalancedClique
from .stats import SearchStats

__all__ = ["mbc_star"]


def mbc_star(
    graph: SignedGraph,
    tau: int,
    use_edge_reduction: bool = False,
    initial: BalancedClique | None = None,
    stats: SearchStats | None = None,
    check_only: bool = False,
    ordering: str = "degeneracy",
    use_coloring: bool = True,
    use_core: bool = True,
    engine: str = "bitset",
    parallel: int = 0,
    trace: Tracer | None = None,
    budget: "Budget | None" = None,
) -> BalancedClique:
    """Maximum balanced clique satisfying the polarization constraint.

    Parameters
    ----------
    graph, tau:
        The signed graph and polarization constraint.
    use_edge_reduction:
        Apply ``EdgeReduction`` too (the ``MBC*-withER`` variant of
        Figure 6); off by default, as in the paper.
    initial:
        Optional known balanced clique satisfying ``tau`` (gMBC* passes
        the optimum for ``tau + 1``); used as the starting lower bound
        and returned unchanged when nothing larger exists.
    stats:
        Optional instrumentation (Table IV counters).
    check_only:
        If True, return the first balanced clique satisfying ``tau``
        that the search encounters (not necessarily maximum) — the
        early-termination mode PF-BS uses.  Returns the empty result if
        none exists.
    ordering:
        Vertex processing order: ``'degeneracy'`` (the paper's choice —
        minimizes ego-network sizes), ``'degree'`` (non-decreasing
        degree) or ``'id'`` (vertex id); the alternatives exist for the
        ordering ablation benchmark.
    use_coloring, use_core:
        Ablation switches for the colouring-bound and core-reduction
        pruning (both on by default, as in the paper).
    engine:
        ``"bitset"`` (default) runs the per-instance kernels and the
        MDC search on int-mask adjacency (see :mod:`repro.kernels`);
        ``"numpy"`` runs them on vectorised uint64 mask matrices
        (:mod:`repro.kernels.npmask`); ``"set"`` is the original
        adjacency-set path, retained for differential testing and the
        ablation benchmarks.
    parallel:
        Number of worker processes for the ego-network sweep.  ``0`` or
        ``1`` run the serial sweep; larger values fan the per-vertex
        MDC instances out across a process pool with a shared incumbent
        (:mod:`repro.parallel`).  Requires an engine whose registry
        descriptor reports parallel support (bitset and numpy; the set
        engine is serial-only); the optimum size is identical to the
        serial sweep's.  ``check_only`` runs always stay serial (the
        first witness ends the search, so there is nothing to fan out).
    trace:
        Optional :class:`repro.obs.Tracer`; defaults to the ambient
        tracer.  A traced run closes one ``mbc_star`` root span with
        per-phase children (``vertex_reduction``, ``heuristic``,
        ``core_reduction``, ``ordering``, ``sweep``) and one ``ego``
        span per examined vertex — see ``docs/OBSERVABILITY.md``.
    budget:
        Optional :class:`repro.resilience.Budget` making this an
        *anytime* solve: reduction and heuristic always run, then the
        budget is checked per ego network and charged per
        branch-and-bound node; on exhaustion the current incumbent is
        returned and ``budget.status`` reads ``BUDGET_EXHAUSTED``
        (``check_only`` truncation returns the empty result — "not
        proven").  See ``docs/ROBUSTNESS.md``.

    Returns
    -------
    BalancedClique
        The maximum balanced clique (or the feasibility witness in
        ``check_only`` mode); empty when no clique satisfies ``tau``.
        Under an exhausted budget: the best incumbent proven so far.
    """
    if tau < 0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    if ordering not in ("degeneracy", "degree", "id"):
        raise ValueError(f"unknown ordering {ordering!r}")
    validate_engine(engine)
    workers = resolve_workers(parallel)
    if workers > 1 and not engine_spec(engine).supports_parallel:
        raise ValueError(
            f"parallel execution requires an engine with parallel "
            f"support; engine {engine!r} is serial-only")
    best = initial if initial is not None else EMPTY_RESULT
    if not best.is_empty and not best.satisfies(tau):
        raise ValueError("initial clique violates the tau constraint")

    tracer = trace if trace is not None else current_tracer()
    root = tracer.span(
        "mbc_star", n=graph.num_vertices, tau=tau, engine=engine,
        workers=workers, check_only=check_only)
    with root:
        result = _pipeline(
            graph, tau, use_edge_reduction, stats, check_only, ordering,
            use_coloring, use_core, engine, workers, best, tracer,
            budget)
        if tracer.enabled:
            root.set(size=result.size)
            if budget is not None:
                root.set(status=budget.status.value,
                         budget_nodes=budget.nodes)
    return result


def _pipeline(
    graph: SignedGraph,
    tau: int,
    use_edge_reduction: bool,
    stats: SearchStats | None,
    check_only: bool,
    ordering: str,
    use_coloring: bool,
    use_core: bool,
    engine: str,
    workers: int,
    best: BalancedClique,
    tracer: Tracer,
    budget: "Budget | None",
) -> BalancedClique:
    """The MBC* pipeline behind :func:`mbc_star` (root span open)."""
    # Line 1: VertexReduction (plus EdgeReduction for the variant).
    with tracer.span("vertex_reduction", n=graph.num_vertices) as phase:
        alive = vertex_reduction(graph, tau)
        working, mapping = graph.subgraph(alive)
        phase.set(kept=working.num_vertices)
    if use_edge_reduction:
        with tracer.span("edge_reduction",
                         edges=working.num_edges) as phase:
            reducer = edge_reduction_fast if engine == "bitset" \
                else edge_reduction
            working = reducer(working, tau)
            alive2 = vertex_reduction(working, tau)
            if len(alive2) < working.num_vertices:
                working, mapping2 = working.subgraph(alive2)
                mapping = [mapping[idx] for idx in mapping2]
            phase.set(kept_edges=working.num_edges,
                      kept=working.num_vertices)

    # Line 2: heuristic initial solution.  The mask engines need the
    # working graph's adjacency masks for the sweep anyway; built first,
    # they also carry the heuristic's greedy.
    if engine != "set":
        working.pos_adjacency_bits()
        working.neg_adjacency_bits()
    with tracer.span("heuristic") as phase:
        heuristic = mbc_heuristic(working, tau)
        phase.set(size=heuristic.size)
    if stats is not None:
        stats.heuristic_size = heuristic.size
    if heuristic.size > best.size:
        best = BalancedClique.from_sides(
            {mapping[v] for v in heuristic.left},
            {mapping[v] for v in heuristic.right})
    if check_only and best.satisfies(tau) and not best.is_empty:
        return best

    # First budget checkpoint: the polynomial preprocessing above
    # always runs (so a truncated answer is at least the heuristic);
    # everything exponential from here on is interruptible.
    if budget is not None:
        try:
            budget.check()
        except BudgetExceeded:
            return EMPTY_RESULT if check_only else best

    # Line 3: reduce to the |C*|-core, signs ignored.  ``required`` is
    # the minimum acceptable clique size: beat the incumbent and leave
    # room for tau vertices per side.
    required = max(best.size + 1, 2 * tau)
    with tracer.span("core_reduction", required=required) as phase:
        core_alive: set[int] | None = None
        if engine == "bitset":
            unsigned = UnsignedGraph.from_signed_bits(working)
            core_mask = k_core_active_mask(
                unsigned.adjacency_bits(), required - 1,
                unsigned.all_bits())
            phase.set(kept=core_mask.bit_count())
            if not core_mask:
                return best
        elif engine == "numpy":
            # Label-blind adjacency straight from the signed matrices;
            # no UnsignedGraph object is needed on this path.
            unsigned_mat = (working.pos_adjacency_matrix()
                            | working.neg_adjacency_matrix())
            core_row = npmask.k_core_active(
                unsigned_mat, required - 1,
                npmask.full_row(working.num_vertices))
            core_kept = npmask.row_count(core_row)
            phase.set(kept=core_kept)
            if core_kept == 0:
                return best
        else:
            unsigned = UnsignedGraph.from_signed(working)
            core_alive = k_core_subset(
                unsigned, required - 1, unsigned.vertices())
            phase.set(kept=len(core_alive))
            if not core_alive:
                return best

    # Line 4: vertex ordering (degeneracy by default; ego-networks of
    # higher-ranked neighbours then have at most degeneracy(G) many
    # vertices).
    with tracer.span("ordering", kind=ordering) as phase:
        if ordering == "degeneracy":
            if engine == "bitset":
                # Ordering the core-induced subgraph suffices: every
                # clique able to beat the incumbent lies inside the
                # |C*|-core, and the sweep only ever ranks core vertices.
                order = degeneracy_ordering_mask(
                    unsigned.adjacency_bits(), core_mask)
            elif engine == "numpy":
                order = npmask.degeneracy_ordering(
                    unsigned_mat, core_row)
            else:
                full_order = degeneracy_ordering(unsigned)
                order = [v for v in full_order if v in core_alive]
        else:
            if core_alive is None:
                if engine == "bitset":
                    core_alive = set(iter_bits(core_mask))
                else:
                    core_alive = set(npmask.row_indices(
                        core_row, working.num_vertices).tolist())
            if ordering == "degree":
                if engine == "numpy":
                    degrees = npmask.degrees_in_active(
                        unsigned_mat,
                        npmask.full_row(working.num_vertices))
                    order = sorted(
                        core_alive, key=lambda v: int(degrees[v]))
                else:
                    order = sorted(core_alive, key=unsigned.degree)
            else:
                order = sorted(core_alive)
        phase.set(n=len(order))
    rank = {v: position for position, v in enumerate(order)}

    # Parallel fan-out: the per-vertex instances of the sweep below are
    # order-independent, so with workers requested they are dispatched
    # to a process pool instead (identical optimum size guaranteed; see
    # repro.parallel).  check_only stays serial: its contract is "stop
    # at the first witness", which a fan-out cannot honour cheaply.
    if workers > 1 and engine_spec(engine).supports_parallel \
            and not check_only:
        return mbc_ego_fanout(
            working, mapping, tau, best, order, workers,
            use_core=use_core, use_coloring=use_coloring, stats=stats,
            engine=engine, trace=tracer, budget=budget)

    # Line 5: process vertices in reverse degeneracy order.  The bitset
    # engine carries the "higher-ranked" filter as a mask accumulated
    # over already-processed vertices (exactly the vertices ranked above
    # the current one).
    with tracer.span("sweep", n=len(order)):
        allowed_mask = 0
        allowed_row = npmask.row_from_mask(
            0, working.num_vertices) if engine == "numpy" else None
        if engine == "bitset":
            pos_bits = working.pos_adjacency_bits()
            neg_bits = working.neg_adjacency_bits()
        for u in reversed(order):
            # Anytime contract: a budgeted sweep stops between (or,
            # via the per-node spend inside solve_mdc, within) ego
            # networks and falls through to return the incumbent.
            if budget is not None:
                try:
                    budget.check()
                except BudgetExceeded:
                    break
            with tracer.span("ego", v=mapping[u]) as ego:
                required = max(best.size + 1, 2 * tau)
                this_allowed_mask = allowed_mask
                allowed_mask |= 1 << u
                if allowed_row is not None:
                    this_allowed_row = allowed_row.copy()
                    npmask.set_bit(allowed_row, u)
                if stats is not None:
                    stats.vertices_examined += 1
                # Line 7: |C*|-core of g_u (k shifted by one: u is
                # excluded).  Line 8: colouring-based pruning of the
                # whole instance.  Both run on the engine's native
                # representation; the bitset path peels g_u on the
                # global adjacency masks and builds the local network
                # over the survivors only.
                if engine == "bitset":
                    members = ((pos_bits[u] | neg_bits[u])
                               & this_allowed_mask).bit_count()
                    if members + 1 < required:
                        ego.set(pruned="size")
                        continue
                    survivors = ego_core_mask(
                        pos_bits, neg_bits, u, this_allowed_mask,
                        required - 2 if use_core else 0)
                    if survivors.bit_count() + 1 < required:
                        ego.set(pruned="core")
                        continue
                    network = dichromatic_network_from_masks(
                        pos_bits, neg_bits, u, survivors)
                    if use_coloring:
                        bound = coloring_upper_bound_active_mask(
                            network.adjacency_bits(), network.all_bits())
                        if bound < required - 1:
                            ego.set(pruned="color")
                            continue
                    ego.set(n=members, reduced=network.num_vertices)
                    if stats is not None:
                        stats.instances += 1
                        ego_edges, dichromatic_edges = \
                            ego_edge_counts_from_masks(
                                pos_bits, neg_bits, u, this_allowed_mask)
                        stats.record_reduction(
                            ego_edges, dichromatic_edges,
                            network.num_edges)
                    try:
                        found = solve_mdc(
                            network, tau - 1, tau,
                            must_exceed=required - 2,
                            stats=stats,
                            check_only=check_only,
                            use_coloring=use_coloring,
                            use_core=use_core,
                            engine=engine,
                            trace=tracer,
                            budget=budget)
                    except BudgetExceeded:
                        break
                elif engine == "numpy":
                    network = build_dichromatic_network_matrix(
                        working, u, this_allowed_row)
                    if network.num_vertices + 1 < required:
                        ego.set(pruned="size")
                        continue
                    adj_mat = network.adjacency_matrix()
                    active_row = network.all_row()
                    if use_core:
                        active_row = npmask.k_core_active(
                            adj_mat, required - 2, active_row)
                    reduced_count = npmask.row_count(active_row)
                    if reduced_count + 1 < required:
                        ego.set(pruned="core")
                        continue
                    if use_coloring:
                        bound = npmask.coloring_upper_bound_active(
                            adj_mat, active_row)
                        if bound < required - 1:
                            ego.set(pruned="color")
                            continue
                    ego.set(n=network.num_vertices,
                            reduced=reduced_count)
                    if stats is not None:
                        stats.instances += 1
                        ego_edges = ego_edge_count_from_matrix(
                            working.pos_adjacency_matrix(),
                            working.neg_adjacency_matrix(),
                            u, this_allowed_row)
                        reduced_edges = npmask.active_edge_count(
                            adj_mat, active_row)
                        stats.record_reduction(
                            ego_edges, network.num_edges, reduced_edges)
                    try:
                        found = solve_mdc(
                            network, tau - 1, tau,
                            must_exceed=required - 2,
                            stats=stats,
                            check_only=check_only,
                            use_coloring=use_coloring,
                            use_core=use_core,
                            engine=engine,
                            active_row=active_row,
                            trace=tracer,
                            budget=budget)
                    except BudgetExceeded:
                        break
                else:
                    allowed = HigherRanked(rank, rank[u])
                    network = build_dichromatic_network(
                        working, u, allowed)
                    if network.num_vertices + 1 < required:
                        ego.set(pruned="size")
                        continue
                    active = set(network.vertices())
                    if use_core:
                        active = k_core_active(
                            network, required - 2, active)
                    if len(active) + 1 < required:
                        ego.set(pruned="core")
                        continue
                    if use_coloring:
                        bound = _color_bound(network, active)
                        if bound < required - 1:
                            ego.set(pruned="color")
                            continue
                    ego.set(n=network.num_vertices, reduced=len(active))
                    if stats is not None:
                        stats.instances += 1
                        ego_edges = ego_network_edge_count(
                            working, u, allowed)
                        reduced_edges = _active_edge_count(
                            network, active)
                        stats.record_reduction(
                            ego_edges, network.num_edges, reduced_edges)
                    try:
                        found = solve_mdc(
                            network, tau - 1, tau,
                            must_exceed=required - 2,
                            stats=stats,
                            check_only=check_only,
                            active=active,
                            use_coloring=use_coloring,
                            use_core=use_core,
                            engine=engine,
                            trace=tracer,
                            budget=budget)
                    except BudgetExceeded:
                        break
                ego.set(found=found is not None)
                if found is None:
                    continue
                left = {mapping[u]}
                right: set[int] = set()
                for v in found:
                    orig = mapping[network.origin[v]]
                    if network.is_left[v]:
                        left.add(orig)
                    else:
                        right.add(orig)
                candidate = BalancedClique.from_sides(left, right)
                if check_only:
                    return candidate
                if candidate.size > best.size:
                    best = candidate

    if check_only:
        return EMPTY_RESULT
    return best


def _color_bound(network: "DichromaticGraph", active: set[int]) -> int:
    """Greedy-colouring clique bound over ``active`` in ``network``."""
    from ..dichromatic.cores import coloring_upper_bound_active

    return coloring_upper_bound_active(network, active)


def _active_edge_count(network: "DichromaticGraph",
                       active: set[int]) -> int:
    """Edges of the dichromatic network inside ``active``."""
    return sum(
        len(network.neighbors(v) & active) for v in active) // 2
