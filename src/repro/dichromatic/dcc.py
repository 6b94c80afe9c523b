"""DCC — dichromatic clique checking (Algorithm 4 of the paper).

``DCC(g, tau_L, tau_R)`` decides whether ``g`` contains *any*
dichromatic clique with at least ``tau_L`` L-vertices and ``tau_R``
R-vertices.  Unlike MDC it does not look for the maximum — it stops the
moment both quotas reach zero — and it prunes with the
``(tau_L, tau_R)``-core rather than colouring bounds, exactly as in the
pseudocode.

Like MDC, the check runs on one of three engines: ``"bitset"``
(default) carries the candidate set as an int mask over the kernels of
:mod:`repro.kernels.active` with incrementally maintained degrees,
``"numpy"`` carries it as a uint64 mask row over the vectorised
kernels of :mod:`repro.kernels.npmask`, and ``"set"`` is the original
adjacency-set implementation retained for differential testing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..kernels import npmask, validate_engine
from ..kernels.active import bicore_active_mask
from ..kernels.bitset import mask_of
from ..obs import Span, Tracer, current_tracer
from ..resilience.budget import Budget
from .cores import bicore_active
from .graph import DichromaticGraph

if TYPE_CHECKING:  # pragma: no cover
    from ..core.stats import SearchStats
    from ..kernels.npmask import Matrix, Row

__all__ = ["dichromatic_clique_check", "dichromatic_clique_witness"]


def dichromatic_clique_check(
    graph: DichromaticGraph,
    tau_l: int,
    tau_r: int,
    stats: "SearchStats | None" = None,
    active: set[int] | None = None,
    engine: str = "bitset",
    active_row: "Row | None" = None,
    trace: Tracer | None = None,
    budget: "Budget | None" = None,
) -> bool:
    """True iff ``graph`` has a dichromatic clique meeting the quotas.

    ``active`` optionally restricts the search to a vertex subset
    (callers pass an already-core-reduced set); the numpy engine also
    accepts it pre-packed as an ``active_row``.  ``trace`` defaults to
    the ambient tracer; each check closes one ``dcc`` span.  A
    ``budget`` is charged one node per branch-and-bound node.
    """
    return dichromatic_clique_witness(
        graph, tau_l, tau_r, stats=stats, active=active,
        engine=engine, active_row=active_row,
        trace=trace, budget=budget) is not None


def dichromatic_clique_witness(
    graph: DichromaticGraph,
    tau_l: int,
    tau_r: int,
    stats: "SearchStats | None" = None,
    active: set[int] | None = None,
    engine: str = "bitset",
    active_row: "Row | None" = None,
    trace: Tracer | None = None,
    budget: "Budget | None" = None,
) -> set[int] | None:
    """Like :func:`dichromatic_clique_check` but returns the witness
    clique (local vertex ids), or ``None`` when infeasible."""
    validate_engine(engine)
    tracer = trace if trace is not None else current_tracer()
    span = tracer.span(
        "dcc", n=graph.num_vertices, tau_l=tau_l, tau_r=tau_r,
        engine=engine)
    with span:
        found = _witness(graph, tau_l, tau_r, stats, active, engine,
                         active_row, span if tracer.enabled else None,
                         budget)
        if tracer.enabled:
            span.set(found=found is not None)
    return found


def _witness(
    graph: DichromaticGraph,
    tau_l: int,
    tau_r: int,
    stats: "SearchStats | None",
    active: set[int] | None,
    engine: str,
    active_row: "Row | None",
    span: Span | None,
    budget: "Budget | None",
) -> set[int] | None:
    """Engine dispatch behind the public check (span already open)."""
    witness: list[int] = []
    if engine == "set":
        if active is None:
            active = set(graph.vertices())
        else:
            active = set(active)
        if _check(graph, active, tau_l, tau_r, stats, witness, span,
                  budget):
            return set(witness)
        return None
    if engine == "numpy":
        if active_row is None:
            if active is not None:
                active_row = npmask.row_from_mask(
                    mask_of(active), graph.num_vertices)
            else:
                active_row = graph.all_row()
        if _check_np(
                graph.adjacency_matrix(), graph.left_row(),
                graph.num_vertices, active_row, tau_l, tau_r, stats,
                witness, span, budget):
            return set(witness)
        return None
    active_mask = graph.all_bits() if active is None else mask_of(active)
    if _check_bits(
            graph.adjacency_bits(), graph.left_bits(), graph.num_vertices,
            active_mask, tau_l, tau_r, stats, witness, span, budget):
        return set(witness)
    return None


def _check_bits(
    adj: list[int],
    left_mask: int,
    num_vertices: int,
    active: int,
    tau_l: int,
    tau_r: int,
    stats: "SearchStats | None",
    witness: list[int],
    span: Span | None = None,
    budget: "Budget | None" = None,
) -> bool:
    if stats is not None:
        stats.nodes += 1
    if span is not None:
        span.count("nodes")
    if budget is not None:
        budget.spend()
    if tau_l == 0 and tau_r == 0:
        return True
    active = bicore_active_mask(adj, left_mask, tau_l, tau_r, active)
    left = active & left_mask
    left_count = left.bit_count()
    active_count = active.bit_count()
    # Feasibility guard (implicit in the pseudocode's empty loop): each
    # side must still be able to cover its quota.
    if left_count < tau_l or active_count - left_count < tau_r:
        return False

    if tau_l > 0 and tau_r == 0:
        pool = left
    elif tau_l == 0 and tau_r > 0:
        pool = active & ~left
    else:
        pool = active

    degree = [0] * num_vertices
    rest = active
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        degree[v] = (adj[v] & active).bit_count()

    while pool:
        best_v = -1
        best_d = active_count
        rest = pool
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            if degree[u] < best_d:
                best_d = degree[u]
                best_v = u
        v = best_v
        bit = 1 << v
        if left_mask & bit:
            next_l, next_r = tau_l - 1, tau_r
        else:
            next_l, next_r = tau_l, tau_r - 1
        witness.append(v)
        if _check_bits(adj, left_mask, num_vertices, adj[v] & active,
                       next_l, next_r, stats, witness, span, budget):
            return True
        witness.pop()
        pool &= ~bit
        active &= ~bit
        active_count -= 1
        rest = adj[v] & active
        while rest:
            low = rest & -rest
            rest ^= low
            degree[low.bit_length() - 1] -= 1
    return False


def _check_np(
    mat: "Matrix",
    left_row: "Row",
    num_vertices: int,
    active: "Row",
    tau_l: int,
    tau_r: int,
    stats: "SearchStats | None",
    witness: list[int],
    span: Span | None = None,
    budget: "Budget | None" = None,
) -> bool:
    """Numpy-engine mirror of :func:`_check_bits` (identical search)."""
    if stats is not None:
        stats.nodes += 1
    if span is not None:
        span.count("nodes")
    if budget is not None:
        budget.spend()
    if tau_l == 0 and tau_r == 0:
        return True
    active = npmask.bicore_active(mat, left_row, tau_l, tau_r, active)
    left = active & left_row
    left_count = npmask.row_count(left)
    active_count = npmask.row_count(active)
    # Feasibility guard (implicit in the pseudocode's empty loop): each
    # side must still be able to cover its quota.
    if left_count < tau_l or active_count - left_count < tau_r:
        return False

    if tau_l > 0 and tau_r == 0:
        pool = left
    elif tau_l == 0 and tau_r > 0:
        pool = active & ~left_row
    else:
        pool = active

    pool_alive = npmask.row_bool(pool, num_vertices)
    degree = npmask.degrees_in_active(mat, active)
    active = active.copy()
    while True:
        # Minimum-degree pool vertex (lowest id on ties).
        v = npmask.argmin_active(degree, pool_alive)
        if v < 0:
            break
        if npmask.test_bit(left_row, v):
            next_l, next_r = tau_l - 1, tau_r
        else:
            next_l, next_r = tau_l, tau_r - 1
        witness.append(v)
        if _check_np(mat, left_row, num_vertices,
                     npmask.intersect_active(mat, v, active),
                     next_l, next_r, stats, witness, span, budget):
            return True
        witness.pop()
        pool_alive[v] = False
        npmask.clear_bit(active, v)
        npmask.subtract_members(degree, mat[v] & active, num_vertices)
    return False


def _check(
    graph: DichromaticGraph,
    active: set[int],
    tau_l: int,
    tau_r: int,
    stats: "SearchStats | None",
    witness: list[int] | None,
    span: Span | None = None,
    budget: "Budget | None" = None,
) -> bool:
    if stats is not None:
        stats.nodes += 1
    if span is not None:
        span.count("nodes")
    if budget is not None:
        budget.spend()
    if tau_l == 0 and tau_r == 0:
        return True
    active = bicore_active(graph, tau_l, tau_r, active)
    left = {v for v in active if graph.is_left[v]}
    right = active - left
    # Feasibility guard (implicit in the pseudocode's empty loop): each
    # side must still be able to cover its quota.
    if len(left) < tau_l or len(right) < tau_r:
        return False

    if tau_l > 0 and tau_r == 0:
        branch_pool = left
    elif tau_l == 0 and tau_r > 0:
        branch_pool = right
    else:
        branch_pool = set(active)

    while branch_pool:
        v = min(
            branch_pool, key=lambda x: len(graph.neighbors(x) & active))
        if graph.is_left[v]:
            next_l, next_r = tau_l - 1, tau_r
        else:
            next_l, next_r = tau_l, tau_r - 1
        if witness is not None:
            witness.append(v)
        if _check(graph, graph.neighbors(v) & active,
                  next_l, next_r, stats, witness, span, budget):
            return True
        if witness is not None:
            witness.pop()
        branch_pool.discard(v)
        active.discard(v)
    return False
