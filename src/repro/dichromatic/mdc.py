"""MDC — maximum dichromatic clique branch-and-bound.

The ``MDC`` procedure of Algorithm 2.  Given a dichromatic graph ``g``
and residual side thresholds ``(tau_L, tau_R)``, it finds the largest
clique ``C'`` of ``g`` with at least ``tau_L`` L-vertices and ``tau_R``
R-vertices whose size exceeds a caller-supplied bar (``must_exceed``).

Per branch-and-bound node (faithful to the pseudocode):

1. record the running clique if it beats the bar and both residual
   thresholds are satisfied;
2. reduce the candidate set to its ``(bar - |C|)``-core (label-blind);
3. prune when either side cannot reach its threshold or the greedy
   colouring bound shows no large-enough clique exists;
4. choose the branching pool ``B`` — the side still owing vertices, or
   everything when neither/both sides owe;
5. repeatedly branch on the minimum-degree vertex of ``B``, recursing on
   its neighbourhood, then discard it from the instance.

Thresholds may go below zero (a side may exceed its quota); the search
is exhaustive, so the returned clique is exactly
``argmax {|C'| : C' beats the bar and satisfies the thresholds}``.

Three engines implement the identical search:

* ``engine="bitset"`` (default) carries the active candidate set as a
  single int mask over the kernels of :mod:`repro.kernels.active` and
  maintains degree-in-active counts *incrementally* — the set engine's
  min-degree branching re-scanned every pool vertex's neighbourhood on
  every iteration, an O(|B|² · d) pattern this engine reduces to
  O(|B|²) cheap array lookups plus one neighbour sweep per removal;
* ``engine="numpy"`` carries the candidate set as a uint64 mask row
  over the vectorised kernels of :mod:`repro.kernels.npmask` — per-node
  degree recomputation, core peeling and the colouring bound all run
  as whole-array operations;
* ``engine="set"`` is the original adjacency-set implementation, kept
  for differential testing and the ablation benchmarks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..kernels import npmask, validate_engine
from ..kernels.active import (
    coloring_upper_bound_active_mask,
    k_core_active_mask,
)
from ..kernels.bitset import mask_of
from ..obs import Span, Tracer, current_tracer
from ..resilience.budget import Budget
from .cores import coloring_upper_bound_active, k_core_active
from .graph import DichromaticGraph

if TYPE_CHECKING:  # pragma: no cover
    from ..core.stats import SearchStats
    from ..kernels.npmask import Row

__all__ = ["solve_mdc", "FeasibleFound"]


class FeasibleFound(Exception):
    """Raised internally to stop the search in feasibility-check mode."""

    def __init__(self, clique: set[int]) -> None:
        super().__init__("feasible dichromatic clique found")
        self.clique = clique


def solve_mdc(
    graph: DichromaticGraph,
    tau_l: int,
    tau_r: int,
    must_exceed: int,
    stats: "SearchStats | None" = None,
    check_only: bool = False,
    active: set[int] | None = None,
    use_coloring: bool = True,
    use_core: bool = True,
    engine: str = "bitset",
    active_row: "Row | None" = None,
    trace: Tracer | None = None,
    budget: "Budget | None" = None,
) -> set[int] | None:
    """Solve one maximum-dichromatic-clique instance.

    Parameters
    ----------
    graph:
        The dichromatic network (typically ``g_u`` without ``u``).
    tau_l, tau_r:
        Residual side quotas.  When the anchor vertex ``u`` is an
        L-vertex excluded from ``graph``, the caller passes
        ``(tau - 1, tau)``.
    must_exceed:
        Only cliques strictly larger than this count (the incumbent
        ``|C*|`` minus the anchor) are returned.
    stats:
        Optional :class:`repro.core.stats.SearchStats` accumulator.
    check_only:
        If True, stop as soon as *any* clique meeting the thresholds is
        found (the PF-BS optimization of Section IV-B) and return it —
        it need not be maximum.
    active:
        Optional subset of vertices to search within (callers pass the
        already-core-reduced vertex set); defaults to all vertices.
    use_coloring, use_core:
        Ablation switches for the two per-node pruning rules (both on
        by default, as in the paper); used by the ablation benchmarks
        to quantify each rule's contribution.
    engine:
        ``"bitset"`` (default), ``"numpy"`` or ``"set"`` — see the
        module docstring.
    active_row:
        Numpy-engine fast path for ``active``: the active set as a
        uint64 mask row (MBC*/PF* pass their already-peeled row).
    trace:
        Optional :class:`repro.obs.Tracer`; defaults to the ambient
        tracer.  Each instance closes one ``mdc`` span recording the
        instance size, thresholds, branch count and outcome.
    budget:
        Optional :class:`repro.resilience.Budget`; charged one node
        per branch-and-bound node, so a budgeted caller is interrupted
        (``BudgetExceeded``) mid-instance rather than after it.

    Returns
    -------
    set[int] | None
        Best qualifying clique (local vertex ids), or ``None``.
    """
    validate_engine(engine)
    tracer = trace if trace is not None else current_tracer()
    span = tracer.span(
        "mdc", n=graph.num_vertices, tau_l=tau_l, tau_r=tau_r,
        must_exceed=must_exceed, engine=engine)
    with span:
        found = _solve(
            graph, tau_l, tau_r, must_exceed, stats, check_only,
            active, use_coloring, use_core, engine, active_row,
            span if tracer.enabled else None, budget)
        if tracer.enabled:
            span.set(found=found is not None)
            nodes = span.attrs.get("nodes", 0)
            assert isinstance(nodes, int)
            tracer.histogram("mdc.nodes").observe(nodes)
    return found


def _solve(
    graph: DichromaticGraph,
    tau_l: int,
    tau_r: int,
    must_exceed: int,
    stats: "SearchStats | None",
    check_only: bool,
    active: set[int] | None,
    use_coloring: bool,
    use_core: bool,
    engine: str,
    active_row: "Row | None",
    span: Span | None,
    budget: "Budget | None",
) -> set[int] | None:
    """Engine dispatch behind :func:`solve_mdc` (span already open)."""
    if engine == "set":
        state = _State(graph, must_exceed, stats)
        state.use_coloring = use_coloring
        state.use_core = use_core
        state.span = span
        state.budget = budget
        if active is None:
            active = set(graph.vertices())
        else:
            active = set(active)
        try:
            state.search(set(), active, tau_l, tau_r, check_only)
        except FeasibleFound as found:
            return found.clique
        return state.best

    if engine == "numpy":
        if active_row is None:
            if active is not None:
                active_row = npmask.row_from_mask(
                    mask_of(active), graph.num_vertices)
            else:
                active_row = graph.all_row()
        state_n = _ArrayState(graph, must_exceed, stats)
        state_n.use_coloring = use_coloring
        state_n.use_core = use_core
        state_n.span = span
        state_n.budget = budget
        try:
            state_n.search([], active_row, tau_l, tau_r, check_only)
        except FeasibleFound as found:
            return found.clique
        return state_n.best

    active_mask = graph.all_bits() if active is None else mask_of(active)
    state_b = _BitsetState(graph, must_exceed, stats)
    state_b.use_coloring = use_coloring
    state_b.use_core = use_core
    state_b.span = span
    state_b.budget = budget
    try:
        state_b.search([], active_mask, tau_l, tau_r, check_only)
    except FeasibleFound as found:
        return found.clique
    return state_b.best


class _BitsetState:
    """Mutable search state for the bitset engine.

    The running clique is a list used as a stack; the active candidate
    set and branching pool are int masks; degree-in-active counts live
    in a flat list indexed by local vertex id and are updated in place
    as branch vertices leave the instance.
    """

    def __init__(
        self,
        graph: DichromaticGraph,
        must_exceed: int,
        stats: "SearchStats | None",
    ) -> None:
        self.adj = graph.adjacency_bits()
        self.left_mask = graph.left_bits()
        self.num_vertices = graph.num_vertices
        self.best: set[int] | None = None
        self.best_size = must_exceed
        self.stats = stats
        self.use_coloring = True
        self.use_core = True
        self.span: Span | None = None
        self.budget: Budget | None = None

    def search(
        self,
        clique: list[int],
        active: int,
        tau_l: int,
        tau_r: int,
        check_only: bool,
    ) -> None:
        adj = self.adj
        if self.stats is not None:
            self.stats.nodes += 1
        if self.span is not None:
            self.span.count("nodes")
        if self.budget is not None:
            self.budget.spend()
        if tau_l <= 0 and tau_r <= 0:
            if check_only:
                # Boundary materialisation: the found clique leaves the
                # engine as a set, per the solve_mdc contract.
                raise FeasibleFound(set(clique))  # repro: noqa R001
            if len(clique) > self.best_size:
                self.best = set(clique)  # repro: noqa R001
                self.best_size = len(clique)

        if self.use_core:
            active = k_core_active_mask(
                adj, self.best_size - len(clique), active)
        left = active & self.left_mask
        left_count = left.bit_count()
        active_count = active.bit_count()
        if left_count < tau_l or active_count - left_count < tau_r:
            return
        if not check_only and self.use_coloring:
            bound = coloring_upper_bound_active_mask(adj, active)
            if bound <= self.best_size - len(clique):
                return

        if tau_l > 0 and tau_r <= 0:
            pool = left
        elif tau_l <= 0 and tau_r > 0:
            pool = active & ~left
        else:
            pool = active

        # Degrees within the active set, computed once per node and then
        # maintained incrementally as branch vertices are discarded.
        degree = [0] * self.num_vertices
        rest = active
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            degree[v] = (adj[v] & active).bit_count()

        while pool:
            # Minimum-degree vertex of the pool (lowest id on ties).
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
            if self.left_mask & bit:
                next_l, next_r = tau_l - 1, tau_r
            else:
                next_l, next_r = tau_l, tau_r - 1
            clique.append(v)
            self.search(clique, adj[v] & active, next_l, next_r, check_only)
            clique.pop()
            pool &= ~bit
            active &= ~bit
            active_count -= 1
            rest = adj[v] & active
            while rest:
                low = rest & -rest
                rest ^= low
                degree[low.bit_length() - 1] -= 1
            # Re-check viability: removing v may make the remainder
            # too small for either quota or for a strictly larger clique.
            if len(clique) + active_count <= self.best_size:
                return


class _ArrayState:
    """Mutable search state for the numpy engine.

    The exact search of :class:`_BitsetState` with every mask replaced
    by a uint64 row over :mod:`repro.kernels.npmask`: per-node degrees
    come from one vectorised popcount pass, the branching pool is a
    bool membership array scanned by masked argmin (first occurrence =
    lowest id, matching the bitset tie-break), and degree updates are
    one bool-subtract per removal.
    """

    def __init__(
        self,
        graph: DichromaticGraph,
        must_exceed: int,
        stats: "SearchStats | None",
    ) -> None:
        self.mat = graph.adjacency_matrix()
        self.left_row = graph.left_row()
        self.num_vertices = graph.num_vertices
        self.best: set[int] | None = None
        self.best_size = must_exceed
        self.stats = stats
        self.use_coloring = True
        self.use_core = True
        self.span: Span | None = None
        self.budget: Budget | None = None

    def search(
        self,
        clique: list[int],
        active: "Row",
        tau_l: int,
        tau_r: int,
        check_only: bool,
    ) -> None:
        mat = self.mat
        n = self.num_vertices
        if self.stats is not None:
            self.stats.nodes += 1
        if self.span is not None:
            self.span.count("nodes")
        if self.budget is not None:
            self.budget.spend()
        if tau_l <= 0 and tau_r <= 0:
            if check_only:
                # Boundary materialisation, per the solve_mdc contract.
                raise FeasibleFound(set(clique))
            if len(clique) > self.best_size:
                self.best = set(clique)
                self.best_size = len(clique)

        if self.use_core:
            active = npmask.k_core_active(
                mat, self.best_size - len(clique), active)
        left = active & self.left_row
        left_count = npmask.row_count(left)
        active_count = npmask.row_count(active)
        if left_count < tau_l or active_count - left_count < tau_r:
            return
        if not check_only and self.use_coloring:
            bound = npmask.coloring_upper_bound_active(mat, active)
            if bound <= self.best_size - len(clique):
                return

        if tau_l > 0 and tau_r <= 0:
            pool = left
        elif tau_l <= 0 and tau_r > 0:
            pool = active & ~self.left_row
        else:
            pool = active

        pool_alive = npmask.row_bool(pool, n)
        degree = npmask.degrees_in_active(mat, active)
        # The candidate row is mutated in place below; detach it from
        # whatever the caller handed in (it may be a shared prefix row).
        active = active.copy()
        while True:
            # Minimum-degree pool vertex (lowest id on ties).
            v = npmask.argmin_active(degree, pool_alive)
            if v < 0:
                break
            if npmask.test_bit(self.left_row, v):
                next_l, next_r = tau_l - 1, tau_r
            else:
                next_l, next_r = tau_l, tau_r - 1
            clique.append(v)
            self.search(
                clique, npmask.intersect_active(mat, v, active),
                next_l, next_r, check_only)
            clique.pop()
            pool_alive[v] = False
            npmask.clear_bit(active, v)
            active_count -= 1
            npmask.subtract_members(degree, mat[v] & active, n)
            # Re-check viability: removing v may make the remainder
            # too small for either quota or for a strictly larger clique.
            if len(clique) + active_count <= self.best_size:
                return


class _State:
    """Mutable search state shared across MDC recursion levels."""

    def __init__(
        self,
        graph: DichromaticGraph,
        must_exceed: int,
        stats: "SearchStats | None",
    ) -> None:
        self.graph = graph
        self.best: set[int] | None = None
        self.best_size = must_exceed
        self.stats = stats
        self.use_coloring = True
        self.use_core = True
        self.span: Span | None = None
        self.budget: Budget | None = None

    def search(
        self,
        clique: set[int],
        active: set[int],
        tau_l: int,
        tau_r: int,
        check_only: bool,
    ) -> None:
        graph = self.graph
        if self.stats is not None:
            self.stats.nodes += 1
        if self.span is not None:
            self.span.count("nodes")
        if self.budget is not None:
            self.budget.spend()
        if tau_l <= 0 and tau_r <= 0:
            if check_only:
                raise FeasibleFound(set(clique))
            if len(clique) > self.best_size:
                self.best = set(clique)
                self.best_size = len(clique)

        # Degree-based reduction: a strictly larger clique needs every
        # remaining member to keep (best_size - |C|) neighbours among
        # the remaining members.
        if self.use_core:
            active = k_core_active(
                graph, self.best_size - len(clique), active)
        left = {v for v in active if graph.is_left[v]}
        right_count = len(active) - len(left)
        if len(left) < tau_l or right_count < tau_r:
            return
        if not check_only and self.use_coloring:
            bound = coloring_upper_bound_active(graph, active)
            if bound <= self.best_size - len(clique):
                return

        if tau_l > 0 and tau_r <= 0:
            branch_pool = left
        elif tau_l <= 0 and tau_r > 0:
            branch_pool = active - left
        else:
            branch_pool = set(active)

        while branch_pool:
            v = min(
                branch_pool,
                key=lambda x: len(graph.neighbors(x) & active))
            if graph.is_left[v]:
                next_l, next_r = tau_l - 1, tau_r
            else:
                next_l, next_r = tau_l, tau_r - 1
            clique.add(v)
            self.search(
                clique, graph.neighbors(v) & active,
                next_l, next_r, check_only)
            clique.discard(v)
            branch_pool.discard(v)
            active.discard(v)
            # Re-check viability: removing v may make the remainder
            # too small for either quota or for a strictly larger clique.
            if len(clique) + len(active) <= self.best_size:
                return
