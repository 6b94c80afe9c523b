"""Worker-side execution of ego-network tasks.

Each pool worker holds one :class:`WorkerContext` — the reduced graph
as two adjacency-mask lists, the processing order, the constraint and
the shared incumbent — installed once at pool start:

* under ``fork`` the parent stores the context in the module global
  :data:`_CTX` *before* creating the pool, and the children inherit it
  through the address space copy (zero serialization);
* under ``spawn`` the parent ships :meth:`WorkerContext.pack` — the
  masks flattened to two fixed-stride byte blobs
  (:func:`repro.kernels.bitset.masks_to_bytes`) — through the pool
  initializer, and each child rebuilds the context once.

Chunks then carry only vertex ids; the per-task allowed masks are
rebuilt worker-side from the shipped order
(:func:`repro.parallel.tasks.suffix_masks`).

The per-task body of :func:`run_mdc_chunk` mirrors the serial bitset
sweep of :func:`repro.core.mbc_star.mbc_star` line for line (cheap
candidate bound, core reduction on the global masks, survivor-only
network build, colouring bound, MDC)
with one difference: the bar is read from the shared incumbent at task
start, so any worker's improvement tightens every later task in every
process.  :func:`run_dcc_chunk` is the PF* analogue: one DCC
feasibility question per vertex at the round's (or the live shared)
``tau*`` bar.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..core.stats import SearchStats
from ..dichromatic.build import dichromatic_network_from_masks, \
    dichromatic_network_from_matrix, ego_edge_count_from_matrix, \
    ego_edge_counts_from_masks
from ..dichromatic.dcc import dichromatic_clique_witness
from ..dichromatic.mdc import solve_mdc
from ..kernels import npmask
from ..kernels.active import (
    coloring_upper_bound_active_mask,
    ego_bicore_mask,
    ego_core_mask,
)
from ..kernels.bitset import masks_from_bytes, masks_to_bytes
from ..obs import Span, TraceBuffer, Tracer, get_tracer, install_tracer
from ..resilience.faults import fire_faults
from .incumbent import SharedIncumbent
from .tasks import suffix_masks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dichromatic.graph import DichromaticGraph
    from ..kernels.npmask import Matrix, Row

__all__ = [
    "WorkerContext",
    "install_context",
    "init_spawned_worker",
    "run_mdc_chunk",
    "run_dcc_chunk",
    "run_dynamic_chunk",
    "run_mdc_chunk_task",
    "run_dcc_chunk_task",
    "run_dynamic_chunk_task",
    "PackedContext",
    "MdcChunkResult",
    "DccChunkResult",
    "DynamicChunkResult",
]

#: :meth:`WorkerContext.pack` wire format — two mask byte blobs, the
#: vertex count, tau, the processing order, the four flags, and the
#: engine name.  The blob layout is engine-independent
#: (``mask_stride(n)`` bytes per vertex, little-endian), so a numpy
#: worker rebuilds its matrices straight from the blob
#: (:func:`repro.kernels.npmask.matrix_from_bytes`) without re-packing
#: Python ints.
PackedContext = tuple[
    bytes, bytes, int, int, "list[int]", bool, bool, bool, bool, str]

#: ``(witness, stats delta, trace delta, examined, skipped)`` per MDC
#: chunk; the witness is ``(anchor u, [(vertex, is_left), ...])`` or
#: ``None``; the trace delta is the chunk tracer's
#: :class:`~repro.obs.TraceBuffer` (``None`` unless requested).
MdcChunkResult = tuple[
    "tuple[int, list[tuple[int, bool]]] | None",
    "SearchStats | None", "TraceBuffer | None", int, int]

#: ``(successes, stats delta, trace delta, examined)`` per DCC chunk;
#: each success is ``(u, bar_used, [(vertex, is_left), ...])``.
DccChunkResult = tuple[
    "list[tuple[int, int, list[tuple[int, bool]]]]",
    "SearchStats | None", "TraceBuffer | None", int]

#: ``(outcomes, stats delta, trace delta, examined, skipped)`` per
#: dynamic chunk; each outcome is ``(u, upper, members)`` — the
#: anchor, its certified ego upper bound, and the exact witness
#: ``[(vertex, is_left), ...]`` when the solve found one (``None``
#: otherwise).  Unlike :data:`MdcChunkResult`, *every* examined ego
#: reports back: the dynamic solver commits the bounds to its
#: per-vertex cache.
DynamicChunkResult = tuple[
    "list[tuple[int, int, list[tuple[int, bool]] | None]]",
    "SearchStats | None", "TraceBuffer | None", int, int]

#: The per-process context (set by fork inheritance or the spawn
#: initializer).  One solve at a time per pool.
_CTX: "WorkerContext | None" = None


class WorkerContext:
    """Everything a worker needs for one solve, shipped at pool start."""

    def __init__(
        self,
        pos_bits: "list[int] | None",
        neg_bits: "list[int] | None",
        n: int,
        tau: int,
        order: list[int],
        incumbent: SharedIncumbent,
        use_core: bool = True,
        use_coloring: bool = True,
        want_stats: bool = False,
        want_trace: bool = False,
        engine: str = "bitset",
        pos_mat: "Matrix | None" = None,
        neg_mat: "Matrix | None" = None,
    ) -> None:
        self.pos_bits = pos_bits
        self.neg_bits = neg_bits
        self.n = n
        self.tau = tau
        self.order = order
        self.incumbent = incumbent
        self.use_core = use_core
        self.use_coloring = use_coloring
        self.want_stats = want_stats
        self.want_trace = want_trace
        self.engine = engine
        self._pos_mat = pos_mat
        self._neg_mat = neg_mat
        self._allowed: dict[int, int] | None = None
        self._allowed_rows: "Matrix | None" = None

    def allowed(self, u: int) -> int:
        """Higher-ranked mask of ``u``, from the lazily-built suffix
        table (one pass over ``order`` per worker per solve)."""
        if self._allowed is None:
            self._allowed = suffix_masks(self.order)
        return self._allowed[u]

    def allowed_row(self, u: int) -> "Row":
        """Numpy-engine analogue of :meth:`allowed` — one lazily-built
        ``(n, words)`` suffix matrix per worker per solve."""
        if self._allowed_rows is None:
            self._allowed_rows = npmask.suffix_rows(self.order, self.n)
        return self._allowed_rows[u]

    def pos_matrix(self) -> "Matrix":
        """Positive adjacency as a mask matrix (built once per worker
        from the int masks under ``fork``; shipped pre-built or rebuilt
        from the blob under ``spawn``)."""
        if self._pos_mat is None:
            assert self.pos_bits is not None
            self._pos_mat = npmask.matrix_from_masks(
                self.pos_bits, self.n)
        return self._pos_mat

    def neg_matrix(self) -> "Matrix":
        """Negative adjacency as a mask matrix (see
        :meth:`pos_matrix`)."""
        if self._neg_mat is None:
            assert self.neg_bits is not None
            self._neg_mat = npmask.matrix_from_masks(
                self.neg_bits, self.n)
        return self._neg_mat

    def pack(self) -> PackedContext:
        """Compact picklable form for ``spawn`` pools.

        The adjacency dominates the payload; as byte blobs it pickles
        as two opaque buffers instead of ``2n`` big-int reductions.
        The incumbent's ``multiprocessing.Value`` travels separately —
        it carries its own shared-memory reduction.  Both engines emit
        the identical blob layout; the trailing engine name tells the
        spawned worker which representation to rebuild.
        """
        if self.pos_bits is not None and self.neg_bits is not None:
            pos_blob = masks_to_bytes(self.pos_bits, self.n)
            neg_blob = masks_to_bytes(self.neg_bits, self.n)
        else:
            pos_blob = npmask.matrix_to_bytes(self.pos_matrix(), self.n)
            neg_blob = npmask.matrix_to_bytes(self.neg_matrix(), self.n)
        return (
            pos_blob, neg_blob,
            self.n, self.tau, self.order,
            self.use_core, self.use_coloring, self.want_stats,
            self.want_trace, self.engine,
        )

    @classmethod
    def unpack(cls, packed: PackedContext,
               incumbent: SharedIncumbent) -> "WorkerContext":
        pos_blob, neg_blob, n, tau, order, use_core, use_coloring, \
            want_stats, want_trace, engine = packed
        if engine == "numpy":
            # Array round-trip: the blobs become matrices directly —
            # no intermediate Python-int masks are ever built.
            return cls(
                None, None, n, tau, order, incumbent,
                use_core=use_core, use_coloring=use_coloring,
                want_stats=want_stats, want_trace=want_trace,
                engine=engine,
                pos_mat=npmask.matrix_from_bytes(pos_blob, n),
                neg_mat=npmask.matrix_from_bytes(neg_blob, n))
        return cls(
            masks_from_bytes(pos_blob, n), masks_from_bytes(neg_blob, n),
            n, tau, order, incumbent,
            use_core=use_core, use_coloring=use_coloring,
            want_stats=want_stats, want_trace=want_trace, engine=engine)


def install_context(ctx: "WorkerContext | None") -> None:
    """Set the process-local context (fork path and in-process path)."""
    global _CTX
    _CTX = ctx


def init_spawned_worker(packed: PackedContext, value: Any) -> None:
    """Pool initializer for ``spawn`` contexts."""
    incumbent = SharedIncumbent.from_value(value)
    install_context(WorkerContext.unpack(packed, incumbent))


def run_mdc_chunk(chunk: list[int]) -> MdcChunkResult:
    """Solve the MDC instances of ``chunk`` against the live incumbent.

    Returns ``(witness, stats, buffer, examined, skipped)`` where
    ``witness`` is ``(u, members)`` for the best clique found in this
    chunk (``members`` are ``(vertex, is_left)`` pairs in reduced-graph
    ids, excluding the anchor ``u``) or ``None``; ``stats`` is the
    chunk's :class:`SearchStats` delta and ``buffer`` its
    :class:`~repro.obs.TraceBuffer` (each ``None`` unless requested);
    and ``examined`` / ``skipped`` count processed tasks and pre-bound
    skips for the dispatch report.
    """
    ctx = _CTX
    assert ctx is not None, "worker context not installed"
    tau = ctx.tau
    incumbent = ctx.incumbent
    stats = SearchStats() if ctx.want_stats else None
    tracer = get_tracer(ctx.want_trace)
    # Ambient for the chunk's duration, so kernel-layer spans (mask
    # builds inside the network constructors) land in the buffer too.
    previous = install_tracer(tracer) if ctx.want_trace else None
    ego_solver = _mdc_ego_np if ctx.engine == "numpy" else _mdc_ego_bits
    best_witness = None
    best_size = 0
    skipped = 0

    with tracer.span("chunk", size=len(chunk)):
        for u in chunk:
            with tracer.span("ego", v=u) as ego:
                # The bar, refreshed once per task from the shared
                # register: a stale read only loosens the bound, never
                # breaks correctness.
                required = max(incumbent.get() + 1, 2 * tau)
                pruned, _upper, network, found = ego_solver(
                    ctx, u, required, stats, tracer, ego)
                if pruned is not None:
                    if pruned == "bound":
                        skipped += 1
                    ego.set(pruned=pruned)
                    continue
                ego.set(found=found is not None)
                if found is None or network is None:
                    continue
                size = len(found) + 1
                incumbent.improve(size)
                if size > best_size:
                    best_size = size
                    best_witness = (u, [
                        (network.origin[v], network.is_left[v])
                        for v in found])

    if ctx.want_trace:
        install_tracer(previous)
    buffer = tracer.export_buffer() if ctx.want_trace else None
    return best_witness, stats, buffer, len(chunk), skipped


def _mdc_ego_bits(
    ctx: WorkerContext,
    u: int,
    required: int,
    stats: "SearchStats | None",
    tracer: Tracer,
    ego: Span,
) -> "tuple[str | None, int, DichromaticGraph | None, set[int] | None]":
    """One bitset-engine MDC ego task: prune chain + exact solve.

    Returns ``(pruned reason, upper, network, witness)``; exactly one
    of the reason and the network is ``None``, and the witness is
    ``None`` unless the solve improved on ``required``.  ``upper`` is a
    *certified* upper bound on the size of any tau-satisfying balanced
    clique anchored at ``u`` — an unconditional fact about the ego
    instance (candidate counts, network size, or the exhaustiveness of
    the pruned/finished search below ``required``), so it stays valid
    however ``required`` was derived, even from an incumbent
    publication later lost to a pool failure.  Lower bounds are the
    opposite: only a delivered witness certifies one.
    """
    pos_bits, neg_bits, tau = ctx.pos_bits, ctx.neg_bits, ctx.tau
    assert pos_bits is not None and neg_bits is not None
    allowed = ctx.allowed(u)
    pos_count = (pos_bits[u] & allowed).bit_count()
    neg_count = (neg_bits[u] & allowed).bit_count()
    if pos_count < tau - 1 or neg_count < tau:
        # No anchored clique can satisfy tau at all.
        return "bound", 0, None, None
    if pos_count + neg_count + 1 < required:
        return "bound", pos_count + neg_count + 1, None, None
    # The network is built over the survivors of the global-id peel
    # only; the member count above is already |V(g_u)|.
    survivors = ego_core_mask(
        pos_bits, neg_bits, u, allowed,
        required - 2 if ctx.use_core else 0)
    # Core/colour prunes certify only "nothing >= required": an
    # anchored clique of size required - 1 may live outside the
    # (required - 2)-core, so the bound cannot be tightened further.
    if survivors.bit_count() + 1 < required:
        return "core", required - 1, None, None
    network = dichromatic_network_from_masks(
        pos_bits, neg_bits, u, survivors)
    if ctx.use_coloring:
        bound = coloring_upper_bound_active_mask(
            network.adjacency_bits(), network.all_bits())
        if bound < required - 1:
            return "color", required - 1, None, None
    ego.set(n=pos_count + neg_count, reduced=network.num_vertices)
    if stats is not None:
        stats.instances += 1
        ego_edges, dichromatic_edges = ego_edge_counts_from_masks(
            pos_bits, neg_bits, u, allowed)
        stats.record_reduction(
            ego_edges, dichromatic_edges, network.num_edges)
    found = solve_mdc(
        network, tau - 1, tau,
        must_exceed=required - 2,
        stats=stats,
        engine="bitset",
        use_coloring=ctx.use_coloring,
        use_core=ctx.use_core,
        trace=tracer)
    # Exhaustive above the floor: a witness is the exact anchored
    # optimum; no witness proves nothing >= required exists.
    upper = len(found) + 1 if found is not None else required - 1
    return None, upper, network, found


def _mdc_ego_np(
    ctx: WorkerContext,
    u: int,
    required: int,
    stats: "SearchStats | None",
    tracer: Tracer,
    ego: Span,
) -> "tuple[str | None, int, DichromaticGraph | None, set[int] | None]":
    """Numpy-engine mirror of :func:`_mdc_ego_bits` — same prune chain
    over the mask-matrix kernels, same solve at ``engine="numpy"``,
    same certified-upper-bound contract."""
    pos_mat, neg_mat = ctx.pos_matrix(), ctx.neg_matrix()
    tau = ctx.tau
    allowed = ctx.allowed_row(u)
    pos_count = npmask.degree_in_active(pos_mat, u, allowed)
    neg_count = npmask.degree_in_active(neg_mat, u, allowed)
    if pos_count < tau - 1 or neg_count < tau:
        return "bound", 0, None, None
    if pos_count + neg_count + 1 < required:
        return "bound", pos_count + neg_count + 1, None, None
    network = dichromatic_network_from_matrix(
        pos_mat, neg_mat, u, allowed)
    if network.num_vertices + 1 < required:
        return "size", network.num_vertices + 1, None, None
    adj_mat = network.adjacency_matrix()
    active_row = network.all_row()
    if ctx.use_core:
        active_row = npmask.k_core_active(
            adj_mat, required - 2, active_row)
    reduced_count = npmask.row_count(active_row)
    if reduced_count + 1 < required:
        return "core", required - 1, None, None
    if ctx.use_coloring:
        bound = npmask.coloring_upper_bound_active(adj_mat, active_row)
        if bound < required - 1:
            return "color", required - 1, None, None
    ego.set(n=network.num_vertices, reduced=reduced_count)
    if stats is not None:
        stats.instances += 1
        ego_edges = ego_edge_count_from_matrix(
            pos_mat, neg_mat, u, allowed)
        reduced_edges = npmask.active_edge_count(adj_mat, active_row)
        stats.record_reduction(
            ego_edges, network.num_edges, reduced_edges)
    found = solve_mdc(
        network, tau - 1, tau,
        must_exceed=required - 2,
        stats=stats,
        engine="numpy",
        use_coloring=ctx.use_coloring,
        use_core=ctx.use_core,
        active_row=active_row,
        trace=tracer)
    upper = len(found) + 1 if found is not None else required - 1
    return None, upper, network, found


def run_mdc_chunk_task(
    task: "tuple[int, int, list[int]]",
) -> "tuple[int, MdcChunkResult]":
    """Dispatch envelope for :func:`run_mdc_chunk`.

    ``task`` is the resilient dispatcher's ``(chunk index, dispatch
    attempt, payload)`` triple; the index round-trips so the parent
    can account per-chunk completion, and ``(index, attempt)`` keys
    the fault-injection plan (:mod:`repro.resilience.faults`) — a
    no-op unless the chaos suite installed one.
    """
    idx, attempt, chunk = task
    fire_faults(idx, attempt)
    return idx, run_mdc_chunk(chunk)


def run_dcc_chunk_task(
    task: "tuple[int, int, tuple[int, list[int]]]",
) -> "tuple[int, DccChunkResult]":
    """Dispatch envelope for :func:`run_dcc_chunk` (see above)."""
    idx, attempt, payload = task
    fire_faults(idx, attempt)
    return idx, run_dcc_chunk(payload)


def run_dynamic_chunk(chunk: list[int]) -> DynamicChunkResult:
    """Re-solve the dirty ego instances of ``chunk`` for the dynamic
    solver, reporting a certified bound per ego.

    The per-ego body is :func:`run_mdc_chunk`'s, but the aggregation
    differs: instead of keeping only the chunk's best witness, every
    examined ego yields an ``(u, upper, members)`` outcome so the
    parent :class:`repro.dynamic.DynamicSolver` can commit it to its
    per-vertex cache.  ``upper`` is unconditionally certified (see
    :func:`_mdc_ego_bits`), so outcomes stay committable even when the
    dispatch is later truncated by a budget or survives a pool
    failure; ``members`` (translated to graph ids worker-side) is
    present exactly when the solve found the anchored optimum, which
    the parent records as ``lower = upper``.
    """
    ctx = _CTX
    assert ctx is not None, "worker context not installed"
    tau = ctx.tau
    incumbent = ctx.incumbent
    stats = SearchStats() if ctx.want_stats else None
    tracer = get_tracer(ctx.want_trace)
    previous = install_tracer(tracer) if ctx.want_trace else None
    ego_solver = _mdc_ego_np if ctx.engine == "numpy" else _mdc_ego_bits
    outcomes: "list[tuple[int, int, list[tuple[int, bool]] | None]]" = []
    skipped = 0

    with tracer.span("chunk", size=len(chunk), dynamic=True):
        for u in chunk:
            with tracer.span("ego", v=u) as ego:
                required = max(incumbent.get() + 1, 2 * tau)
                pruned, upper, network, found = ego_solver(
                    ctx, u, required, stats, tracer, ego)
                if pruned is not None:
                    if pruned == "bound":
                        skipped += 1
                    ego.set(pruned=pruned)
                    outcomes.append((u, upper, None))
                    continue
                ego.set(found=found is not None)
                if found is None or network is None:
                    outcomes.append((u, upper, None))
                    continue
                incumbent.improve(len(found) + 1)
                outcomes.append((u, upper, [
                    (network.origin[v], network.is_left[v])
                    for v in found]))

    if ctx.want_trace:
        install_tracer(previous)
    buffer = tracer.export_buffer() if ctx.want_trace else None
    return outcomes, stats, buffer, len(chunk), skipped


def run_dynamic_chunk_task(
    task: "tuple[int, int, list[int]]",
) -> "tuple[int, DynamicChunkResult]":
    """Dispatch envelope for :func:`run_dynamic_chunk` (same
    ``(index, attempt, payload)`` triple as :func:`run_mdc_chunk_task`)."""
    idx, attempt, chunk = task
    fire_faults(idx, attempt)
    return idx, run_dynamic_chunk(chunk)


def run_dcc_chunk(args: tuple[int, list[int]]) -> DccChunkResult:
    """PF* round worker: one +1 feasibility question per vertex.

    ``args`` is ``(bar, chunk)`` — the round's ``tau*`` and the vertex
    ids to check.  Each check runs at ``max(bar, incumbent)`` so that
    successes elsewhere in the round tighten later questions; a success
    at bar ``b`` proves a clique with polarization ``b + 1`` and is
    published as such.  Returns ``(successes, stats, buffer,
    examined)`` with ``successes`` a list of ``(u, bar_used,
    members)``.
    """
    ctx = _CTX
    assert ctx is not None, "worker context not installed"
    bar, chunk = args
    incumbent = ctx.incumbent
    stats = SearchStats() if ctx.want_stats else None
    tracer = get_tracer(ctx.want_trace)
    previous = install_tracer(tracer) if ctx.want_trace else None
    ego_solver = _dcc_ego_np if ctx.engine == "numpy" else _dcc_ego_bits
    successes = []

    with tracer.span("chunk", size=len(chunk), bar=bar):
        for u in chunk:
            with tracer.span("ego", v=u) as ego:
                bar_used = max(bar, incumbent.get())
                pruned, network, found = ego_solver(
                    ctx, u, bar_used, stats, tracer, ego)
                if pruned is not None:
                    ego.set(pruned=pruned)
                    continue
                ego.set(found=found is not None)
                if found is None or network is None:
                    continue
                incumbent.improve(bar_used + 1)
                successes.append((u, bar_used, [
                    (network.origin[v], network.is_left[v])
                    for v in found]))

    if ctx.want_trace:
        install_tracer(previous)
    buffer = tracer.export_buffer() if ctx.want_trace else None
    return successes, stats, buffer, len(chunk)


def _dcc_ego_bits(
    ctx: WorkerContext,
    u: int,
    bar_used: int,
    stats: "SearchStats | None",
    tracer: Tracer,
    ego: Span,
) -> "tuple[str | None, DichromaticGraph | None, set[int] | None]":
    """One bitset-engine DCC ego task: candidate bound, bicore, check.

    Same contract as :func:`_mdc_ego_bits`.
    """
    pos_bits, neg_bits = ctx.pos_bits, ctx.neg_bits
    assert pos_bits is not None and neg_bits is not None
    allowed = ctx.allowed(u)
    # Cheap candidate bound first: the witness needs bar_used positive
    # and bar_used + 1 negative candidates besides u.
    pos_count = (pos_bits[u] & allowed).bit_count()
    neg_count = (neg_bits[u] & allowed).bit_count()
    if pos_count < bar_used or neg_count < bar_used + 1:
        return "bound", None, None
    survivors = ego_bicore_mask(
        pos_bits, neg_bits, u, allowed, bar_used, bar_used + 1)
    left_count = (survivors & pos_bits[u]).bit_count()
    right_count = survivors.bit_count() - left_count
    if left_count < bar_used or right_count < bar_used + 1:
        return "core", None, None
    network = dichromatic_network_from_masks(
        pos_bits, neg_bits, u, survivors)
    ego.set(n=pos_count + neg_count)
    if stats is not None:
        stats.instances += 1
        ego_edges, dichromatic_edges = ego_edge_counts_from_masks(
            pos_bits, neg_bits, u, allowed)
        stats.record_reduction(
            ego_edges, dichromatic_edges, network.num_edges)
    found = dichromatic_clique_witness(
        network, bar_used, bar_used + 1, stats=stats,
        engine="bitset", trace=tracer)
    return None, network, found


def _dcc_ego_np(
    ctx: WorkerContext,
    u: int,
    bar_used: int,
    stats: "SearchStats | None",
    tracer: Tracer,
    ego: Span,
) -> "tuple[str | None, DichromaticGraph | None, set[int] | None]":
    """Numpy-engine mirror of :func:`_dcc_ego_bits`."""
    pos_mat, neg_mat = ctx.pos_matrix(), ctx.neg_matrix()
    allowed = ctx.allowed_row(u)
    # Cheap candidate bound first: the witness needs bar_used positive
    # and bar_used + 1 negative candidates besides u.
    if (npmask.degree_in_active(pos_mat, u, allowed) < bar_used
            or npmask.degree_in_active(neg_mat, u, allowed)
            < bar_used + 1):
        return "bound", None, None
    network = dichromatic_network_from_matrix(
        pos_mat, neg_mat, u, allowed)
    adj_mat = network.adjacency_matrix()
    left_row = network.left_row()
    active_row = npmask.bicore_active(
        adj_mat, left_row, bar_used, bar_used + 1, network.all_row())
    left_count = npmask.row_count(active_row & left_row)
    right_count = npmask.row_count(active_row) - left_count
    if left_count < bar_used or right_count < bar_used + 1:
        return "core", None, None
    ego.set(n=network.num_vertices)
    if stats is not None:
        stats.instances += 1
        ego_edges = ego_edge_count_from_matrix(
            pos_mat, neg_mat, u, allowed)
        reduced = npmask.active_edge_count(adj_mat, active_row)
        stats.record_reduction(ego_edges, network.num_edges, reduced)
    found = dichromatic_clique_witness(
        network, bar_used, bar_used + 1, stats=stats,
        engine="numpy", active_row=active_row, trace=tracer)
    return None, network, found
