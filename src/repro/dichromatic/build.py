"""Ego-network extraction and the dichromatic transformation.

This is the paper's central graph-reduction technique (Section III-B).
For a vertex ``u`` of the signed graph ``G`` (optionally restricted to a
set of *allowed* neighbours, e.g. those ranked higher in the degeneracy
ordering):

1. the **ego-network** ``G_u`` is the signed subgraph induced by ``u``'s
   (allowed) neighbours;
2. the **dichromatic network** ``g_u`` labels ``u``'s positive
   neighbours L and negative neighbours R, drops all *conflicting
   edges* —

   * negative edges between two L-vertices,
   * negative edges between two R-vertices,
   * positive edges between an L-vertex and an R-vertex —

   and finally discards the signs.

Following the paper's implementation note, ``u`` itself is *excluded*
from the returned network: ``u`` is adjacent to every remaining vertex
and none of its incident edges can be conflicting, so including it only
inflates every degree by one.  Callers account for ``u`` by lowering the
L-side threshold by one.

Every clique of ``g_u`` plus ``u`` is a balanced clique of ``G``
(soundness), and every balanced clique containing ``u`` survives the
transformation (completeness) — the two directions of Theorem 2, both
covered by property tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Container

from ..kernels import npmask
from ..kernels.bitset import bits_of
from ..signed.graph import SignedGraph
from .graph import DichromaticGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernels.npmask import Matrix, Row

__all__ = [
    "build_dichromatic_network",
    "build_dichromatic_network_bits",
    "dichromatic_network_from_masks",
    "build_dichromatic_network_matrix",
    "dichromatic_network_from_matrix",
    "ego_network_edge_count",
    "ego_edge_counts_from_masks",
    "ego_edge_count_from_matrix",
]


def build_dichromatic_network(
    graph: SignedGraph,
    u: int,
    allowed: Container[int] | None = None,
) -> DichromaticGraph:
    """Build the dichromatic network ``g_u`` (without ``u`` itself).

    Parameters
    ----------
    graph:
        The signed graph ``G``.
    u:
        The anchor vertex assumed to be in the clique (on the L side).
    allowed:
        If given, only neighbours contained in ``allowed`` participate
        (MBC* passes the set of higher-ranked vertices).

    Returns
    -------
    DichromaticGraph
        Local ids cover ``u``'s retained neighbours; ``origin`` maps
        back to ``G``'s vertex ids; ``is_left[v]`` is True for positive
        neighbours of ``u``.
    """
    if allowed is None:
        left = sorted(graph.pos_neighbors(u))
        right = sorted(graph.neg_neighbors(u))
    else:
        left = sorted(v for v in graph.pos_neighbors(u) if v in allowed)
        right = sorted(v for v in graph.neg_neighbors(u) if v in allowed)
    origin = left + right
    is_left = [True] * len(left) + [False] * len(right)
    network = DichromaticGraph(is_left, origin)
    local = {orig: idx for idx, orig in enumerate(origin)}

    for idx, orig in enumerate(origin):
        left_vertex = network.is_left[idx]
        # Keep positive edges only towards same-side vertices...
        for other in graph.pos_neighbors(orig):
            jdx = local.get(other)
            if jdx is None or jdx <= idx:
                continue
            if network.is_left[jdx] == left_vertex:
                network.add_edge(idx, jdx)
        # ...and negative edges only towards opposite-side vertices.
        for other in graph.neg_neighbors(orig):
            jdx = local.get(other)
            if jdx is None or jdx <= idx:
                continue
            if network.is_left[jdx] != left_vertex:
                network.add_edge(idx, jdx)
    return network


def build_dichromatic_network_bits(
    graph: SignedGraph,
    u: int,
    allowed_mask: int | None = None,
) -> DichromaticGraph:
    """Bitset fast path of :func:`build_dichromatic_network`.

    Works entirely on the signed graph's cached global adjacency
    bitmasks: the sign/side filtering that the set builder performs with
    one dict probe per *candidate* edge collapses into two ``&`` ops per
    member, and only the retained edges are translated into local ids.
    The returned network is mask-backed
    (:meth:`DichromaticGraph.from_masks`) so the kernels reuse the masks
    without a rebuild.

    ``allowed_mask`` is the bitmask analogue of the set builder's
    ``allowed`` container (MBC*/PF* pass the higher-ranked vertex set).
    """
    return dichromatic_network_from_masks(
        graph.pos_adjacency_bits(), graph.neg_adjacency_bits(),
        u, allowed_mask)


def dichromatic_network_from_masks(
    pos_bits: list[int],
    neg_bits: list[int],
    u: int,
    allowed_mask: int | None = None,
) -> DichromaticGraph:
    """:func:`build_dichromatic_network_bits` over raw mask arrays.

    The parallel fan-out workers hold the reduced graph only as the two
    adjacency-mask lists shipped at pool start (no :class:`SignedGraph`
    object exists in the worker), so the builder's real implementation
    lives at this level.  The bitset sweeps pass the survivors of an
    ego peel (:func:`repro.kernels.active.ego_core_mask`,
    :func:`~repro.kernels.active.ego_bicore_mask`) as ``allowed_mask``,
    so only those are built.
    """
    pos_u = pos_bits[u]
    neg_u = neg_bits[u]
    if allowed_mask is not None:
        pos_u &= allowed_mask
        neg_u &= allowed_mask
    left = bits_of(pos_u)
    right = bits_of(neg_u)
    origin = left + right
    is_left = [True] * len(left) + [False] * len(right)
    local = {orig: idx for idx, orig in enumerate(origin)}
    boundary = len(left)

    # Positive edges survive towards same-side vertices, negative edges
    # towards opposite-side vertices.  Each retained edge is translated
    # exactly once: same-side pairs from their lower-global-id endpoint
    # (the remainder after the ``>> (orig + 1)`` shift), cross pairs
    # from their L endpoint.
    adjacency = [0] * len(origin)
    for idx, orig in enumerate(origin):
        bit = 1 << idx
        if idx < boundary:
            same_hi = (pos_bits[orig] & pos_u) >> (orig + 1)
            cross = neg_bits[orig] & neg_u
        else:
            same_hi = (pos_bits[orig] & neg_u) >> (orig + 1)
            cross = 0
        while same_hi:
            low = same_hi & -same_hi
            same_hi ^= low
            jdx = local[low.bit_length() + orig]
            adjacency[idx] |= 1 << jdx
            adjacency[jdx] |= bit
        while cross:
            low = cross & -cross
            cross ^= low
            jdx = local[low.bit_length() - 1]
            adjacency[idx] |= 1 << jdx
            adjacency[jdx] |= bit
    return DichromaticGraph.from_masks(is_left, origin, adjacency)


def build_dichromatic_network_matrix(
    graph: SignedGraph,
    u: int,
    allowed_row: "Row | None" = None,
) -> DichromaticGraph:
    """Matrix fast path of :func:`build_dichromatic_network`.

    The ``engine="numpy"`` analogue of
    :func:`build_dichromatic_network_bits`: side filtering is two
    vectorised ANDs against ``u``'s adjacency rows, and the per-edge
    translation loop collapses into one gather/pack pass
    (:func:`repro.kernels.npmask.dichromatic_adjacency`).  The returned
    network is matrix-backed (:meth:`DichromaticGraph.from_matrix`).
    """
    return dichromatic_network_from_matrix(
        graph.pos_adjacency_matrix(), graph.neg_adjacency_matrix(),
        u, allowed_row)


def dichromatic_network_from_matrix(
    pos_mat: "Matrix",
    neg_mat: "Matrix",
    u: int,
    allowed_row: "Row | None" = None,
) -> DichromaticGraph:
    """:func:`build_dichromatic_network_matrix` over raw mask matrices
    (the representation the numpy-engine parallel workers hold)."""
    n = pos_mat.shape[0]
    pos_u = pos_mat[u]
    neg_u = neg_mat[u]
    if allowed_row is not None:
        pos_u = pos_u & allowed_row
        neg_u = neg_u & allowed_row
    left = npmask.row_indices(pos_u, n).tolist()
    right = npmask.row_indices(neg_u, n).tolist()
    origin = left + right
    is_left = [True] * len(left) + [False] * len(right)
    adjacency = npmask.dichromatic_adjacency(
        pos_mat, neg_mat, origin, len(left), n)
    return DichromaticGraph.from_matrix(is_left, origin, adjacency)


def ego_network_edge_count(
    graph: SignedGraph,
    u: int,
    allowed: Container[int] | None = None,
) -> int:
    """``|E(G_u)|``: edges (any sign) among ``u``'s retained neighbours.

    Excludes ``u``'s own incident edges, matching
    :func:`build_dichromatic_network`; used for the SR1/SR2 reduction
    statistics of Table IV.
    """
    if allowed is None:
        members = graph.pos_neighbors(u) | graph.neg_neighbors(u)
    else:
        members = {v for v in graph.pos_neighbors(u) if v in allowed}
        members |= {v for v in graph.neg_neighbors(u) if v in allowed}
    count = 0
    for v in members:
        count += sum(1 for w in graph.pos_neighbors(v) if w in members)
        count += sum(1 for w in graph.neg_neighbors(v) if w in members)
    return count // 2


def ego_edge_counts_from_masks(
    pos_bits: list[int],
    neg_bits: list[int],
    u: int,
    allowed_mask: int | None = None,
) -> tuple[int, int]:
    """``(|E(G_u)|, |E(g_u)|)`` from the global adjacency masks.

    The ego-network's edge count (any sign) and the dichromatic
    network's (positive same-side plus negative cross-side edges), both
    without building ``g_u`` — the bitset sweeps build it only over the
    vertices that survive the ego peel, yet the SR1 statistic of
    Table IV is defined on the unpeeled network.
    """
    left = pos_bits[u]
    right = neg_bits[u]
    if allowed_mask is not None:
        left &= allowed_mask
        right &= allowed_mask
    members = left | right
    ego = 0
    kept = 0
    for side, other in ((left, right), (right, left)):
        rest = side
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            pos_v = pos_bits[v]
            neg_v = neg_bits[v]
            ego += ((pos_v | neg_v) & members).bit_count()
            kept += (pos_v & side).bit_count() + (neg_v & other).bit_count()
    return ego // 2, kept // 2


def ego_edge_count_from_matrix(
    pos_mat: "Matrix",
    neg_mat: "Matrix",
    u: int,
    allowed_row: "Row | None" = None,
) -> int:
    """:func:`ego_network_edge_count` over mask matrices.

    Positive and negative edge sets are disjoint, so the two induced
    counts sum to ``|E(G_u)|``.
    """
    members = pos_mat[u] | neg_mat[u]
    if allowed_row is not None:
        members = members & allowed_row
    return (npmask.active_edge_count(pos_mat, members)
            + npmask.active_edge_count(neg_mat, members))
