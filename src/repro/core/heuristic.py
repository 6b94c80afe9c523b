"""MBC-Heu — the greedy heuristic of Algorithm 3.

Starting from an anchor vertex ``u`` (the implementation note in the
paper picks the vertex maximizing ``min(d+(u), d-(u))``), greedily grow
a clique inside the dichromatic network ``g_u``: repeatedly take the
maximum-degree vertex of the current candidate subgraph, preferring the
side that is currently smaller so the result stays balanced, and
restrict the candidates to the new vertex's neighbourhood.

``g_u`` is never built.  The candidates stay in global ids as two
sides — ``u``'s positive neighbours (L) and negative neighbours (R) —
and a candidate ``v`` on side ``S`` has the ``g_u`` neighbours
``(N+(v) ∩ S) ∪ (N-(v) ∩ other side)``.  The greedy runs on the graph's
adjacency masks when they are already cached and on its adjacency sets
otherwise, so it never builds the input graph's masks; both paths take
the lowest id among equal degrees and return the same clique.

Runs in ``O(m)``; the result (when it meets the polarization constraint
``tau``) seeds MBC* with a lower bound — the ``Heu`` column of Table IV.
"""

from __future__ import annotations

import functools
from typing import Callable

from ..signed.graph import SignedGraph
from .result import EMPTY_RESULT, BalancedClique

__all__ = ["mbc_heuristic"]


def mbc_heuristic(
    graph: SignedGraph,
    tau: int,
    anchor: int | None = None,
    tries: int = 8,
) -> BalancedClique:
    """Greedy balanced clique satisfying ``tau``, or the empty result.

    Parameters
    ----------
    graph:
        The signed graph.
    tau:
        Polarization constraint both sides must meet.
    anchor:
        Optional start vertex; by default the vertices with the largest
        ``min(d+, d-)`` (most capable of anchoring a polarized clique)
        are tried.
    tries:
        How many top-ranked anchors to attempt when ``anchor`` is not
        given (the paper's implementation note uses the single best
        anchor; trying a handful costs ``O(tries * m)`` and makes the
        initial bound far more robust).
    """
    if graph.num_vertices == 0:
        return EMPTY_RESULT
    masks = graph.cached_adjacency_bits()
    grow: Callable[[int], tuple[list[int], list[int]]]
    if masks is not None:
        pos, neg = masks
        grow = functools.partial(_grow_from_masks, pos, neg)
    else:
        grow = functools.partial(_grow_from_sets, graph)
    if anchor is not None:
        return _admit(grow(anchor), tau)
    ranked = sorted(
        graph.vertices(),
        key=lambda v: min(graph.pos_degree(v), graph.neg_degree(v)),
        reverse=True)
    best = EMPTY_RESULT
    for candidate in ranked[:max(tries, 1)]:
        clique = _admit(grow(candidate), tau)
        if clique.size > best.size:
            best = clique
    return best


def _admit(sides: "tuple[list[int], list[int]]",
           tau: int) -> BalancedClique:
    """The grown clique if it satisfies ``tau``, else the empty one."""
    left, right = sides
    clique = BalancedClique.from_sides(set(left), set(right))
    return clique if clique.satisfies(tau) else EMPTY_RESULT


def _grow_from_masks(
    pos: list[int], neg: list[int], anchor: int
) -> "tuple[list[int], list[int]]":
    """One greedy pass from ``anchor`` over global adjacency masks."""
    left = [anchor]
    right: list[int] = []
    left_pool = pos[anchor]
    right_pool = neg[anchor]
    while left_pool or right_pool:
        take_right = not left_pool or (
            bool(right_pool) and len(left) >= len(right))
        own, other = (right_pool, left_pool) if take_right \
            else (left_pool, right_pool)
        best_v = -1
        best_degree = -1
        rest = own
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            degree = ((pos[v] & own).bit_count()
                      + (neg[v] & other).bit_count())
            if degree > best_degree:
                best_degree = degree
                best_v = v
        own, other = pos[best_v] & own, neg[best_v] & other
        if take_right:
            right.append(best_v)
            right_pool, left_pool = own, other
        else:
            left.append(best_v)
            left_pool, right_pool = own, other
    return left, right


def _grow_from_sets(
    graph: SignedGraph, anchor: int
) -> "tuple[list[int], list[int]]":
    """:func:`_grow_from_masks` over the graph's adjacency sets."""
    left = [anchor]
    right: list[int] = []
    left_pool = graph.pos_neighbors(anchor)
    right_pool = graph.neg_neighbors(anchor)
    while left_pool or right_pool:
        take_right = not left_pool or (
            bool(right_pool) and len(left) >= len(right))
        own, other = (right_pool, left_pool) if take_right \
            else (left_pool, right_pool)
        best_v = -1
        best_degree = -1
        for v in sorted(own):
            degree = (len(graph.pos_neighbors(v) & own)
                      + len(graph.neg_neighbors(v) & other))
            if degree > best_degree:
                best_degree = degree
                best_v = v
        own = graph.pos_neighbors(best_v) & own
        other = graph.neg_neighbors(best_v) & other
        if take_right:
            right.append(best_v)
            right_pool, left_pool = own, other
        else:
            left.append(best_v)
            left_pool, right_pool = own, other
    return left, right
