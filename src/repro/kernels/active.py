"""Bitset variants of the branch-and-bound hot kernels.

These are the four primitives every MDC/DCC node executes — candidate
intersection, degree-in-active counting, k-core peeling and the greedy
colouring bound — plus the ``(tau_L, tau_R)``-bicore used by DCC.  Each
takes the adjacency as ``list[int]`` masks (see
:mod:`repro.kernels.bitset`) and the active candidate set as one int
mask, and touches no graph objects at all, so a graph only pays the
mask-building cost once and every node after that runs on word-parallel
integer ops.

The ego pair :func:`ego_core_mask` / :func:`ego_bicore_mask` peels a
dichromatic network ``g_u`` before it exists: it works on the *signed*
graph's global adjacency masks, where a member ``v`` on side ``S`` has
the dichromatic neighbours ``(P[v] & S) | (N[v] & other side)``, and
returns the survivors in global ids.  Callers build the local network
over the survivors only.

Semantics mirror the set implementations in
:mod:`repro.dichromatic.cores` exactly (the differential engine tests
assert this); only tie-breaking inside the greedy colouring order may
differ, which affects neither soundness nor the search result.
"""

from __future__ import annotations

__all__ = [
    "intersect_active",
    "degree_in_active",
    "k_core_active_mask",
    "bicore_active_mask",
    "coloring_upper_bound_active_mask",
    "first_fit_color_count",
    "degeneracy_ordering_mask",
    "ego_core_mask",
    "ego_bicore_mask",
]


def intersect_active(adj: list[int], v: int, active: int) -> int:
    """Candidate-set intersection ``N(v) ∩ active`` as a mask."""
    return adj[v] & active


def degree_in_active(adj: list[int], v: int, active: int) -> int:
    """``|N(v) ∩ active|``."""
    return (adj[v] & active).bit_count()


def k_core_active_mask(adj: list[int], k: int, active: int) -> int:
    """Label-blind ``k``-core of the subgraph induced by ``active``.

    Peels with an explicit stack and incrementally maintained degrees;
    a vertex is (re-)pushed exactly when its degree first drops below
    ``k``.  Returns the surviving vertex set as a mask.
    """
    if k <= 0 or not active:
        return active
    alive = active
    degree = [0] * len(adj)
    stack: list[int] = []
    rest = active
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        d = (adj[v] & active).bit_count()
        degree[v] = d
        if d < k:
            stack.append(v)
    while stack:
        v = stack.pop()
        bit = 1 << v
        if not (alive & bit):
            continue
        alive ^= bit
        rest = adj[v] & alive
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            du = degree[u] - 1
            degree[u] = du
            if du == k - 1:
                stack.append(u)
    return alive


def bicore_active_mask(
    adj: list[int],
    left_mask: int,
    tau_l: int,
    tau_r: int,
    active: int,
) -> int:
    """``(tau_L, tau_R)``-core of the subgraph induced by ``active``.

    Mask analogue of :func:`repro.dichromatic.cores.bicore_active`:
    every surviving L-vertex keeps ``>= tau_L - 1`` L-neighbours and
    ``>= tau_R`` R-neighbours, every surviving R-vertex ``>= tau_L``
    L-neighbours and ``>= tau_R - 1`` R-neighbours.  Negative
    thresholds are treated as zero.
    """
    tau_l = max(tau_l, 0)
    tau_r = max(tau_r, 0)
    if (tau_l == 0 and tau_r == 0) or not active:
        return active
    alive = active
    left_deg = [0] * len(adj)
    right_deg = [0] * len(adj)

    def violates(v: int) -> bool:
        if left_mask & (1 << v):
            return left_deg[v] < tau_l - 1 or right_deg[v] < tau_r
        return left_deg[v] < tau_l or right_deg[v] < tau_r - 1

    stack: list[int] = []
    queued = 0
    rest = active
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        nb = adj[v] & active
        l_count = (nb & left_mask).bit_count()
        left_deg[v] = l_count
        right_deg[v] = nb.bit_count() - l_count
        if violates(v):
            stack.append(v)
            queued |= low
    while stack:
        v = stack.pop()
        bit = 1 << v
        if not (alive & bit):
            continue
        alive ^= bit
        v_left = bool(left_mask & bit)
        rest = adj[v] & alive
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            if v_left:
                left_deg[u] -= 1
            else:
                right_deg[u] -= 1
            if not (queued & low) and violates(u):
                stack.append(u)
                queued |= low
    return alive


def coloring_upper_bound_active_mask(adj: list[int], active: int) -> int:
    """Greedy-colouring clique bound over ``active`` (``colorUB``).

    Vertices are processed in non-increasing degree-in-active order and
    each takes the first colour class it does not conflict with; a
    colour class is itself a mask, so the conflict test is one ``&``.
    """
    if not active:
        return 0
    ranked: list[tuple[int, int]] = []
    rest = active
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        ranked.append((-(adj[v] & active).bit_count(), v))
    ranked.sort()
    return first_fit_color_count(adj, [v for _neg_degree, v in ranked])


def first_fit_color_count(adj: list[int], order: list[int]) -> int:
    """First-fit greedy placement: number of colour classes used.

    Shared placement loop of the colouring bound — each vertex of
    ``order`` takes the first colour class its neighbourhood misses; a
    class is a single mask, so the conflict test is one ``&``.  The
    numpy engine computes the degree order vectorised and feeds the
    same loop (:func:`repro.kernels.npmask.coloring_upper_bound_active`),
    which keeps the two engines' bounds equal by construction.
    """
    color_masks: list[int] = []
    for v in order:
        neighbors = adj[v]
        bit = 1 << v
        for i, members in enumerate(color_masks):
            if not (neighbors & members):
                color_masks[i] = members | bit
                break
        else:
            color_masks.append(bit)
    return len(color_masks)


def degeneracy_ordering_mask(adj: list[int], active: int) -> list[int]:
    """Smallest-first (degeneracy) ordering of ``active``.

    Mask analogue of :func:`repro.unsigned.ordering.degeneracy_ordering`
    with the same lazy bucket-queue scheme.  Tie-breaking (and hence the
    exact order) may differ from the set implementation — any valid
    degeneracy order is acceptable to the callers.
    """
    if not active:
        return []
    # Extract neighbour lists once — the peel itself then runs entirely
    # on machine-word ints (a wide-mask op per *edge* would dominate on
    # sparse graphs).
    n = len(adj)
    members: list[int] = []
    rest = active
    while rest:
        low = rest & -rest
        rest ^= low
        members.append(low.bit_length() - 1)
    neigh: list[list[int]] = [[]] * n
    degree = [0] * n
    max_degree = 0
    for v in members:
        lst: list[int] = []
        rest = adj[v] & active
        while rest:
            low = rest & -rest
            rest ^= low
            lst.append(low.bit_length() - 1)
        neigh[v] = lst
        d = len(lst)
        degree[v] = d
        if d > max_degree:
            max_degree = d
    buckets: list[list[int]] = [[] for _ in range(max_degree + 1)]
    for v in members:
        buckets[degree[v]].append(v)
    pointer = [0] * (max_degree + 1)
    removed = bytearray(n)
    order: list[int] = []
    scan_from = 0
    total = len(members)
    while len(order) < total:
        d = scan_from
        while d <= max_degree and pointer[d] >= len(buckets[d]):
            d += 1
        if d > max_degree:
            break
        v = buckets[d][pointer[d]]
        pointer[d] += 1
        if removed[v] or degree[v] != d:
            continue
        scan_from = max(0, d - 1)
        removed[v] = 1
        order.append(v)
        for u in neigh[v]:
            if not removed[u]:
                du = degree[u] - 1
                degree[u] = du
                buckets[du].append(u)
    return order


def _ego_sides(
    pos: list[int], neg: list[int], u: int, allowed: int
) -> tuple[int, int, dict[int, tuple[int, int, bool]]]:
    """Sides of ``g_u`` and each member's neighbours in it.

    Returns ``(left, right, members)``: ``left``/``right`` are ``u``'s
    allowed positive/negative neighbours, and ``members[v]`` is
    ``(same, cross, on_left)`` — the members on ``v``'s own side and on
    the other side adjacent to ``v`` in ``g_u`` (global-id masks), and
    whether ``v`` is an L-member.
    """
    left = pos[u] & allowed
    right = neg[u] & allowed
    members: dict[int, tuple[int, int, bool]] = {}
    for side, other, on_left in ((left, right, True),
                                 (right, left, False)):
        rest = side
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            members[v] = (pos[v] & side, neg[v] & other, on_left)
    return left, right, members


def ego_core_mask(
    pos: list[int], neg: list[int], u: int, allowed: int, k: int
) -> int:
    """Label-blind ``k``-core of ``g_u``, peeled in global ids.

    ``g_u`` is the dichromatic network of ``u`` over its ``allowed``
    neighbours, without ``u`` itself (see
    :mod:`repro.dichromatic.build`).  The result equals
    :func:`k_core_active_mask` on the built network, mapped back to
    global ids.  A non-empty ``k``-core has more than ``k`` vertices,
    so the peel stops as soon as no more than ``k`` remain.
    """
    if k <= 0:
        return (pos[u] | neg[u]) & allowed
    left, right, members = _ego_sides(pos, neg, u, allowed)
    alive = left | right
    neighbours: dict[int, int] = {}
    degree: dict[int, int] = {}
    stack: list[int] = []
    for v, (same, cross, _on_left) in members.items():
        nb = same | cross
        neighbours[v] = nb
        d = nb.bit_count()
        degree[v] = d
        if d < k:
            stack.append(v)
    remaining = len(members)
    while stack:
        if remaining <= k:
            return 0
        # A member is pushed once: when its degree first drops below k.
        v = stack.pop()
        alive ^= 1 << v
        remaining -= 1
        rest = neighbours[v] & alive
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            dw = degree[w] - 1
            degree[w] = dw
            if dw == k - 1:
                stack.append(w)
    return alive


def ego_bicore_mask(
    pos: list[int],
    neg: list[int],
    u: int,
    allowed: int,
    tau_l: int,
    tau_r: int,
) -> int:
    """``(tau_L, tau_R)``-core of ``g_u``, peeled in global ids.

    Same thresholds as :func:`bicore_active_mask` on the built network
    (L is ``u``'s positive side): a surviving L-member keeps
    ``>= tau_L - 1`` L- and ``>= tau_R`` R-neighbours, a surviving
    R-member ``>= tau_L`` L- and ``>= tau_R - 1`` R-neighbours.  Once a
    side holds fewer members than its (positive) threshold, nothing can
    survive, so the peel stops there.
    """
    tau_l = max(tau_l, 0)
    tau_r = max(tau_r, 0)
    if tau_l == 0 and tau_r == 0:
        return (pos[u] | neg[u]) & allowed
    left, right, members = _ego_sides(pos, neg, u, allowed)
    alive = left | right
    left_deg: dict[int, int] = {}
    right_deg: dict[int, int] = {}
    stack: list[int] = []
    queued: dict[int, bool] = {}
    for v, (same, cross, on_left) in members.items():
        if on_left:
            l_count, r_count = same.bit_count(), cross.bit_count()
            short = l_count < tau_l - 1 or r_count < tau_r
        else:
            l_count, r_count = cross.bit_count(), same.bit_count()
            short = l_count < tau_l or r_count < tau_r - 1
        left_deg[v] = l_count
        right_deg[v] = r_count
        if short:
            stack.append(v)
            queued[v] = True
    left_count = left.bit_count()
    right_count = right.bit_count()
    while stack:
        if left_count < tau_l or right_count < tau_r:
            return 0
        v = stack.pop()
        alive ^= 1 << v
        same, cross, v_left = members[v]
        if v_left:
            left_count -= 1
        else:
            right_count -= 1
        rest = (same | cross) & alive
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            if v_left:
                left_deg[w] -= 1
            else:
                right_deg[w] -= 1
            if w in queued:
                continue
            if members[w][2]:
                short = left_deg[w] < tau_l - 1 or right_deg[w] < tau_r
            else:
                short = left_deg[w] < tau_l or right_deg[w] < tau_r - 1
            if short:
                stack.append(w)
                queued[w] = True
    return alive
