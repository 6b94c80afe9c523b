"""Signed graph data structure.

The :class:`SignedGraph` is the substrate every algorithm in this package
operates on.  It stores an undirected simple signed graph
``G = (V, E+, E-)`` as two families of adjacency sets (one per edge sign),
mirroring the paper's notation:

* ``N+(v)`` — positive neighbours (:meth:`SignedGraph.pos_neighbors`),
* ``N-(v)`` — negative neighbours (:meth:`SignedGraph.neg_neighbors`),
* ``d+(v)`` / ``d-(v)`` — positive / negative degree.

Vertices are integers ``0..n-1``.  Optional string labels can be attached
(used by the case-study datasets so results are human-readable).

Design notes
------------
Adjacency *sets* (not lists) are used because the branch-and-bound
algorithms intersect neighbourhoods constantly; set intersection is the
dominant primitive.  The structure is mutable only through the explicit
edge/vertex editing API; algorithms never mutate a caller's graph — they
copy or build induced subgraphs via :meth:`SignedGraph.subgraph`.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from ..kernels import npmask
from ..kernels.bitset import adjacency_masks, full_mask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernels.npmask import Matrix

POSITIVE = 1
NEGATIVE = -1

__all__ = ["SignedGraph", "POSITIVE", "NEGATIVE"]


def _edge_token(u: int, v: int, sign: int) -> int:
    """256-bit hash token of a single signed edge (endpoint order free).

    The incremental fingerprint accumulator XORs one token per edge, so
    inserting and removing the same edge cancel exactly and the
    accumulator never depends on edit order.  XOR-of-hashes is a
    standard multiset hash; it is collision-resistant for the
    non-adversarial cache-keying done here, not against attackers who
    can choose edges.
    """
    if u > v:
        u, v = v, u
    payload = f"{u},{v},{sign}".encode()
    return int.from_bytes(hashlib.sha256(payload).digest(), "big")


class SignedGraph:
    """An undirected simple signed graph with integer vertices ``0..n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    labels:
        Optional sequence of ``n`` vertex labels (e.g. subreddit names).
    """

    def __init__(self, n: int = 0,
                 labels: Sequence[str] | None = None) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        self._pos: list[set[int]] = [set() for _ in range(n)]
        self._neg: list[set[int]] = [set() for _ in range(n)]
        # Edge counters maintained incrementally by the mutation API so
        # num_edges / negative_ratio are O(1) (they are queried inside
        # reduction loops).
        self._pos_edges = 0
        self._neg_edges = 0
        self._pos_bits: list[int] | None = None
        self._neg_bits: list[int] | None = None
        self._pos_mat: "Matrix | None" = None
        self._neg_mat: "Matrix | None" = None
        self._fingerprint: str | None = None
        # XOR accumulator of per-edge hash tokens.  ``None`` means "not
        # primed": mutators skip it entirely, so bulk construction and
        # the reductions' peeling loops pay nothing.  The first
        # ``fingerprint()`` call primes it with one full edge scan;
        # after that every mutation maintains it in O(1) hashes, which
        # is what makes fingerprint-keyed caching viable on streaming
        # graphs (see ``repro.dynamic``).
        self._edge_acc: int | None = None
        self._labels: list[str] | None = None
        if labels is not None:
            if len(labels) != n:
                raise ValueError(
                    f"expected {n} labels, got {len(labels)}")
            self._labels = list(labels)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        n: int,
        positive_edges: Iterable[tuple[int, int]] = (),
        negative_edges: Iterable[tuple[int, int]] = (),
        labels: Sequence[str] | None = None,
    ) -> "SignedGraph":
        """Build a graph from explicit positive / negative edge lists."""
        graph = cls(n, labels=labels)
        for u, v in positive_edges:
            graph.add_edge(u, v, POSITIVE)
        for u, v in negative_edges:
            graph.add_edge(u, v, NEGATIVE)
        return graph

    @classmethod
    def from_signed_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int, int]],
        labels: Sequence[str] | None = None,
    ) -> "SignedGraph":
        """Build a graph from ``(u, v, sign)`` triples."""
        graph = cls(n, labels=labels)
        for u, v, sign in edges:
            graph.add_edge(u, v, sign)
        return graph

    def copy(self) -> "SignedGraph":
        """Return a deep copy (labels included)."""
        clone = SignedGraph(self.num_vertices, labels=self._labels)
        clone._pos = [set(adj) for adj in self._pos]
        clone._neg = [set(adj) for adj in self._neg]
        clone._pos_edges = self._pos_edges
        clone._neg_edges = self._neg_edges
        return clone

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """``n = |V|``."""
        return len(self._pos)

    @property
    def num_edges(self) -> int:
        """``m = |E+| + |E-|``."""
        return self.num_positive_edges + self.num_negative_edges

    @property
    def num_positive_edges(self) -> int:
        """``|E+|`` (incrementally maintained, O(1))."""
        return self._pos_edges

    @property
    def num_negative_edges(self) -> int:
        """``|E-|`` (incrementally maintained, O(1))."""
        return self._neg_edges

    @property
    def negative_ratio(self) -> float:
        """``|E-| / |E|`` — the statistic reported in Table I."""
        m = self.num_edges
        return self.num_negative_edges / m if m else 0.0

    def vertices(self) -> range:
        """Iterate vertex ids ``0..n-1``."""
        return range(self.num_vertices)

    def label(self, v: int) -> str:
        """Human-readable label of ``v`` (falls back to ``str(v)``)."""
        if self._labels is None:
            return str(v)
        return self._labels[v]

    def labels(self) -> list[str]:
        """Labels for all vertices (generated if none were attached)."""
        if self._labels is None:
            return [str(v) for v in self.vertices()]
        return list(self._labels)

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def pos_neighbors(self, v: int) -> set[int]:
        """``N+(v)`` — the set of positive neighbours of ``v``.

        The returned set is the live internal set; callers must not
        mutate it.
        """
        return self._pos[v]

    def neg_neighbors(self, v: int) -> set[int]:
        """``N-(v)`` — the set of negative neighbours of ``v``."""
        return self._neg[v]

    def neighbors(self, v: int) -> set[int]:
        """``N(v) = N+(v) ∪ N-(v)`` (a fresh set)."""
        return self._pos[v] | self._neg[v]

    def pos_adjacency_bits(self) -> list[int]:
        """Per-vertex positive-neighbour bitmasks, lazily cached.

        Invalidated by every mutation; callers must not mutate the
        returned list or hold it across edits.
        """
        if self._pos_bits is None:
            self._pos_bits = adjacency_masks(self._pos)
        return self._pos_bits

    def neg_adjacency_bits(self) -> list[int]:
        """Per-vertex negative-neighbour bitmasks, lazily cached."""
        if self._neg_bits is None:
            self._neg_bits = adjacency_masks(self._neg)
        return self._neg_bits

    def cached_adjacency_bits(self) -> "tuple[list[int], list[int]] | None":
        """``(positive, negative)`` masks if both are already built.

        Never builds them: a caller with a mask path and a set path
        (the heuristic) takes the masks only when they are free.
        """
        if self._pos_bits is None or self._neg_bits is None:
            return None
        return self._pos_bits, self._neg_bits

    def pos_adjacency_matrix(self) -> "Matrix":
        """Positive adjacency as a uint64 mask matrix, lazily cached.

        Kernel-layer representation for ``engine="numpy"``
        (:mod:`repro.kernels.npmask`); same invalidation contract as
        :meth:`pos_adjacency_bits`.
        """
        if self._pos_mat is None:
            self._pos_mat = npmask.matrix_from_masks(
                self.pos_adjacency_bits(), self.num_vertices)
        return self._pos_mat

    def neg_adjacency_matrix(self) -> "Matrix":
        """Negative adjacency as a uint64 mask matrix, lazily cached."""
        if self._neg_mat is None:
            self._neg_mat = npmask.matrix_from_masks(
                self.neg_adjacency_bits(), self.num_vertices)
        return self._neg_mat

    def all_bits(self) -> int:
        """Mask of the full vertex set ``0..n-1``."""
        return full_mask(self.num_vertices)

    def _invalidate_bits(self) -> None:
        self._pos_bits = None
        self._neg_bits = None
        self._pos_mat = None
        self._neg_mat = None
        self._fingerprint = None

    def pos_degree(self, v: int) -> int:
        """``d+(v)``."""
        return len(self._pos[v])

    def neg_degree(self, v: int) -> int:
        """``d-(v)``."""
        return len(self._neg[v])

    def degree(self, v: int) -> int:
        """``d(v) = d+(v) + d-(v)``."""
        return len(self._pos[v]) + len(self._neg[v])

    def sign(self, u: int, v: int) -> int | None:
        """Sign of edge ``(u, v)``: ``+1``, ``-1`` or ``None`` if absent."""
        if v in self._pos[u]:
            return POSITIVE
        if v in self._neg[u]:
            return NEGATIVE
        return None

    def has_edge(self, u: int, v: int) -> bool:
        """Whether any edge (either sign) joins ``u`` and ``v``."""
        return v in self._pos[u] or v in self._neg[u]

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield each edge once as ``(u, v, sign)`` with ``u < v``."""
        for u in self.vertices():
            for v in self._pos[u]:
                if u < v:
                    yield u, v, POSITIVE
            for v in self._neg[u]:
                if u < v:
                    yield u, v, NEGATIVE

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_vertex(self, label: str | None = None) -> int:
        """Append a vertex; returns its id."""
        self._pos.append(set())
        self._neg.append(set())
        self._invalidate_bits()
        if self._labels is not None:
            self._labels.append(label if label is not None
                                else str(len(self._pos) - 1))
        elif label is not None:
            self._labels = [str(v) for v in range(len(self._pos) - 1)]
            self._labels.append(label)
        return len(self._pos) - 1

    def add_edge(self, u: int, v: int, sign: int) -> None:
        """Insert edge ``(u, v)`` with the given sign.

        Raises
        ------
        ValueError
            on self-loops, out-of-range endpoints, invalid signs, or if
            the edge already exists with the *opposite* sign (the paper
            assumes ``E+ ∩ E- = ∅``).
        """
        if sign not in (POSITIVE, NEGATIVE):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        if u == v:
            raise ValueError(f"self-loop on vertex {u} is not allowed")
        n = self.num_vertices
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        other = self._neg if sign == POSITIVE else self._pos
        if v in other[u]:
            raise ValueError(
                f"edge ({u}, {v}) already present with opposite sign")
        target = self._pos if sign == POSITIVE else self._neg
        if v in target[u]:
            return  # duplicate insert of the same edge: no-op
        target[u].add(v)
        target[v].add(u)
        if sign == POSITIVE:
            self._pos_edges += 1
        else:
            self._neg_edges += 1
        if self._edge_acc is not None:
            self._edge_acc ^= _edge_token(u, v, sign)
        self._invalidate_bits()

    def remove_edge(self, u: int, v: int) -> None:
        """Delete the edge ``(u, v)`` whatever its sign."""
        if v in self._pos[u]:
            self._pos[u].discard(v)
            self._pos[v].discard(u)
            self._pos_edges -= 1
            removed_sign = POSITIVE
        elif v in self._neg[u]:
            self._neg[u].discard(v)
            self._neg[v].discard(u)
            self._neg_edges -= 1
            removed_sign = NEGATIVE
        else:
            raise KeyError(f"no edge between {u} and {v}")
        if self._edge_acc is not None:
            self._edge_acc ^= _edge_token(u, v, removed_sign)
        self._invalidate_bits()

    def flip_sign(self, u: int, v: int) -> None:
        """Toggle the sign of the existing edge ``(u, v)``.

        Raises
        ------
        KeyError
            if no edge joins ``u`` and ``v``.
        """
        if v in self._pos[u]:
            self._pos[u].discard(v)
            self._pos[v].discard(u)
            self._neg[u].add(v)
            self._neg[v].add(u)
            self._pos_edges -= 1
            self._neg_edges += 1
            old_sign, new_sign = POSITIVE, NEGATIVE
        elif v in self._neg[u]:
            self._neg[u].discard(v)
            self._neg[v].discard(u)
            self._pos[u].add(v)
            self._pos[v].add(u)
            self._neg_edges -= 1
            self._pos_edges += 1
            old_sign, new_sign = NEGATIVE, POSITIVE
        else:
            raise KeyError(f"no edge between {u} and {v}")
        if self._edge_acc is not None:
            self._edge_acc ^= _edge_token(u, v, old_sign)
            self._edge_acc ^= _edge_token(u, v, new_sign)
        self._invalidate_bits()

    def isolate_vertex(self, v: int) -> None:
        """Remove all edges incident to ``v`` (used by peeling reductions)."""
        if self._edge_acc is not None:
            for u in self._pos[v]:
                self._edge_acc ^= _edge_token(u, v, POSITIVE)
            for u in self._neg[v]:
                self._edge_acc ^= _edge_token(u, v, NEGATIVE)
        for u in self._pos[v]:
            self._pos[u].discard(v)
        for u in self._neg[v]:
            self._neg[u].discard(v)
        self._pos_edges -= len(self._pos[v])
        self._neg_edges -= len(self._neg[v])
        self._pos[v] = set()
        self._neg[v] = set()
        self._invalidate_bits()

    # ------------------------------------------------------------------
    # Subgraphs
    # ------------------------------------------------------------------
    def subgraph(
        self, vertices: Iterable[int]
    ) -> tuple["SignedGraph", list[int]]:
        """Vertex-induced subgraph ``G[S]`` with relabelled vertices.

        Returns the subgraph plus ``mapping`` where ``mapping[new_id]``
        is the original vertex id, so results can be translated back.
        """
        kept = set(vertices)
        mapping = sorted(kept)
        if len(mapping) == self.num_vertices:
            return self.copy(), mapping
        index: dict[int, int] = {old: new for new, old in enumerate(mapping)}
        labels = None
        if self._labels is not None:
            labels = [self._labels[old] for old in mapping]
        sub = SignedGraph(len(mapping), labels=labels)
        for new_u, old_u in enumerate(mapping):
            for old_v in self._pos[old_u] & kept:
                new_v = index[old_v]
                if new_u < new_v:
                    sub._pos[new_u].add(new_v)
                    sub._pos[new_v].add(new_u)
                    sub._pos_edges += 1
            for old_v in self._neg[old_u] & kept:
                new_v = index[old_v]
                if new_u < new_v:
                    sub._neg[new_u].add(new_v)
                    sub._neg[new_v].add(new_u)
                    sub._neg_edges += 1
        return sub, mapping

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable content hash of ``(n, signed edge set)``.

        SHA-256 over the vertex count plus an XOR accumulator of
        per-edge hash tokens (:func:`_edge_token`).  Two graphs get the
        same fingerprint iff they have the same vertex count and edge
        set — labels and construction order do not matter.  This is the
        cache key for result caching / memoization; cached per instance
        and invalidated by every mutation.

        The first call primes the accumulator with one full edge scan;
        every subsequent mutation maintains it with O(1) hash updates
        (O(deg) for :meth:`isolate_vertex`), so re-fingerprinting after
        an edit costs one SHA-256 rather than an edge-list sort.  The
        incremental path is what :class:`repro.dynamic.DynamicSolver`
        keys its per-ego result cache on; ``tests/test_signed_graph.py``
        asserts it always equals a from-scratch recomputation.
        """
        if self._fingerprint is None:
            if self._edge_acc is None:
                acc = 0
                for u, v, sign in self.edges():
                    acc ^= _edge_token(u, v, sign)
                self._edge_acc = acc
            digest = hashlib.sha256()
            digest.update(
                f"n={self.num_vertices};edges={self._edge_acc:064x}"
                .encode())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def validate(self) -> None:
        """Check structural invariants; raises ``AssertionError`` on breakage.

        Intended for tests and after bulk construction — verifies
        symmetry, sign-disjointness and absence of self-loops.
        """
        n = self.num_vertices
        for v in self.vertices():
            assert v not in self._pos[v], f"positive self-loop at {v}"
            assert v not in self._neg[v], f"negative self-loop at {v}"
            overlap = self._pos[v] & self._neg[v]
            assert not overlap, f"vertex {v} has double-signed edges {overlap}"
            for u in self._pos[v]:
                assert 0 <= u < n and v in self._pos[u], \
                    f"asymmetric positive edge ({v}, {u})"
            for u in self._neg[v]:
                assert 0 <= u < n and v in self._neg[u], \
                    f"asymmetric negative edge ({v}, {u})"
        pos_sum = sum(len(adj) for adj in self._pos) // 2
        neg_sum = sum(len(adj) for adj in self._neg) // 2
        assert self._pos_edges == pos_sum, \
            f"positive edge counter {self._pos_edges} != {pos_sum}"
        assert self._neg_edges == neg_sum, \
            f"negative edge counter {self._neg_edges} != {neg_sum}"

    def degree_statistics(self) -> Mapping[str, float]:
        """Summary statistics used by dataset reports."""
        n = self.num_vertices
        if n == 0:
            return {"max_degree": 0, "avg_degree": 0.0,
                    "max_pos_degree": 0, "max_neg_degree": 0}
        return {
            "max_degree": max(self.degree(v) for v in self.vertices()),
            "avg_degree": 2.0 * self.num_edges / n,
            "max_pos_degree": max(self.pos_degree(v)
                                  for v in self.vertices()),
            "max_neg_degree": max(self.neg_degree(v)
                                  for v in self.vertices()),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SignedGraph(n={self.num_vertices}, "
                f"m+={self.num_positive_edges}, "
                f"m-={self.num_negative_edges})")
