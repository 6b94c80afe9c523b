"""Independent answer checker.

It never imports the program under test: a graph is a plain
``{(u, v): sign}`` mapping with ``u < v`` and signs ``+1`` / ``-1``, and
an answer is the pair of vertex sides the program returned.  Every
check returns a list of problems; an empty list means the answer holds.
"""

from __future__ import annotations


def edge_key(u, v):
    return (u, v) if u < v else (v, u)


def witness_problems(signs, left, right):
    """Why ``(left, right)`` is not a balanced clique of ``signs``.

    A balanced clique is a clique whose edges are positive within each
    side and negative across the sides.
    """
    problems = []
    left, right = list(left), list(right)
    if len(set(left)) != len(left) or len(set(right)) != len(right):
        problems.append("a side lists a vertex twice")
    overlap = set(left) & set(right)
    if overlap:
        problems.append(f"vertices {sorted(overlap)} on both sides")
    for side, name in ((left, "left"), (right, "right")):
        for i, u in enumerate(side):
            for v in side[i + 1:]:
                sign = signs.get(edge_key(u, v))
                if sign is None:
                    problems.append(f"{name} pair ({u}, {v}) is no edge")
                elif sign != 1:
                    problems.append(
                        f"{name} pair ({u}, {v}) has a negative edge")
    for u in left:
        for v in right:
            sign = signs.get(edge_key(u, v))
            if sign is None:
                problems.append(f"cross pair ({u}, {v}) is no edge")
            elif sign != -1:
                problems.append(
                    f"cross pair ({u}, {v}) has a positive edge")
    return problems[:5]


def mbc_problems(signs, left, right, reported_size, tau, optimum=None):
    """Check an MBC answer: a balanced clique with ``tau`` vertices on
    each side whose size is the reported size and the pinned optimum
    (when one is given)."""
    problems = witness_problems(signs, left, right)
    size = len(left) + len(right)
    if size and min(len(left), len(right)) < tau:
        problems.append(
            f"sides {len(left)}/{len(right)} miss tau={tau}")
    if reported_size != size:
        problems.append(
            f"reported size {reported_size} but the witness has {size}")
    if optimum is not None and size != optimum:
        problems.append(f"size {size} but the optimum is {optimum}")
    return problems


def pf_problems(signs, left, right, reported_beta, optimum=None):
    """Check a polarization-factor answer: the witness's smaller side is
    the reported beta and the pinned optimum (when one is given)."""
    problems = witness_problems(signs, left, right)
    beta = min(len(left), len(right))
    if reported_beta != beta:
        problems.append(
            f"reported beta {reported_beta} but the witness has {beta}")
    if optimum is not None and beta != optimum:
        problems.append(f"beta {beta} but the optimum is {optimum}")
    return problems


class Shadow:
    """A signed edge map that replays the edits sent to the program."""

    def __init__(self, signs):
        self.signs = dict(signs)

    def apply(self, kind, u, v, sign=None):
        key = edge_key(u, v)
        if kind == "add":
            if key in self.signs and self.signs[key] != sign:
                raise ValueError(f"add of existing edge {key}")
            self.signs[key] = sign
        elif kind == "remove":
            del self.signs[key]
        elif kind == "flip":
            self.signs[key] = -self.signs[key]
        else:
            raise ValueError(f"unknown edit kind {kind!r}")
