"""Seeded inputs.

Graphs are drawn from the stand-in recipes of ``repro.datasets.registry``
with the recipe's seed replaced by one derived from the benchmark seed,
then handed to the program as edge-list text.  The same seed gives the
same inputs.
"""

from __future__ import annotations

import dataclasses
import random

#: Upscaled draws: (recipe, scale).  Scales above 1 grow the background
#: graph only, so the global masks get 4-8x wider.
UPSCALED = (("douban", 4.0), ("epinions", 8.0))

#: Recipes for the resident graphs of ``edit_stream``.  ``bookcross``
#: and ``douban`` are left out: a ``beta()`` on them costs 20-100x that
#: of the others, so a handful of operations would make up the tail.
RESIDENTS = ("bitcoin", "adjwordnet", "reddit", "referendum", "epinions",
             "amazon", "wikiconflict", "yahoosong", "dblp", "sn1")


def derive(seed, *labels):
    """A sub-seed for one named input, stable across Python runs."""
    rng = random.Random(f"{seed}/" + "/".join(map(str, labels)))
    return rng.randrange(1, 2**31)


def draw(name, seed, scale=1.0):
    """One stand-in recipe drawn under ``seed``, as a ``SignedGraph``."""
    from repro.datasets import registry

    spec = registry.DATASETS[name]
    key = f"{name}~{seed}"
    registry.DATASETS[key] = dataclasses.replace(spec, name=key, seed=seed)
    try:
        return registry.load(key, scale)
    finally:
        del registry.DATASETS[key]


def planted(name):
    """A recipe's planted polarized clique as ``(vertices, left)``: the
    registry plants it on the first ids, ``left`` of them on one side."""
    from repro.datasets import registry

    left, right = registry.DATASETS[name].polarized
    return list(range(left + right)), left


def signs_of(graph):
    """The checker's plain edge map of a ``SignedGraph``."""
    return {(min(u, v), max(u, v)): sign for u, v, sign in graph.edges()}


def graph_of(signs):
    """A ``SignedGraph`` of an edge map, vertex ids kept."""
    from repro.signed.graph import SignedGraph

    n = 1 + max(v for edge in signs for v in edge)
    return SignedGraph.from_signed_edges(
        n, ((u, v, s) for (u, v), s in sorted(signs.items())))


def optimum(signs, problem, tau):
    """The optimum of ``problem`` (``mbc`` at ``tau``, or ``pf``) on an
    edge map from the default and the reference ``set`` engine, as
    ``(value, None)``, or ``(None, why)`` when they disagree."""
    from repro.core.mbc_star import mbc_star
    from repro.core.pf import pf_star

    graph = graph_of(signs)
    found = {}
    for engine in ("bitset", "set"):
        if problem == "mbc":
            found[engine] = mbc_star(graph.copy(), tau, engine=engine).size
        else:
            found[engine] = pf_star(graph.copy(), engine=engine)
    if found["bitset"] != found["set"]:
        return None, f"engines disagree on {problem}: {found}"
    return found["bitset"], None


def edge_list_text(signs):
    return "".join(f"{u} {v} {s}\n" for (u, v), s in sorted(signs.items()))


def static_pool(seed):
    """The ``solve_static`` pool: (label, edge map) for the 14 stand-ins
    and the upscaled draws."""
    from repro.datasets import registry

    pool = []
    for name in registry.dataset_names():
        graph = draw(name, derive(seed, "static", name))
        pool.append((name, signs_of(graph)))
    for name, scale in UPSCALED:
        graph = draw(name, derive(seed, "static", name, scale), scale)
        pool.append((f"{name}x{scale:g}", signs_of(graph)))
    return pool


def relabel(signs, rng):
    """The same graph under a random permutation of its vertex ids."""
    vertices = sorted({v for edge in signs for v in edge})
    shuffled = list(vertices)
    rng.shuffle(shuffled)
    forward = dict(zip(vertices, shuffled))
    relabelled = {}
    for (u, v), sign in signs.items():
        a, b = forward[u], forward[v]
        relabelled[(min(a, b), max(a, b))] = sign
    return relabelled


class EditStream:
    """Seeded edits for one resident graph, valid at the time drawn.

    Adds, removes and flips come in the ratio 2:1:1.  A share of the
    edits touch the planted clique: they remove or flip one of its edges
    or restore a missing one, so the optimum keeps moving.
    """

    CLIQUE_SHARE = 0.25

    def __init__(self, signs, clique, left, seed):
        self.rng = random.Random(seed)
        self.signs = signs
        self.n = 1 + max(v for edge in signs for v in edge)
        self.clique = clique
        self.left = left
        self.edges = list(signs)
        self.index = {edge: i for i, edge in enumerate(self.edges)}

    def _clique_sign(self, u, v):
        same = (u < self.left) == (v < self.left)
        return 1 if same else -1

    def _drop(self, edge):
        i = self.index.pop(edge)
        last = self.edges.pop()
        if last != edge:
            self.edges[i] = last
            self.index[last] = i

    def _keep(self, edge):
        self.index[edge] = len(self.edges)
        self.edges.append(edge)

    def _clique_pair(self, present):
        """A planted-clique pair whose edge is present (or absent)."""
        for _ in range(32):
            u, v = sorted(self.rng.sample(self.clique, 2))
            if ((u, v) in self.signs) == present:
                return u, v
        return None

    def next(self):
        """The next edit as ``(kind, u, v, sign)``; applied to the
        stream's own edge map before it is returned."""
        rng = self.rng
        kind = rng.choice(("add", "add", "remove", "flip"))
        edge = None
        if rng.random() < self.CLIQUE_SHARE:
            edge = self._clique_pair(present=kind != "add")
        if kind == "add":
            if edge is not None:
                sign = self._clique_sign(*edge)
            else:
                while True:
                    edge = tuple(sorted(rng.sample(range(self.n), 2)))
                    if edge not in self.signs:
                        break
                sign = rng.choice((1, -1))
            self.signs[edge] = sign
            self._keep(edge)
        else:
            if edge is None:
                edge = self.edges[rng.randrange(len(self.edges))]
            if kind == "remove":
                sign = None
                del self.signs[edge]
                self._drop(edge)
            else:
                sign = self.signs[edge] = -self.signs[edge]
        return kind, edge[0], edge[1], sign
