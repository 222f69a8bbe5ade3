"""Random well-shaped hypergraphs for tests and experiments.

A well-shaped hypergraph with m >= 1 edges needs at least 2m + 1
vertices: a connected family of m edges with pairwise intersections of
size <= 1 spans at most (sum of sizes) - (m - 1) vertices, and sizes are
at least 3, so the tightest case is a "loose tree" of 3-edges chained
through single shared vertices.  Conversely any (n, m) with n >= 2m + 1
is realizable by such a tree with one edge fattened, which is exactly
how the generator builds its backbone.
"""

from __future__ import annotations

import random

from .errors import Infeasible
from .hypergraph import MAX_VERTICES, Hypergraph, is_good

_EXTRA_EDGE_ATTEMPTS = 200


def feasible(n: int, m: int) -> bool:
    """Can a well-shaped hypergraph with n vertices and m edges exist?"""
    if m == 0:
        return n == 1
    return n >= 2 * m + 1


def gen_good_hypergraph(n: int, m: int, seed: int | None = None) -> Hypergraph:
    """Seeded random well-shaped hypergraph with exactly n vertices, m edges.

    Construction: a spanning loose tree of m_tree edges (each new edge
    anchors on one already-used vertex and otherwise takes fresh ones,
    so intersections stay at size <= 1 by construction), plus greedily
    placed extra 3-edges among existing vertices when the dice asked for
    fewer tree edges.  If the extras cannot be placed within a bounded
    number of attempts, falls back to a pure tree, which always exists.
    Raises Infeasible when no such hypergraph exists or n > MAX_VERTICES.
    """
    if not 1 <= n <= MAX_VERTICES or m < 0:
        raise Infeasible(f"need 1 <= n <= {MAX_VERTICES} and m >= 0, got n={n}, m={m}")
    if not feasible(n, m):
        if m == 0:
            raise Infeasible(f"{n} vertices with no edges cannot be connected")
        raise Infeasible(
            f"m={m} edges of size >= 3 with intersections <= 1 need "
            f"n >= {2 * m + 1} vertices, got n={n}"
        )
    rng = random.Random(seed)
    if m == 0:
        return Hypergraph(1, ())
    m_tree = rng.randint(max(1, (m + 1) // 2), m)
    edges = _try_build(n, m, m_tree, rng)
    if edges is None:
        edges = _try_build(n, m, m, rng)
        assert edges is not None  # a pure tree never needs extras
    G = Hypergraph(n, tuple(sorted(edges)))
    assert is_good(G).good
    return G


def _try_build(
    n: int, m: int, m_tree: int, rng: random.Random
) -> list[tuple[int, ...]] | None:
    labels = list(range(n))
    rng.shuffle(labels)
    sizes = [3] * m_tree
    for _ in range(n - 2 * m_tree - 1):
        sizes[rng.randrange(m_tree)] += 1
    edges: list[tuple[int, ...]] = []
    used: list[int] = []
    fresh = iter(labels)
    for i, size in enumerate(sizes):
        if i == 0:
            members = [next(fresh) for _ in range(size)]
        else:
            members = [rng.choice(used)] + [next(fresh) for _ in range(size - 1)]
        edges.append(tuple(sorted(members)))
        used.extend(v for v in members if v not in used)
    edge_sets = [set(e) for e in edges]
    for _ in range(m - m_tree):
        placed = False
        for _ in range(_EXTRA_EDGE_ATTEMPTS):
            candidate = set(rng.sample(range(n), 3))
            if all(len(candidate & s) <= 1 for s in edge_sets):
                edges.append(tuple(sorted(candidate)))
                edge_sets.append(candidate)
                placed = True
                break
        if not placed:
            return None
    return edges
