"""Random well-shaped hypergraphs, random states, and targets in a
state's class, for tests and experiments.

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

from .dynamics import State
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
    home = [0] * n  # the edge that brought each vertex in
    later: dict[int, set[int]] = {}  # the edges it joined after that
    for i, size in enumerate(sizes):
        # only the anchor was used before; the other members are fresh
        anchor = [rng.choice(used)] if i else []
        members = [next(fresh) for _ in range(size - len(anchor))]
        for v in members:
            home[v] = i
        for v in anchor:
            later.setdefault(v, set()).add(i)
        used += members
        edges.append(tuple(sorted(anchor + members)))

    def edges_at(v: int) -> set[int]:
        return later.get(v, set()) | {home[v]}

    for _ in range(m - m_tree):
        for _ in range(_EXTRA_EDGE_ATTEMPTS):
            candidate = sorted(rng.sample(range(n), 3))
            a, b, c = map(edges_at, candidate)
            # it would meet an edge in two vertices iff two of its own share one
            if not (a & b or a & c or b & c):
                for v in candidate:
                    later.setdefault(v, set()).add(len(edges))
                edges.append(tuple(candidate))
                break
        else:
            return None
    return edges


def random_state(G: Hypergraph, p: int, rng: random.Random, charged: bool = False) -> State:
    """A uniform state: one rng.randrange(p) per vertex, in vertex order.

    With charged, an all-zero draw becomes 1 at vertex 0, so the state
    holds charge.
    """
    w = tuple(rng.randrange(p) for _ in range(G.n))
    if charged and not any(w):
        w = (1,) + w[1:]
    return w


def class_target(G: Hypergraph, p: int, w: State, rng: random.Random,
                 skip: int | None = None) -> State:
    """w plus a random multiple of every move's effect off edge skip.

    One rng.randrange(p) per incidence, edge by edge.  The result is
    balance-solvable from w without moves on skip, so positive decisions
    are frequent; it is not always reachable (corner states exist).
    """
    target = list(w)
    for i, e in enumerate(G.edges):
        if i == skip:
            continue
        for v in e:
            x = rng.randrange(p)
            if not x:
                continue
            for u in e:
                target[u] = (target[u] + x) % p
            target[v] = (target[v] - 2 * x) % p
    return tuple(target)
