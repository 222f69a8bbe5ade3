"""Hypergraph model: parsing, structure, well-shapedness, edge paths.

Vertices are 0-indexed ints; edges are addressed by their position in the
edge list, which is the position schedules and solver variables use.  The
"well-shaped" predicate checked by is_good (connected, every edge of size
at least 3, pairwise edge intersections of size at most 1) is what the
fast algebraic decision layer requires; parsing and the exhaustive oracle
accept anything.

One breadth-first search, cached on the immutable Hypergraph as
G.structure, gives every layer its incidence lists, components,
spanning edge tree and edge scan order; is_good's report is cached too.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import lt

from .errors import NoPath, ParseError
from .zp_algebra import MAX_MODULUS, is_odd_prime

#: more vertices are refused by the parser and the generator
MAX_VERTICES = 10**6


@dataclass(frozen=True)
class Hypergraph:
    n: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one vertex, got n={self.n}")
        for i, e in enumerate(self.edges):
            if len(e) < 2:
                raise ValueError(f"edge {i} has {len(e)} vertices, need at least 2")
            if not all(map(lt, e, e[1:])):  # strictly increasing
                raise ValueError(f"edge {i} must be a sorted tuple of distinct vertices")
            if e[0] < 0 or e[-1] >= self.n:
                raise ValueError(f"edge {i} has vertices outside [0, {self.n})")

    @cached_property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def structure(self) -> Structure:
        return _build_structure(self)

    @cached_property
    def goodness(self) -> GoodnessReport:
        violations: list[Violation] = []
        for i, e in enumerate(self.edges):
            if len(e) < 3:
                violations.append(Violation("small_edge", (i,)))
        # shared vertices are counted through the incidence lists, so the
        # work is the sum of deg(v)^2 rather than m^2 pair tests
        incidence = self.structure.incidence
        for i, e in enumerate(self.edges):
            shared: dict[int, int] = {}
            for v in e:
                for j in incidence[v]:
                    if j > i:
                        shared[j] = shared.get(j, 0) + 1
            for j in sorted(j for j, k in shared.items() if k > 1):
                violations.append(Violation("big_intersection", (i, j)))
        components = self.structure.components
        if len(components) > 1:
            violations.append(Violation("disconnected", tuple(c[0] for c in components)))
        return GoodnessReport(not violations, tuple(violations))


@dataclass(frozen=True)
class Structure:
    """The breadth-first search: roots ascending, then incidence[u] ascending.

    component[v] numbers v's component and components[c] is its sorted
    vertex tuple, numbered by smallest vertex (a vertex on no edge is a
    component by itself).  order lists the vertices in search order;
    tree[v] is (parent u, column of (e, v), column of (e, u)) for the
    edge e that first reached v, or None for a root.  Column offset[i]
    is (e_i, e_i[0]); offset[m] = ncols = sum |e|.  scan[c] lists
    component c's edges in the order the search met them.
    """

    incidence: tuple[tuple[int, ...], ...]
    component: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]
    tree: tuple[tuple[int, int, int] | None, ...]
    scan: tuple[tuple[int, ...], ...]
    offset: tuple[int, ...]
    ncols: int


def _build_structure(G: Hypergraph) -> Structure:
    incidence: list[list[int]] = [[] for _ in range(G.n)]
    for i, e in enumerate(G.edges):
        for v in e:
            incidence[v].append(i)
    offset = tuple(accumulate(map(len, G.edges), initial=0))
    component = [-1] * G.n
    tree: list[tuple[int, int, int] | None] = [None] * G.n
    order: list[int] = []
    components: list[tuple[int, ...]] = []
    scan: list[tuple[int, ...]] = []
    scanned = [False] * G.m
    for root in range(G.n):
        if component[root] >= 0:
            continue
        c = component[root] = len(scan)
        queue, met = [root], []
        for u in queue:  # the queue grows while it is read
            for i in incidence[u]:
                if scanned[i]:
                    continue
                scanned[i] = True
                met.append(i)
                e = G.edges[i]
                ju = offset[i] + e.index(u)
                for k, v in enumerate(e):
                    if component[v] < 0:
                        component[v] = c
                        tree[v] = (u, offset[i] + k, ju)
                        queue.append(v)
        order += queue
        components.append(tuple(sorted(queue)))
        scan.append(tuple(met))
    return Structure(tuple(map(tuple, incidence)), tuple(component), tuple(components),
                     tuple(order), tuple(tree), tuple(scan), offset, offset[-1])


def make_hypergraph(n: int, edges) -> Hypergraph:
    """Canonicalize edges (sort, dedupe vertices) and build a Hypergraph."""
    return Hypergraph(n, tuple(tuple(sorted(set(e))) for e in edges))


def vertex_edges(G: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """For each vertex, the (sorted) indices of edges containing it."""
    return G.structure.incidence


def parse_hypergraph(text: str) -> tuple[int, Hypergraph]:
    """Parse the hypergraph file format.

    One directive per line: ``p <prime>``, ``vertices <n>``,
    ``edge <v> <v> [...]``; ``#`` starts a comment.  Returns (p, G).
    """
    p: int | None = None
    n: int | None = None
    edges: list[tuple[int, ...]] = []
    seen_edge_sets: set[frozenset[int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword, args = fields[0], fields[1:]
        if keyword == "p":
            if p is not None:
                raise ParseError("duplicate 'p' directive", lineno)
            p = _parse_int(args, 1, "p", lineno)[0]
            if p < 2 or p > MAX_MODULUS or not (p == 2 or is_odd_prime(p)):
                raise ParseError(f"modulus must be a prime in [2, {MAX_MODULUS}], got {p}", lineno)
        elif keyword == "vertices":
            if n is not None:
                raise ParseError("duplicate 'vertices' directive", lineno)
            n = _parse_int(args, 1, "vertices", lineno)[0]
            if not 1 <= n <= MAX_VERTICES:
                raise ParseError(f"need at least one vertex and at most {MAX_VERTICES}, "
                                 f"got {n}", lineno)
        elif keyword == "edge":
            if n is None:
                raise ParseError("'edge' before 'vertices'", lineno)
            if len(args) < 2:
                raise ParseError("an edge needs at least 2 vertices", lineno)
            vs = _parse_int(args, len(args), "edge", lineno)
            if len(set(vs)) != len(vs):
                raise ParseError(f"duplicate vertex in edge: {' '.join(args)}", lineno)
            bad = [v for v in vs if v < 0 or v >= n]
            if bad:
                raise ParseError(f"vertex {bad[0]} outside [0, {n})", lineno)
            key = frozenset(vs)
            if key in seen_edge_sets:
                raise ParseError(f"duplicate edge {{{' '.join(args)}}}", lineno)
            seen_edge_sets.add(key)
            edges.append(tuple(sorted(vs)))
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno)
    if p is None:
        raise ParseError("missing 'p' directive")
    if n is None:
        raise ParseError("missing 'vertices' directive")
    return p, Hypergraph(n, tuple(edges))


def _parse_int(args: list[str], count: int, what: str, lineno: int) -> list[int]:
    if len(args) != count:
        raise ParseError(f"'{what}' expects {count} integer argument(s)", lineno)
    out = []
    for a in args:
        try:
            out.append(int(a))
        except ValueError:
            raise ParseError(f"'{what}': not an integer: {a!r}", lineno) from None
    return out


def format_hypergraph(p: int, G: Hypergraph) -> str:
    lines = [f"p {p}", f"vertices {G.n}"]
    lines += ["edge " + " ".join(str(v) for v in e) for e in G.edges]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Violation:
    kind: str  # "small_edge" | "big_intersection" | "disconnected"
    detail: tuple[int, ...]


@dataclass(frozen=True)
class GoodnessReport:
    good: bool
    violations: tuple[Violation, ...]


def is_good(G: Hypergraph) -> GoodnessReport:
    """Connected, every edge of size >= 3, pairwise intersections <= 1."""
    return G.goodness


def connected_components(G: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """Vertex partition induced by the edges.

    Isolated vertices come back as singleton components.  Components are
    sorted by their smallest vertex; each is a sorted tuple.
    """
    return G.structure.components


@dataclass(frozen=True)
class EdgePath:
    """A walk through edges e_1..e_k entered at start_vertex.

    connectors[i] is the shared vertex used to step from edges[i] to
    edges[i+1] (so there are k-1 of them).
    """

    start_vertex: int
    edges: tuple[int, ...]
    connectors: tuple[int, ...]


def shortest_edge_path(G: Hypergraph, from_vertex: int, to_edge: int) -> EdgePath:
    """Fewest-edges path from an edge containing from_vertex to to_edge.

    BFS over the edge-intersection graph, neighbours read off the
    incidence lists; ties break toward lower edge indices, and
    multi-vertex intersections (possible off the well-shaped family) use
    the lowest shared vertex as connector.
    """
    if not 0 <= from_vertex < G.n:
        raise ValueError(f"from_vertex {from_vertex} outside [0, {G.n})")
    if not 0 <= to_edge < G.m:
        raise ValueError(f"to_edge {to_edge} outside [0, {G.m})")
    incidence = G.structure.incidence
    prev: dict[int, int | None] = dict.fromkeys(incidence[from_vertex])
    queue: deque[int] = deque(prev)
    while queue and to_edge not in prev:
        cur = queue.popleft()
        for j in sorted({j for v in G.edges[cur] for j in incidence[v]}):
            if j not in prev:
                prev[j] = cur
                queue.append(j)
    if to_edge not in prev:
        raise NoPath(f"no edge path from vertex {from_vertex} to edge {to_edge}")
    chain = [to_edge]
    while prev[chain[-1]] is not None:
        chain.append(prev[chain[-1]])
    chain.reverse()
    connectors = tuple(
        min(set(G.edges[a]) & set(G.edges[b])) for a, b in zip(chain, chain[1:])
    )
    return EdgePath(from_vertex, tuple(chain), connectors)
