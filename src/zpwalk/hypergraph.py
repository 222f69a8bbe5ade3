"""Hypergraph model: parsing, structural checks, connectivity, edge paths.

Vertices are 0-indexed ints; edges are addressed by their position in the
edge list, which is the position schedules and solver variables use.  The
"well-shaped" predicate checked by is_good (connected, every edge of size
at least 3, pairwise edge intersections of size at most 1) is what the
fast algebraic decision layer requires; parsing and the exhaustive oracle
accept anything.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import NoPath, ParseError
from .zp_algebra import is_odd_prime


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
            if list(e) != sorted(set(e)):
                raise ValueError(f"edge {i} must be a sorted tuple of distinct vertices")
            if e[0] < 0 or e[-1] >= self.n:
                raise ValueError(f"edge {i} has vertices outside [0, {self.n})")

    @property
    def m(self) -> int:
        return len(self.edges)


def make_hypergraph(n: int, edges) -> Hypergraph:
    """Canonicalize edges (sort, dedupe vertices) and build a Hypergraph."""
    return Hypergraph(n, tuple(tuple(sorted(set(e))) for e in edges))


def vertex_edges(G: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """For each vertex, the (sorted) indices of edges containing it."""
    incidence: list[list[int]] = [[] for _ in range(G.n)]
    for i, e in enumerate(G.edges):
        for v in e:
            incidence[v].append(i)
    return tuple(tuple(ix) for ix in incidence)


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
            if p < 2 or not (p == 2 or is_odd_prime(p)):
                raise ParseError(f"modulus must be a prime >= 2, got {p}", lineno)
        elif keyword == "vertices":
            if n is not None:
                raise ParseError("duplicate 'vertices' directive", lineno)
            n = _parse_int(args, 1, "vertices", lineno)[0]
            if n < 1:
                raise ParseError(f"need at least one vertex, got {n}", lineno)
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
    violations: list[Violation] = []
    for i, e in enumerate(G.edges):
        if len(e) < 3:
            violations.append(Violation("small_edge", (i,)))
    # shared vertices are counted through the incidence lists, so the
    # work is the sum of deg(v)^2 rather than m^2 pair tests
    incidence = vertex_edges(G)
    for i, e in enumerate(G.edges):
        shared: dict[int, int] = {}
        for v in e:
            for j in incidence[v]:
                if j > i:
                    shared[j] = shared.get(j, 0) + 1
        for j in sorted(j for j, k in shared.items() if k > 1):
            violations.append(Violation("big_intersection", (i, j)))
    components = connected_components(G)
    if len(components) > 1:
        violations.append(Violation("disconnected", tuple(c[0] for c in components)))
    return GoodnessReport(not violations, tuple(violations))


def connected_components(G: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """Vertex partition induced by the edges.

    Isolated vertices come back as singleton components.  Components are
    sorted by their smallest vertex; each is a sorted tuple.
    """
    parent = list(range(G.n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in G.edges:
        root = find(e[0])
        for v in e[1:]:
            parent[find(v)] = root
    groups: dict[int, list[int]] = {}
    for v in range(G.n):
        groups.setdefault(find(v), []).append(v)
    return tuple(sorted((tuple(sorted(g)) for g in groups.values()), key=lambda c: c[0]))


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

    BFS over the edge-intersection graph; ties break toward lower edge
    indices, and multi-vertex intersections (possible off the well-shaped
    family) use the lowest shared vertex as connector.
    """
    if not 0 <= from_vertex < G.n:
        raise ValueError(f"from_vertex {from_vertex} outside [0, {G.n})")
    if not 0 <= to_edge < G.m:
        raise ValueError(f"to_edge {to_edge} outside [0, {G.m})")
    edge_sets = [set(e) for e in G.edges]
    prev: dict[int, int | None] = {}
    queue: deque[int] = deque()
    for i in range(G.m):
        if from_vertex in edge_sets[i]:
            prev[i] = None
            queue.append(i)
    found = None
    while queue:
        cur = queue.popleft()
        if cur == to_edge:
            found = cur
            break
        for j in range(G.m):
            if j in prev or not edge_sets[cur] & edge_sets[j]:
                continue
            prev[j] = cur
            queue.append(j)
    if found is None:
        raise NoPath(f"no edge path from vertex {from_vertex} to edge {to_edge}")
    chain = [found]
    while prev[chain[-1]] is not None:
        chain.append(prev[chain[-1]])
    chain.reverse()
    connectors = tuple(
        min(edge_sets[a] & edge_sets[b]) for a, b in zip(chain, chain[1:])
    )
    return EdgePath(from_vertex, tuple(chain), connectors)
