"""Hypergraph model: parsing, structure, well-shapedness.

Vertices are 0-indexed ints; edges are addressed by their position in the
edge list, which is the position schedules and solver variables use.  The
"well-shaped" predicate checked by is_good (connected, every edge of size
at least 3, pairwise edge intersections of size at most 1) is what the
fast algebraic decision layer requires; parsing and the exhaustive oracle
accept anything.

One breadth-first search, cached on the immutable Hypergraph as
G.structure, gives every layer its incidence lists, components,
spanning edge tree and edge scan order, and marks the edges that close
a cycle, the only ones is_good must test for overlaps; its report is
cached too.  Two more caches, per modulus and freed with G, are filled
from above: G.state_spaces by dynamics.state_space and G.peel_plans by
synthesis._peel_plan.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import lt

from .errors import ParseError
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

    @classmethod
    def _trusted(cls, n: int, edges: tuple[tuple[int, ...], ...]) -> Hypergraph:
        """A Hypergraph without __post_init__'s checks, for a caller that made them.

        parse_hypergraph has: each edge is sorted, of distinct vertices
        and in range, and repeating that would add about a third to its parse.
        """
        G = object.__new__(cls)
        object.__setattr__(G, "n", n)
        object.__setattr__(G, "edges", edges)
        return G

    @cached_property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def structure(self) -> Structure:
        return _build_structure(self)

    @cached_property
    def state_spaces(self) -> dict:
        """Filled by dynamics.state_space, per modulus; freed with G."""
        return {}

    @cached_property
    def peel_plans(self) -> dict:
        """Filled by synthesis._peel_plan, per modulus; freed with G."""
        return {}

    @cached_property
    def goodness(self) -> GoodnessReport:
        violations = [Violation("small_edge", (i,))
                      for i, e in enumerate(self.edges) if len(e) < 3]
        st = self.structure
        violations += [Violation("big_intersection", pair) for pair in _overlaps(self, st)]
        if len(st.components) > 1:
            violations.append(Violation("disconnected", tuple(c[0] for c in st.components)))
        return GoodnessReport(not violations, tuple(violations))


@dataclass(frozen=True)
class Structure:
    """The breadth-first search: roots ascending, then incidence[u] ascending.

    component[v] numbers v's component and components[c] is its sorted
    vertex tuple, numbered by smallest vertex (a vertex on no edge is a
    component by itself).  order lists the vertices in search order;
    tree[v] is (parent u, column of (e, v), column of (e, u)) for the
    edge e that first reached v, or None for a root.  Column offset[i]
    is (e_i, e_i[0]); offset[m] = sum |e| is the number of columns.
    scan[c] lists component c's edges in the order the search met them.
    closing lists, in scan order, the edges that close a cycle: their
    scan met a vertex reached before besides the one it started from.
    """

    incidence: tuple[tuple[int, ...], ...]
    component: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]
    tree: tuple[tuple[int, int, int] | None, ...]
    scan: tuple[tuple[int, ...], ...]
    offset: tuple[int, ...]
    closing: tuple[int, ...]


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
    closing: list[int] = []
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
                base = offset[i]
                ju = base + e.index(u)
                reached = len(queue)
                for k, v in enumerate(e, base):
                    if component[v] < 0:
                        component[v] = c
                        tree[v] = (u, k, ju)
                        queue.append(v)
                if len(queue) - reached < len(e) - 1:  # e met a second vertex reached before
                    closing.append(i)
        order += queue
        components.append(tuple(sorted(queue)))
        scan.append(tuple(met))
    return Structure(tuple(map(tuple, incidence)), tuple(component), tuple(components),
                     tuple(order), tuple(tree), tuple(scan), offset, tuple(closing))


def _overlaps(G: Hypergraph, st: Structure) -> list[tuple[int, int]]:
    """The edge pairs (i, j), i < j, that share two or more vertices, ascending.

    When the search scanned the later edge of such a pair, both shared
    vertices had been reached, so that edge is one of st.closing: only
    the closing edges' incidences are read.
    """
    pairs = set()
    for i in st.closing:
        around = []  # the edges at i's vertices: i itself once per vertex
        for v in G.edges[i]:
            around += st.incidence[v]
        if len(set(around)) < len(around) - len(G.edges[i]) + 1:  # another edge repeats
            pairs.update((min(i, j), max(i, j))
                         for j, k in Counter(around).items() if k > 1 and j != i)
    return sorted(pairs)


def make_hypergraph(n: int, edges) -> Hypergraph:
    """Canonicalize edges (sort, dedupe vertices) and build a Hypergraph."""
    return Hypergraph(n, tuple(tuple(sorted(set(e))) for e in edges))


def parse_hypergraph(text: str) -> tuple[int, Hypergraph]:
    """Parse the hypergraph file format.

    One directive per line: ``p <prime>``, ``vertices <n>``,
    ``edge <v> <v> [...]``; ``#`` starts a comment.  Returns (p, G).
    """
    p: int | None = None
    n: int | None = None
    edges: list[tuple[int, ...]] = []
    seen_edges: set[tuple[int, ...]] = set()
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
            check_modulus(p, lineno)
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
            e = tuple(sorted(vs))
            if not all(map(lt, e, e[1:])):
                raise ParseError(f"duplicate vertex in edge: {' '.join(args)}", lineno)
            if e[0] < 0 or e[-1] >= n:
                bad = next(v for v in vs if v < 0 or v >= n)
                raise ParseError(f"vertex {bad} outside [0, {n})", lineno)
            if e in seen_edges:
                raise ParseError(f"duplicate edge {{{' '.join(args)}}}", lineno)
            seen_edges.add(e)
            edges.append(e)
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno)
    if p is None:
        raise ParseError("missing 'p' directive")
    if n is None:
        raise ParseError("missing 'vertices' directive")
    return p, Hypergraph._trusted(n, tuple(edges))


def check_modulus(p: int, line: int | None = None) -> None:
    """The file format's modulus rule: a prime in [2, MAX_MODULUS].

    A modulus above the ceiling is refused before any trial division.
    """
    if p < 2 or p > MAX_MODULUS or not (p == 2 or is_odd_prime(p)):
        raise ParseError(f"modulus must be a prime in [2, {MAX_MODULUS}], got {p}", line)


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

