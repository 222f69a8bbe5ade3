"""The walk itself: legal moves, replay, exhaustive search, oracles.

A state assigns each vertex a residue in [0, p).  A move picks a vertex v
with nonzero value and an edge containing v; it decrements v and
increments every other vertex of the edge (all mod p).  Everything here
works for any prime p >= 2 and any hypergraph; only the algebraic
decision layer is pickier.

The oracles in this module are the ground truth the rest of the package
is judged against, so they are deliberately plain: exact visited sets,
deterministic expansion order (moves sorted by (edge, vertex)), hard
caps instead of truncation.  Each oracle expands an orbit once: the
recurrence oracle walks back from its target by un-moves inside it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IllegalMove, ParseError, StateSpaceTooLarge
from .hypergraph import Hypergraph

State = tuple[int, ...]

DEFAULT_MAX_STATES = 2_000_000


@dataclass(frozen=True)
class Move:
    vertex: int
    edge: int


@dataclass(frozen=True)
class Schedule:
    moves: tuple[Move, ...]

    def __len__(self) -> int:
        return len(self.moves)

    def __iter__(self):
        return iter(self.moves)


EMPTY_SCHEDULE = Schedule(())


def validate_state(p: int, n: int, w) -> State:
    w = tuple(w)
    if len(w) != n:
        raise ParseError(f"state has {len(w)} entries, hypergraph has {n} vertices")
    for x in w:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < p:
            raise ParseError(f"state entry {x!r} is not a residue in [0, {p})")
    return w


def parse_state(text: str, p: int, n: int) -> State:
    parts = [s.strip() for s in text.split(",")]
    try:
        values = [int(s) for s in parts]
    except ValueError:
        raise ParseError(f"state literal {text!r}: entries must be integers") from None
    return validate_state(p, n, values)


def format_state(w: State) -> str:
    return ",".join(str(x) for x in w)


def apply_move(G: Hypergraph, p: int, w: State, move: Move) -> State:
    """One step of the dynamics; raises IllegalMove when not applicable."""
    if not 0 <= move.edge < G.m:
        raise IllegalMove(f"edge {move.edge} outside [0, {G.m})")
    edge = G.edges[move.edge]
    if move.vertex not in edge:
        raise IllegalMove(f"vertex {move.vertex} not in edge {move.edge} {edge}")
    if w[move.vertex] == 0:
        raise IllegalMove(f"vertex {move.vertex} has zero units")
    out = list(w)
    for u in edge:
        out[u] = (out[u] + 1) % p
    out[move.vertex] = (out[move.vertex] - 2) % p
    return tuple(out)


def replay_schedule(G: Hypergraph, p: int, w1: State, schedule: Schedule) -> State:
    """Fold apply_move over the schedule; failures carry the step index."""
    w = w1
    for step, move in enumerate(schedule):
        try:
            w = apply_move(G, p, w, move)
        except IllegalMove as err:
            raise IllegalMove(str(err), step=step) from None
    return w


def parse_schedule(text: str) -> Schedule:
    """One move per line: ``v <vertex> e <edge-index>``."""
    moves = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 4 or fields[0] != "v" or fields[2] != "e":
            raise ParseError(f"expected 'v <vertex> e <edge>', got {line!r}", lineno)
        try:
            moves.append(Move(int(fields[1]), int(fields[3])))
        except ValueError:
            raise ParseError(f"non-integer move field in {line!r}", lineno) from None
    return Schedule(tuple(moves))


def format_schedule(schedule: Schedule) -> str:
    return "".join(f"v {m.vertex} e {m.edge}\n" for m in schedule)


def all_moves(G: Hypergraph) -> tuple[Move, ...]:
    """Every (vertex, edge) incidence, ordered by (edge, vertex)."""
    return tuple(Move(v, i) for i, e in enumerate(G.edges) for v in e)


@dataclass
class OrbitResult:
    """BFS closure of a start state under legal moves.

    order is the deterministic visit order; predecessor maps each state
    to the (previous state, move) pair that first discovered it (None
    for the start), which is enough to extract a witness schedule.
    """

    start: State
    order: tuple[State, ...]
    predecessor: dict[State, tuple[State, Move] | None]

    def __contains__(self, w: State) -> bool:
        return w in self.predecessor

    def __len__(self) -> int:
        return len(self.predecessor)


def orbit_bfs(
    G: Hypergraph,
    p: int,
    start: State,
    max_states: int = DEFAULT_MAX_STATES,
    stop_at: State | None = None,
) -> OrbitResult:
    """All states reachable from start (including it).

    Refuses with StateSpaceTooLarge rather than returning a truncated
    set.  With stop_at, returns as soon as that state is discovered (the
    partial result still has valid predecessor links for it).
    """
    steps = [(move, move.vertex, G.edges[move.edge]) for move in all_moves(G)]
    predecessor: dict[State, tuple[State, Move] | None] = {start: None}
    order = [start]
    if stop_at == start:
        return OrbitResult(start, tuple(order), predecessor)
    for w in order:  # the visit list is the queue: it grows while it is read
        for move, v, edge in steps:
            if w[v] == 0:
                continue
            nxt = list(w)
            for u in edge:
                nxt[u] = (nxt[u] + 1) % p
            nxt[v] = (nxt[v] - 2) % p
            t = tuple(nxt)
            if t in predecessor:
                continue
            if len(predecessor) >= max_states:
                raise StateSpaceTooLarge(
                    f"orbit exceeds {max_states} states; refusing to truncate"
                )
            predecessor[t] = (w, move)
            order.append(t)
            if t == stop_at:
                return OrbitResult(start, tuple(order), predecessor)
    return OrbitResult(start, tuple(order), predecessor)


def extract_schedule(orbit: OrbitResult, target: State) -> Schedule:
    """Witness schedule start -> target from BFS predecessor links."""
    if target not in orbit.predecessor:
        raise ValueError(f"state {target} not in the explored orbit")
    moves: list[Move] = []
    w = target
    while True:
        link = orbit.predecessor[w]
        if link is None:
            break
        w, move = link
        moves.append(move)
    moves.reverse()
    return Schedule(tuple(moves))


def has_predecessor(G: Hypergraph, p: int, w: State) -> bool:
    """Is w the image of any legal move?  (False = garden-of-Eden state.)

    Undoing a move at (v, e) forces the prior state: every vertex of e
    had one unit less and v two more, so v held w[v] + 1 before moving.
    The move was legal exactly when that is nonzero, so w has a
    predecessor iff some vertex on an edge holds a value other than p-1.
    """
    return any(w[v] != p - 1 for e in G.edges for v in e)


def oracle_reachable(
    G: Hypergraph,
    p: int,
    w1: State,
    w2: State,
    max_states: int = DEFAULT_MAX_STATES,
) -> bool:
    """Ground-truth reachability by exhaustive BFS."""
    orbit = orbit_bfs(G, p, w1, max_states=max_states, stop_at=w2)
    return w2 in orbit


def oracle_recurrent(
    G: Hypergraph,
    p: int,
    w1: State,
    w2: State,
    max_states: int = DEFAULT_MAX_STATES,
) -> bool:
    """Ground truth for: w2 is reachable from every state reachable from w1."""
    return oracle_escape(G, p, w1, w2, max_states=max_states)[1] is None


def oracle_escape(
    G: Hypergraph,
    p: int,
    w1: State,
    w2: State,
    max_states: int = DEFAULT_MAX_STATES,
) -> tuple[OrbitResult, State | None]:
    """The orbit of w1 and the first state in it that cannot reach w2.

    The escape state is None exactly when w2 is recurrent from w1; when
    w2 is outside the orbit it is w1 itself.  One forward orbit, then a
    sweep backwards from w2 by un-moves kept inside the orbit: undoing
    (v, e) takes one unit from every vertex of e and gives v two, and is
    legal iff v holds a value other than p-1 (see has_predecessor).  The
    orbit is closed under moves, so the sweep crosses off exactly the
    orbit states that can reach w2; the first one left, in visit order,
    is the escape state.
    """
    orbit = orbit_bfs(G, p, w1, max_states=max_states)
    if w2 not in orbit:
        return orbit, w1
    moves = [(v, e) for e in G.edges for v in e]
    # the orbit states not yet known to reach w2, kept in visit order
    unreached = dict.fromkeys(orbit.order)
    del unreached[w2]
    todo = [w2]
    while todo:
        t = todo.pop()
        for v, edge in moves:
            if t[v] == p - 1:
                continue
            prior = list(t)
            for u in edge:
                prior[u] = (prior[u] - 1) % p
            prior[v] = (prior[v] + 2) % p
            s = tuple(prior)
            if s in unreached:
                del unreached[s]
                todo.append(s)
    return orbit, next(iter(unreached), None)
