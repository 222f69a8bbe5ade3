"""The walk itself: legal moves, replay, exhaustive search, oracles.

A state assigns each vertex a residue in [0, p).  A move picks a vertex v
with nonzero value and an edge containing v; it decrements v and
increments every other vertex of the edge (all mod p).  Everything here
works for any prime p >= 2 and any hypergraph; only the algebraic
decision layer is pickier.

The oracles in this module are the ground truth the rest of the package
is judged against, so their rules are plain: exact visited sets,
deterministic expansion order (moves sorted by (edge, vertex)), hard
caps instead of truncation.  Each oracle expands an orbit once: the
recurrence oracle walks back from its target by un-moves inside it.

Both searches run over the state keys of one engine per (G, p), cached
on G (state_space).  Up to TABLE_STATES = 2^16 states a key is the
state's base-p code, and every move and un-move of a state is worked
out once, when the state is first expanded, into a flat int table that
every later query on the instance reads.  Above the bound the keys are
the state tuples, expanded afresh on each visit.  Both engines list a
state's moves in the same order, so orbits, visit orders and witness
schedules are the same whichever one runs.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import add

from .errors import IllegalMove, ParseError, StateSpaceTooLarge
from .hypergraph import Hypergraph

State = tuple[int, ...]

DEFAULT_MAX_STATES = 2_000_000

#: instances with at most this many states (p^n) search one successor table
TABLE_STATES = 2**16

#: row entry of a move, or un-move, that is not legal in the state
ILLEGAL = -1


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
    # all plain ints in range, tested at C speed; the loop names the first offender
    if set(map(type, w)) <= {int} and (not w or (min(w) >= 0 and max(w) < p)):
        return w
    for x in w:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < p:
            raise ParseError(f"state entry {x!r} is not a residue in [0, {p})")
    return w


def parse_state(text: str, p: int, n: int) -> State:
    try:
        w = tuple(map(int, map(str.strip, text.split(","))))
    except ValueError:
        raise ParseError(f"state literal {text!r}: entries must be integers") from None
    return validate_state(p, n, w)


def format_state(w: State) -> str:
    return ",".join(str(x) for x in w)


def _step(G: Hypergraph, p: int, w: list[int], move: Move) -> None:
    """One step of the dynamics on w in place; raises IllegalMove when not applicable."""
    if not 0 <= move.edge < G.m:
        raise IllegalMove(f"edge {move.edge} outside [0, {G.m})")
    edge = G.edges[move.edge]
    if move.vertex not in edge:
        raise IllegalMove(f"vertex {move.vertex} not in edge {move.edge} {edge}")
    if w[move.vertex] == 0:
        raise IllegalMove(f"vertex {move.vertex} has zero units")
    for u in edge:
        w[u] = (w[u] + 1) % p
    w[move.vertex] = (w[move.vertex] - 2) % p


def apply_move(G: Hypergraph, p: int, w: State, move: Move) -> State:
    """One step of the dynamics; raises IllegalMove when not applicable."""
    out = list(w)
    _step(G, p, out, move)
    return tuple(out)


def replay_schedule(G: Hypergraph, p: int, w1: State, schedule: Schedule) -> State:
    """Apply the schedule's moves in turn; failures carry the step index."""
    w = list(w1)
    for step, move in enumerate(schedule):
        try:
            _step(G, p, w, move)
        except IllegalMove as err:
            raise IllegalMove(str(err), step=step) from None
    return tuple(w)


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


class _TupleSpace:
    """State keys are the state tuples themselves, expanded on every visit."""

    def __init__(self, G: Hypergraph, p: int):
        self.moves = all_moves(G)
        steps = [(move.vertex, tuple(u for u in G.edges[move.edge] if u != move.vertex))
                 for move in self.moves]
        self.successors = _tuple_reader(p, steps, 1)
        self.unmoves = _tuple_reader(p, steps, -1)

    def key(self, w: State) -> State:
        return tuple(w)

    def state(self, key: State) -> State:
        return key


def _tuple_reader(p: int, steps, sign: int):
    """Per move in all_moves order, the state the move leads to (sign 1)
    or the state it takes to this one (sign -1), or ILLEGAL.

    A move nets -1 at its vertex v and +1 at the rest of its edge, and
    is legal iff v is charged; undoing it is legal iff v holds a value
    other than p-1 (see has_predecessor).  Either way v does not wrap.
    """
    blocked = 0 if sign == 1 else p - 1

    def row(w: State) -> list:
        out = []
        for v, others in steps:
            if w[v] == blocked:
                out.append(ILLEGAL)
                continue
            nxt = list(w)
            for u in others:
                nxt[u] = (nxt[u] + sign) % p
            nxt[v] -= sign
            out.append(tuple(nxt))
        return out

    return row


class _CodeTable:
    """State keys are base-p codes, vertex 0 the most significant digit,
    so code i is the i-th state of itertools.product(range(p), repeat=n).

    A code splits into its high digits (vertices below n - n//2) and its
    low ones: code = hi * len(low) + lo, and the state is high[hi] +
    low[lo].
    """

    def __init__(self, G: Hypergraph, p: int):
        self.p, self.n = p, G.n
        self.moves = all_moves(G)
        self._edges = G.edges
        cut = G.n - G.n // 2
        self._halves = (list(product(range(p), repeat=cut)),
                        list(product(range(p), repeat=G.n - cut)))

    def key(self, w: State) -> int:
        """The code of w, or ILLEGAL when w is not a state of this instance."""
        p, code = self.p, 0
        for x in w:
            if not 0 <= x < p:
                return ILLEGAL
            code = code * p + x
        return code if len(w) == self.n else ILLEGAL

    def state(self, code: int) -> State:
        high, low = self._halves
        hi, lo = divmod(code, len(low))
        return high[hi] + low[lo]

    # each direction is built on its first use; its reader holds no
    # reference back to the table

    @cached_property
    def successors(self):
        """code -> per move in all_moves order, the code it leads to or ILLEGAL."""
        return _row_reader(self.p, self._edges, self.moves, self._halves, 1)

    @cached_property
    def unmoves(self):
        """code -> per move, the code that move takes to this one, or ILLEGAL."""
        return _row_reader(self.p, self._edges, self.moves, self._halves, -1)


def _row_reader(p: int, edges, moves, halves, sign: int):
    """One direction of a _CodeTable: moves (sign 1) or un-moves (sign -1).

    The rows of all codes live in one flat int array, len(moves) entries
    a code, each filled when its code is first read.  A move changes each
    digit on its own, without carries, so the code it leads to is the
    sum of one part per half of the digits: the half's new digits, in
    place.  The parts are tabled per half code, so filling a row is one
    addition per move.  A mover whose digit would wrap (a move from 0, an
    un-move from p-1; see has_predecessor) is illegal; its half's part is
    -size there, which leaves the sum negative.
    """
    high, low = halves
    size, k, span = len(high) * len(low), len(moves), len(low)
    high_parts = _parts(p, edges, moves, high, 0, sign, span, size)
    low_parts = _parts(p, edges, moves, low, len(high[0]), sign, 1, size)
    rows = array("i", [ILLEGAL]) * (size * k)
    filled = bytearray(size)

    def row(code: int) -> array:
        base = code * k
        if not filled[code]:
            hi, lo = divmod(code, span)
            rows[base:base + k] = array("i", [
                c if c >= 0 else ILLEGAL for c in map(add, high_parts[hi], low_parts[lo])])
            filled[code] = 1
        return rows[base:base + k]

    return row


def _parts(p: int, edges, moves, codes, first: int, sign: int, scale: int, size: int):
    """Per digit tuple of the vertices first, first+1, ...: per move, the
    tuple's new code times scale, or -size when the mover wraps."""
    span = range(first, first + len(codes[0]))
    parts = []
    for digits in codes:
        part = []
        for move in moves:
            after = list(digits)
            for u in edges[move.edge]:
                if u in span:
                    after[u - first] = (after[u - first] + sign) % p
            v = move.vertex
            if v in span:
                # the mover nets -sign: +sign as an edge vertex, -2 sign itself
                d = after[v - first] = digits[v - first] - sign
                if not 0 <= d < p:
                    part.append(-size)
                    continue
            code = 0
            for x in after:
                code = code * p + x
            part.append(code * scale)
        parts.append(tuple(part))
    return parts


def state_space(G: Hypergraph, p: int) -> _CodeTable | _TupleSpace:
    """The search engine of (G, p), built on first use and cached on G.

    Up to TABLE_STATES states it is a _CodeTable, above it a _TupleSpace;
    both order every row by all_moves, so visit orders do not depend on
    which one runs.
    """
    spaces = G.state_spaces
    space = spaces.get(p)
    if space is None:
        # p >= 2, so the first test keeps p ** n from growing with huge n
        small = G.n < TABLE_STATES.bit_length() and p ** G.n <= TABLE_STATES
        space = spaces[p] = (_CodeTable if small else _TupleSpace)(G, p)
    return space


class OrbitResult:
    """BFS closure of a start state under legal moves.

    The search keeps the engine's state keys (see state_space): len,
    `in` and extract_schedule read them directly.  order, the
    deterministic visit order, and predecessor, which maps each state to
    the (previous state, move) pair that first discovered it (None for
    the start), are built as states only when read.
    """

    def __init__(self, start: State, space, keys: list, links: dict):
        self.start = start
        self._space, self._keys, self._links = space, keys, links

    @cached_property
    def order(self) -> tuple[State, ...]:
        return tuple(map(self._space.state, self._keys))

    @cached_property
    def predecessor(self) -> dict[State, tuple[State, Move] | None]:
        state, moves = self._space.state, self._space.moves
        return {state(key): None if link is None else (state(link[0]), moves[link[1]])
                for key, link in self._links.items()}

    def __contains__(self, w: State) -> bool:
        return self._space.key(w) in self._links

    def __len__(self) -> int:
        return len(self._links)


def orbit_bfs(
    G: Hypergraph,
    p: int,
    start: State,
    max_states: int = DEFAULT_MAX_STATES,
    stop_at: State | None = None,
) -> OrbitResult:
    """All states reachable from start (including it).

    Breadth first, each state's moves in all_moves order, over the keys
    of state_space(G, p): codes of one successor table per (G, p) up to
    TABLE_STATES states, state tuples expanded afresh above it; the
    visit order is the same either way.  Refuses with StateSpaceTooLarge
    rather than returning a truncated set.  With stop_at, returns as
    soon as that state is discovered (the partial result still has valid
    predecessor links for it).
    """
    start = validate_state(p, G.n, start)
    space = state_space(G, p)
    successors = space.successors
    origin = space.key(start)
    goal = ILLEGAL if stop_at is None else space.key(stop_at)
    links: dict = {origin: None}
    order = [origin]
    if goal == origin:
        return OrbitResult(start, space, order, links)
    for key in order:  # the visit list is the queue: it grows while it is read
        for k, nxt in enumerate(successors(key)):
            if nxt in links or nxt == ILLEGAL:
                continue
            if len(links) >= max_states:
                raise StateSpaceTooLarge(
                    f"orbit exceeds {max_states} states; refusing to truncate"
                )
            links[nxt] = (key, k)
            order.append(nxt)
            if nxt == goal:
                return OrbitResult(start, space, order, links)
    return OrbitResult(start, space, order, links)


def extract_schedule(orbit: OrbitResult, target: State) -> Schedule:
    """Witness schedule start -> target from BFS predecessor links."""
    if target not in orbit:
        raise ValueError(f"state {target} not in the explored orbit")
    links, moves = orbit._links, orbit._space.moves
    path: list[Move] = []
    link = links[orbit._space.key(target)]
    while link is not None:
        key, k = link
        path.append(moves[k])
        link = links[key]
    path.reverse()
    return Schedule(tuple(path))


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
    space = orbit._space
    target = space.key(w2)
    # the orbit states not yet known to reach w2, kept in visit order
    unreached = dict.fromkeys(orbit._keys)
    del unreached[target]
    todo, unmoves = [target], space.unmoves
    while todo:
        for s in unmoves(todo.pop()):
            if s in unreached:
                del unreached[s]
                todo.append(s)
    escape = next(iter(unreached), None)
    return orbit, None if escape is None else space.state(escape)
