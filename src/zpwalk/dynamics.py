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

Both searches run on one engine per (G, p), cached on G (state_space),
whose key for a state is its base-p code at every size.  A state's moves
and un-moves are summed from per-chunk parts of its code; up to
TABLE_STATES = 2^16 states each row is worked out once, into a flat int
table that every later query on the instance reads.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat
from operator import add, mul

from .errors import IllegalMove, ParseError, StateSpaceTooLarge
from .hypergraph import Hypergraph

State = tuple[int, ...]

DEFAULT_MAX_STATES = 2_000_000

#: instances with at most this many states (p^n) store their search rows
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


class _CodeTable:
    """State keys are base-p codes, vertex 0 the most significant digit,
    so code i is the i-th state of itertools.product(range(p), repeat=n);
    Python ints carry codes past 2^63.  Rows are stored when there are at
    most TABLE_STATES states, and summed afresh on each read above it.
    """

    def __init__(self, G: Hypergraph, p: int):
        n = G.n
        self.p, self.n = p, n
        self.moves = all_moves(G)
        self._edges = G.edges
        # p >= 2, so the first test keeps p ** n from growing with huge n
        self.stored = n < TABLE_STATES.bit_length() and p ** n <= TABLE_STATES

    def key(self, w: State) -> int:
        """The code of w, or ILLEGAL when w is not a state of this instance."""
        p, code = self.p, 0
        for x in w:
            if not 0 <= x < p:
                return ILLEGAL
            code = code * p + x
        return code if len(w) == self.n else ILLEGAL

    def state(self, code: int) -> State:
        return _digits(self.p, self.n, code)

    # each direction is built on its first use; its reader holds no
    # reference back to the table

    @cached_property
    def successors(self):
        """code -> per move in all_moves order, the code it leads to or ILLEGAL."""
        return _row_reader(self.p, self.n, self._edges, self.moves, self.stored, 1)

    @cached_property
    def unmoves(self):
        """code -> per move, the code that move takes to this one, or ILLEGAL."""
        return _row_reader(self.p, self.n, self._edges, self.moves, self.stored, -1)


def _chunk_width(p: int, n: int) -> int:
    """Digits per chunk: half of the n, so a stored table is two chunks,
    but no more than log_p(TABLE_STATES), so that a chunk whose codes are
    all met has no more parts than a stored table has rows; and at least
    n/8, since a row costs one addition per chunk per move.
    """
    width = 1
    while p ** (width + 1) <= TABLE_STATES:
        width += 1
    return max(min(width, -(-n // 2)), -(-n // 8))


def _digits(p: int, digits: int, c: int) -> State:
    """The base-p digits of c < p^digits, the most significant first."""
    out = [0] * digits
    for i in range(digits - 1, -1, -1):
        c, out[i] = divmod(c, p)
    return tuple(out)


def _row_reader(p: int, n: int, edges, moves, stored: bool, sign: int):
    """One direction of a _CodeTable: moves (sign 1) or un-moves (sign -1).

    A move changes each digit on its own, without carries, so the code
    it leads to is the sum of one part per chunk of digits (_chunk_width):
    the chunk's new digits, in place.  A chunk's parts are filled the
    first time its chunk code is read, and only for the moves whose edge
    meets the chunk; the other moves leave it as it is.  A mover whose
    digit would wrap (a move from 0, an un-move from p-1; see
    has_predecessor) is illegal; its chunk's part is -p^n there, which
    leaves the sum negative.  Stored rows live in one flat int array,
    len(moves) entries a code, each filled when its code is first read.
    """
    k, size, width = len(moves), p ** n, _chunk_width(p, n)
    readers = []  # per chunk, the least significant first: its codes, parts met, filler
    for first in reversed(range(0, n, width)):
        digits = min(width, n - first)
        readers.append((p ** digits, {}, _part_filler(p, edges, moves, first, digits,
                                                      p ** (n - first - digits), sign, size)))

    def summed(code: int) -> list:
        sums = None
        for radix, parts, fill in readers:
            code, c = divmod(code, radix)
            part = parts.get(c)
            if part is None:
                part = parts[c] = fill(c)
            sums = part if sums is None else map(add, sums, part)
        return [c if c >= 0 else ILLEGAL for c in sums]

    if not stored:
        return summed
    rows = array("i", [ILLEGAL]) * (size * k)
    filled = bytearray(size)

    def row(code: int) -> array:
        base = code * k
        if not filled[code]:
            rows[base:base + k] = array("i", summed(code))
            filled[code] = 1
        return rows[base:base + k]

    return row


def _part_filler(p: int, edges, moves, first: int, digits: int, scale: int, sign: int,
                 size: int):
    """Chunk code -> per move, the chunk's new digits in place, or -size
    when the mover is in the chunk and would wrap."""
    blocked = 0 if sign == 1 else p - 1  # a mover steps by -sign, and not from here
    wraps = p - 1 - blocked  # another edge vertex steps by sign, and wraps from here
    # per digit of the chunk, the first vertex first, its place value
    weights = list(accumulate(repeat(p, digits - 1), mul, initial=scale))[::-1]
    step = [sign * w for w in weights]
    wrap = [-sign * (p - 1) * w for w in weights]
    span = range(first, first + digits)
    meets = []  # (move index, mover's offset or None, the other edge vertices' offsets)
    for j, move in enumerate(moves):
        others = [u - first for u in edges[move.edge] if u in span and u != move.vertex]
        mover = move.vertex - first if move.vertex in span else None
        if others or mover is not None:
            meets.append((j, mover, others))

    def fill(c: int) -> list:
        now = _digits(p, digits, c)
        base = c * scale
        part = [base] * len(moves)
        for j, mover, others in meets:
            delta = 0
            for i in others:
                delta += wrap[i] if now[i] == wraps else step[i]
            if mover is not None:
                if now[mover] == blocked:
                    part[j] = -size
                    continue
                delta -= step[mover]
            part[j] = base + delta
        return part

    return fill


def state_space(G: Hypergraph, p: int) -> _CodeTable:
    """The search engine of (G, p), built on first use and cached on G."""
    spaces = G.state_spaces
    space = spaces.get(p)
    if space is None:
        space = spaces[p] = _CodeTable(G, p)
    return space


class OrbitResult:
    """BFS closure of a start state under legal moves.

    The search keeps the engine's state keys (see state_space): len,
    `in` and extract_schedule read them directly.  order, the
    deterministic visit order, and predecessor, which maps each state to
    the (previous state, move) pair that first discovered it (None for
    the start), are built as states only when read, each state stepped
    from the one that discovered it.
    """

    def __init__(self, G: Hypergraph, p: int, start: State, space, links: dict):
        self.start = start
        self._G, self._p, self._space, self._links = G, p, space, links

    @cached_property
    def _states(self) -> dict:
        states, moves = {}, self._space.moves
        for key, link in self._links.items():  # in visit order: a key's link is older
            states[key] = self.start if link is None else apply_move(
                self._G, self._p, states[link[0]], moves[link[1]])
        return states

    @cached_property
    def order(self) -> tuple[State, ...]:
        return tuple(self._states.values())

    @cached_property
    def predecessor(self) -> dict[State, tuple[State, Move] | None]:
        states, moves = self._states, self._space.moves
        return {states[key]: None if link is None else (states[link[0]], moves[link[1]])
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

    Breadth first, each state's moves in all_moves order, over the codes
    of state_space(G, p).  Refuses with StateSpaceTooLarge rather than
    returning a truncated set.  With stop_at, returns as soon as that
    state is discovered (the partial result still has valid predecessor
    links for it).
    """
    start = validate_state(p, G.n, start)
    space = state_space(G, p)
    successors = space.successors
    origin = space.key(start)
    goal = ILLEGAL if stop_at is None else space.key(stop_at)
    links: dict = {origin: None}
    order = [origin]
    if goal == origin:
        return OrbitResult(G, p, start, space, links)
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
                return OrbitResult(G, p, start, space, links)
    return OrbitResult(G, p, start, space, links)


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
    unreached = dict.fromkeys(orbit._links)
    del unreached[target]
    todo, unmoves = [target], space.unmoves
    while todo:
        for s in unmoves(todo.pop()):
            if s in unreached:
                del unreached[s]
                todo.append(s)
    escape = next(iter(unreached), None)
    return orbit, None if escape is None else space.state(escape)
