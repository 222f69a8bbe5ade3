"""The walk itself: legal moves, replay, exhaustive search, oracles.

A state assigns each vertex a residue in [0, p).  A move picks a vertex v
with nonzero value and an edge containing v; it decrements v and
increments every other vertex of the edge (all mod p).  Everything here
works for any prime p >= 2 and any hypergraph; only the algebraic
decision layer is pickier.

The move rule, with its three checks and their messages (edge in range,
vertex on the edge, mover charged), is stated once, in _play, which
apply_move runs on one move and replay_schedule on a whole schedule,
naming the failing move's step.  A Schedule is two int columns, the
movers and the edge indices: synthesis records into them,
extract_schedule and parse_schedule fill them, and replay_schedule and
format_schedule read them, so no Move object is made per move.  A
Schedule still iterates as Moves, built as they are read.

The oracles in this module answer by exhaustive search, and selftest
judges them, as it judges the algebra, against the enumerated state
digraph in zp_algebra.  Their rules are plain: exact visited sets,
deterministic expansion order (moves sorted by (edge, vertex)), hard
caps instead of truncation.  Each oracle expands an orbit once.  The
recurrence oracle then sweeps the orbit's mirror image forward from its
target's mirror: undoing a move on w is the same move on p-1-w, mirrored
back, so the search has one direction.

Both searches run on an engine of (G, p) (state_space): a dict from a
state's base-p code, at every size, to its row of successor codes, the
state's own code for a move that is not legal there (no legal move fixes
its state), so rows and searches hold states only.  A missing row is
summed from per-chunk parts of its code.  TABLE_STATES = 2^16 states
bounds what outlives a query: up to it the dict keeps each row and G
caches the engine, so later queries read a row in one lookup; above it
each query's result holds its own engine, parts and all.  A search links
each state it visits to its parent's key alone; the move between them is
read back from the parent's row only when a schedule is extracted.
"""

from __future__ import annotations

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

#: schedule text is split into lines this many characters at a time, and
#: written this many moves at a time
_PIECE = 2**16


@dataclass(frozen=True)
class Move:
    vertex: int
    edge: int


class Schedule:
    """A move sequence as two int columns: move s is (vertices[s], edges[s]).

    Schedule(moves) takes Moves; the builders hand over their columns to
    from_columns instead, and every reader reads the columns, so no Move
    is built per move.  Iterating yields Moves, made as they are read.
    """

    __slots__ = ("vertices", "edges")

    def __init__(self, moves):
        moves = tuple(moves)
        self.vertices = [move.vertex for move in moves]
        self.edges = [move.edge for move in moves]

    @classmethod
    def from_columns(cls, vertices: list[int], edges: list[int]) -> Schedule:
        """The schedule of these columns, kept as they are, not copied."""
        schedule = cls.__new__(cls)
        schedule.vertices, schedule.edges = vertices, edges
        return schedule

    @property
    def moves(self) -> tuple[Move, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return map(Move, self.vertices, self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __repr__(self) -> str:
        return f"Schedule(moves={self.moves!r})"


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
    return ",".join(map(str, w))


def _play(G: Hypergraph, p: int, w: list[int], moves, counted: bool) -> None:
    """The move rule, on w in place: each (vertex, edge) pair of moves in turn.

    A move needs its edge in range, its vertex on the edge and charge at
    the vertex; it takes two units from the vertex and adds one at every
    vertex of the edge, so the mover loses one and the others gain one
    (mod p).  The first move that breaks the rule raises IllegalMove,
    with its index in moves as the step when counted.
    """
    all_edges = G.edges
    m = len(all_edges)
    for step, (v, i) in enumerate(moves):
        if not 0 <= i < m:
            fault = f"edge {i} outside [0, {m})"
        elif v not in (edge := all_edges[i]):
            fault = f"vertex {v} not in edge {i} {edge}"
        elif not w[v]:
            fault = f"vertex {v} has zero units"
        else:
            for u in edge:
                w[u] = (w[u] + 1) % p
            w[v] = (w[v] - 2) % p
            continue
        raise IllegalMove(fault, step=step if counted else None)


def apply_move(G: Hypergraph, p: int, w: State, move: Move) -> State:
    """One step of the dynamics; raises IllegalMove when not applicable."""
    out = list(w)
    _play(G, p, out, ((move.vertex, move.edge),), False)
    return tuple(out)


def replay_schedule(G: Hypergraph, p: int, w1: State, schedule: Schedule) -> State:
    """Apply the schedule's moves in turn; failures carry the step index."""
    w = list(w1)
    _play(G, p, w, zip(schedule.vertices, schedule.edges), True)
    return tuple(w)


def parse_schedule(text: str) -> Schedule:
    """One move per line: ``v <vertex> e <edge-index>``.

    The lines are split a piece of text at a time (_whole_lines), so no
    list of every line is held beside the columns.
    """
    vertices, edges = [], []
    lineno = 0
    for piece in _whole_lines(text):
        for raw in piece.splitlines():
            lineno += 1
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 4 or fields[0] != "v" or fields[2] != "e":
                raise ParseError(f"expected 'v <vertex> e <edge>', got {line!r}", lineno)
            try:
                vertices.append(int(fields[1]))
                edges.append(int(fields[3]))
            except ValueError:
                raise ParseError(f"non-integer move field in {line!r}", lineno) from None
    return Schedule.from_columns(vertices, edges)


def _whole_lines(text: str):
    """text in pieces of about _PIECE characters, each cut just after a
    newline, so the pieces' lines are text's lines (str.splitlines)."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _PIECE) + 1 or len(text)
        yield text[start:end]
        start = end


def format_schedule(schedule: Schedule) -> str:
    """parse_schedule's lines, joined _PIECE moves at a time, so no list
    of every line is held beside the text."""
    vertices, edges = schedule.vertices, schedule.edges
    pieces = []
    for k in range(0, len(vertices), _PIECE):
        moves = zip(vertices[k:k + _PIECE], edges[k:k + _PIECE])
        pieces.append("".join([f"v {v} e {i}\n" for v, i in moves]))
    return "".join(pieces)


def all_moves(G: Hypergraph) -> tuple[Move, ...]:
    """Every (vertex, edge) incidence, ordered by (edge, vertex)."""
    return tuple(Move(v, i) for i, e in enumerate(G.edges) for v in e)


class _CodeTable(dict):
    """The search engine of (G, p): a dict from state code to row, the
    code each move in all_moves order leads to, or the state's own code
    when the move is not legal there.

    State keys are base-p codes, vertex 0 the most significant digit,
    so code i is the i-th state of itertools.product(range(p), repeat=n);
    Python ints carry codes past 2^63.  The mirror p-1-w of a state, whose
    moves are w's un-moves, has code p^n - 1 - key(w): digit by digit, with
    no carries.

    A move changes each digit on its own, without carries, so the code
    it leads to is the sum of one part per chunk of digits (_chunk_width):
    the chunk's new digits, in place.  A chunk's parts are filled the
    first time its chunk code is read, and only for the moves whose edge
    meets the chunk; the other moves leave it as it is.  A move whose
    mover holds 0 is illegal; its chunk's part is -p^n there, which
    leaves the sum negative: the row holds the code itself.  A missing
    row is summed on the read and, with at most TABLE_STATES states
    (stored), kept: every later read is one lookup, and kept rows share
    one int object per code, so a search matches its keys by identity.
    One class serves every engine, since a class object is a reference
    cycle only full collections free.
    """

    __slots__ = ("p", "n", "moves", "stored", "_readers", "_codes")

    def __init__(self, G: Hypergraph, p: int):
        n = G.n
        self.p, self.n = p, n
        self.moves = all_moves(G)
        # p >= 2, so the first test keeps p ** n from growing with huge n
        self.stored = n < TABLE_STATES.bit_length() and p ** n <= TABLE_STATES
        self._codes = {}
        size, width = p ** n, _chunk_width(p, n)
        self._readers = []  # per chunk, the least significant first: its codes, parts met, filler
        for first in reversed(range(0, n, width)):
            digits = min(width, n - first)
            self._readers.append((p ** digits, {}, _part_filler(
                p, G.edges, self.moves, first, digits, p ** (n - first - digits), size)))

    def __missing__(self, code: int) -> tuple:
        sums, rest = None, code
        for radix, parts, fill in self._readers:
            rest, c = divmod(rest, radix)
            part = parts.get(c)
            if part is None:
                part = parts[c] = fill(c)
            sums = part if sums is None else map(add, sums, part)
        row = tuple([c if c >= 0 else code for c in sums])
        if self.stored:
            row = self[code] = tuple(map(self._codes.setdefault, row, row))
        return row

    def key(self, w: State) -> int | None:
        """The code of w, or None for a non-state, which no row or search holds."""
        p, code = self.p, 0
        for x in w:
            if not 0 <= x < p:
                return None
            code = code * p + x
        return code if len(w) == self.n else None

    def state(self, code: int) -> State:
        return _digits(self.p, self.n, code)


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


def _part_filler(p: int, edges, moves, first: int, digits: int, scale: int, size: int):
    """Chunk code -> per move, the chunk's new digits in place, or -size
    when the mover is in the chunk and holds 0."""
    top = p - 1  # the digit an edge vertex other than the mover wraps from, to 0
    # per digit of the chunk, the first vertex first, its place value
    weights = list(accumulate(repeat(p, digits - 1), mul, initial=scale))[::-1]
    wrap = [-top * w for w in weights]
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
                delta += wrap[i] if now[i] == top else weights[i]
            if mover is not None:
                if now[mover] == 0:
                    part[j] = -size
                    continue
                delta -= weights[mover]
            part[j] = base + delta
        return part

    return fill


def state_space(G: Hypergraph, p: int) -> _CodeTable:
    """The search engine of (G, p), cached on G only when it stores its rows."""
    space = G.state_spaces.get(p)
    if space is None:
        space = _CodeTable(G, p)
        if space.stored:
            G.state_spaces[p] = space
    return space


class OrbitResult:
    """BFS closure of a start state under legal moves.

    The search keeps the engine's state keys (see state_space), in visit
    order, and per key its link: the key of the state that first
    discovered it (None for the start).  len and `in` read them
    directly; a non-state, whose key is None, is in no result.  The
    move behind a link is not stored: extract_schedule reads it back as
    the first entry of the parent's row that equals the key, since the
    key was unseen when its parent's row was expanded and is not the
    parent's own, an illegal move's entry.  order, the deterministic
    visit order from the start, is decoded to states only when read.
    """

    def __init__(self, space, links: dict):
        self._space, self._links = space, links

    @cached_property
    def order(self) -> tuple[State, ...]:
        return tuple(map(self._space.state, self._links))

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

    Breadth first, each state's moves in all_moves order, over the rows
    of state_space(G, p): an illegal move's entry is the state being
    expanded, seen already, so no non-state is ever linked.  Refuses with
    StateSpaceTooLarge rather than returning a truncated set.  With
    stop_at, a state checked like start, returns as soon as it is
    discovered (the partial result still has valid predecessor links for it).
    """
    space = state_space(G, p)
    origin = space.key(validate_state(p, G.n, start))
    goal = None if stop_at is None else space.key(validate_state(p, G.n, stop_at))
    links: dict = {origin: None}
    order = [origin]
    if goal == origin:
        return OrbitResult(space, links)
    for key in order:  # the visit list is the queue: it grows while it is read
        for nxt in space[key]:
            if nxt in links:
                continue
            if len(links) >= max_states:
                raise StateSpaceTooLarge(
                    f"orbit exceeds {max_states} states; refusing to truncate"
                )
            links[nxt] = key
            order.append(nxt)
            if nxt == goal:
                return OrbitResult(space, links)
    return OrbitResult(space, links)


def extract_schedule(orbit: OrbitResult, target: State) -> Schedule:
    """Witness schedule start -> target from BFS predecessor links."""
    if target not in orbit:
        raise ValueError(f"state {target} not in the explored orbit")
    links, space = orbit._links, orbit._space
    vertices, edges = [], []
    key = space.key(target)
    while (parent := links[key]) is not None:
        move = space.moves[space[parent].index(key)]
        vertices.append(move.vertex)
        edges.append(move.edge)
        key = parent
    vertices.reverse()
    edges.reverse()
    return Schedule.from_columns(vertices, edges)


def has_predecessor(G: Hypergraph, p: int, w: State) -> bool:
    """Is w the image of any legal move?  (False = garden-of-Eden state.)

    Undoing the move (v, e) on w is the same move on the mirror p-1-w,
    mirrored back: every vertex of e had one unit less and v two more.
    It is legal exactly when v is nonzero in the mirror, so w has a
    predecessor iff some vertex on an edge holds a value other than p-1,
    just as the zero state, the mirror of all p-1, has no move.
    """
    return any(w[v] != p - 1 for e in G.edges for v in e)


def oracle_recurrent(G: Hypergraph, p: int, w1: State, w2: State) -> bool:
    """Ground truth for: w2 is reachable from every state reachable from w1,
    searched under DEFAULT_MAX_STATES."""
    return oracle_escape(G, p, w1, w2)[1] is None


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
    forward sweep from the mirror p-1-w2 over the mirrors of the orbit's
    states: a move on the mirror of s is an un-move on s (see
    has_predecessor).  The orbit is closed under moves, so the sweep
    crosses off exactly the mirrors of the orbit states that can reach
    w2; the first one left, in visit order, mirrors the escape state.
    """
    w2 = validate_state(p, G.n, w2)
    orbit = orbit_bfs(G, p, w1, max_states=max_states)
    if w2 not in orbit:
        return orbit, w1
    space = orbit._space
    top = space.p ** space.n - 1  # the mirror of code c is top - c
    target = top - space.key(w2)
    # the mirrors of the orbit states not yet known to reach w2, in visit order
    unreached = dict.fromkeys(map(top.__sub__, orbit._links))
    del unreached[target]
    todo = [target]
    while todo:
        for s in space[todo.pop()]:
            if s in unreached:
                del unreached[s]
                todo.append(s)
    escape = next(iter(unreached), None)
    return orbit, None if escape is None else space.state(top - escape)
