"""Constructive schedule synthesis.

decide_reachability answers yes/no; this module produces the actual move
schedule for the yes answers, without searching the state space.  The
toolbox, bottom up:

  * the double-move trick (_Builder.trick) -- alternating moves at two
    anchor vertices of one edge; each round restores the anchors and
    adds +2 to every other vertex of the edge, so (p+1)/2 or (p-1)/2
    rounds add exactly +1 or -1.  Works whenever the anchors do not both
    hold 0 (no legal first move) and do not both hold p-1 (no legal
    second move in either order).
  * the single-edge phase (_on_edge) -- moves only on one edge until it
    holds a goal given per edge position, and returns at once when it
    already does (single_edge_schedule asks synthesize_schedule on that
    edge alone).  _single_edge_counts gives, in closed form, how often
    each vertex of the edge must move (the minimum-norm solution of the
    edge's move-counting system, one candidate unless p divides |e| - 2);
    the phase executes those moves directly while legal and otherwise
    emulates one forced move at a charge-less vertex.  A bracket of two
    tricks lends it the unit and takes it back (2p + 1 moves); only when
    every other vertex holds p-1, or every other one p-2, does one of
    two terminal shapes remain.  The dispatch is exhaustive, which the
    test suite checks by exhausting small instances.
  * _walk -- carries one unit of charge from the nearest charged vertex
    onto a given set of vertices, one move per edge along a
    breadth-first path.
  * synthesize_schedule -- on a well-shaped hypergraph, follows the
    paper's induction over the edges in one loop, the peel.  One
    breadth-first search over edges, rooted at a lever (an edge with
    |e| != 2 mod p) when there is one, orders the edges that reach a new
    vertex; an edge that reaches none is never moved on.  Peeling from
    the last edge inward, each level splits its instance into a
    single-edge pre-phase, the rest of the instance, and a single-edge
    post-phase, with values on the peeled edge chosen in closed form so
    that all three are reachable.  Only a zero source or a saturated
    target on the peeled edge stands in the way; a walk brings one unit
    over, on the state or, mirrored, on the target.  Decision's gate
    (_gate_algebraic) refuses a hypergraph off the well-shaped family,
    and its reachability rule (_algebraic_reach) the unreachable pairs,
    once on G; nothing eliminates or searches.

Every construction writes into one _Builder, which holds one mutable
state in G's own ids, steps each move on it once, as it is added, and
checks each construction's net effect on it.  A move is a pair of ints,
(vertex, edge), from the constructions through the walks to the
builder, which records it into the schedule's two int columns; the
finished columns become the Schedule as they are, with no Move object
per move.  Every move is taken from an edge's own vertices, so the
builder checks only the mover's charge.
A single-edge phase reads and moves the edge's vertices in place; no
piece of G is built as a hypergraph of its own.  synthesize_schedule
replays the finished schedule once through dynamics as the full
end-to-end check, inside the same fault boundary: a schedule that fails
it is an InternalSynthesisFailure.

The peel plan depends on G and p alone, so it is made once per modulus
and kept on G (_peel_plan, in G.peel_plans): the edge order with each
level's vertices, shared vertices and lever flag, and the constants the
plan search reads off its private mask (|P|, the first shared and first
private positions, the shared positions, the mask as 0/1 ints).  A repeated
query on the same hypergraph and modulus runs no edge search and
re-derives nothing from a mask.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import ne

from .decision import _algebraic_reach, _gate_algebraic, _lever
from .dynamics import (
    DEFAULT_MAX_STATES,
    Schedule,
    State,
    replay_schedule,
    validate_state,
)
from .errors import (
    IllegalMove,
    InternalSynthesisFailure,
    UnreachableTarget,
    Unsolvable,
    ZpwalkError,
)
from .hypergraph import Hypergraph
from .zp_algebra import validate_modulus


@dataclass
class _Builder:
    """The one way synthesis adds a move: simulate it, then record it.

    state is one list over G's vertices, copied from the state given and
    never rebound, so a construction may hold on to it; emit steps it in
    place before recording each move.  The moves are recorded as the
    schedule's two int columns, the movers in vertices and the edge
    indices in edges, and handed to the Schedule as they are: no Move is
    built per move.
    """

    G: Hypergraph
    p: int
    state: list[int]
    vertices: list[int] = field(default_factory=list)
    edges: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.state = list(self.state)

    def emit(self, v: int, edge: int) -> None:
        """Step the state in place, then record the move of v on edge.

        Only the mover's charge is checked, so a move at an uncharged
        vertex fails at the step that made it.  Every construction takes
        its moves from an edge's own vertices, so the edge index and the
        vertex's membership go unchecked here; synthesize_schedule's
        final replay checks every move in full.
        """
        w, p = self.state, self.p
        if not w[v]:
            raise IllegalMove(f"vertex {v} has zero units")
        for u in self.G.edges[edge]:
            w[u] = (w[u] + 1) % p
        w[v] = (w[v] - 2) % p
        self.vertices.append(v)
        self.edges.append(edge)

    def emit_all(self, moves) -> None:
        """emit each (vertex, edge) pair in turn."""
        for v, edge in moves:
            self.emit(v, edge)

    def trick(self, edge: int, a: int, b: int, direction: int) -> None:
        """Alternating rounds at anchors a, b: +direction (+1 or -1) at every
        other vertex of the edge, anchors restored.  Checked against that
        net effect.  The peel never picks anchors that both hold 0 or both
        hold p-1; such a pair fails at its first illegal move, inside
        synthesize_schedule's fault boundary."""
        p, w, e = self.p, self.state, self.G.edges[edge]
        before = tuple(map(w.__getitem__, e))
        rounds = (p + 1) // 2 if direction == 1 else (p - 1) // 2
        # Within a round the first mover needs charge and hands one unit to
        # the second; this order works unless both hold 0 or both p-1.
        first, second = (a, b) if w[a] != 0 and w[b] != p - 1 else (b, a)
        for _ in range(rounds):
            self.emit(first, edge)
            self.emit(second, edge)
        if tuple(map(w.__getitem__, e)) != tuple(
                x if u == a or u == b else (x + direction) % p for u, x in zip(e, before)):
            raise InternalSynthesisFailure("alternating rounds missed their advertised net effect")

    def bracket(self, edge: int, v: int, a: int, c: int, x: int) -> None:
        """x moves at an empty vertex v, on a unit lent by anchors a, c.

        trick(-1) gives v the value p-1 and trick(+1) takes the loan back:
        2p + x moves.  Needs x < p; the anchors may not both hold 0, p-1,
        p-x or p-1-x.
        """
        self.trick(edge, a, c, -1)
        for _ in range(x):
            self.emit(v, edge)
        self.trick(edge, a, c, +1)


def single_edge_schedule(G: Hypergraph, p: int, w1: State, w2: State) -> Schedule:
    """Witness schedule w1 -> w2 on a hypergraph with exactly one edge.

    The edge needs at least 3 vertices (the tricks need a third vertex
    to park charge on).  The edge alone, e[i] renumbered i, goes through
    synthesize_schedule: its refusals, its replay check, and for a
    construction fault InternalSynthesisFailure, naming edge positions.
    """
    validate_modulus(p)
    if G.m != 1:
        raise ValueError(f"expected exactly one edge, got {G.m}")
    e = G.edges[0]
    if len(e) < 3:
        raise ValueError("need an edge with at least 3 vertices")
    w1 = validate_state(p, G.n, w1)
    w2 = validate_state(p, G.n, w2)
    eset = set(e)
    mismatched = [v for v in range(G.n) if v not in eset and w1[v] != w2[v]]
    if mismatched:
        raise Unsolvable(
            f"states differ at vertex {mismatched[0]}, which the edge cannot touch"
        )
    alone = Hypergraph(len(e), (tuple(range(len(e))),))
    schedule = synthesize_schedule(alone, p, [w1[v] for v in e], [w2[v] for v in e])
    return Schedule.from_columns([e[i] for i in schedule.vertices], [0] * len(schedule))


def _single_edge_counts(p: int, w1: State, w2: State) -> list[int]:
    """Minimum-norm move counts on one edge over all k vertices.

    Row v reads 2*x_v - S = d_v (S = sum x, d = w1 - w2), so (2 - k)*S =
    sum d fixes S unless p divides k - 2; then every S solves or none
    does.  Ties break as in system_norm: lifted sum, then the tuple.
    p is an odd prime its caller has validated.
    """
    k, d = len(w1), [(a - b) % p for a, b in zip(w1, w2)]
    half = (p + 1) // 2
    if (k - 2) % p:
        s = sum(d) * pow(2 - k, -1, p) % p
        return [(dv + s) * half % p for dv in d]
    if sum(d) % p:
        raise Unsolvable("the move-counting system has no solution")
    candidates = [tuple((dv + s) * half % p for dv in d) for s in range(p)]
    return list(min(candidates, key=lambda c: (sum(c), c)))


def _on_edge(b: _Builder, edge: int, goal: State) -> None:
    """Move only on one edge of b.G until it holds goal.

    goal holds one value per edge position, as do counts and the
    positions picked: position i is vertex e[i] of G.  Returns at once
    when the edge already holds goal.  The edge has 3 or more vertices;
    the caller (the peel, or the descent's mirrored scratch) has proven
    the phase valid.  A counted move is made directly when legal and
    otherwise emulated with exactly its net effect, so only an
    emulation's cost depends on how it is done.
    """
    p, e, w = b.p, b.G.edges[edge], b.state
    k, top = len(e), p - 1
    start = tuple(map(w.__getitem__, e))
    if start == goal:
        return
    counts = _single_edge_counts(p, start, goal)
    while True:
        # One pass over the positions: the count left, the first two
        # counted positions that hold charge, and those below p - 1.
        total = lows = 0
        first = second = low = None
        for i, v in enumerate(e):
            c, x = counts[i], w[v]
            total += c
            if x != top:
                lows += 1
                low = i
            if c and x:
                if first is None:
                    first = i
                elif second is None:
                    second = i
        if not total:
            break
        if first is not None:
            # A move at v lands on the inert all-zero state only from
            # [1 @ v, p-1 elsewhere], which is allowed for the final
            # counted move alone (then it IS the target).
            blocked = low if lows == 1 and w[e[low]] == 1 else None
            chosen = first if first != blocked or total == 1 else second
            if chosen is not None:
                b.emit(e[chosen], edge)
                counts[chosen] -= 1
                continue
            # Only the blocked vertex is live, so it holds all remaining
            # count (at least 2): spend trick rounds instead of moving it.
            v = blocked
            x = counts[v]
            j = 0 if v != 0 else 1
            for _ in range(2 * x):
                b.trick(edge, e[v], e[j], +1)
            for _ in range(p - x):
                b.emit(e[j], edge)
            counts[v] = 0
            continue
        # Some count remains but every counted vertex is empty: emulate a
        # single move at the lowest such vertex.  Any two other vertices
        # whose values are not both 0, both p-2 or both p-1 can lend it a
        # unit with a bracket; without such a pair, every vertex but i0
        # holds one value, p-1 or p-2, since the zero state is inert.
        i0 = next(v for v in range(k) if counts[v] > 0)
        others = [v for v in range(k) if v != i0]
        a, value = others[0], w[e[others[0]]]
        c = next((j for j in others if w[e[j]] != value), others[1])
        if w[e[c]] != value or value not in (0, p - 2, p - 1):
            b.bracket(edge, e[i0], e[a], e[c], 1)
        elif value == p - 1:
            # [0 @ i0, p-1 elsewhere]: drain a full vertex, then give two
            # rounds back.
            for _ in range(p - 1):
                b.emit(e[a], edge)
            for _ in range(2):
                b.trick(edge, e[i0], e[a], +1)
        elif value == p - 2:
            # Exactly [0 @ i0, p-2 elsewhere]; finish in one batch.
            x = counts[i0]
            if total != x or x < 2:
                raise InternalSynthesisFailure("descent misread a blocked state")
            if x >= 3:
                b.bracket(edge, e[i0], e[a], e[others[1]], x)
            elif p == 3:
                b.trick(edge, e[i0], e[a], -1)
                b.emit(e[a], edge)
                b.trick(edge, e[i0], e[a], -1)
            else:
                # x == 2, p >= 5: a move is as legal on the mirrored
                # successor as on the state, so the value-mirrored problem,
                # which a scratch builder descends directly, runs reversed.
                scratch = _Builder(b.G, p, w)
                for i, v in enumerate(e):
                    scratch.state[v] = (p - 1 - w[v] + (x if i == i0 else -x)) % p
                _on_edge(scratch, edge, tuple(p - 1 - w[v] for v in e))
                b.emit_all(zip(reversed(scratch.vertices), reversed(scratch.edges)))
            counts[i0] = 0
            continue
        else:
            raise InternalSynthesisFailure("descent reached the inert zero state")
        counts[i0] -= 1
    if tuple(map(w.__getitem__, e)) != goal:
        raise InternalSynthesisFailure("single-edge descent finished off target")


#: decision's negative certificate kinds, as the error synthesis raises for each
_REFUSALS = {
    "absorbing_source": (UnreachableTarget, "the all-zero state admits no moves"),
    "garden_of_eden": (UnreachableTarget, "the target state has no predecessor"),
    "unsolvability": (Unsolvable, "the move-counting system has no solution"),
}

#: what synthesize_schedule raises when a pair gets no schedule: a refusal or a fault
SYNTHESIS_FAILURES = (InternalSynthesisFailure, Unsolvable, UnreachableTarget)


def synthesize_schedule(
    G: Hypergraph,
    p: int,
    w1: State,
    w2: State,
    max_states: int = DEFAULT_MAX_STATES,
    cap: int | None = None,
) -> Schedule:
    """Synthesize a replayable schedule from w1 to w2 on a well-shaped hypergraph.

    Raises UnreachableTarget / Unsolvable when no schedule exists and,
    through decision's gate, NotGood off the well-shaped family; every
    other pair gets a schedule, replay-verified before it is returned.
    max_states and cap are accepted and unused: synthesis runs no search
    and no enumeration for them to bound.
    """
    _gate_algebraic(G, p)
    w1 = validate_state(p, G.n, w1)
    w2 = validate_state(p, G.n, w2)
    b = _Builder(G, p, w1)
    if w1 != w2:
        # decision's one reachability rule; every phase below is valid by construction
        verdict = _algebraic_reach(G, p, w1, w2)
        if not verdict.answer:
            error, message = _REFUSALS[verdict.certificate.kind]
            raise error(message)
        try:
            _peel(b, w2)
        except InternalSynthesisFailure:
            raise
        except ZpwalkError as err:  # an illegal move or a bad anchor pair included
            raise InternalSynthesisFailure(f"a phase checked valid was refused: {err}") from None
    schedule = Schedule.from_columns(b.vertices, b.edges)
    try:  # the end-to-end check, inside the same fault boundary
        end = replay_schedule(G, p, w1, schedule)
    except ZpwalkError as err:
        raise InternalSynthesisFailure(f"synthesized schedule fails replay: {err}") from None
    if end != w2:
        raise InternalSynthesisFailure("synthesized schedule fails replay")
    return schedule


def _peel_order(G: Hypergraph, p: int) -> list[tuple[int, tuple[bool, ...]]]:
    """The kept edges in breadth-first order, each with its private mask.

    The search over edges starts at the lever (_lever: the first edge
    with |e| != 2 mod p that G's search met) or, when G has none, at the
    first edge that search met.  An edge is kept when it reaches a vertex
    no earlier edge reached; those vertices are its private part, and
    mask[j] says whether its j-th vertex is one of them.  The root comes
    first with every vertex private.
    """
    st = G.structure
    root = _lever(G, p, st.scan[0])
    if root is None:
        root = st.scan[0][0]
    reached = [False] * G.n
    queued = [False] * G.m
    queued[root] = True
    queue, kept = [root], []
    for i in queue:  # the queue grows while it is read
        private = tuple(not reached[v] for v in G.edges[i])
        if not any(private):
            continue
        kept.append((i, private))
        for v, new in zip(G.edges[i], private):
            if new:
                reached[v] = True
                for j in st.incidence[v]:
                    if not queued[j]:
                        queued[j] = True
                        queue.append(j)
    return kept


def _peel_plan(G: Hypergraph, p: int) -> tuple[tuple[int, ...], tuple]:
    """G's peel plan at p, made once and kept in G.peel_plans: (rank, levels).

    levels[r] is (l, e, shared, lever, q, s0, p0, spos, base) for the
    r-th kept edge l in _peel_order's order, everything about it that
    depends on G and p alone: its vertices e = G.edges[l], its shared
    (not private) vertices, whether |e| != 2 mod p, q = |P| (the number
    of private vertices), the first shared and the first private
    position of e (s0 is None at the root, which shares nothing), the
    tuple of shared positions, and its private mask as 0/1 ints, the
    base of _plans' alpha.  rank[i] is edge i's level, or G.m for a
    dropped edge, which ranks after every kept one.
    """
    plan = G.peel_plans.get(p)
    if plan is None:
        kept = _peel_order(G, p)
        rank = [G.m] * G.m
        levels = []
        for r, (l, private) in enumerate(kept):
            rank[l] = r
            e = G.edges[l]
            spos = tuple(i for i, new in enumerate(private) if not new)
            levels.append((l, e, tuple(e[i] for i in spos), (len(e) - 2) % p != 0,
                           sum(private), spos[0] if spos else None, private.index(True),
                           spos, tuple(map(int, private))))
        plan = G.peel_plans[p] = (tuple(rank), tuple(levels))
    return plan


def _peel(b: _Builder, w2: State) -> None:
    """Schedule b.state -> w2 on a well-shaped b.G, one level per kept edge.

    The caller has checked the pair: distinct, charged source, target
    with a predecessor, balance-solvable.  Level r peels the kept edge l
    off H_r, the union of the first r + 1 kept edges: its private part P
    leaves, its shared part S stays in R = H_{r-1}.  A plan (alpha, mid)
    splits the level into three instances that _plan_ok has checked:
    a pre-phase on l to alpha, the level below on R to the target with
    mid on S, and a post-phase on l from mid (alpha on P) back to the
    target.  The first pass emits the walks and pre-phases outermost
    first, then the root edge descends; the second pass emits the
    post-phases and undoes the target-side walks, innermost first.
    """
    G, p, w = b.G, b.p, b.state
    rank, levels = _peel_plan(G, p)
    target = list(w2)
    top = p - 1
    tally = _tally(top, w, target)

    def tally_at(vertices) -> list[int]:
        return _tally(top, tuple(map(w.__getitem__, vertices)),
                      tuple(map(target.__getitem__, vertices)))

    def recount(vertices, sign: int) -> None:
        nonlocal tally
        tally = [h + sign * x for h, x in zip(tally, tally_at(vertices))]

    posts = []
    for r in range(len(levels) - 1, 0, -1):
        level = levels[r]
        l, e, shared = level[:3]
        undo: list[tuple[int, int]] = []
        for walked in (False, True):
            a_l = tuple(map(w.__getitem__, e))
            t_l = tuple(map(target.__getitem__, e))
            rest = [h - x for h, x in zip(tally, _tally(top, a_l, t_l))]
            plan = _first_plan(p, level, a_l, t_l, rest)
            if plan is not None:
                break
            if walked:
                raise InternalSynthesisFailure(f"no valid plan peels edge {l}")
            # Only a zero source or a saturated target on l blocks every
            # plan; walk one unit onto S from the nearest charged vertex
            # of R, on the state or on the mirrored target.
            if not any(a_l):
                moves = _walk(G, rank, r, shared, lambda v: w[v] != 0)
                touched = {u for _, f in moves for u in G.edges[f]}
                recount(touched, -1)
                b.emit_all(moves)
                recount(touched, 1)
            if t_l.count(top) == len(t_l):
                # A move on p - 1 - w is an un-move on w: the walk on the
                # mirrored target, un-moved here, is emitted reversed once
                # the level has reached the new target.
                undo = _walk(G, rank, r, shared, lambda v: target[v] != p - 1)
                touched = {u for _, f in undo for u in G.edges[f]}
                recount(touched, -1)
                for v, f in undo:
                    for u in G.edges[f]:
                        target[u] = (target[u] - 1) % p
                    target[v] = (target[v] + 2) % p
                recount(touched, 1)
        alpha, mid = plan
        _on_edge(b, l, alpha)
        posts.append((l, t_l, undo))
        for v, x in zip(e, mid):
            target[v] = x
        tally = [h + x for h, x in zip(rest, tally_at(shared))]
    root, e = levels[0][:2]
    _on_edge(b, root, tuple(map(target.__getitem__, e)))
    for l, goal, undo in reversed(posts):
        _on_edge(b, l, goal)
        b.emit_all(reversed(undo))
    if w != list(w2):
        raise InternalSynthesisFailure("peeling finished off target")


def _tally(top: int, values: Sequence[int], target: Sequence[int]) -> list[int]:
    """[charged, unsaturated target, mismatched] counts over values gathered
    from the state and target gathered from the same vertices; top is p - 1."""
    return [len(values) - values.count(0), len(target) - target.count(top),
            sum(map(ne, values, target))]


def _first_plan(p: int, level: tuple, a_l: State, t_l: State, rest: list[int]):
    """The cheapest of _plans' candidates that _plan_ok accepts, or None."""
    for alpha, mid in _plans(p, level, a_l, t_l):
        if _plan_ok(p, level, a_l, t_l, rest, alpha, mid):
            return alpha, mid
    return None


def _plans(p: int, level: tuple, a_l: State, t_l: State):
    """Candidate plans (alpha, mid) for one level, cheapest first.

    First no pre-phase: the level below takes S to its target except at
    S's first vertex, which gets the value that spares the post-phase
    any move at P's first vertex (on a sum-invariant l, the value that
    balances it).  Then the rule that is valid whenever l holds charge
    and its target is not saturated: S holds (y0, 0, ...) after the
    pre-phase and (x0, 0, ...) after the level below, and P holds
    (sigma - |P| + 1, 1, ..., 1), where sigma is what l's sum leaves for
    P (|P| when l has a lever).  x0 is 1 on a lever, else y0 plus the
    sum l must gain.  y0 = 2 serves where y0 = 1 saturates R's target or
    empties the post-phase's source.  level is the edge's _peel_plan level.
    """
    lever, q, s0, p0, spos, base = level[3:]
    k, sum_a, sum_t = len(a_l), sum(a_l), sum(t_l)
    mid = list(a_l)
    for i in spos:
        mid[i] = t_l[i]
    # post-phase counts are (d + sum(d) / (2 - k)) / 2 for d = mid - t_l
    mid[s0] = ((k - 2) * (a_l[p0] - t_l[p0]) + sum_t - sum(mid) + mid[s0]) % p
    yield a_l, tuple(mid)
    for y0 in (1, 2):
        if lever:
            x0, sigma = 1, q
        else:
            x0, sigma = (y0 + sum_t - sum_a) % p, sum_a - y0
        alpha = list(base)
        alpha[s0], alpha[p0] = y0, (sigma - q + 1) % p
        mid = list(alpha)
        mid[s0] = x0
        yield tuple(alpha), tuple(mid)


def _plan_ok(p: int, level: tuple, a_l: State, t_l: State,
             rest: list[int], alpha: State, mid: State) -> bool:
    """Are a plan's three instances each empty or reachable?

    rest tallies R minus S.  A sum-invariant R comes only with a
    sum-invariant l, and then l's two balanced phases balance R too.
    """
    charged, unsaturated, mismatched = rest
    lever, spos = level[3], level[7]
    src = tuple(map(alpha.__getitem__, spos))
    dst = tuple(map(mid.__getitem__, spos))
    inner = ((not mismatched and src == dst)
             or ((charged or any(src)) and (unsaturated or dst.count(p - 1) != len(dst))))
    return inner and _phase_ok(p, lever, a_l, alpha) and _phase_ok(p, lever, mid, t_l)


def _phase_ok(p: int, lever: bool, src: State, dst: State) -> bool:
    """Is the single-edge instance src -> dst empty or reachable?"""
    return src == dst or (any(src) and dst.count(p - 1) != len(dst)
                          and (lever or (sum(src) - sum(dst)) % p == 0))


def _walk(G: Hypergraph, rank: Sequence[int], r: int, shared: Sequence[int],
          charged) -> list[tuple[int, int]]:
    """(vertex, edge) moves carrying one unit from the charged vertex
    nearest to shared onto it.

    A breadth-first search from shared over the edges ranked below r;
    every vertex nearer than the one it finds is uncharged, so each move
    is at the vertex the previous move charged, and the last one lands
    on one vertex of shared.
    """
    incidence = G.structure.incidence
    parent: dict[int, tuple[int, int] | None] = dict.fromkeys(shared)
    scanned = set()
    queue = list(shared)
    for u in queue:  # the queue grows while it is read
        if charged(u):
            moves = []
            while parent[u] is not None:
                nearer, f = parent[u]
                moves.append((u, f))
                u = nearer
            return moves
        for f in incidence[u]:
            if f in scanned or rank[f] >= r:
                continue
            scanned.add(f)
            for v in G.edges[f]:
                if v not in parent:
                    parent[v] = (u, f)
                    queue.append(v)
    raise InternalSynthesisFailure("no charged vertex to walk from")
