"""Constructive schedule synthesis.

decide_reachability answers yes/no; this module produces the actual move
schedule for the yes answers, without searching the exponential state
space except as a last-resort fallback.  The toolbox, bottom up:

  * double_move_trick -- alternating moves at two anchor vertices of one
    edge; each round restores the anchors and adds +2 to every other
    vertex of the edge, so (p+1)/2 or (p-1)/2 rounds add exactly +1 or
    -1.  Works whenever the anchor values are a "good pair" (not both 0,
    not both p-1).
  * single_edge_schedule -- full synthesis on one edge.  A minimum-norm
    solution of the move-counting system prescribes how often each
    vertex must move; the descent executes those moves directly while
    legal and otherwise spends trick rounds to emulate one forced move
    at a charge-less vertex.  Four emulation gadgets plus two terminal
    batches cover every blocked shape; the dispatch is exhaustive, which
    the test suite checks by exhausting small instances.
  * propagate_path -- carries one unit of charge along a chain of
    edges; the backward variant then re-solves each edge of the chain so
    that everything except the endpoints is restored.
  * synthesize_schedule -- on multi-edge hypergraphs, picks a bridging
    edge l whose removal splits the instance into components the solver
    can recurse on, borrows charge across that edge for components that
    start empty, and rebalances the edge with trick rounds.  Decision's
    closed-form rule (necessity_filter) checks solvability once on G and
    guards each split on G minus l; that search's components, edges and
    incidences make the pieces, which inherit the guard's verdict.  Only
    the bridge descent eliminates, for its minimum-norm move counts.
    When no bridging edge qualifies, that descent on the counted moves
    runs as far as it can and a bounded breadth-first search bridges the
    remainder (SynthesisIncomplete if that search exceeds its cap).

Every construction writes into one _Builder, which simulates each move
once, as it is added, and checks each construction's net effect on the
state it tracks.  A piece of the instance -- a component of G minus the
bridging edge, or one edge's canonical restriction -- is solved on a
child builder that works in the piece's own ids but appends its moves,
mapped to G's ids, to the one shared move list; a failed split attempt
is dropped by truncating that list.  synthesize_schedule replays the
finished schedule once as the end-to-end check.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from .decision import ReachSystem, _necessity, build_system
from .dynamics import (
    DEFAULT_MAX_STATES,
    Move,
    Schedule,
    State,
    apply_move,
    extract_schedule,
    has_predecessor,
    orbit_bfs,
    replay_schedule,
    validate_state,
)
from .errors import (
    EnumerationTooLarge,
    HypothesisViolated,
    InternalSynthesisFailure,
    NonzeroRequired,
    NotGood,
    PairNotGood,
    StateSpaceTooLarge,
    SynthesisIncomplete,
    UnreachableTarget,
    Unsolvable,
)
from .hypergraph import (
    EdgePath,
    Hypergraph,
    is_good,
    shortest_edge_path,
)
from .zp_algebra import (
    DEFAULT_ENUMERATION_CAP,
    gaussian_solve,
    mod_inverse,
    system_norm,
    validate_modulus,
)

FORWARD = "forward"
BACKWARD = "backward"


def is_good_pair(p: int, a: int, b: int) -> bool:
    """Can two vertices holding values (a, b) sustain alternating rounds?

    The excluded corners: (0, 0) has no legal first move, and (p-1, p-1)
    has no legal second move in either order.
    """
    validate_modulus(p)
    for x in (a, b):
        if not 0 <= x < p:
            raise ValueError(f"value {x} is not a residue in [0, {p})")
    return (a, b) != (0, 0) and (a, b) != (p - 1, p - 1)


def double_move_trick(
    G: Hypergraph, p: int, w: State, edge: int, a: int, b: int, direction: int
) -> Schedule:
    """Alternating rounds at anchors a, b of an edge.

    Net effect: +direction (mod p) at every vertex of the edge except the
    anchors, which come back to their starting values.  direction is +1
    or -1; the anchor values must form a good pair (PairNotGood).
    """
    validate_modulus(p)
    w = validate_state(p, G.n, w)
    if not 0 <= edge < G.m:
        raise ValueError(f"edge {edge} outside [0, {G.m})")
    members = G.edges[edge]
    if a == b or a not in members or b not in members:
        raise ValueError(f"anchors ({a}, {b}) must be two distinct vertices of edge {edge}")
    if direction not in (1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction}")
    builder = _Builder(G, p, w)
    builder.trick(edge, a, b, direction)
    return Schedule(tuple(builder.moves))


@dataclass
class _Builder:
    """The one way synthesis adds a move: simulate it, then record it.

    emit applies the move to the tracked state before recording it, so
    an illegal move surfaces at the exact step that produced it.  A piece
    of G (a component of G minus the bridging edge, or one edge's
    canonical restriction) is solved on a child builder: it tracks the
    piece's state in the piece's own ids, and vmap / emap send each of
    its moves to the root's ids as it appends them to the root's single
    move list.  The parent then settles the child's final values onto
    the piece.  The root has no maps.  Children inherit the budgets of
    the bridge descent's search (max_states) and sweep (cap).
    """

    G: Hypergraph
    p: int
    state: State
    moves: list[Move] = field(default_factory=list)
    vmap: Sequence[int] | None = None
    emap: Sequence[int] | None = None
    max_states: int = DEFAULT_MAX_STATES
    cap: int = DEFAULT_ENUMERATION_CAP

    def emit(self, move: Move) -> None:
        self.state = apply_move(self.G, self.p, self.state, move)
        if self.vmap is not None:
            move = Move(self.vmap[move.vertex], self.emap[move.edge])
        self.moves.append(move)

    def emit_all(self, moves) -> None:
        for move in moves:
            self.emit(move)

    def child(self, piece: Hypergraph, vertices: Sequence[int], edges: Sequence[int]) -> _Builder:
        """A builder on piece, whose vertex i is vertices[i] and edge j is edges[j] here."""
        state = tuple(self.state[v] for v in vertices)
        if self.vmap is not None:
            vertices = [self.vmap[v] for v in vertices]
            edges = [self.emap[e] for e in edges]
        return replace(self, G=piece, state=state, vmap=vertices, emap=edges)

    def settle(self, vertices: Sequence[int], values: State) -> None:
        """Write a finished child's values back onto its piece."""
        state = list(self.state)
        for v, x in zip(vertices, values):
            state[v] = x
        self.state = tuple(state)

    def trick(self, edge: int, a: int, b: int, direction: int) -> None:
        """double_move_trick's rounds, checked against their net effect."""
        p, w = self.p, self.state
        if not is_good_pair(p, w[a], w[b]):
            raise PairNotGood(
                f"anchor values ({w[a]}, {w[b]}) at vertices ({a}, {b}) admit no alternating rounds"
            )
        rounds = (p + 1) // 2 if direction == 1 else (p - 1) // 2
        # Within a round the first mover needs charge and hands one unit to
        # the second; this order works for every good pair.
        first, second = (a, b) if w[a] != 0 and w[b] != p - 1 else (b, a)
        for move in (Move(first, edge), Move(second, edge)) * rounds:
            self.emit(move)
        if any(self.state[u] != (w[u] if u == a or u == b else (w[u] + direction) % p)
               for u in self.G.edges[edge]):
            raise InternalSynthesisFailure("alternating rounds missed their advertised net effect")


def single_edge_schedule(G: Hypergraph, p: int, w1: State, w2: State) -> Schedule:
    """Witness schedule w1 -> w2 on a hypergraph with exactly one edge.

    The edge needs at least 3 vertices (the tricks need a third vertex
    to park charge on).  Raises UnreachableTarget when the source is
    inert or the target has no predecessor, Unsolvable when the
    move-counting system rules the pair out.
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
    b = _Builder(G, p, w1)
    _on_edge(b, 0, w2)
    return Schedule(tuple(b.moves))


def _single_edge_counts(p: int, w1: State, w2: State) -> list[int]:
    """Minimum-norm move counts on one edge over all k vertices.

    Row v reads 2*x_v - S = d_v (S = sum x, d = w1 - w2), so (2 - k)*S =
    sum d fixes S unless p divides k - 2; then every S solves or none
    does.  Ties break as in system_norm: lifted sum, then the tuple.
    """
    k, d = len(w1), [(a - b) % p for a, b in zip(w1, w2)]
    if (k - 2) % p == 0 and sum(d) % p:
        raise Unsolvable("the move-counting system has no solution")
    totals = [sum(d) * mod_inverse(2 - k, p) % p] if (k - 2) % p else range(p)
    half = mod_inverse(2, p)
    candidates = [tuple((dv + s) * half % p for dv in d) for s in totals]
    return list(min(candidates, key=lambda c: (sum(c), c)))


def _descend_single_edge(b: _Builder, w2: State) -> None:
    """Core single-edge descent to w2; b.G is canonical (one edge over all vertices)."""
    G, p, k = b.G, b.p, b.G.n
    counts = _single_edge_counts(p, b.state, w2)
    while True:
        total = sum(counts)
        if total == 0:
            break
        live = [v for v in range(k) if counts[v] > 0 and b.state[v] != 0]
        if live:
            # A move at v lands on the inert all-zero state only from
            # [1 @ v, p-1 elsewhere], which is allowed for the final
            # counted move alone (then it IS the target).
            low = [u for u in range(k) if b.state[u] != p - 1]
            blocked = low[0] if len(low) == 1 and b.state[low[0]] == 1 else None
            chosen = next((v for v in live if v != blocked or total == 1), None)
            if chosen is not None:
                b.emit(Move(chosen, 0))
                counts[chosen] -= 1
                continue
            # Only the blocked vertex is live, so it holds all remaining
            # count (at least 2): spend trick rounds instead of moving it.
            v = blocked
            x = counts[v]
            j = 0 if v != 0 else 1
            for _ in range(2 * x):
                b.trick(0, v, j, +1)
            for _ in range(p - x):
                b.emit(Move(j, 0))
            counts[v] = 0
            continue
        # Some count remains but every counted vertex is empty: emulate a
        # single move at the lowest such vertex with trick rounds.
        i0 = next(v for v in range(k) if counts[v] > 0)
        others = [v for v in range(k) if v != i0]
        high = [j for j in others if b.state[j] == p - 1]
        if high:
            # Drain a full-valued vertex, then give two rounds back.
            j = high[0]
            for _ in range(p - 1):
                b.emit(Move(j, 0))
            for _ in range(2):
                b.trick(0, i0, j, +1)
        else:
            flexible = [j for j in others if b.state[j] not in (0, p - 2)]
            if flexible:
                j = flexible[0]
                u = next(v for v in range(k) if v != i0 and v != j)
                r = 0 if b.state[u] != 0 else 1
                for _ in range(r):
                    b.trick(0, i0, j, +1)
                for _ in range(p - 2):
                    b.trick(0, j, u, +1)
                b.emit(Move(u, 0))
                for _ in range(2 - r):
                    b.trick(0, i0, j, +1)
            else:
                # Everything except i0 sits at 0 or p-2.
                zeros = [z for z in others if b.state[z] == 0]
                mids = [j for j in others if b.state[j] == p - 2]
                if zeros and mids:
                    z, j = zeros[0], mids[0]
                    b.trick(0, z, j, -1)
                    b.emit(Move(i0, 0))
                    b.trick(0, z, j, +1)
                elif mids:
                    # Exactly [0 @ i0, p-2 elsewhere]; finish in one batch.
                    x = counts[i0]
                    if total != x or x < 2:
                        raise InternalSynthesisFailure("descent misread a blocked state")
                    j, j2 = others[0], others[1]
                    if x >= 3:
                        b.trick(0, j, j2, -1)
                        for _ in range(x):
                            b.emit(Move(i0, 0))
                        b.trick(0, j, j2, +1)
                    elif p == 3:
                        b.trick(0, i0, j, -1)
                        b.emit(Move(j, 0))
                        b.trick(0, i0, j, -1)
                    else:
                        # x == 2, p >= 5: solve the value-mirrored problem,
                        # whose descent terminates directly, and replay it
                        # backwards.  A move is exactly as legal on the
                        # mirrored successor as on the original state, so
                        # the reversed move list is legal here.
                        target = list(b.state)
                        target[i0] = (target[i0] - x) % p
                        for u in others:
                            target[u] = (target[u] + x) % p
                        mirrored = single_edge_schedule(
                            G,
                            p,
                            tuple((p - 1 - y) % p for y in target),
                            tuple((p - 1 - y) % p for y in b.state),
                        )
                        b.emit_all(reversed(mirrored.moves))
                    counts[i0] = 0
                    continue
                else:
                    raise InternalSynthesisFailure("descent reached the inert zero state")
        counts[i0] -= 1
    if b.state != w2:
        raise InternalSynthesisFailure("single-edge descent finished off target")


def _on_edge(b: _Builder, edge: int, target) -> None:
    """Move only on one edge of b.G until it holds target's values.

    target is anything indexable by b's vertex ids (a full state tuple or
    a dict covering the edge's vertices).  The edge's canonical
    restriction is solved on a child builder.
    """
    e = b.G.edges[edge]
    if len(e) < 3:
        raise ValueError("need an edge with at least 3 vertices")
    piece = b.child(Hypergraph(len(e), (tuple(range(len(e))),)), e, (edge,))
    goal = tuple(target[v] for v in e)
    if piece.state == goal:
        return
    _check_ends(piece.G, b.p, piece.state, goal)
    _descend_single_edge(piece, goal)
    b.settle(e, piece.state)


def undo_on_edge(G: Hypergraph, p: int, w1: State, w2: State, edge: int) -> Schedule:
    """Schedule from w2 back to w1 moving only on the given edge.

    The states must agree everywhere off the edge (ValueError).  Raises
    NonzeroRequired when w2 carries no charge on the edge, and the usual
    single-edge errors when the restriction is not reachable.
    """
    validate_modulus(p)
    if not 0 <= edge < G.m:
        raise ValueError(f"edge {edge} outside [0, {G.m})")
    w1 = validate_state(p, G.n, w1)
    w2 = validate_state(p, G.n, w2)
    members = set(G.edges[edge])
    mismatched = [v for v in range(G.n) if v not in members and w1[v] != w2[v]]
    if mismatched:
        raise ValueError(
            f"states differ at vertex {mismatched[0]}, which edge {edge} cannot touch"
        )
    if w1 != w2 and all(w2[v] == 0 for v in G.edges[edge]):
        raise NonzeroRequired("the edge carries no charge in the state to undo from")
    b = _Builder(G, p, w2)
    _on_edge(b, edge, w1)
    return Schedule(tuple(b.moves))


def _validate_path(G: Hypergraph, path: EdgePath) -> None:
    edges = path.edges
    if not edges:
        raise ValueError("empty edge path")
    for ei in edges:
        if not 0 <= ei < G.m:
            raise ValueError(f"edge {ei} outside [0, {G.m})")
    if len(set(edges)) != len(edges):
        raise ValueError("edge path repeats an edge")
    if len(path.connectors) != len(edges) - 1:
        raise ValueError(
            f"{len(edges)} edges need {len(edges) - 1} connectors, got {len(path.connectors)}"
        )
    sets = [set(G.edges[ei]) for ei in edges]
    if path.start_vertex not in sets[0]:
        raise ValueError(f"start vertex {path.start_vertex} is not on edge {edges[0]}")
    for i, c in enumerate(path.connectors):
        shared = sets[i] & sets[i + 1]
        if c not in shared:
            raise ValueError(f"connector {c} is not shared by edges {edges[i]} and {edges[i + 1]}")
        if shared != {c}:
            raise HypothesisViolated("consecutive path edges overlap beyond their connector")
    for i in range(len(edges)):
        for j in range(i + 2, len(edges)):
            if sets[i] & sets[j]:
                raise HypothesisViolated("non-consecutive path edges intersect")
    if len(edges) >= 2 and path.start_vertex in sets[1]:
        raise HypothesisViolated("the start vertex reappears as the first connector")


def propagate_path(
    G: Hypergraph,
    p: int,
    w: State,
    path: EdgePath,
    direction: str,
    end_vertex: int | None = None,
) -> Schedule:
    """Carry charge along a chain of edges.

    Precondition: the start vertex holds charge and every other vertex
    on the path's edges is zero (HypothesisViolated otherwise).

    Forward: one move per edge, entering each edge at the previous
    connector.  Net effect: -1 at the start vertex, +1 at every
    non-connector vertex of the path, connectors restored to zero.

    Backward (end_vertex required, on the last edge, different from the
    vertex that entered it): after the forward sweep, re-solves each
    edge from the last to the first so the net effect is just -1 at the
    start vertex and +1 at end_vertex, everything else restored.
    """
    validate_modulus(p)
    b = _Builder(G, p, validate_state(p, G.n, w))
    _propagate(b, path, direction, end_vertex)
    return Schedule(tuple(b.moves))


def _propagate(b: _Builder, path: EdgePath, direction: str, end_vertex: int | None) -> None:
    """propagate_path's core, from b's state."""
    G, p, w = b.G, b.p, b.state
    _validate_path(G, path)
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"direction must be {FORWARD!r} or {BACKWARD!r}, got {direction!r}")
    edges = path.edges
    k = len(edges)
    v1 = path.start_vertex
    union = {u for ei in edges for u in G.edges[ei]}
    if w[v1] == 0:
        raise HypothesisViolated("the start vertex carries no charge")
    dirty = sorted(u for u in union if u != v1 and w[u] != 0)
    if dirty:
        raise HypothesisViolated(f"path vertex {dirty[0]} must be zero before propagation")
    movers = [v1] + list(path.connectors)
    if direction == FORWARD and end_vertex is not None:
        raise ValueError("end_vertex only applies to backward propagation")
    if direction == BACKWARD:
        if end_vertex is None:
            raise ValueError("backward propagation needs end_vertex")
        if end_vertex not in G.edges[edges[-1]] or end_vertex == movers[-1]:
            raise ValueError(
                f"end_vertex must lie on edge {edges[-1]} and differ from vertex {movers[-1]}"
            )
    for i in range(k):
        b.emit(Move(movers[i], edges[i]))
    expected = list(w)
    expected[v1] = (expected[v1] - 1) % p
    if direction == FORWARD:
        connectors = set(path.connectors)
        for u in union:
            if u != v1 and u not in connectors:
                expected[u] = (expected[u] + 1) % p
    else:
        for i in range(k - 1, -1, -1):
            target = {u: 0 for u in G.edges[edges[i]]}
            if i == k - 1:
                target[end_vertex] = 1
            if i == 0:
                target[v1] = (w[v1] - 1) % p
            _on_edge(b, edges[i], target)
        expected[end_vertex] = (expected[end_vertex] + 1) % p
    if b.state != tuple(expected):
        raise InternalSynthesisFailure(f"{direction} propagation missed its net effect")


class _GuardFailure(Exception):
    """Internal: one decomposition attempt does not apply; try the next."""


def _check_ends(G: Hypergraph, p: int, w1: State, w2: State) -> None:
    """UnreachableTarget when no move leaves w1 or none lands on w2 (w1 != w2)."""
    if all(x == 0 for x in w1):
        raise UnreachableTarget("the all-zero state admits no moves")
    if not has_predecessor(G, p, w2):
        raise UnreachableTarget("the target state has no predecessor")


def synthesize_schedule(
    G: Hypergraph,
    p: int,
    w1: State,
    w2: State,
    max_states: int = DEFAULT_MAX_STATES,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Schedule:
    """Synthesize a replayable schedule from w1 to w2 on a well-shaped hypergraph.

    Raises UnreachableTarget / Unsolvable when no schedule exists,
    NotGood off the well-shaped family, and SynthesisIncomplete when the
    constructive machinery gave up (the bounded fallback search blew its
    state budget, or the recursion hit Python's recursion limit).  The
    returned schedule is replay-verified.
    """
    validate_modulus(p)
    report = is_good(G)
    if not report.good:
        kinds = sorted({v.kind for v in report.violations})
        raise NotGood(f"schedule synthesis needs a well-shaped hypergraph ({', '.join(kinds)})")
    w1 = validate_state(p, G.n, w1)
    w2 = validate_state(p, G.n, w2)
    b = _Builder(G, p, w1, max_states=max_states, cap=cap)
    if w1 != w2:
        _check_ends(G, p, w1, w2)
        # the one solvability check; pieces inherit it (see _recurse_into)
        if _necessity(G, p, w1, w2) is not None:
            raise Unsolvable("the move-counting system has no solution")
        try:
            _synthesize(b, w2)
        except RecursionError:  # caught here only, so that it unwinds the whole recursion
            raise SynthesisIncomplete(
                f"the recursion over {G.m} edges hit Python's recursion limit"
            ) from None
    schedule = Schedule(tuple(b.moves))
    if replay_schedule(G, p, w1, schedule) != w2:
        raise InternalSynthesisFailure("synthesized schedule fails replay")
    return schedule


def _synthesize(b: _Builder, w2: State) -> None:
    """Synthesis core, from b's state to w2 on a well-shaped b.G.

    The caller has run _check_ends on the (distinct) pair, which is
    balance-solvable: synthesize_schedule checks that once at the top,
    and a piece inherits it from its split (see _recurse_into).
    """
    G, w1 = b.G, b.state
    if G.m == 1:
        # well-shaped means canonical, and _on_edge's checks ran in the caller
        _descend_single_edge(b, w2)
        return
    mark = len(b.moves)
    for l in range(G.m):
        try:
            _attempt_split(b, w2, l)
            return
        except _GuardFailure:
            # drop the attempt's moves, which the shared list already holds
            del b.moves[mark:]
            b.state = w1
    _bridge_descent(b, w2)


def _recurse_into(b: _Builder, l: int, without_l: Hypergraph, ci: int, target) -> None:
    """Recursively schedule component ci of b.G minus l to target, on a child of b.

    The piece inherits its solvability: the split's guard solved the pair
    on G minus l, solvability splits over its components, and the split
    shifts a piece's source and target alike (+t on l's vertices for a
    seedless piece, legal in-component moves for a live one).
    A sub-instance that turns out unreachable or over budget aborts the
    whole decomposition attempt (_GuardFailure), not the synthesis.
    """
    st = without_l.structure
    comp = st.components[ci]
    t = tuple(target[v] for v in comp)
    if all(b.state[v] == x for v, x in zip(comp, t)):
        return
    # sub-vertex i is comp[i]; the search's edge j is b.G's edge j + (j >= l)
    vmap = {v: i for i, v in enumerate(comp)}
    emap = [j + (j >= l) for j in sorted(st.scan[ci])]
    sub_edges = tuple(tuple(vmap[v] for v in b.G.edges[ei]) for ei in emap)
    piece = b.child(Hypergraph(len(comp), sub_edges), comp, emap)
    try:
        _check_ends(piece.G, b.p, piece.state, t)
        _synthesize(piece, t)
    except (Unsolvable, UnreachableTarget, SynthesisIncomplete) as err:
        raise _GuardFailure(str(err)) from None
    b.settle(comp, piece.state)


def _anchors_ok(p: int, va: int, vb: int, t: int) -> bool:
    """Will anchor values (va, vb) support trick rounds both before and
    after the bridging edge's refill shifts them down by t?"""
    return is_good_pair(p, va, vb) and is_good_pair(p, (va - t) % p, (vb - t) % p)


def _attempt_split(b: _Builder, w2: State, l: int) -> None:
    """One decomposition attempt across bridging edge l.

    On failure it raises _GuardFailure; the caller drops the moves it
    emitted and tries the next edge.
    """
    G, p, w1 = b.G, b.p, b.state
    without_l = Hypergraph(G.n, G.edges[:l] + G.edges[l + 1:])
    if _necessity(without_l, p, w1, w2) is not None:
        raise _GuardFailure(f"the difference needs moves on edge {l}")
    comps = without_l.structure.components
    kind = {ci: _component_kind(comp, w1, w2) for ci, comp in enumerate(comps)}
    # With no seedless component, no moves on l are needed at all: every
    # component either already matches the target or carries its own charge.
    if "seedless" in kind.values():
        e_l = G.edges[l]
        z1 = next((z for z in e_l if w1[z] != 0), None)
        if z1 is None:
            # No charge anywhere on l: walk one unit over from the nearest
            # charged vertex, whose component may turn settled or live.
            _transfer_into_edge(b, l)
            kind = {ci: _component_kind(comp, b.state, w2) for ci, comp in enumerate(comps)}
            z1 = next(z for z in e_l if b.state[z] != 0)
        t = b.state[z1]
        in_l = set(e_l)
        # Stage 1: drain z1, handing t units of charge to every other vertex
        # of l -- in particular into each seedless component.
        for _ in range(t):
            b.emit(Move(z1, l))
        # Stage 2: solve each seedless component while it holds the borrowed
        # charge, aiming t above the target on its l-vertices (the refill
        # below takes those t units back).
        for ci, comp in enumerate(comps):
            if kind[ci] != "seedless":
                continue
            target = {v: (w2[v] + t) % p if v in in_l else w2[v] for v in comp}
            _recurse_into(b, l, without_l, ci, target)
        # Values now sitting on l's other vertices; two of them must anchor
        # the trick rounds around the refill.
        rest = [z for z in e_l if z != z1]
        pair = None
        for i in range(len(rest)):
            for j in range(i + 1, len(rest)):
                if _anchors_ok(p, b.state[rest[i]], b.state[rest[j]], t):
                    pair = (rest[i], rest[j])
                    break
            if pair:
                break
        cleanup_edge = None
        if pair is None:
            pair, cleanup_edge = _nudge_for_anchors(b, w2, l, z1, t, without_l, kind)
        z2, z3 = pair
        # Stage 3: refill z1.  A -1 round gives z1 the charge to move,
        # p - t moves at z1 pull the borrowed units back (z1 passes from
        # p-1 down to t-1), and a +1 round restores the anchors; every
        # other vertex of l nets exactly -t across the three steps.
        b.trick(l, z2, z3, -1)
        for _ in range(p - t):
            b.emit(Move(z1, l))
        b.trick(l, z2, z3, +1)
        # Undo the anchor nudge when it landed in a component nothing will
        # touch again.
        if cleanup_edge is not None:
            _on_edge(b, cleanup_edge, w2)
    # Stage 4: components that had their own charge all along.
    for ci, comp in enumerate(comps):
        if kind[ci] == "live":
            _recurse_into(b, l, without_l, ci, w2)
    if b.state != w2:
        raise InternalSynthesisFailure("draining left a residue off the target")


def _component_kind(comp: tuple[int, ...], w: State, w2: State) -> str:
    """settled (on target at w), live (holds charge) or seedless."""
    if all(w[v] == w2[v] for v in comp):
        return "settled"
    return "live" if any(w[v] for v in comp) else "seedless"


def _nudge_for_anchors(
    b: _Builder,
    w2: State,
    l: int,
    z1: int,
    t: int,
    without_l: Hypergraph,
    kind: dict[int, str],
) -> tuple[tuple[int, int], int | None]:
    """All anchor candidates on l share one unusable value; nudge one.

    Emits a single legal move on a neighboring edge that changes exactly
    one l-vertex's value by 1, making a usable (unequal) anchor pair.
    Returns that pair and, when the nudge landed in a component the
    synthesis will not revisit, the edge to undo explicitly at the end
    (a live component instead absorbs the nudge into its own recursion).
    The candidate edges and components come from the split's search.
    """
    G, p, st = b.G, b.p, without_l.structure
    e_l = G.edges[l]
    in_l = set(e_l)
    touching = {j + (j >= l) for z in e_l for j in st.incidence[z]}
    for ep in sorted(touching):
        shared = [v for v in G.edges[ep] if v in in_l]
        if len(shared) != 1 or shared[0] == z1:
            continue
        z = shared[0]
        partner = next(y for y in e_l if y != z1 and y != z)
        ci = st.component[z]
        for u in G.edges[ep]:
            if b.state[u] == 0:
                continue
            nxt = apply_move(G, p, b.state, Move(u, ep))
            if not _anchors_ok(p, nxt[z], b.state[partner], t):
                continue
            if kind[ci] != "live":
                # Nothing will revisit this component: the nudge must be
                # undoable on ep alone once the refill has run its course.
                end_values = [
                    (w2[v] + nxt[v] - b.state[v]) % p for v in G.edges[ep]
                ]
                if not any(end_values):
                    continue
                if all(w2[v] == p - 1 for v in G.edges[ep]):
                    continue
                cleanup = ep
            else:
                cleanup = None
            b.emit(Move(u, ep))
            return (min(z, partner), max(z, partner)), cleanup
    raise _GuardFailure("no legal nudge frees an anchor pair on the bridging edge")


def _transfer_into_edge(b: _Builder, l: int) -> None:
    """Move one unit of charge from the nearest charged vertex onto edge l.

    Uses backward path propagation over the shortest edge path, which
    requires the corridor to be otherwise empty (_GuardFailure when some
    intermediate vertex already holds charge).
    """
    G = b.G
    paths = [shortest_edge_path(G, v, l) for v in range(G.n) if b.state[v] != 0]
    if not paths:
        raise _GuardFailure("no vertex carries charge")
    # min keeps the first of equally short paths: the lowest start vertex
    path = min(paths, key=lambda q: len(q.edges))
    if len(path.edges) < 2:
        raise InternalSynthesisFailure("transfer requested although the edge holds charge")
    corridor = EdgePath(path.start_vertex, path.edges[:-1], path.connectors[:-1])
    try:
        _propagate(b, corridor, BACKWARD, path.connectors[-1])
    except (HypothesisViolated, Unsolvable, UnreachableTarget) as err:
        raise _GuardFailure(str(err)) from None


def _unblock_counted(b: _Builder, reach: ReachSystem, counts: list[int]) -> bool:
    """Execute one blocked counted move via a cancelling trick sandwich.

    A counted move whose mover currently holds zero can still be
    realized exactly: an ascending trick on an edge containing the
    mover raises it to one, the move fires, and the descending twin
    trick cancels the rest.  The two tricks together are p paired moves
    on the same anchors, so their combined effect vanishes and the
    sandwich nets precisely the blocked move's effect.  Returns True
    when some blocked count was consumed.
    """
    G, p = b.G, b.p
    for j, (ei, v) in enumerate(reach.variables):
        if counts[j] == 0 or b.state[v] != 0:
            continue
        bumped = set(G.edges[ei])
        for hi in G.structure.incidence[v]:
            helper = G.edges[hi]
            for va, vb in itertools.combinations((u for u in helper if u != v), 2):
                now_a, now_b = b.state[va], b.state[vb]
                # anchor values when the descending trick starts: the
                # fired move bumps every vertex of its edge except the
                # mover, and the ascending trick restores its anchors
                then_a = (now_a + 1) % p if va in bumped else now_a
                then_b = (now_b + 1) % p if vb in bumped else now_b
                if not (is_good_pair(p, now_a, now_b) and is_good_pair(p, then_a, then_b)):
                    continue
                b.trick(hi, va, vb, 1)
                b.emit(Move(v, ei))
                b.trick(hi, va, vb, -1)
                counts[j] -= 1
                return True
    return False


def _bridge_descent(b: _Builder, w2: State) -> None:
    """Last resort: walk the counted moves greedily, search the gap.

    Executes moves from a (preferably minimum-norm) solution of the
    move-counting system while any counted move is legal and does not
    strand the walk on the inert zero state; counted moves whose mover
    ran dry are freed with cancelling trick sandwiches.  Any remaining
    gap is closed by bounded breadth-first search from the state
    actually reached -- progress made by the descent is kept.
    """
    G, p = b.G, b.p
    reach = build_system(G, p, b.state, w2)
    space = gaussian_solve(reach.system)
    try:
        _, solution = system_norm(space, cap=b.cap)
    except EnumerationTooLarge:
        solution = space.particular
    counts = list(solution)
    while sum(counts) > 0:
        progressed = False
        for j, (ei, v) in enumerate(reach.variables):
            if counts[j] == 0 or b.state[v] == 0:
                continue
            nxt = apply_move(G, p, b.state, Move(v, ei))
            if nxt == w2:
                b.emit(Move(v, ei))
                return
            if any(nxt):
                b.emit(Move(v, ei))
                counts[j] -= 1
                progressed = True
                break
        if not progressed and not _unblock_counted(b, reach, counts):
            break
    if b.state == w2:
        return
    try:
        orbit = orbit_bfs(G, p, b.state, max_states=b.max_states, stop_at=w2)
    except StateSpaceTooLarge:
        raise SynthesisIncomplete(
            f"constructive descent stalled {sum(counts)} counted moves short of the "
            f"target and the bridging search exceeded {b.max_states} states"
        ) from None
    if w2 not in orbit:
        raise InternalSynthesisFailure(
            "bridging search exhausted an orbit that should contain the target"
        )
    b.emit_all(extract_schedule(orbit, w2))
