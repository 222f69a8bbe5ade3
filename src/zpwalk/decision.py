"""Decision layer: the balance system and the fast reachability answers.

The balance system for a pair of states counts moves: one unknown per
(edge, vertex) incidence, one equation per vertex saying the net effect
of all counted moves explains the difference between the two states.
Solvability of that system is necessary for reachability on every
hypergraph.  On well-shaped hypergraphs (is_good) it is also sufficient,
with two corrections that exhaustive search forced on us:

  * the zero state has no legal moves, so nothing but itself is
    reachable from it, whatever the system says;
  * a state with no predecessor (exactly the all-(p-1) state whenever
    every vertex lies on an edge) is reachable only from itself, yet the
    system can still be solvable for it.

The decisions never eliminate.  Column (e, v) of the balance matrix is
2*1_v - 1_e, so for odd p the differences of columns within an edge give
every 1_v - 1_u inside a connected component, and one column adds
(2 - |e|)*1_r there.  A component therefore constrains the right-hand
side only when every edge in it has |e| = 2 (mod p), and then only
through its sum mod p; a vertex on no edge is such a component by
itself and must match exactly.  _lever states this rule once, and
_closed_form_solution reads G.structure's search directly: it settles
solvability and builds a solution along the spanning edge tree in
O(n + sum |e|).
Synthesis asks the same rule through necessity_filter, and counts
single-edge moves in closed form too.  build_system stays as the plain
matrix that synthesis eliminates only for the bridge descent's
minimum-norm move counts, and that the self-tests check the closed forms
against.

decide_reachability and decide_recurrence implement the corrected rules
through one mode dispatch (_decide): each can cross-check itself against
the exhaustive oracle (mode "both"), and refuses non-well-shaped inputs
in algebraic mode rather than answer with a one-sided test.  Both rules
end in one balance verdict (_solved).  Recurrence adds only its own
refuters: from a charged source to a nonzero target, a garden-of-Eden
target, then a reachable zero state.  classify_state asks the
recurrence question (w, w) in the same dispatch: w is transient iff it
has a predecessor and is not recurrent from itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import dynamics
from .dynamics import DEFAULT_MAX_STATES, State, extract_schedule, orbit_bfs
from .errors import MismatchError, NotGood
from .hypergraph import Hypergraph, is_good
from .zp_algebra import ZpMatrixSystem, mod_inverse, validate_modulus

MODE_ALGEBRAIC = "algebraic"
MODE_ORACLE = "oracle"
MODE_BOTH = "both"
_MODES = (MODE_ALGEBRAIC, MODE_ORACLE, MODE_BOTH)


@dataclass(frozen=True)
class ReachSystem:
    """Move-counting system for a (w1, w2) pair on a hypergraph.

    variables[i] is the (edge index, vertex) incidence that column i
    counts.  Row v reads: sum over edges e containing v of
    [X_{e,v} - sum of X_{e,u} for the other u in e]  =  w1(v) - w2(v),
    i.e. a solution records how many times (mod p) each incidence is
    moved in a schedule from w1 to w2.
    """

    p: int
    n: int
    variables: tuple[tuple[int, int], ...]
    system: ZpMatrixSystem


def build_system(G: Hypergraph, p: int, w1: State, w2: State) -> ReachSystem:
    validate_modulus(p)
    w1 = dynamics.validate_state(p, G.n, w1)
    w2 = dynamics.validate_state(p, G.n, w2)
    variables = tuple((i, v) for i, e in enumerate(G.edges) for v in e)
    rows = [[0] * len(variables) for _ in range(G.n)]
    for j, (i, v) in enumerate(variables):
        for u in G.edges[i]:
            rows[u][j] = p - 1
        rows[v][j] = 1
    rhs = tuple((a - b) % p for a, b in zip(w1, w2))
    system = ZpMatrixSystem(
        tuple(tuple(r) for r in rows), rhs, p, len(variables)
    )
    return ReachSystem(p, G.n, variables, system)


@dataclass(frozen=True)
class Certificate:
    """Typed evidence attached to a Decision.

    kinds: "solution_vector" (a solution of the balance system),
    "unsolvability" (ranks of the plain and augmented matrices),
    "schedule" (replayable witness), "orbit_exhausted" (the full orbit
    was searched), "garden_of_eden" (target has no predecessor),
    "absorbing_source" (the zero state has no legal moves),
    "zero_state_reachable" / "escape_state" (recurrence refuters).
    """

    kind: str
    data: dict


@dataclass(frozen=True)
class Decision:
    answer: bool
    method: str
    certificate: Certificate
    oracle_certificate: Certificate | None = None


class StateClass(Enum):
    TRANSIENT = "transient"
    RECURRENT_OR_INACCESSIBLE = "recurrent_or_inaccessible"


def _gate_algebraic(G: Hypergraph, p: int) -> None:
    validate_modulus(p)
    report = is_good(G)
    if not report.good:
        kinds = sorted({v.kind for v in report.violations})
        raise NotGood(
            f"hypergraph is not well-shaped ({', '.join(kinds)}); "
            "the algebraic rule is only proven there -- use oracle mode, "
            "or the necessity-only filter for sound negatives"
        )


def _lever(G: Hypergraph, p: int, scan: tuple[int, ...]) -> int | None:
    """The first edge in a component's scan with |e| != 2 (mod p), or None.

    None means every edge of the component has |e| = 2 (mod p), so that
    its sum is invariant.  The lever is the first such edge the search
    met, which fixes the values of the solution certificates.
    """
    return next((i for i in scan if (len(G.edges[i]) - 2) % p), None)


def _rank(G: Hypergraph, p: int) -> int:
    """Rank of the balance matrix: n minus the sum-invariant components."""
    return G.n - sum(_lever(G, p, scan) is None for scan in G.structure.scan)


def _closed_form_solution(G: Hypergraph, p: int, w1: State,
                          w2: State) -> list[int] | None:
    """A solution of build_system(G, p, w1, w2), or None if there is none.

    Variables are in build_system's order.  A component whose residual
    sum s is nonzero needs a lever e: t * col(e, e[0]), t = s / (2 - |e|),
    fixes its sum.  The rest of the right-hand side then sums to zero on
    every component and is pushed from the leaves to the root of the
    spanning tree with 1_v - 1_u = (col(e, v) - col(e, u)) / 2.
    """
    st = G.structure
    residual = [(a - b) % p for a, b in zip(w1, w2)]
    sums = [0] * len(st.scan)
    for v, c in enumerate(st.component):
        sums[c] += residual[v]
    x = [0] * st.ncols
    for c, scan in enumerate(st.scan):
        s = sums[c] % p
        if not s:
            continue
        i = _lever(G, p, scan)
        if i is None:
            return None
        e = G.edges[i]
        t = s * mod_inverse(2 - len(e), p) % p
        x[st.offset[i]] = t
        for u in e:
            residual[u] = (residual[u] + t) % p
        residual[e[0]] = (residual[e[0]] - 2 * t) % p
    half = mod_inverse(2, p)
    for v in reversed(st.order):
        link = st.tree[v]
        if link is None or not residual[v]:
            continue
        u, jv, ju = link
        h = residual[v] * half % p
        x[jv] = (x[jv] + h) % p
        x[ju] = (x[ju] - h) % p
        residual[u] = (residual[u] + residual[v]) % p
        residual[v] = 0
    return x


def _solved(G: Hypergraph, p: int, w1: State, w2: State) -> Decision:
    """The balance rule's verdict: a solution vector, or unsolvability."""
    if w1 == w2:
        return Decision(True, MODE_ALGEBRAIC,
                        Certificate("solution_vector", {"solution": [0] * G.structure.ncols}))
    solution = _closed_form_solution(G, p, w1, w2)
    if solution is None:
        rank = _rank(G, p)
        return Decision(False, MODE_ALGEBRAIC,
                        Certificate("unsolvability", {"rank": rank, "augmented_rank": rank + 1}))
    return Decision(True, MODE_ALGEBRAIC,
                    Certificate("solution_vector", {"solution": solution}))


def _garden_of_eden(w2: State) -> Decision:
    return Decision(False, MODE_ALGEBRAIC, Certificate("garden_of_eden", {"target": list(w2)}))


def _algebraic_reach(G: Hypergraph, p: int, w1: State, w2: State) -> Decision:
    if w1 != w2:
        if not any(w1):
            return Decision(False, MODE_ALGEBRAIC,
                            Certificate("absorbing_source", {"source": list(w1)}))
        if not dynamics.has_predecessor(G, p, w2):
            return _garden_of_eden(w2)
    return _solved(G, p, w1, w2)


def _oracle_reach(G: Hypergraph, p: int, w1: State, w2: State,
                  max_states: int) -> Decision:
    orbit = orbit_bfs(G, p, w1, max_states=max_states, stop_at=w2)
    if w2 in orbit:
        schedule = extract_schedule(orbit, w2)
        cert = Certificate("schedule", {"moves": [[m.vertex, m.edge] for m in schedule]})
        return Decision(True, MODE_ORACLE, cert)
    return Decision(False, MODE_ORACLE,
                    Certificate("orbit_exhausted", {"orbit_size": len(orbit)}))


def decide_reachability(
    G: Hypergraph,
    p: int,
    w1: State,
    w2: State,
    mode: str = MODE_BOTH,
    max_states: int = DEFAULT_MAX_STATES,
) -> Decision:
    """Is w2 reachable from w1 by legal moves?"""
    return _decide("reachability", _algebraic_reach, _oracle_reach,
                   G, p, w1, w2, mode, max_states)


def _decide(problem: str, algebraic_rule, oracle_rule, G: Hypergraph, p: int,
            w1: State, w2: State, mode: str, max_states: int) -> Decision:
    """Mode dispatch shared by all three questions: one side, or both diffed."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    same = w2 is w1  # a state asked about itself is validated once
    w1 = dynamics.validate_state(p, G.n, w1)
    w2 = w1 if same else dynamics.validate_state(p, G.n, w2)
    if mode == MODE_ORACLE:
        return oracle_rule(G, p, w1, w2, max_states)
    _gate_algebraic(G, p)
    algebraic = algebraic_rule(G, p, w1, w2)
    if mode == MODE_ALGEBRAIC:
        return algebraic
    oracle = oracle_rule(G, p, w1, w2, max_states)
    if algebraic.answer != oracle.answer:
        raise MismatchError(_mismatch_dump(problem, G, p, w1, w2,
                                           algebraic.answer, oracle.answer))
    return Decision(algebraic.answer, MODE_BOTH, algebraic.certificate,
                    oracle.certificate)


def _algebraic_recur(G: Hypergraph, p: int, w1: State, w2: State) -> Decision:
    zero = (0,) * G.n
    if w2 == zero and any(w1):
        # Recurrent iff the orbit can fall into the absorbing zero state:
        # once the zero state is reachable at all, it stays reachable from
        # every intermediate state (solution differences), and it is the
        # only state reachable from itself.  Unlike reachability, this
        # asks no predecessor of the zero state (the edgeless one-vertex
        # hypergraph has none).
        return _solved(G, p, w1, zero)
    if not any(w1) or not G.edges:
        # nothing moves from w1, so w1 is the only state reachable from it
        return _algebraic_reach(G, p, w1, w2)
    if not dynamics.has_predecessor(G, p, w2):
        return _garden_of_eden(w2)  # only w2 leads to w2, and w1 can move
    to_zero = _closed_form_solution(G, p, w1, zero)
    if to_zero is not None:
        return Decision(False, MODE_ALGEBRAIC,
                        Certificate("zero_state_reachable", {"solution": to_zero}))
    return _solved(G, p, w1, w2)


def _oracle_recur(G: Hypergraph, p: int, w1: State, w2: State,
                  max_states: int) -> Decision:
    orbit, escape = dynamics.oracle_escape(G, p, w1, w2, max_states=max_states)
    if w2 not in orbit or escape is None:
        return Decision(escape is None, MODE_ORACLE,
                        Certificate("orbit_exhausted", {"orbit_size": len(orbit)}))
    return Decision(False, MODE_ORACLE,
                    Certificate("escape_state", {"state": list(escape)}))


def decide_recurrence(
    G: Hypergraph,
    p: int,
    w1: State,
    w2: State,
    mode: str = MODE_BOTH,
    max_states: int = DEFAULT_MAX_STATES,
) -> Decision:
    """Is w2 reachable from every state reachable from w1?"""
    return _decide("recurrence", _algebraic_recur, _oracle_recur,
                   G, p, w1, w2, mode, max_states)


def classify_state(
    G: Hypergraph,
    p: int,
    w: State,
    mode: str = MODE_BOTH,
    max_states: int = DEFAULT_MAX_STATES,
) -> StateClass:
    """Transient (accessible and not recurrent from itself) or not.

    The complementary class is deliberately named for what it contains:
    genuinely recurrent states, plus inaccessible ones (no predecessor)
    for which escape is a one-way exit nothing can ever revisit.  The
    recurrence question (w, w) is asked in the given mode, so mode
    "both" raises MismatchError when its two answers differ.
    """
    self_recurrent = _decide("classification", _algebraic_recur, _oracle_recur,
                             G, p, w, w, mode, max_states).answer
    if not self_recurrent and dynamics.has_predecessor(G, p, w):
        return StateClass.TRANSIENT
    return StateClass.RECURRENT_OR_INACCESSIBLE


def necessity_filter(G: Hypergraph, p: int, w1: State, w2: State) -> Decision | None:
    """Sound negative-only filter, valid on every hypergraph.

    A schedule from w1 to w2 yields a solution of the balance system by
    counting its moves, so an unsolvable system proves unreachability.
    Returns a negative Decision, or None when inconclusive.
    """
    validate_modulus(p)
    return _necessity(G, p, dynamics.validate_state(p, G.n, w1),
                      dynamics.validate_state(p, G.n, w2))


def _necessity(G: Hypergraph, p: int, w1: State, w2: State) -> Decision | None:
    """necessity_filter on states already validated against G and p."""
    verdict = _solved(G, p, w1, w2)
    return None if verdict.answer else verdict


def _mismatch_dump(problem: str, G: Hypergraph, p: int, w1: State, w2: State,
                   algebraic, oracle) -> str:
    return (
        f"{problem} disagreement: algebraic={algebraic} oracle={oracle}\n"
        f"  p = {p}\n"
        f"  n = {G.n}\n"
        f"  edges = {list(G.edges)}\n"
        f"  w1 = {dynamics.format_state(w1)}\n"
        f"  w2 = {dynamics.format_state(w2)}\n"
        "capture this instance as a regression test"
    )
