"""Move semantics, schedules, orbits, and the exhaustive oracles.

The oracles here are the court of last resort for the rest of the
package, so they are themselves checked against definitions spelled out
the dumbest possible way (per-state double BFS, brute predecessor
enumeration over all of Z_p^n).
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from zpwalk.errors import IllegalMove, ParseError, StateSpaceTooLarge
from zpwalk.generate import gen_good_hypergraph
from zpwalk.hypergraph import make_hypergraph
from zpwalk.dynamics import (
    Move,
    Schedule,
    all_moves,
    apply_move,
    extract_schedule,
    format_schedule,
    format_state,
    has_predecessor,
    oracle_escape,
    oracle_reachable,
    oracle_recurrent,
    orbit_bfs,
    parse_schedule,
    parse_state,
    replay_schedule,
    validate_state,
)

E3 = make_hypergraph(3, [(0, 1, 2)])
E5 = make_hypergraph(5, [(0, 1, 2, 3, 4)])
TWO_EDGES = make_hypergraph(5, [(0, 1, 2), (2, 3, 4)])


def test_apply_move_effect():
    # net effect: -1 at the mover, +1 at every other edge vertex
    assert apply_move(E3, 3, (1, 0, 0), Move(0, 0)) == (0, 1, 1)
    assert apply_move(E3, 3, (2, 1, 0), Move(1, 0)) == (0, 0, 1)
    # off-edge vertices untouched
    assert apply_move(TWO_EDGES, 3, (0, 0, 1, 2, 0), Move(2, 1)) == (0, 0, 0, 0, 1)


def test_apply_move_rejections():
    with pytest.raises(IllegalMove):
        apply_move(E3, 3, (0, 1, 1), Move(0, 0))  # mover has no charge
    with pytest.raises(IllegalMove):
        apply_move(TWO_EDGES, 3, (1, 1, 1, 1, 1), Move(0, 1))  # not on edge
    with pytest.raises(IllegalMove):
        apply_move(E3, 3, (1, 1, 1), Move(0, 2))  # edge out of range


def test_replay_reports_failing_step():
    # the first move drains vertex 0 to zero, so the second one is illegal
    with pytest.raises(IllegalMove) as err:
        replay_schedule(E3, 3, (1, 0, 0), Schedule((Move(0, 0), Move(0, 0))))
    assert err.value.step == 1
    assert "step 1" in str(err.value)
    sched = Schedule((Move(0, 0), Move(0, 0), Move(0, 0)))
    assert replay_schedule(E3, 5, (3, 0, 0), sched) == (0, 3, 3)


def test_moves_leave_a_list_source_unchanged():
    w = [2, 1, 0]
    assert apply_move(E3, 3, w, Move(0, 0)) == (1, 2, 1)
    sched = Schedule((Move(0, 0), Move(1, 0)))
    assert replay_schedule(E3, 3, w, sched) == (2, 1, 2)
    assert w == [2, 1, 0]
    with pytest.raises(IllegalMove) as err:
        replay_schedule(E3, 3, w, Schedule((Move(2, 0),)))
    assert err.value.step == 0
    assert w == [2, 1, 0]


def test_state_round_trip():
    w = validate_state(3, 3, [1, 2, 0])
    assert parse_state(format_state(w), 3, 3) == w
    assert parse_state(' 1 , 2 , 0 ', 3, 3) == w


@pytest.mark.parametrize("bad", ["1,2", "1,2,3", "1,2,x", "1, 2, -1"])
def test_parse_state_rejects(bad):
    with pytest.raises(ParseError):
        parse_state(bad, 3, 3)


@pytest.mark.parametrize("text, message", [
    ("1, x,2", "state literal '1, x,2': entries must be integers"),
    ("1,2", "state has 2 entries, hypergraph has 3 vertices"),
    ("1,2,0,1", "state has 4 entries, hypergraph has 3 vertices"),
    ("1,-1,-2", "state entry -1 is not a residue in [0, 3)"),
    ("0,2,3", "state entry 3 is not a residue in [0, 3)"),
    ("4,-1,0", "state entry 4 is not a residue in [0, 3)"),
])
def test_parse_state_names_the_first_offender(text, message):
    with pytest.raises(ParseError) as err:
        parse_state(text, 3, 3)
    assert str(err.value) == message


def test_validate_state_rejects_bools():
    with pytest.raises(ParseError):
        validate_state(3, 2, (True, 0))
    with pytest.raises(ParseError, match=r"state entry True is not a residue in \[0, 3\)"):
        validate_state(3, 2, (0, True))


@pytest.mark.parametrize("w, message", [
    ((0, 1.0, 5), "state entry 1.0 is not a residue in [0, 3)"),
    ((0, 5, "1"), "state entry 5 is not a residue in [0, 3)"),
    ((2, -1, False), "state entry -1 is not a residue in [0, 3)"),
])
def test_validate_state_names_the_first_offender(w, message):
    with pytest.raises(ParseError) as err:
        validate_state(3, 3, w)
    assert str(err.value) == message


def test_validate_state_accepts_int_subclasses():
    class Residue(int):
        pass

    assert validate_state(3, 3, [Residue(2), 0, Residue(1)]) == (2, 0, 1)


def test_schedule_text_round_trip():
    sched = Schedule((Move(2, 0), Move(4, 1), Move(2, 1)))
    text = format_schedule(sched)
    assert text == "v 2 e 0\nv 4 e 1\nv 2 e 1\n"
    assert parse_schedule(text) == sched
    assert parse_schedule("# intro\n\nv 2 e 0  # why\n") == Schedule((Move(2, 0),))
    with pytest.raises(ParseError):
        parse_schedule("move 2 on 0\n")
    with pytest.raises(ParseError):
        parse_schedule("v 2 e x\n")


STATE_TEXT = st.one_of(
    st.lists(st.one_of(st.integers(-2, 8).map(str), st.text(max_size=2)), max_size=6)
    .map(",".join),
    st.text(),
)
SCHEDULE_LINE = st.one_of(
    st.tuples(st.sampled_from(["v", "e", "x"]), st.integers(-2, 9), st.sampled_from(["e", "v"]),
              st.one_of(st.integers(-2, 9), st.text(max_size=2)))
    .map(lambda t: " ".join(map(str, t))),
    st.text(max_size=12),
)


@settings(max_examples=100, deadline=None)
@given(STATE_TEXT, st.sampled_from([3, 5, 7]), st.integers(1, 5))
def test_parse_state_parses_or_raises_parse_error(text, p, n):
    try:
        w = parse_state(text, p, n)
    except ParseError:
        return
    assert len(w) == n and all(0 <= x < p for x in w)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.lists(SCHEDULE_LINE, max_size=6).map("\n".join), st.text()))
def test_parse_schedule_parses_or_raises_parse_error(text):
    try:
        schedule = parse_schedule(text)
    except ParseError:
        return
    assert all(isinstance(m.vertex, int) and isinstance(m.edge, int) for m in schedule)


def test_all_moves_order():
    assert all_moves(TWO_EDGES) == (
        Move(0, 0), Move(1, 0), Move(2, 0),
        Move(2, 1), Move(3, 1), Move(4, 1),
    )


# ------------------------------------------------------------ invariants


@st.composite
def instance_and_state(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    m = draw(st.integers(min_value=1, max_value=max(1, (n - 1) // 2)))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    p = draw(st.sampled_from((3, 5)))
    G = gen_good_hypergraph(n, m, seed=seed)
    w = tuple(draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(n))
    return G, p, w


@given(instance_and_state(), st.data())
def test_move_changes_total_by_edge_size_minus_two(args, data):
    G, p, w = args
    legal = [mv for mv in all_moves(G) if w[mv.vertex] != 0]
    if not legal:
        return
    mv = data.draw(st.sampled_from(legal))
    w2 = apply_move(G, p, w, mv)
    delta = (sum(w2) - sum(w)) % p
    assert delta == (len(G.edges[mv.edge]) - 2) % p


@given(instance_and_state())
@settings(max_examples=30, deadline=None)
def test_orbit_is_closed_under_moves(args):
    G, p, w = args
    if p**G.n > 8000:
        return  # keep each orbit enumeration quick
    orbit = orbit_bfs(G, p, w, max_states=p**G.n)
    sample = orbit.order[:: max(1, len(orbit.order) // 25)]
    for s in sample:
        for mv in all_moves(G):
            if s[mv.vertex] != 0:
                assert apply_move(G, p, s, mv) in orbit


# ---------------------------------------------------------------- orbits


def test_triangle_orbit_frozen():
    # 2-edge triangle (sizes 2): still legal dynamics, just not well-shaped
    G = make_hypergraph(3, [(0, 1), (0, 2), (1, 2)])
    orbit = orbit_bfs(G, 3, (1, 1, 1))
    assert sorted(orbit.order) == [
        (0, 0, 0), (0, 1, 2), (0, 2, 1), (1, 0, 2),
        (1, 1, 1), (1, 2, 0), (2, 0, 1), (2, 1, 0),
    ]
    assert orbit.order[0] == (1, 1, 1)
    assert len(orbit) == 8


def test_orbit_deterministic_order():
    a = orbit_bfs(TWO_EDGES, 3, (1, 0, 2, 0, 1))
    b = orbit_bfs(TWO_EDGES, 3, (1, 0, 2, 0, 1))
    assert a.order == b.order


def test_orbit_of_zero_is_trivial():
    orbit = orbit_bfs(E3, 3, (0, 0, 0))
    assert orbit.order == ((0, 0, 0),)


def test_orbit_stop_at_short_circuits():
    full = orbit_bfs(E5, 3, (1, 0, 0, 0, 0))
    partial = orbit_bfs(E5, 3, (1, 0, 0, 0, 0), stop_at=(0, 1, 1, 1, 1))
    assert (0, 1, 1, 1, 1) in partial
    assert len(partial) <= len(full)
    sched = extract_schedule(partial, (0, 1, 1, 1, 1))
    assert replay_schedule(E5, 3, (1, 0, 0, 0, 0), sched) == (0, 1, 1, 1, 1)


def test_orbit_stop_at_keeps_the_full_visit_order():
    """Stopping at t visits exactly the full search's prefix up to t, and
    the partial result's links replay to t."""
    rng = random.Random(204)
    instances = [(G, p) for G in (E5, TWO_EDGES) for p in (3, 5)]
    for _ in range(8):
        n = rng.randint(3, 7)
        p = rng.choice((3, 5)) if n < 7 else 3
        G = gen_good_hypergraph(n, 1 if n < 5 else 2, seed=rng.randrange(2**30))
        instances.append((G, p))
    for G, p in instances:
        full = None
        while full is None or len(full) < 6:
            start = tuple(rng.randrange(p) for _ in range(G.n))
            full = orbit_bfs(G, p, start)
        targets = {full.order[0], full.order[-1], *rng.sample(full.order, 5)}
        for t in targets:
            i = full.order.index(t)
            partial = orbit_bfs(G, p, start, stop_at=t)
            assert partial.order == full.order[:i + 1], (G, p, start, t)
            assert replay_schedule(G, p, start, extract_schedule(partial, t)) == t


def test_orbit_refuses_to_truncate():
    with pytest.raises(StateSpaceTooLarge):
        orbit_bfs(E5, 3, (1, 1, 1, 1, 1), max_states=10)


def test_extract_schedule_needs_member():
    orbit = orbit_bfs(E3, 3, (1, 0, 0))
    with pytest.raises(ValueError):
        extract_schedule(orbit, (2, 2, 2))
    assert extract_schedule(orbit, (1, 0, 0)) == Schedule(())


def test_extracted_schedules_replay():
    rng = random.Random(31)
    for _ in range(20):
        G = gen_good_hypergraph(rng.randint(3, 6), 1, seed=rng.randrange(2**30))
        p = 3
        w1 = tuple(rng.randrange(p) for _ in range(G.n))
        orbit = orbit_bfs(G, p, w1)
        for w2 in rng.sample(orbit.order, min(10, len(orbit.order))):
            assert replay_schedule(G, p, w1, extract_schedule(orbit, w2)) == w2


# ------------------------------------------------------------ the oracles


def brute_predecessors(G, p, w):
    """Every state with a legal move landing exactly on w."""
    preds = []
    for s in itertools.product(range(p), repeat=G.n):
        for mv in all_moves(G):
            if s[mv.vertex] != 0 and apply_move(G, p, s, mv) == w:
                preds.append((s, mv))
    return preds


def test_has_predecessor_matches_brute_force():
    rng = random.Random(401)
    for G, p in [(E3, 3), (E3, 5), (TWO_EDGES, 3),
                 (make_hypergraph(4, [(0, 1, 2, 3)]), 3)]:
        for w in itertools.product(range(p), repeat=G.n):
            assert has_predecessor(G, p, w) == bool(brute_predecessors(G, p, w)), (
                G, p, w)
    # spot checks on a bigger instance
    G = gen_good_hypergraph(6, 2, seed=8)
    for _ in range(40):
        w = tuple(rng.randrange(3) for _ in range(6))
        assert has_predecessor(G, 3, w) == bool(brute_predecessors(G, 3, w))


def trial_unmove_predecessor(G, p, w):
    """The definition by trial: undo every move and check the undo was legal."""
    for i, edge in enumerate(G.edges):
        for v in edge:
            prior = list(w)
            for u in edge:
                prior[u] = (prior[u] - 1) % p
            prior[v] = (prior[v] + 2) % p
            if prior[v] != 0 and apply_move(G, p, tuple(prior), Move(v, i)) == w:
                return True
    return False


def test_has_predecessor_matches_trial_unmove_everywhere():
    irregular = [
        make_hypergraph(3, [(0, 1), (0, 2), (1, 2)]),   # size-2 edges
        make_hypergraph(4, [(0, 1, 2), (1, 2, 3)]),     # shared pair
        make_hypergraph(5, [(0, 1, 2), (3, 4)]),        # disconnected
        make_hypergraph(4, [(1, 2, 3)]),                # isolated vertex
        make_hypergraph(2, []),                         # no edges at all
    ]
    for G in irregular + [E3, TWO_EDGES, make_hypergraph(4, [(0, 1, 2, 3)])]:
        for p in (2, 3, 5):
            for w in itertools.product(range(p), repeat=G.n):
                assert has_predecessor(G, p, w) == trial_unmove_predecessor(G, p, w), (
                    G, p, w)


def test_zero_state_has_a_predecessor():
    # [1,2,2] --move at vertex 0--> [0,0,0] on the single 3-edge at p=3
    assert apply_move(E3, 3, (1, 2, 2), Move(0, 0)) == (0, 0, 0)
    assert has_predecessor(E3, 3, (0, 0, 0))


def test_saturated_state_is_produced_by_nothing():
    for G, p in [(E3, 3), (E5, 3), (TWO_EDGES, 3), (E3, 5)]:
        assert not has_predecessor(G, p, (p - 1,) * G.n)


def test_oracle_reachable_examples():
    assert oracle_reachable(E3, 3, (1, 0, 0), (0, 1, 1))
    assert oracle_reachable(E5, 3, (1, 0, 0, 0, 0), (0, 1, 1, 1, 1))
    assert not oracle_reachable(E3, 3, (0, 0, 0), (0, 1, 1))
    assert oracle_reachable(E3, 3, (2, 2, 2), (2, 2, 2))  # trivially, by staying


def naive_recurrent(G, p, w1, w2):
    """The definition verbatim: w2 reachable from everything w1 reaches."""
    return all(
        oracle_reachable(G, p, w3, w2)
        for w3 in orbit_bfs(G, p, w1).order
    )


def test_oracle_recurrent_matches_naive_definition():
    rng = random.Random(77)
    instances = [(E3, 3), (E3, 5), (TWO_EDGES, 3),
                 (gen_good_hypergraph(5, 2, seed=3), 3)]
    agree_true = agree_false = 0
    for G, p in instances:
        for _ in range(25):
            w1 = tuple(rng.randrange(p) for _ in range(G.n))
            w2 = tuple(rng.randrange(p) for _ in range(G.n))
            got = oracle_recurrent(G, p, w1, w2)
            assert got == naive_recurrent(G, p, w1, w2), (G, p, w1, w2)
            agree_true += got
            agree_false += not got
    assert agree_true and agree_false  # both outcomes exercised


def test_oracle_escape_is_the_first_state_that_cannot_return():
    rng = random.Random(78)
    escapes = 0
    for G, p in [(E3, 3), (E3, 5), (TWO_EDGES, 3),
                 (make_hypergraph(3, [(0, 1), (0, 2), (1, 2)]), 3)]:
        for _ in range(25):
            w1 = tuple(rng.randrange(p) for _ in range(G.n))
            w2 = tuple(rng.randrange(p) for _ in range(G.n))
            orbit, escape = oracle_escape(G, p, w1, w2)
            assert orbit.order == orbit_bfs(G, p, w1).order
            expected = next((w for w in orbit.order
                             if not oracle_reachable(G, p, w, w2)), None)
            assert escape == expected, (G, p, w1, w2)
            assert (escape is None) == oracle_recurrent(G, p, w1, w2)
            escapes += escape is not None and w2 in orbit
    assert escapes


def test_oracle_recurrent_known_cases():
    # orbit of [1,1,1] falls into the absorbing zero state, which cannot
    # return -- so nothing nonzero is recurrent from there...
    assert not oracle_recurrent(E3, 3, (1, 1, 1), (1, 1, 1))
    # ...but the zero state itself is
    assert oracle_recurrent(E3, 3, (1, 1, 1), (0, 0, 0))
    assert oracle_recurrent(E3, 3, (0, 0, 0), (0, 0, 0))
    assert not oracle_recurrent(E3, 3, (0, 0, 0), (1, 1, 1))
