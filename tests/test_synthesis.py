"""Schedule synthesis: gadgets and the full constructive pipeline.

Every schedule any of these produce must replay legally to the declared
endpoint -- the library re-checks that internally, and these tests check
it again from the outside, against BFS oracle ground truth where the
state space allows.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from zpwalk.decision import build_system
from zpwalk.dynamics import (
    Move,
    all_moves,
    apply_move,
    oracle_reachable,
    orbit_bfs,
    replay_schedule,
)
from zpwalk.errors import (
    HypothesisViolated,
    NonzeroRequired,
    NotGood,
    PairNotGood,
    SynthesisIncomplete,
    UnreachableTarget,
    Unsolvable,
)
from zpwalk.generate import gen_good_hypergraph
from zpwalk.hypergraph import EdgePath, make_hypergraph
from zpwalk.synthesis import (
    BACKWARD,
    FORWARD,
    _single_edge_counts,
    double_move_trick,
    is_good_pair,
    propagate_path,
    single_edge_schedule,
    synthesize_schedule,
    undo_on_edge,
)
from zpwalk.zp_algebra import gaussian_solve, system_norm

E4 = make_hypergraph(4, [(0, 1, 2, 3)])
CHAIN2 = make_hypergraph(5, [(0, 1, 2), (2, 3, 4)])


def single_edge(k: int):
    return make_hypergraph(k, [tuple(range(k))])


# ------------------------------------------------------------ good pairs


def test_good_pair_table():
    for p in (3, 5, 7):
        for a in range(p):
            for b in range(p):
                expected = (a, b) not in ((0, 0), (p - 1, p - 1))
                assert is_good_pair(p, a, b) == expected


def test_good_pair_validation():
    with pytest.raises(ValueError):
        is_good_pair(3, 3, 0)
    with pytest.raises(ValueError):
        is_good_pair(3, 0, -1)


# ------------------------------------------------------- double-move trick


def test_trick_worked_examples():
    w = (1, 1, 0, 0)
    up = double_move_trick(E4, 3, w, 0, 0, 1, +1)
    assert up.moves == (Move(0, 0), Move(1, 0), Move(0, 0), Move(1, 0))
    assert replay_schedule(E4, 3, w, up) == (1, 1, 1, 1)

    down = double_move_trick(E4, 3, w, 0, 0, 1, -1)
    assert len(down.moves) == 2
    assert replay_schedule(E4, 3, w, down) == (1, 1, 2, 2)

    with pytest.raises(PairNotGood):
        double_move_trick(E4, 3, (0, 0, 1, 1), 0, 0, 1, +1)


def test_trick_exhaustive_sweep():
    """All p in {3,5,7}, |e| in {3,4,5}, all anchor pairs and good values."""
    for p in (3, 5, 7):
        for k in (3, 4, 5):
            G = single_edge(k)
            rng = random.Random(p * 100 + k)
            for a, b in itertools.permutations(range(k), 2):
                for va in range(p):
                    for vb in range(p):
                        w = [rng.randrange(p) for _ in range(k)]
                        w[a], w[b] = va, vb
                        w = tuple(w)
                        for direction in (+1, -1):
                            if not is_good_pair(p, va, vb):
                                with pytest.raises(PairNotGood):
                                    double_move_trick(G, p, w, 0, a, b, direction)
                                continue
                            sched = double_move_trick(G, p, w, 0, a, b, direction)
                            out = replay_schedule(G, p, w, sched)
                            expected = tuple(
                                w[u] if u in (a, b) else (w[u] + direction) % p
                                for u in range(k)
                            )
                            assert out == expected
                            assert {mv.vertex for mv in sched.moves} == {a, b}


def test_trick_argument_validation():
    with pytest.raises(ValueError):
        double_move_trick(E4, 3, (1, 1, 0, 0), 0, 0, 0, +1)  # anchors equal
    with pytest.raises(ValueError):
        double_move_trick(E4, 3, (1, 1, 0, 0), 0, 0, 1, +2)  # direction
    with pytest.raises(ValueError):
        double_move_trick(E4, 3, (1, 1, 0, 0), 1, 0, 1, +1)  # edge range


# ------------------------------------------------------------- edge undo


def test_undo_one_move():
    w1 = (1, 0, 0, 0)
    w2 = apply_move(E4, 3, w1, Move(0, 0))
    assert w2 == (0, 1, 1, 1)
    back = undo_on_edge(E4, 3, w1, w2, 0)
    assert replay_schedule(E4, 3, w2, back) == w1


def test_undo_trivial_and_errors():
    assert undo_on_edge(E4, 3, (1, 0, 0, 0), (1, 0, 0, 0), 0).moves == ()
    with pytest.raises(NonzeroRequired):
        undo_on_edge(E4, 3, (1, 0, 0, 0), (0, 0, 0, 0), 0)
    with pytest.raises(ValueError):
        # differ off the edge
        undo_on_edge(CHAIN2, 3, (1, 0, 0, 0, 1), (0, 1, 1, 0, 0), 0)


def test_undo_random_move_bursts():
    rng = random.Random(333)
    for _ in range(60):
        k = rng.choice((3, 4, 5))
        p = rng.choice((3, 5))
        G = single_edge(k)
        w1 = tuple(rng.randrange(p) for _ in range(k))
        if w1 == (p - 1,) * k:
            continue  # garden of Eden: nothing can move back to it
        w = w1
        for _ in range(rng.randint(1, 6)):
            legal = [mv for mv in all_moves(G) if w[mv.vertex] != 0]
            if not legal:
                break
            w = apply_move(G, p, w, rng.choice(legal))
        if w == w1 or all(x == 0 for x in w):
            continue
        back = undo_on_edge(G, p, w1, w, 0)
        assert replay_schedule(G, p, w, back) == w1


# ------------------------------------------------------- path propagation


def test_propagate_forward_worked_example():
    path = EdgePath(0, (0, 1), (2,))
    w = (2, 0, 0, 0, 0)
    sched = propagate_path(CHAIN2, 3, w, path, FORWARD)
    assert sched.moves == (Move(0, 0), Move(2, 1))
    assert replay_schedule(CHAIN2, 3, w, sched) == (1, 1, 0, 1, 1)


def test_propagate_backward_worked_example():
    path = EdgePath(0, (0, 1), (2,))
    w = (1, 0, 0, 0, 0)
    sched = propagate_path(CHAIN2, 3, w, path, BACKWARD, end_vertex=4)
    assert replay_schedule(CHAIN2, 3, w, sched) == (0, 0, 0, 0, 1)


def test_propagate_single_edge_path():
    path = EdgePath(1, (0,), ())
    sched = propagate_path(CHAIN2, 3, (0, 2, 0, 0, 0), path, FORWARD)
    assert sched.moves == (Move(1, 0),)


def test_propagate_preconditions():
    path = EdgePath(0, (0, 1), (2,))
    with pytest.raises(HypothesisViolated):
        propagate_path(CHAIN2, 3, (0, 0, 0, 0, 0), path, FORWARD)  # no charge
    with pytest.raises(HypothesisViolated):
        propagate_path(CHAIN2, 3, (1, 1, 0, 0, 0), path, FORWARD)  # dirty
    with pytest.raises(ValueError):
        propagate_path(CHAIN2, 3, (1, 0, 0, 0, 0), path, FORWARD, end_vertex=4)
    with pytest.raises(ValueError):
        propagate_path(CHAIN2, 3, (1, 0, 0, 0, 0), path, BACKWARD)  # no end
    with pytest.raises(ValueError):
        # end_vertex must differ from the vertex entering the last edge
        propagate_path(CHAIN2, 3, (1, 0, 0, 0, 0), path, BACKWARD, end_vertex=2)


def test_propagate_longer_chains():
    G = make_hypergraph(9, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8)])
    path = EdgePath(1, (0, 1, 2, 3), (2, 4, 6))
    for p in (3, 5):
        w = (0, 2, 0, 0, 0, 0, 0, 0, 0)
        fwd = propagate_path(G, p, w, path, FORWARD)
        out = replay_schedule(G, p, w, fwd)
        assert out == (1, 1, 0, 1, 0, 1, 0, 1, 1)
        back = propagate_path(G, p, w, path, BACKWARD, end_vertex=8)
        assert replay_schedule(G, p, w, back) == (0, 1, 0, 0, 0, 0, 0, 0, 1)


# ------------------------------------------------------ single-edge synth


def test_single_edge_worked_examples():
    G = single_edge(4)
    sched = single_edge_schedule(G, 3, (1, 0, 0, 0), (0, 1, 1, 1))
    assert sched.moves == (Move(0, 0),)
    assert single_edge_schedule(G, 3, (2, 1, 0, 1), (2, 1, 0, 1)).moves == ()

    G5 = single_edge(5)
    sched = single_edge_schedule(G5, 3, (0, 2, 0, 2, 2), (2, 0, 1, 0, 0))
    assert replay_schedule(G5, 3, (0, 2, 0, 2, 2), sched) == (2, 0, 1, 0, 0)


def test_single_edge_exhaustive_vs_oracle():
    """Totality on the precondition domain, p=3, k in {3,4}: every pair
    either synthesizes and replays, or raises the matching negative."""
    for k in (3, 4):
        G = single_edge(k)
        for w1 in itertools.product(range(3), repeat=k):
            orbit = orbit_bfs(G, 3, w1)
            for w2 in itertools.product(range(3), repeat=k):
                reachable = w2 in orbit
                try:
                    sched = single_edge_schedule(G, 3, w1, w2)
                except (UnreachableTarget, Unsolvable):
                    assert not reachable, (w1, w2)
                    continue
                assert reachable, (w1, w2)
                assert replay_schedule(G, 3, w1, sched) == w2


def test_single_edge_p5_sampled():
    rng = random.Random(17)
    G = single_edge(4)
    for _ in range(150):
        w1 = tuple(rng.randrange(5) for _ in range(4))
        w2 = tuple(rng.randrange(5) for _ in range(4))
        reachable = oracle_reachable(G, 5, w1, w2)
        try:
            sched = single_edge_schedule(G, 5, w1, w2)
        except (UnreachableTarget, Unsolvable):
            assert not reachable
            continue
        assert reachable
        assert replay_schedule(G, 5, w1, sched) == w2


def _counts_both_ways(p: int, d: tuple[int, ...]):
    """Closed-form and eliminated minimum-norm counts for w1 - w2 = d
    (None where the move-counting system has no solution)."""
    zero = (0,) * len(d)
    try:
        closed = _single_edge_counts(p, d, zero)
    except Unsolvable:
        closed = None
    space = gaussian_solve(build_system(single_edge(len(d)), p, d, zero).system)
    return closed, list(system_norm(space)[1]) if space.solvable else None


def test_single_edge_counts_match_elimination():
    """Every difference vector with p^k <= 3125, then seeded samples where
    p divides k - 2 and the minimum is taken over all p totals."""
    for p in (3, 5, 7, 11, 13):
        for k in range(3, 8):
            if p**k > 3125:
                break
            for d in itertools.product(range(p), repeat=k):
                closed, eliminated = _counts_both_ways(p, d)
                assert closed == eliminated, (p, d)
    rng = random.Random(4242)
    for p, k in ((3, 8), (5, 7), (7, 9)):
        for i in range(300):
            d = [rng.randrange(p) for _ in range(k)]
            if i % 2 == 0:
                d[-1] = (d[-1] - sum(d)) % p  # solvable: the sum must vanish
            closed, eliminated = _counts_both_ways(p, tuple(d))
            assert closed == eliminated, (p, d)


def test_single_edge_rejects_wrong_shapes():
    with pytest.raises(ValueError):
        single_edge_schedule(CHAIN2, 3, (1,) * 5, (1,) * 5)
    with pytest.raises(ValueError):
        single_edge_schedule(make_hypergraph(2, [(0, 1)]), 3, (1, 1), (1, 1))


# ------------------------------------------------------------- full synth


def test_synthesize_requires_well_shaped():
    T = make_hypergraph(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(NotGood):
        synthesize_schedule(T, 3, (1, 1, 1), (0, 1, 2))


def test_synthesize_negative_cases():
    with pytest.raises(UnreachableTarget):
        synthesize_schedule(CHAIN2, 3, (0,) * 5, (1, 0, 0, 0, 0))
    with pytest.raises(UnreachableTarget):
        # saturated target is a garden of Eden even when the system solves
        synthesize_schedule(CHAIN2, 3, (1, 1, 0, 0, 0), (2,) * 5)
    with pytest.raises(Unsolvable):
        # single 5-edge conserves total charge mod 3
        synthesize_schedule(single_edge(5), 3, (1, 0, 0, 0, 0), (0, 1, 0, 0, 1))


def test_synthesize_two_edge_family_exhaustive_from_seed():
    """The worked two-edge family: every BFS-reachable target from a
    1-charge seed state synthesizes and replays."""
    w1 = (1, 0, 0, 0, 0)
    orbit = orbit_bfs(CHAIN2, 3, w1)
    for w2 in orbit.order:
        sched = synthesize_schedule(CHAIN2, 3, w1, w2)
        assert replay_schedule(CHAIN2, 3, w1, sched) == w2


def test_synthesize_sampled_instances_vs_oracle():
    rng = random.Random(1207)
    for _ in range(25):
        n = rng.randint(3, 7)
        m = rng.randint(1, max(1, (n - 1) // 2))
        G = gen_good_hypergraph(n, m, seed=rng.randrange(2**30))
        p = 3
        w1 = tuple(rng.randrange(p) for _ in range(n))
        if not any(w1):
            w1 = (1,) + w1[1:]
        orbit = orbit_bfs(G, p, w1)
        targets = rng.sample(orbit.order, min(8, len(orbit.order)))
        for w2 in targets:
            sched = synthesize_schedule(G, p, w1, w2)
            assert replay_schedule(G, p, w1, sched) == w2


def test_synthesize_larger_instances_no_give_up():
    """The population where the constructive descent used to stall:
    bigger charge-rich instances; every solvable pair must synthesize."""
    rng = random.Random(88)
    done = 0
    while done < 14:
        n = rng.randint(7, 9)
        m = rng.randint(2, (n - 1) // 2)
        G = gen_good_hypergraph(n, m, seed=rng.randrange(2**30))
        p = rng.choice((3, 5))
        w1 = tuple(rng.randrange(1, p) for _ in range(n))
        # a random combination of move effects is always solvable
        w2 = list(w1)
        for mv in rng.sample(all_moves(G), min(4, len(all_moves(G)))):
            for u in G.edges[mv.edge]:
                w2[u] = (w2[u] + 1) % p
            w2[mv.vertex] = (w2[mv.vertex] - 2) % p
        w2 = tuple(w2)
        try:
            sched = synthesize_schedule(G, p, w1, w2)
        except UnreachableTarget:
            continue  # w2 happened to be the saturated state
        assert replay_schedule(G, p, w1, sched) == w2
        done += 1


def unit_chain(m: int):
    """m 3-edges in a row, and one unit moving from one end to the other."""
    G = make_hypergraph(2 * m + 1, [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(m)])
    w1 = (1,) + (0,) * (2 * m)
    return G, w1, w1[::-1]


@pytest.mark.parametrize("p", (3, 5))
def test_synthesize_long_chain(p, monkeypatch):
    calls = 0

    def counting_apply_move(*args):
        nonlocal calls
        calls += 1
        return apply_move(*args)

    monkeypatch.setattr("zpwalk.synthesis.apply_move", counting_apply_move)
    G, w1, w2 = unit_chain(200)
    sched = synthesize_schedule(G, p, w1, w2)
    assert replay_schedule(G, p, w1, sched) == w2
    if p == 3:
        # schedule length must not regress: 12m - 9 moves on a unit chain
        assert len(sched) <= 12 * 200 - 9
    # each move is simulated once where it is built, not again at every
    # recursion level above it (the final replay goes through dynamics)
    assert calls <= 2 * len(sched)


def test_synthesize_too_deep_chain_is_incomplete():
    # the component recursion nests about three frames per edge, so 400
    # edges pass the default recursion limit of 1000
    G, w1, w2 = unit_chain(400)
    with pytest.raises(SynthesisIncomplete, match="recursion limit"):
        synthesize_schedule(G, 3, w1, w2)


def test_synthesize_transfer_from_settled_component():
    # Edge 0 holds no charge, so one unit walks over from vertex 3.  Its
    # component of G minus edge 0 starts settled and is live afterwards.
    G = make_hypergraph(8, [(0, 1, 2), (1, 5, 7), (3, 4, 5, 6)])
    w1 = (0, 0, 0, 2, 0, 0, 0, 0)
    w2 = (2, 0, 0, 2, 0, 0, 0, 0)
    sched = synthesize_schedule(G, 3, w1, w2)
    assert replay_schedule(G, 3, w1, sched) == w2
    assert len(sched) == 29


@st.composite
def reachable_pairs(draw):
    n = draw(st.integers(min_value=3, max_value=6))
    m = draw(st.integers(min_value=1, max_value=max(1, (n - 1) // 2)))
    G = gen_good_hypergraph(n, m, seed=draw(st.integers(0, 2**20)))
    p = draw(st.sampled_from((3, 5)))
    w1 = tuple(draw(st.integers(0, p - 1)) for _ in range(n))
    if not any(w1):
        w1 = (1,) + w1[1:]
    w = w1
    for _ in range(draw(st.integers(0, 6))):
        legal = [mv for mv in all_moves(G) if w[mv.vertex] != 0]
        if not legal:
            break
        w = apply_move(G, p, w, draw(st.sampled_from(legal)))
    return G, p, w1, w


@given(reachable_pairs())
@settings(max_examples=50, deadline=None)
def test_synthesized_schedules_replay(args):
    G, p, w1, w2 = args
    sched = synthesize_schedule(G, p, w1, w2)
    assert replay_schedule(G, p, w1, sched) == w2
