"""Schedule synthesis: gadgets and the full constructive pipeline.

Every schedule any of these produce must replay legally to the declared
endpoint -- the library re-checks that internally, and these tests check
it again from the outside, against BFS oracle ground truth where the
state space allows.
"""

import itertools
import json
import random
import re
import runpy
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from zpwalk import decision, hypergraph, synthesis
from zpwalk.cli import EXIT_MISMATCH, main
from zpwalk.decision import build_system
from zpwalk.dynamics import (
    Move,
    Schedule,
    all_moves,
    apply_move,
    orbit_bfs,
    replay_schedule,
)
from zpwalk.errors import (
    IllegalMove,
    InternalSynthesisFailure,
    NotGood,
    UnreachableTarget,
    Unsolvable,
    ZpwalkError,
)
from zpwalk.generate import gen_good_hypergraph
from zpwalk.hypergraph import format_hypergraph, make_hypergraph
from zpwalk.selftest import SelftestReport, _witness_schedule
from zpwalk.synthesis import (
    _Builder,
    _single_edge_counts,
    single_edge_schedule,
    synthesize_schedule,
)
from zpwalk.zp_algebra import gaussian_solve, system_norm

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

E4 = make_hypergraph(4, [(0, 1, 2, 3)])
CHAIN2 = make_hypergraph(5, [(0, 1, 2), (2, 3, 4)])


def single_edge(k: int):
    return make_hypergraph(k, [tuple(range(k))])


# ------------------------------------------------------- double-move trick


def trick(G, p, w, edge, a, b, direction):
    """The double-move trick's rounds from w, as a schedule."""
    builder = _Builder(G, p, w)
    builder.trick(edge, a, b, direction)
    return Schedule.from_columns(builder.vertices, builder.edges)


def refused_trick(G, p, w, edge, a, b, direction):
    """A trick on a bad anchor pair stops at its first illegal move, in
    the first round, before the second move is recorded."""
    builder = _Builder(G, p, w)
    with pytest.raises(IllegalMove):
        builder.trick(edge, a, b, direction)
    assert len(builder.vertices) <= 1


def test_trick_worked_examples():
    w = (1, 1, 0, 0)
    up = trick(E4, 3, w, 0, 0, 1, +1)
    assert up.moves == (Move(0, 0), Move(1, 0), Move(0, 0), Move(1, 0))
    assert replay_schedule(E4, 3, w, up) == (1, 1, 1, 1)

    down = trick(E4, 3, w, 0, 0, 1, -1)
    assert len(down.moves) == 2
    assert replay_schedule(E4, 3, w, down) == (1, 1, 2, 2)

    refused_trick(E4, 3, (0, 0, 1, 1), 0, 0, 1, +1)
    refused_trick(E4, 3, (2, 2, 1, 1), 0, 0, 1, +1)


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
                            if (va, vb) in ((0, 0), (p - 1, p - 1)):
                                refused_trick(G, p, w, 0, a, b, direction)
                                continue
                            sched = trick(G, p, w, 0, a, b, direction)
                            out = replay_schedule(G, p, w, sched)
                            expected = tuple(
                                w[u] if u in (a, b) else (w[u] + direction) % p
                                for u in range(k)
                            )
                            assert out == expected
                            assert {mv.vertex for mv in sched.moves} == {a, b}


# ---------------------------------------------------- moving back on one edge


def test_undo_one_move():
    w1 = (1, 0, 0, 0)
    w2 = apply_move(E4, 3, w1, Move(0, 0))
    assert w2 == (0, 1, 1, 1)
    back = single_edge_schedule(E4, 3, w2, w1)
    assert replay_schedule(E4, 3, w2, back) == w1


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
        back = single_edge_schedule(G, p, w, w1)
        assert replay_schedule(G, p, w, back) == w1


# ------------------------------------------- carrying charge along chains


def test_propagate_forward_worked_example():
    # one move per edge carries a unit over the connector
    w = (2, 0, 0, 0, 0)
    sched = synthesize_schedule(CHAIN2, 3, w, (1, 1, 0, 1, 1))
    assert replay_schedule(CHAIN2, 3, w, sched) == (1, 1, 0, 1, 1)


def test_propagate_backward_worked_example():
    w = (1, 0, 0, 0, 0)
    sched = synthesize_schedule(CHAIN2, 3, w, (0, 0, 0, 0, 1))
    assert replay_schedule(CHAIN2, 3, w, sched) == (0, 0, 0, 0, 1)


def test_propagate_single_edge_path():
    w = (0, 2, 0, 0, 0)
    sched = synthesize_schedule(CHAIN2, 3, w, (1, 1, 1, 0, 0))
    assert replay_schedule(CHAIN2, 3, w, sched) == (1, 1, 1, 0, 0)


def test_propagate_longer_chains():
    G = make_hypergraph(9, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8)])
    w = (0, 2, 0, 0, 0, 0, 0, 0, 0)
    for p in (3, 5):
        for w2 in ((1, 1, 0, 1, 0, 1, 0, 1, 1), (0, 1, 0, 0, 0, 0, 0, 0, 1)):
            sched = synthesize_schedule(G, p, w, w2)
            assert replay_schedule(G, p, w, sched) == w2


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
    """Totality on the precondition domain, p=3 with k in {3,4} and p=5
    with k=3: every pair either synthesizes and replays, or raises the
    matching negative."""
    for p, k in ((3, 3), (3, 4), (5, 3)):
        G = single_edge(k)
        for w1 in itertools.product(range(p), repeat=k):
            orbit = orbit_bfs(G, p, w1)
            for w2 in itertools.product(range(p), repeat=k):
                reachable = w2 in orbit
                try:
                    sched = single_edge_schedule(G, p, w1, w2)
                except (UnreachableTarget, Unsolvable):
                    assert not reachable, (p, w1, w2)
                    continue
                assert reachable, (p, w1, w2)
                assert replay_schedule(G, p, w1, sched) == w2


@pytest.mark.parametrize("p, w1, w2", [
    (3, (0, 0, 2), (1, 2, 0)),
    (5, (0, 0, 1), (1, 4, 2)),
])
def test_single_edge_emulated_move_is_one_bracket(p, w1, w2):
    # one move counted at the empty vertex 1: the other two lend it a
    # unit (trick -1), it moves, and they take the unit back (trick +1)
    assert _single_edge_counts(p, w1, w2) == [0, 1, 0]
    G = single_edge(3)
    sched = single_edge_schedule(G, p, w1, w2)
    assert replay_schedule(G, p, w1, sched) == w2
    assert len(sched) == 2 * p + 1


def test_single_edge_p5_sampled():
    rng = random.Random(17)
    G = single_edge(4)
    for _ in range(150):
        w1 = tuple(rng.randrange(5) for _ in range(4))
        w2 = tuple(rng.randrange(5) for _ in range(4))
        reachable = w2 in orbit_bfs(G, 5, w1)
        try:
            sched = single_edge_schedule(G, 5, w1, w2)
        except (UnreachableTarget, Unsolvable):
            assert not reachable
            continue
        assert reachable
        assert replay_schedule(G, 5, w1, sched) == w2


@pytest.mark.parametrize("p, w1, w2, length", [
    (5, (0, 3, 3), (3, 0, 0), 27),
    (5, (0, 3, 3, 3), (3, 0, 0, 0), 27),
    (7, (0, 5, 5), (5, 0, 0), 37),
])
def test_single_edge_mirrored_descent(p, w1, w2, length, monkeypatch):
    # [0 @ i0, p-2 elsewhere] with two moves left at i0 and p >= 5: the
    # descent solves the value-mirrored problem on a scratch builder and
    # emits its moves reversed
    descend = synthesis._on_edge
    descents = 0

    def spy(*args):
        nonlocal descents
        descents += 1
        descend(*args)

    monkeypatch.setattr(synthesis, "_on_edge", spy)
    G = single_edge(len(w1))
    sched = single_edge_schedule(G, p, w1, w2)
    assert replay_schedule(G, p, w1, sched) == w2
    assert descents == 2
    assert len(sched) == length


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


#: a construction's own fault on E5's one edge from (1, 0, 0, 0, 0), where
#: vertices 1 and 2 hold 0: a move at vertex 1, or rounds anchored at both
CONSTRUCTION_FAULTS = {
    "illegal_move": lambda b, edge, goal: b.emit(1, edge),
    "bad_anchor_pair": lambda b, edge, goal: b.trick(edge, 1, 2, +1),
}


@pytest.mark.parametrize("fault", sorted(CONSTRUCTION_FAULTS))
def test_a_construction_fault_is_an_internal_failure(fault, monkeypatch, tmp_path, capsys):
    """Past the pair check, any deliberate error is synthesis's own bug:
    InternalSynthesisFailure, exit 4 in the CLI, a divergence in selftest."""
    monkeypatch.setattr(synthesis, "_on_edge", CONSTRUCTION_FAULTS[fault])
    G, w1, w2 = single_edge(5), (1, 0, 0, 0, 0), (0, 1, 1, 1, 1)
    with pytest.raises(InternalSynthesisFailure, match="a phase checked valid was refused"):
        synthesize_schedule(G, 3, w1, w2)
    # single_edge_schedule sends the edge alone through the same boundary,
    # renumbered: here vertex 0 of G is off it and position i is vertex i + 1
    with pytest.raises(InternalSynthesisFailure, match="a phase checked valid was refused"):
        single_edge_schedule(make_hypergraph(6, [(1, 2, 3, 4, 5)]), 3, (2, *w1), (2, *w2))
    path = tmp_path / "e5.hg"
    path.write_text(format_hypergraph(3, G))
    pair = ["--from", "1,0,0,0,0", "--to", "0,1,1,1,1"]
    for argv in (["schedule", str(path), *pair],
                 ["reach", str(path), *pair, "--witness", "--mode", "algebraic"]):
        assert main(argv) == EXIT_MISMATCH
        assert "error (InternalSynthesisFailure)" in capsys.readouterr().err
    report = SelftestReport()
    assert not _witness_schedule(G, 3, w1, w2, report)
    assert len(report.divergences) == 1 and "a phase checked valid" in report.divergences[0]


def test_an_internal_failure_passes_the_boundary_unwrapped(monkeypatch, tmp_path, capsys):
    """synthesize_schedule re-raises the constructions' own
    InternalSynthesisFailure as it is; the CLI reports it as exit 4."""
    def misread(b, edge, goal):
        raise InternalSynthesisFailure("descent misread a blocked state")

    monkeypatch.setattr(synthesis, "_on_edge", misread)
    G, w1, w2 = single_edge(5), (1, 0, 0, 0, 0), (0, 1, 1, 1, 1)
    for synth in (synthesize_schedule, single_edge_schedule):
        with pytest.raises(InternalSynthesisFailure) as err:
            synth(G, 3, w1, w2)
        assert str(err.value) == "descent misread a blocked state"
    path = tmp_path / "e5.hg"
    path.write_text(format_hypergraph(3, G))
    assert main(["schedule", str(path), "--from", "1,0,0,0,0", "--to", "0,1,1,1,1"]) == EXIT_MISMATCH
    err = capsys.readouterr().err
    assert "error (InternalSynthesisFailure): descent misread a blocked state" in err


class _MisrecordingBuilder(_Builder):
    """Steps each move, then records it on CHAIN2's other edge."""

    def emit(self, v, edge):
        super().emit(v, edge)
        self.edges[-1] = 1 - edge


def test_a_schedule_failing_the_final_replay_is_an_internal_failure(
        monkeypatch, tmp_path, capsys):
    """The final replay sits inside the fault boundary: a recorded move
    the builder did not step is InternalSynthesisFailure, exit 4 in the
    CLI and a divergence in selftest, not an IllegalMove (exit 1)."""
    monkeypatch.setattr(synthesis, "_Builder", _MisrecordingBuilder)
    w1, w2 = (1, 0, 0, 0, 0), (0, 0, 0, 0, 1)
    with pytest.raises(InternalSynthesisFailure,
                       match=r"fails replay: step 0: vertex 0 not in edge 1 "):
        synthesize_schedule(CHAIN2, 3, w1, w2)
    path = tmp_path / "chain2.hg"
    path.write_text(format_hypergraph(3, CHAIN2))
    pair = ["--from", "1,0,0,0,0", "--to", "0,0,0,0,1"]
    for argv in (["schedule", str(path), *pair],
                 ["reach", str(path), *pair, "--witness", "--mode", "algebraic"]):
        assert main(argv) == EXIT_MISMATCH
        assert "error (InternalSynthesisFailure)" in capsys.readouterr().err
    report = SelftestReport()
    assert not _witness_schedule(CHAIN2, 3, w1, w2, report)
    assert len(report.divergences) == 1 and "fails replay" in report.divergences[0]


@pytest.mark.parametrize("p, k", [(3, 3), (3, 4), (5, 3), (5, 4)])
def test_on_edge_never_settles_an_unreachable_phase(p, k):
    """_on_edge trusts its caller to have proven the phase reachable; a
    zero source or a saturated goal handed to it anyway still raises."""
    G = single_edge(k)
    phases = 0
    for w1 in itertools.product(range(p), repeat=k):
        for w2 in itertools.product(range(p), repeat=k):
            if w1 == w2 or (any(w1) and any(x != p - 1 for x in w2)):
                continue
            b = _Builder(G, p, w1)
            with pytest.raises(InternalSynthesisFailure):
                synthesis._on_edge(b, 0, w2)
            phases += 1
    assert phases == 2 * (p**k - 1) - 1


@pytest.mark.parametrize("p, k", [(3, 3), (3, 4), (5, 3), (5, 4)])
def test_on_edge_at_its_goal_neither_moves_nor_counts(p, k, monkeypatch):
    counted = 0

    def spy(*args):
        nonlocal counted
        counted += 1
        return _single_edge_counts(*args)

    monkeypatch.setattr(synthesis, "_single_edge_counts", spy)
    for w in itertools.product(range(p), repeat=k):
        b = _Builder(single_edge(k), p, w)
        synthesis._on_edge(b, 0, w)
        assert b.vertices == b.edges == [] and b.state == list(w)
    assert counted == 0


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


def _stepped_moves(monkeypatch) -> list[tuple[int, int]]:
    """Every move a _Builder steps, (vertex, edge), recorded by a spy on _Builder.emit."""
    stepped = []
    emit = _Builder.emit

    def spy(self, v, edge):
        stepped.append((v, edge))
        emit(self, v, edge)

    monkeypatch.setattr(_Builder, "emit", spy)
    return stepped


@pytest.mark.parametrize("p", (3, 5))
def test_synthesize_long_chain(p, monkeypatch):
    stepped = _stepped_moves(monkeypatch)
    G, w1, w2 = unit_chain(200)
    sched = synthesize_schedule(G, p, w1, w2)
    assert replay_schedule(G, p, w1, sched) == w2
    # schedule length must not regress: the walk out and about two moves
    # per edge back at p = 3, four at p = 5
    assert len(sched) <= p * 200
    # each move is simulated once where it is built (the final replay
    # goes through dynamics)
    assert len(stepped) == len(sched)


def test_synthesis_builds_no_move_objects(monkeypatch):
    """A schedule is built as two int columns; its Moves are made only
    when it is iterated."""
    built = []
    init = Move.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Move, "__init__", counted)
    assert Move(0, 0) == Move(0, 0) and len(built) == 2  # the spy sees a Move built
    built.clear()
    G, w1, w2 = unit_chain(60)
    sched = synthesize_schedule(G, 3, w1, w2)
    assert built == []
    assert len(sched.moves) == len(built) == len(sched) > 0


def test_synthesize_simulates_each_move_once(monkeypatch):
    calls = {"replay_schedule": 0, "_build_structure": 0, "_closed_form_solution": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    stepped = _stepped_moves(monkeypatch)
    monkeypatch.setattr("zpwalk.synthesis.replay_schedule",
                        counted("replay_schedule", replay_schedule))
    monkeypatch.setattr("zpwalk.hypergraph._build_structure",
                        counted("_build_structure", hypergraph._build_structure))
    monkeypatch.setattr("zpwalk.decision._closed_form_solution",
                        counted("_closed_form_solution", decision._closed_form_solution))
    G, w1, w2 = unit_chain(200)
    sched = synthesize_schedule(G, 3, w1, w2)
    # one replay, the final end-to-end check: no construction replays
    # its own moves to check them
    assert calls["replay_schedule"] == 1
    # one simulation per scheduled move (the single-edge descent tests its
    # moves in closed form)
    assert len(stepped) == len(sched)
    # G's own search and its one solvability check: no piece of G is
    # built as a hypergraph of its own
    assert calls["_build_structure"] == 1
    assert calls["_closed_form_solution"] == 1


def _piece(G, vertices, edges):
    """The sub-hypergraph of G on vertices and edges, renumbered from 0."""
    index = {v: i for i, v in enumerate(vertices)}
    return make_hypergraph(len(vertices), [[index[v] for v in G.edges[i]] for i in edges])


def test_nested_pieces_are_balance_solvable(monkeypatch):
    # synthesize_schedule checks solvability once; on the whole synthesis
    # digest family, every level's pre-phase on its edge, the level below
    # and the post-phase must each be empty or an algebraic yes
    digest = runpy.run_path(str(SCRIPTS / "synthesis_digest.py"))
    on_edge = synthesis._on_edge
    calls = []

    def spy(b, edge, target):
        before = tuple(b.state)
        on_edge(b, edge, target)
        calls.append((edge, before, tuple(b.state)))

    monkeypatch.setattr(synthesis, "_on_edge", spy)
    checked = 0
    for synth, G, p, w1, w2 in digest["cases"](random.Random(1)):
        if synth is not synthesize_schedule or G.m == 1:
            continue
        calls.clear()
        try:
            synth(G, p, w1, w2)
        except ZpwalkError:
            continue
        kept = synthesis._peel_order(G, p)
        levels = len(kept) - 1
        # pre-phases outermost first, the root, post-phases innermost first
        assert len(calls) == (2 * levels + 1 if w1 != w2 else 0)
        for r in range(1, levels + 1 if calls else 1):
            l, before, after = calls[levels - r]
            post_l, settled, done = calls[levels + r]
            assert l == post_l == kept[r][0]
            below = sorted({v for i, _ in kept[:r] for v in G.edges[i]})
            for H, vertices, src, dst in (
                (_piece(G, G.edges[l], [l]), G.edges[l], before, after),
                (_piece(G, below, [i for i, _ in kept[:r]]), below, after, settled),
                (_piece(G, G.edges[l], [l]), G.edges[l], settled, done),
            ):
                src = tuple(src[v] for v in vertices)
                dst = tuple(dst[v] for v in vertices)
                if src != dst:
                    checked += 1
                    assert decision.decide_reachability(H, p, src, dst, mode="algebraic").answer
    assert checked >= 500


@pytest.mark.parametrize("p", (3, 5))
def test_synthesize_ten_thousand_edge_chain(p):
    # one loop over one edge order: no recursion limit to reach, and no
    # search budget to run out of (synthesize_schedule replays the result);
    # the walk out and back costs p moves per edge
    G, w1, w2 = unit_chain(10_000)
    assert len(synthesize_schedule(G, p, w1, w2)) == p * 10_000


def test_synthesize_transfer_from_settled_component():
    # Only edge 2 holds charge, so the level below it starts empty: edge
    # 2's pre-phase hands a unit to the shared vertex 5, which the rest of
    # the instance draws on to fill the root edge.
    G = make_hypergraph(8, [(0, 1, 2), (1, 5, 7), (3, 4, 5, 6)])
    w1 = (0, 0, 0, 2, 0, 0, 0, 0)
    w2 = (2, 0, 0, 2, 0, 0, 0, 0)
    sched = synthesize_schedule(G, 3, w1, w2)
    assert replay_schedule(G, 3, w1, sched) == w2
    assert len(sched) == 23


def _synthesis_matches_the_rule(G, p, pairs) -> int:
    """Each pair the algebraic rule accepts gets a schedule that replays;
    each pair it refuses is refused as unreachable.  Returns the schedules."""
    scheduled = 0
    for w1, w2 in pairs:
        if decision.decide_reachability(G, p, w1, w2, mode="algebraic").answer:
            sched = synthesize_schedule(G, p, w1, w2)
            assert replay_schedule(G, p, w1, sched) == w2
            scheduled += 1
        else:
            with pytest.raises((Unsolvable, UnreachableTarget)):
                synthesize_schedule(G, p, w1, w2)
    return scheduled


def _walk_counter(monkeypatch) -> list:
    walks = []
    walk = synthesis._walk

    def counted(*args):
        walks.append(walk(*args))
        return walks[-1]

    monkeypatch.setattr(synthesis, "_walk", counted)
    return walks


def test_two_edge_chain_all_pairs_match_the_rule(monkeypatch):
    walks = _walk_counter(monkeypatch)
    states = list(itertools.product(range(3), repeat=5))
    assert _synthesis_matches_the_rule(CHAIN2, 3, itertools.product(states, states)) == 58566
    assert walks


# Shapes the peel order creates: S with two vertices (triangle), a
# sum-invariant 5-edge (|e| = 2 mod 3) as root's partner or as leaf, p = 5,
# and D = (1, 5, 9), the only lever, which a search from vertex 0 meets
# last with no new vertex: rooting anywhere but at the lever would drop it
# and make every pair look sum-invariant.
PEEL_SHAPES = {
    "triangle": (make_hypergraph(6, [(0, 1, 2), (2, 3, 4), (0, 4, 5)]), 3),
    "lever-root": (make_hypergraph(13, [(0, 1, 2, 3, 4), (0, 5, 6, 7, 8),
                                        (0, 9, 10, 11, 12), (1, 5, 9)]), 3),
    "5-edge-then-leaf": (make_hypergraph(7, [(0, 1, 2, 3, 4), (4, 5, 6)]), 3),
    "leaf-then-5-edge": (make_hypergraph(7, [(0, 1, 2), (2, 3, 4, 5, 6)]), 3),
    "chain-p5": (CHAIN2, 5),
}


@pytest.mark.parametrize("name", PEEL_SHAPES)
def test_peel_shapes_match_the_rule(name, monkeypatch):
    G, p = PEEL_SHAPES[name]
    kept = synthesis._peel_order(G, p)
    assert len(kept) == G.m
    peeled = G.edges[kept[-1][0]]
    rng = random.Random(name)
    pairs = []
    for i in range(400):
        w1 = [rng.randrange(p) for _ in range(G.n)]
        w2 = [rng.randrange(p) for _ in range(G.n)]
        # a zero source and a saturated target on the outermost edge, so
        # that both walks run
        for v in peeled:
            if i % 4 in (1, 3):
                w1[v] = 0
            if i % 4 in (2, 3):
                w2[v] = p - 1
        pairs.append((tuple(w1), tuple(w2)))
    walks = _walk_counter(monkeypatch)
    assert _synthesis_matches_the_rule(G, p, pairs) >= 350
    assert len(walks) >= 200


def test_peel_order_roots_at_the_lever():
    G, p = PEEL_SHAPES["lever-root"]
    assert [i for i, _ in synthesis._peel_order(G, p)] == [3, 0, 1, 2]


def test_peel_plan_is_kept_per_modulus(monkeypatch):
    # every 5-edge is a lever at p = 5, so there the search roots at edge 0
    # and drops edge 3: a plan kept without its modulus would be wrong.
    # A copy of the shape, since other tests plan on the shared one.
    shape, _ = PEEL_SHAPES["lever-root"]
    G = hypergraph.Hypergraph(shape.n, shape.edges)
    assert [i for i, _ in synthesis._peel_order(G, 5)] == [0, 1, 2]
    searched = []
    peel_order = synthesis._peel_order

    def spy(H, p):
        searched.append((H, p))
        return peel_order(H, p)

    monkeypatch.setattr(synthesis, "_peel_order", spy)
    rng = random.Random("per-modulus")
    for p in (3, 5, 3):
        w1 = w2 = (1,) + tuple(rng.randrange(p) for _ in range(G.n - 1))
        while w2 == w1:
            for _ in range(30):
                w2 = apply_move(G, p, w2, rng.choice([mv for mv in all_moves(G)
                                                      if w2[mv.vertex] != 0]))
        sched = synthesize_schedule(G, p, w1, w2)
        assert sched == synthesize_schedule(hypergraph.Hypergraph(G.n, G.edges), p, w1, w2)
    # the edge search ran once per modulus on G, not again for the repeat
    assert [p for H, p in searched if H is G] == [3, 5]


def test_peel_plan_levels_keep_their_mask_constants():
    # every constant a level stores is what its private mask gives, on
    # the peel shapes and a seeded generated family, each modulus planned
    # on a fresh copy of G
    rng = random.Random("level-constants")
    shapes = [G for G, _ in PEEL_SHAPES.values()]
    shapes += [gen_good_hypergraph(n, (n - 1) // 2 - rng.randrange(2), seed=rng.randrange(2**32))
               for n in (7, 11, 15, 21, 31) for _ in range(4)]
    levels_checked = 0
    for G in shapes:
        for p in (3, 5, 7):
            H = hypergraph.Hypergraph(G.n, G.edges)
            rank, levels = synthesis._peel_plan(H, p)
            kept = synthesis._peel_order(H, p)
            assert len(levels) == len(kept)
            for r, ((l, private), level) in enumerate(zip(kept, levels)):
                e = G.edges[l]
                spos = tuple(i for i, new in enumerate(private) if not new)
                assert rank[l] == r
                assert level == (l, e, tuple(e[i] for i in spos), (len(e) - 2) % p != 0,
                                 sum(private), private.index(False) if r else None,
                                 private.index(True), spos, tuple(int(new) for new in private))
                levels_checked += 1
    assert levels_checked > 400


def test_schedule_lengths_script_smoke(capsys):
    main = runpy.run_path(str(SCRIPTS / "schedule_lengths.py"))["main"]
    assert main(["--instances", "2", "--pairs", "3"]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert re.fullmatch(r"2 instances, \d+ schedule pairs; overall mean overhead "
                        r"\d+\.\d\dx, worst \d+\.\dx", summary), summary


@pytest.mark.parametrize("argv", [["-i", "0"], ["--pairs", "0"]])
def test_schedule_lengths_refuses_an_empty_run(argv, capsys):
    main = runpy.run_path(str(SCRIPTS / "schedule_lengths.py"))["main"]
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    assert "--instances and --pairs must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--repeats", "0"], ["--sizes", "2"], ["--sizes", "3"],
                                  ["--sizes", "10,3"]])
def test_text_to_answer_ladder_refuses_rungs_it_cannot_build(argv, tmp_path, monkeypatch,
                                                             capsys):
    ladder = runpy.run_path(str(SCRIPTS / "text_to_answer_ladder.py"))
    monkeypatch.setitem(ladder["main"].__globals__, "OUT", tmp_path / "out.json")
    with pytest.raises(SystemExit) as stop:
        ladder["main"](argv)
    assert stop.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--repeats must be at least 1 and every size at least 4" in out.err


def test_text_to_answer_ladder_times_the_schedule(tmp_path, monkeypatch, capsys):
    ladder = runpy.run_path(str(SCRIPTS / "text_to_answer_ladder.py"))
    scope = ladder["main"].__globals__
    monkeypatch.setitem(scope, "OUT", tmp_path / "BENCH_text_to_answer.json")
    assert ladder["main"](["--sizes", "301", "--repeats", "2"]) == 0
    bench = json.loads((tmp_path / "BENCH_text_to_answer.json").read_text())
    assert (bench["seed"], bench["sizes"], bench["repeats"]) == (1, [301], 2)
    assert [row["kind"] for row in bench["rows"]] == ["chain", "gen"]
    assert [json.loads(line) for line in capsys.readouterr().out.splitlines()] == bench["rows"]
    for row in bench["rows"]:
        # the schedule stage is timed exactly when the rung's pair is reachable
        assert row["answer"] is (row["schedule_s"] is not None) is (row["moves"] is not None)
        # and its text is parsed and replayed exactly when it is built
        assert (row["verify_s"] is not None) is (row["schedule_s"] is not None)
    assert any(row["answer"] for row in bench["rows"])


def test_completeness_tiers_need_no_give_up():
    # the n = 41, m = 15 tiers of scripts/synthesis_completeness.py
    script = runpy.run_path(str(SCRIPTS / "synthesis_completeness.py"))
    for line in script["tier_lines"](1, ("n41-charge3", "n41-dense")):
        assert line["failed"] == 0
        assert line["schedules"] == line["pairs"] == 20


def test_completeness_tier_tallies_a_failure_and_goes_on(monkeypatch):
    """A synthesis failure on one pair is counted, not raised out of the tier."""
    script = runpy.run_path(str(SCRIPTS / "synthesis_completeness.py"))
    calls = []

    def fail_second(G, p, w1, w2):
        calls.append(w1)
        if len(calls) == 2:
            raise InternalSynthesisFailure("a phase checked valid was refused")
        return synthesize_schedule(G, p, w1, w2)

    monkeypatch.setitem(script["run_tier"].__globals__, "synthesize_schedule", fail_second)
    [line] = script["tier_lines"](1, ("n41-charge3",))
    assert line["failed"] == 1
    assert line["schedules"] == line["pairs"] - 1 == 19


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
