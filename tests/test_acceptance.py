"""Acceptance suite: the six headline claims, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the explicit
ACCEPTANCE n: PASS/FAIL lines alongside pytest's own verdicts.  The
heavyweight sweeps (criteria 2, 3, 5) share one full self-verification
run via a module-scoped fixture; everything else is computed in place.
"""

import functools
import itertools
import random
import time

import pytest

from zpwalk.decision import StateClass, build_system, classify_state
from zpwalk.dynamics import (
    Schedule,
    all_moves,
    apply_move,
    has_predecessor,
    oracle_recurrent,
    orbit_bfs,
    replay_schedule,
)
from zpwalk.generate import gen_good_hypergraph
from zpwalk.hypergraph import make_hypergraph, parse_hypergraph
from zpwalk.selftest import iter_small_good_hypergraphs, run_selftest
from zpwalk.synthesis import _Builder, single_edge_schedule, synthesize_schedule
from zpwalk.zp_algebra import (
    condense,
    enumerate_digraph,
    enumerate_solutions,
    gaussian_solve,
)


def criterion(num: int, label: str):
    """Emit exactly one ACCEPTANCE verdict line per criterion."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as err:
                print(f"\nACCEPTANCE {num} ({label}): FAIL -- {type(err).__name__}")
                raise
            tail = f" -- {detail}" if detail else ""
            print(f"\nACCEPTANCE {num} ({label}): PASS{tail}")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def sweep_report():
    """One full self-verification run, shared by criteria 2, 3 and 5.

    Covers: every well-shaped instance with n <= 6, m <= 2 at p in
    {3, 5}, checked exhaustively against its fully enumerated state
    digraph; 200 seeded random instances with n <= 10, m <= 4; schedule
    synthesis with external replay on every positive pair; the
    irregular-triangle necessity sweep.
    """
    return run_selftest()


# --------------------------------------------------------------------- 1


@criterion(1, "triangle counterexample pinned")
def test_criterion_1_triangle_counterexample():
    started = time.perf_counter()
    with open("data/triangle.hg", encoding="utf-8") as fh:
        p, G = parse_hypergraph(fh.read())
    assert p == 3
    assert G.edges == ((0, 1), (0, 2), (1, 2))
    w1, w2 = (1, 1, 1), (2, 2, 2)

    # (i) the balance system is solvable and accepts the known solution:
    # two moves on the first edge's second vertex, two on the second
    # edge's third vertex
    reach = build_system(G, p, w1, w2)
    assert reach.variables == ((0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2))
    space = gaussian_solve(reach.system)
    assert space.solvable
    displayed = (0, 2, 0, 2, 0, 0)
    for row, b in zip(reach.system.rows, reach.system.rhs):
        assert sum(a * x for a, x in zip(row, displayed)) % p == b

    # (ii) yet the pair is unreachable by actual walks
    orbit = orbit_bfs(G, p, w1)
    assert w2 not in orbit

    # (iii) the orbit of [1,1,1] is exactly these 8 states
    expected = {(1, 1, 1), (0, 0, 0)} | set(itertools.permutations((0, 1, 2)))
    assert set(orbit.order) == expected
    assert len(orbit) == 8

    # (iv) the saturated state has no predecessor
    assert has_predecessor(G, p, w2) is False

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    return f"solvable-yet-unreachable pair, orbit of 8, no predecessor; {elapsed:.3f}s"


# --------------------------------------------------------------------- 2


@criterion(2, "fast reachability == search, desk scale")
def test_criterion_2_reachability_equivalence(sweep_report):
    r = sweep_report
    assert r.divergences == []
    # family (a): all 79 well-shaped instances with n <= 6, m <= 2, at
    # both primes, verified over the WHOLE state digraph (structural
    # sweep), plus whatever generated instances also fit the budget
    assert r.structural_instances >= 158
    small_family_states = sum(
        3**G.n + 5**G.n for G in iter_small_good_hypergraphs(6)
    )
    assert r.structural_states >= small_family_states
    # family (b): 200 seeded random instances up to n=10, m=4, each with
    # >= 50 sampled source/target pairs decided both ways
    assert r.generated_instances >= 200
    assert r.sampled_instances > 0  # the ones too big to enumerate fully
    assert r.reach_pairs >= 200 * 50
    assert r.oracle_cross_checks > 0
    assert r.elapsed_seconds < 300.0
    return (
        f"{r.structural_instances} exhaustive + {r.sampled_instances} sampled "
        f"instance/prime combos, {r.reach_pairs} pairs, 0 divergences, "
        f"{r.elapsed_seconds:.1f}s"
    )


# --------------------------------------------------------------------- 3


@criterion(3, "fast recurrence == double search")
def test_criterion_3_recurrence_equivalence(sweep_report):
    r = sweep_report
    assert r.divergences == []
    assert r.recur_pairs >= 1000
    assert r.classify_checks >= 1000
    return f"{r.recur_pairs} recurrence pairs, {r.classify_checks} classifications, 0 divergences"


def test_sweep_tallies_are_pinned(sweep_report):
    """Every count of the default sweep (seed 20260819), pinned.

    The sweep is seeded, so a change that keeps the behaviour of the
    decision layer, the oracles and synthesis keeps each count.  A
    change meant to alter synthesis updates these values and says why:
    the schedule sweep draws sample pairs until enough schedules were
    replayed, so a schedule that synthesis now finds or now gives up on
    moves the random stream of everything sampled after it.
    """
    counts = {name: value for name, value in vars(sweep_report).items()
              if name not in ("elapsed_seconds", "divergences")}
    assert counts == dict(
        structural_instances=305,
        structural_states=1527267,
        sampled_instances=53,
        reach_pairs=22833,
        recur_pairs=1852,
        classify_checks=2135,
        oracle_cross_checks=1764,
        schedules_replayed=21596,
        generated_instances=200,
        witness_positive=782,
        certified_negative=418,
        synthesis_incomplete=0,
        nongood_pairs_checked=729,
        nongood_solvable_unreachable=51,
    )


# --------------------------------------------------------------------- 4


def closed_form_solutions(p: int, k: int, c: tuple[int, ...]):
    """Solutions of the one-edge balance system with rhs c, in closed form.

    Row i reads 2*x_i - sum(x) = c_i.  Summing rows: (2-k)*sum(x) = sum(c),
    so when p does not divide k-2 the total is forced and the solution
    unique; when p divides k-2 the system is solvable iff sum(c) = 0,
    with one free total.
    """
    half = pow(2, -1, p)
    if (k - 2) % p != 0:
        total = (pow(2 - k, -1, p) * sum(c)) % p
        return [tuple((half * (ci + total)) % p for ci in c)]
    if sum(c) % p != 0:
        return []
    return [
        tuple((half * (ci + lam)) % p for ci in c)
        for lam in range(p)
    ]


@criterion(4, "single-edge closed forms == gaussian")
def test_criterion_4_closed_forms():
    rng = random.Random(40440)
    pairs_checked = 0
    for p in (3, 5):
        for k in (3, 4, 5):
            G = make_hypergraph(k, [tuple(range(k))])
            # the system depends on (w1, w2) only through w1 - w2, so a
            # sweep over all differences is exhaustive over all pairs;
            # spot-check that factoring on real pairs as we go
            for c in itertools.product(range(p), repeat=k):
                reach = build_system(G, p, c, (0,) * k)
                assert reach.system.rhs == c
                space = gaussian_solve(reach.system)
                expected = closed_form_solutions(p, k, c)
                assert space.solvable == bool(expected)
                assert space.count == len(expected)
                if expected:
                    assert set(enumerate_solutions(space)) == set(expected)
                    for x in expected:
                        for row, b in zip(reach.system.rows, reach.system.rhs):
                            assert sum(a * v for a, v in zip(row, x)) % p == b
                pairs_checked += 1
            for _ in range(25):
                w1 = tuple(rng.randrange(p) for _ in range(k))
                w2 = tuple(rng.randrange(p) for _ in range(k))
                diff = tuple((a - b) % p for a, b in zip(w1, w2))
                assert build_system(G, p, w1, w2).system.rhs == diff
    return f"{pairs_checked} difference classes over p in {{3,5}}, k in {{3,4,5}}"


# --------------------------------------------------------------------- 5


@criterion(5, "every schedule replays; no synthesis give-ups")
def test_criterion_5_schedule_soundness(sweep_report):
    r = sweep_report
    # the big sweep: every schedule any layer produced was replay-checked
    # externally, and a give-up on any pair the rule accepts is a divergence
    assert r.schedules_replayed >= 10_000
    assert r.divergences == []

    # the three producers once more, compactly, from cold
    replayed = 0
    rng = random.Random(50550)

    G4 = make_hypergraph(4, [(0, 1, 2, 3)])
    for p in (3, 5):
        for a in range(p):
            for b in range(p):
                if (a, b) in ((0, 0), (p - 1, p - 1)):
                    continue
                w = (a, b, rng.randrange(p), rng.randrange(p))
                for direction in (+1, -1):
                    builder = _Builder(G4, p, w)
                    builder.trick(0, 0, 1, direction)
                    out = replay_schedule(
                        G4, p, w, Schedule.from_columns(builder.vertices, builder.edges))
                    assert out == tuple(
                        w[u] if u < 2 else (w[u] + direction) % p for u in range(4)
                    )
                    replayed += 1

    # one unit carried along a chain: spread over it, or to its far end
    CHAIN = make_hypergraph(7, [(0, 1, 2), (2, 3, 4), (4, 5, 6)])
    for p in (3, 5):
        w = (1,) + (0,) * 6
        for w2 in ((0, 1, 0, 1, 0, 1, 1), (0,) * 6 + (1,)):
            sched = synthesize_schedule(CHAIN, p, w, w2)
            assert replay_schedule(CHAIN, p, w, sched) == w2
            replayed += 1

    for _ in range(40):
        p = rng.choice((3, 5))
        w1 = tuple(rng.randrange(p) for _ in range(4))
        if w1 == (p - 1,) * 4:
            continue
        w = w1
        for _ in range(rng.randint(1, 5)):
            legal = [mv for mv in all_moves(G4) if w[mv.vertex] != 0]
            if not legal:
                break
            w = apply_move(G4, p, w, rng.choice(legal))
        if w == w1 or not any(w):
            continue
        sched = single_edge_schedule(G4, p, w, w1)
        assert replay_schedule(G4, p, w, sched) == w1
        replayed += 1

    G5 = make_hypergraph(5, [(0, 1, 2, 3, 4)])
    w1 = (1, 0, 2, 0, 1)
    for w2 in orbit_bfs(G5, 3, w1).order[:60]:
        sched = single_edge_schedule(G5, 3, w1, w2)
        assert replay_schedule(G5, 3, w1, sched) == w2
        replayed += 1

    for seed in range(8):
        G = gen_good_hypergraph(7, 3, seed=seed)
        w1 = tuple(rng.randrange(1, 3) for _ in range(7))
        orbit = orbit_bfs(G, 3, w1)
        for w2 in rng.sample(orbit.order, 6):
            sched = synthesize_schedule(G, 3, w1, w2)
            assert replay_schedule(G, 3, w1, sched) == w2
            replayed += 1

    return (
        f"{r.schedules_replayed} sweep schedules + {replayed} cold-start "
        f"schedules replayed, {len(r.divergences)} divergences"
    )


# --------------------------------------------------------------------- 6


@criterion(6, "transient iff charged and zero-sum (degenerate edge sizes)")
def test_criterion_6_classification_closed_form():
    checked = 0
    for p, k in ((3, 5), (3, 8), (5, 7)):
        assert (k - 2) % p == 0
        G = make_hypergraph(k, [tuple(range(k))])
        states, index, succ = enumerate_digraph(G, p)
        comp, reach = condense(succ)
        produced = {j for outs in succ for j in outs}
        # ground truth, straight from the full digraph: transient means
        # some walk enters w and some walk leaves its strongly connected
        # component for good
        closed = [reach[c] == 1 << c for c in comp]
        rng = random.Random(p * 1000 + k)
        for i, w in enumerate(states):
            truth_transient = i in produced and not closed[i]
            formula_transient = sum(w) % p == 0 and any(w)
            got = classify_state(G, p, w, mode="algebraic")
            assert (got is StateClass.TRANSIENT) == truth_transient, (p, k, w)
            assert formula_transient == truth_transient, (p, k, w)
            checked += 1
        # tie the digraph ground truth back to the plain search oracle
        for w in rng.sample(states, 25):
            i = index[w]
            assert oracle_recurrent(G, p, w, w) == closed[i]
    return f"{checked} states across (p,k) in {{(3,5),(3,8),(5,7)}}"
