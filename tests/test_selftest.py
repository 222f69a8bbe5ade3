"""Plumbing of the self-verification module (the sweeps themselves are
exercised for real by the acceptance suite)."""

import dataclasses
import functools
import random
import re

import pytest

from zpwalk import decision, dynamics, selftest
from zpwalk.decision import Certificate, Decision, StateClass, build_system
from zpwalk.dynamics import Schedule
from zpwalk.errors import InternalSynthesisFailure, Unsolvable
from zpwalk.hypergraph import Hypergraph, is_good
from zpwalk.selftest import (
    SelftestReport,
    _nongood_sweep,
    _structural_sweep,
    iter_small_good_hypergraphs,
    run_selftest,
)
from zpwalk.zp_algebra import (
    condense,
    conserved_functionals,
    enumerate_digraph,
    gaussian_solve,
    recurrent,
)


def test_small_family_enumeration():
    family = list(iter_small_good_hypergraphs(6))
    # every well-shaped instance with n <= 6, m <= 2, up to edge relabeling
    assert len(family) == 79
    assert len(set(family)) == 79
    for G in family:
        assert 3 <= G.n <= 6 and 1 <= G.m <= 2
        assert is_good(G).good
    # the family grows monotonically with the cutoff
    assert len(list(iter_small_good_hypergraphs(5))) < 79


def test_report_ok_is_divergence_driven():
    report = SelftestReport()
    assert report.ok
    report.schedules_replayed = 3  # tallies alone never fail a run
    assert report.ok
    report.divergences.append("synthesis for (1, 0, 0) -> (0, 1, 1) failed: gave up")
    assert not report.ok
    assert "DIVERGENCES (1)" in report.summary()


def test_tiny_run_is_deterministic():
    kwargs = dict(seed=99, max_small_n=4, structural_budget=300,
                  schedule_targets=3, generated_count=2, include_nongood=False)
    a = run_selftest(**kwargs)
    b = run_selftest(**kwargs)
    assert a.ok and b.ok
    assert (a.reach_pairs, a.recur_pairs, a.schedules_replayed) == \
           (b.reach_pairs, b.recur_pairs, b.schedules_replayed)
    assert a.generated_instances == 2


def _dfs_reach(succ, start):
    """Reference: every node reachable from start, by a plain depth-first search."""
    seen = {start}
    stack = [start]
    while stack:
        for nxt in succ[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _check_condensation(succ, pairs):
    """The condensation's reach, recurrence and closed-component answers
    against per-node searches, on every node and the given node pairs."""
    comp, reach = condense(succ)
    forward = [_dfs_reach(succ, i) for i in range(len(succ))]
    for i, j in pairs:
        assert bool(reach[comp[i]] >> comp[j] & 1) == (j in forward[i]), (i, j)
        every_walk_returns = all(j in forward[k] for k in forward[i])
        assert recurrent(comp, reach, i, j) == every_walk_returns, (i, j)
    for i in range(len(succ)):
        closed = all(i in forward[k] for k in forward[i])
        assert (reach[comp[i]] == 1 << comp[i]) == closed, i
        # same component iff mutually reachable
        assert {k for k in forward[i] if i in forward[k]} == \
               {k for k in range(len(succ)) if comp[k] == comp[i]}, i


def _random_digraph(rng: random.Random):
    """A chain of singleton components, one big component, isolated
    nodes and self-loops, under shuffled labels, with a few random arcs."""
    chain, big, isolated = rng.randint(1, 30), rng.randint(1, 10), rng.randint(0, 4)
    size = chain + big + isolated
    label = list(range(size))
    rng.shuffle(label)
    arcs = [(i, i + 1) for i in range(chain - 1)]
    ring = list(range(chain, chain + big))
    arcs += list(zip(ring, ring[1:] + ring[:1]))
    arcs += [(rng.choice(ring), rng.choice(ring)) for _ in range(big)]
    arcs += [(v, v) for v in rng.sample(range(size), rng.randint(0, 3))]
    arcs += [(rng.randrange(chain + big), rng.randrange(chain + big))
             for _ in range(rng.randint(0, 3))]
    if chain:
        arcs.append((rng.choice(ring), 0) if rng.random() < 0.5 else (chain - 1, ring[0]))
    succ = [[] for _ in range(size)]
    for a, b in arcs:
        succ[label[a]].append(label[b])
    return succ


@pytest.mark.parametrize("seed", range(40))
def test_condensation_matches_per_node_search_on_random_digraphs(seed):
    succ = _random_digraph(random.Random(seed))
    nodes = range(len(succ))
    _check_condensation(succ, [(i, j) for i in nodes for j in nodes])


@pytest.mark.parametrize("edges,n,p", [
    (((0, 1, 2),), 3, 3),
    (((0, 1, 2, 3, 4),), 5, 3),  # p divides |e| - 2: transient states exist
    (((0, 1), (0, 2), (1, 2)), 3, 3),  # irregular: solvable yet unreachable pairs
    (((0, 1, 2), (2, 3, 4)), 5, 3),
])
def test_condensation_matches_per_node_search_on_state_digraphs(edges, n, p):
    states, _, succ = enumerate_digraph(Hypergraph(n, edges), p)
    rng = random.Random(n * p)
    pairs = [(rng.randrange(len(states)), rng.randrange(len(states))) for _ in range(400)]
    _check_condensation(succ, pairs)


@pytest.fixture
def table_builds(monkeypatch):
    """Every (G, p) a successor table is built for, in order."""
    builds = []

    class Counted(dynamics._CodeTable):
        def __init__(self, G, p):
            builds.append((G, p))
            super().__init__(G, p)

    monkeypatch.setattr(dynamics, "_CodeTable", Counted)
    return builds


def test_one_structural_instance_builds_one_table(table_builds):
    """The engine diff, the recurrence spot checks and the --mode both
    triples of one instance all read one table."""
    G = Hypergraph(5, ((0, 1, 2), (2, 3, 4)))
    for p in (3, 5):
        report = SelftestReport()
        _structural_sweep(G, p, random.Random(p), report)
        assert report.ok, report.divergences
        assert report.recur_pairs == 8
        assert report.oracle_cross_checks == (12 if p**G.n <= 1000 else 0)
    assert table_builds == [(G, 3), (G, 5)]


def test_the_triangle_pairs_build_one_table(table_builds):
    report = SelftestReport()
    _nongood_sweep(report)
    assert report.ok and report.nongood_pairs_checked == 729
    assert len(table_builds) == 1


def test_the_triangle_sweep_searches_once_per_source(monkeypatch):
    """27 orbits answer all 729 pairs, 51 of them balance-solvable yet
    unreachable."""
    sources = []

    def spy(G, p, start, *args, **kwargs):
        sources.append(start)
        return dynamics.orbit_bfs(G, p, start, *args, **kwargs)

    monkeypatch.setattr(selftest, "orbit_bfs", spy)
    report = SelftestReport()
    _nongood_sweep(report)
    assert report.ok
    assert len(sources) == len(set(sources)) == 27
    assert (report.nongood_pairs_checked, report.nongood_solvable_unreachable) == (729, 51)


def test_a_wrong_table_row_is_a_divergence(monkeypatch):
    """The sweep diffs the engine's rows against its own enumeration."""
    G = Hypergraph(3, ((0, 1, 2),))

    class Skewed(dynamics._CodeTable):
        def __init__(self, G, p):
            super().__init__(G, p)
            self[13] = self[14]

    monkeypatch.setattr(dynamics, "_CodeTable", Skewed)
    report = SelftestReport()
    _structural_sweep(G, 3, random.Random(3), report)
    assert any("search engine's successors of (1, 1, 1)" in d for d in report.divergences)


def test_a_failing_synthesis_is_a_divergence_not_a_crash(monkeypatch):
    def broken(G, p, w1, w2):
        raise InternalSynthesisFailure("vertex 0 has zero units")

    monkeypatch.setattr(selftest, "synthesize_schedule", broken)
    report = SelftestReport()
    G = Hypergraph(3, ((0, 1, 2),))
    assert not selftest._witness_schedule(G, 3, (1, 0, 0), (0, 1, 1), report)
    assert report.divergences == [
        "3v/1e p=3: synthesis for (1, 0, 0) -> (0, 1, 1) failed: vertex 0 has zero units"]


def test_a_refused_pair_the_rule_accepts_is_a_divergence(monkeypatch):
    def refusing(G, p, w1, w2):
        raise Unsolvable("the move-counting system has no solution")

    monkeypatch.setattr(selftest, "synthesize_schedule", refusing)
    report = run_selftest(seed=99, max_small_n=4, structural_budget=300, schedule_targets=3,
                          generated_count=0, include_nongood=False)
    assert report.reach_pairs > 0 and report.schedules_replayed == 0
    assert report.divergences and not report.ok
    assert all("failed: the move-counting system has no solution" in d
               for d in report.divergences)


@pytest.mark.parametrize("kind, says", [
    ("absorbing_source", "absorbing_source certificate for charged source (1, 0, 0)"),
    ("garden_of_eden", "garden_of_eden certificate but (0, 1, 1) has a producer"),
    ("unsolvability", "unsolvability certificate yet no conserved functional separates "
                      "(1, 0, 0) from (0, 1, 1)"),
    ("orbit_exhausted", "negative decision with unexpected certificate orbit_exhausted"),
])
def test_a_forged_negative_certificate_is_a_divergence(kind, says):
    """(1, 0, 0) -> (0, 1, 1) is one move on a 3-edge: no certificate of
    unreachability can hold for it, and the sweep's own check says why."""
    G, p, w1, w2 = Hypergraph(3, ((0, 1, 2),)), 3, (1, 0, 0), (0, 1, 1)
    forged = Decision(False, "algebraic", Certificate(kind, {}))
    report = SelftestReport()
    selftest._verify_negative(G, p, w1, w2, forged, conserved_functionals(G, p), report)
    assert report.divergences == [f"3v/1e p=3: {says}"]
    assert report.certified_negative == 1


def test_the_irregular_sweep_reports_its_end():
    msgs = []
    report = run_selftest(seed=99, max_small_n=3, structural_budget=300, schedule_targets=1,
                          generated_count=0, include_nongood=True, progress=msgs.append)
    assert report.ok and report.nongood_pairs_checked == 27 * 27
    assert msgs[-1] == "irregular-hypergraph checks done"


@pytest.mark.parametrize("p", (3, 5, 7))
def test_the_single_edge_system_has_at_most_p_solutions(p):
    """The structural sweep's minimum-norm check enumerates a single
    edge's balance system, 2I - J, whose kernel is at most a line: it
    cannot meet the enumeration cap (EnumerationTooLarge)."""
    rng = random.Random(p)
    for n in range(3, 9):
        G = Hypergraph(n, (tuple(range(n)),))
        for _ in range(4):
            w1 = tuple(rng.randrange(p) for _ in range(n))
            for w2 in (w1, tuple(rng.randrange(p) for _ in range(n))):
                space = gaussian_solve(build_system(G, p, w1, w2).system)
                assert space.solvable or w2 != w1
                assert not space.solvable or space.count <= p, (n, p, w1, w2)


def _flipped(judged):
    """judged, answering the opposite: the other answer, or the other class."""
    def lying(*args, **kwargs):
        verdict = judged(*args, **kwargs)
        if isinstance(verdict, StateClass):
            return next(c for c in StateClass if c is not verdict)
        return dataclasses.replace(verdict, answer=not verdict.answer)
    return lying


def _answering(value):
    """In place of a judged function, one that gives value whatever it is asked."""
    return lambda judged: lambda *args, **kwargs: value


#: one single edge whose sum is invariant at p = 3, so that pairs are
#: both solvable and not, and small enough for every structural check
JUDGED = Hypergraph(5, ((0, 1, 2, 3, 4),)), 3
SWEEPS = {
    "structural": _structural_sweep,
    "orbit pair": selftest._orbit_pair_sweep,
    "synthesis": functools.partial(selftest._synthesis_sweep, targets=3),
}


@pytest.mark.parametrize("sweep, target, liar, check", [
    ("structural", "necessity_filter", _answering(None),
     r"the closed-form necessity filter disagrees with elimination for "),
    ("structural", "_single_edge_counts", _answering([0] * 5),
     r"closed-form single-edge counts \[0, 0, 0, 0, 0\] disagree with the minimum-norm "),
    ("structural", "decide_reachability", _flipped,
     r": reachability \(.*\) algebraic=\w+ enumerated=\w+$"),
    ("structural", "decide_recurrence", _flipped,
     r": recurrence \(.*\) algebraic=\w+ enumerated=\w+$"),
    ("structural", "classify_state", _flipped,
     r": classification of \(.*\) algebraic_transient=\w+ enumerated=\w+$"),
    ("structural", "decision._oracle_reach", _flipped,
     r": reachability disagreement: algebraic=\w+ oracle=\w+\n"),
    ("orbit pair", "decide_reachability", _flipped,
     r": reachability \(.*\) algebraic=\w+ search=\w+$"),
    ("synthesis", "synthesize_schedule", _answering(Schedule(())),
     r": schedule for \(.*\) fails replay$"),
], ids=["necessity filter", "single-edge counts", "reachability", "recurrence",
        "classification", "mode both", "orbit pair", "replay"])
def test_each_judged_function_that_lies_is_a_divergence(monkeypatch, sweep, target, liar,
                                                         check):
    """Each comparison the sweeps make fires when its judged function lies,
    and names that check alone; the unpatched sweep finds nothing."""
    G, p = JUDGED
    report = SelftestReport()
    SWEEPS[sweep](G, p, random.Random(7), report)
    assert report.divergences == []
    owner = decision if target.startswith("decision.") else selftest
    name = target.removeprefix("decision.")
    monkeypatch.setattr(owner, name, liar(getattr(owner, name)))
    SWEEPS[sweep](G, p, random.Random(7), report)
    assert report.divergences
    assert all(re.search(check, d) for d in report.divergences), report.divergences
