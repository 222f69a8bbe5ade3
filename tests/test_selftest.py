"""Plumbing of the self-verification module (the sweeps themselves are
exercised for real by the acceptance suite)."""

import random

import pytest

from zpwalk import dynamics, selftest
from zpwalk.errors import IllegalMove
from zpwalk.hypergraph import Hypergraph, is_good
from zpwalk.selftest import (
    SelftestReport,
    _condense,
    _enumerate_digraph,
    _nongood_sweep,
    _recurrent,
    _structural_sweep,
    iter_small_good_hypergraphs,
    run_selftest,
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
    report.synthesis_incomplete = 3  # give-ups are reported, not fatal
    assert report.ok
    report.divergences.append("algebra said yes, search said no @ ...")
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
    comp, reach = _condense(succ)
    forward = [_dfs_reach(succ, i) for i in range(len(succ))]
    for i, j in pairs:
        assert bool(reach[comp[i]] >> comp[j] & 1) == (j in forward[i]), (i, j)
        recurrent = all(j in forward[k] for k in forward[i])
        assert _recurrent(comp, reach, i, j) == recurrent, (i, j)
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
    states, _, succ = _enumerate_digraph(Hypergraph(n, edges), p)
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


def test_a_wrong_table_row_is_a_divergence(monkeypatch):
    """The sweep diffs the engine's rows against its own enumeration."""
    G = Hypergraph(3, ((0, 1, 2),))
    row = dynamics._row_reader

    def skewed(*args):
        read = row(*args)
        return lambda code: read(code if code != 13 else 14)

    monkeypatch.setattr(dynamics, "_row_reader", skewed)
    report = SelftestReport()
    _structural_sweep(G, 3, random.Random(3), report)
    assert any("search engine's successors of (1, 1, 1)" in d for d in report.divergences)


def test_a_failing_synthesis_is_a_divergence_not_a_crash(monkeypatch):
    def broken(G, p, w1, w2):
        raise IllegalMove("vertex 0 has zero units")

    monkeypatch.setattr(selftest, "synthesize_schedule", broken)
    report = SelftestReport()
    G = Hypergraph(3, ((0, 1, 2),))
    assert not selftest._witness_schedule(G, 3, (1, 0, 0), (0, 1, 1), report)
    assert report.divergences == [
        "3v/1e p=3: synthesis for (1, 0, 0) -> (0, 1, 1) failed: vertex 0 has zero units"]
