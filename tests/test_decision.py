"""Decision layer: the balance system and the fast reachability /
recurrence / classification rules, cross-checked against the search
oracles.

mode="both" is itself a built-in differential test (it raises
MismatchError on any disagreement), so most sweeps here simply run in
that mode; a raised mismatch IS the failure.
"""

import dataclasses
import itertools
import random
from collections import Counter

import pytest

from zpwalk import decision, hypergraph
from zpwalk.decision import (
    MODE_ALGEBRAIC,
    StateClass,
    _closed_form_solution,
    _rank,
    build_system,
    classify_state,
    decide_reachability,
    decide_recurrence,
    necessity_filter,
)
from zpwalk.dynamics import (
    all_moves,
    apply_move,
    extract_schedule,
    has_predecessor,
    oracle_escape,
    oracle_recurrent,
    orbit_bfs,
)
from zpwalk.errors import MismatchError, NotGood
from zpwalk.generate import gen_good_hypergraph
from zpwalk.hypergraph import (
    Hypergraph,
    is_good,
    make_hypergraph,
)
from zpwalk.synthesis import synthesize_schedule
from zpwalk.zp_algebra import MAX_MODULUS, gaussian_solve, is_odd_prime

E3 = make_hypergraph(3, [(0, 1, 2)])
E4 = make_hypergraph(4, [(0, 1, 2, 3)])
E5 = make_hypergraph(5, [(0, 1, 2, 3, 4)])
TWO_EDGES = make_hypergraph(5, [(0, 1, 2), (2, 3, 4)])
TRIANGLE = make_hypergraph(3, [(0, 1), (0, 2), (1, 2)])
EDGELESS = Hypergraph(1, ())  # well-shaped; nothing moves on it

ZERO3 = (0, 0, 0)


def states(p, n):
    return itertools.product(range(p), repeat=n)


# -------------------------------------------------------- balance system


def test_build_system_layout():
    reach = build_system(TWO_EDGES, 3, (1, 0, 0, 0, 0), (0, 0, 0, 0, 1))
    assert reach.variables == ((0, 0), (0, 1), (0, 2), (1, 2), (1, 3), (1, 4))
    # row for vertex 2 (in both edges): +1 on its own columns, -1 on the
    # other columns of those edges, 0 elsewhere
    assert reach.system.rows[2] == (2, 2, 1, 1, 2, 2)
    assert reach.system.rows[0] == (1, 2, 2, 0, 0, 0)
    assert reach.system.rhs == (1, 0, 0, 0, 2)  # (w1 - w2) mod 3


def test_single_edge_system_is_the_classic_pattern():
    # one edge {v1..vk}: row for v reads  x_v - sum of other x_u = rhs_v
    reach = build_system(E4, 3, (2, 1, 0, 0), (0, 0, 1, 2))
    for v in range(4):
        expected = tuple(1 if u == v else 2 for u in range(4))
        assert reach.system.rows[v] == expected


def count_schedule_solution(G, p, reach, schedule):
    counts = Counter((mv.edge, mv.vertex) for mv in schedule)
    return tuple(counts[pair] % p for pair in reach.variables)


def test_witness_schedules_solve_the_system():
    """Necessity, tested constructively: counting the moves of any real
    schedule yields a solution of the balance system."""
    rng = random.Random(2024)
    checked = 0
    while checked < 60:
        n = rng.randint(3, 6)
        G = gen_good_hypergraph(n, rng.randint(1, max(1, (n - 1) // 2)),
                                seed=rng.randrange(2**30))
        p = 3
        w1 = tuple(rng.randrange(p) for _ in range(G.n))
        orbit = orbit_bfs(G, p, w1)
        w2 = rng.choice(orbit.order)
        schedule = extract_schedule(orbit, w2)
        reach = build_system(G, p, w1, w2)
        x = count_schedule_solution(G, p, reach, schedule)
        for row, b in zip(reach.system.rows, reach.system.rhs):
            assert sum(a * xi for a, xi in zip(row, x)) % p == b
        checked += 1


def test_solvability_is_transitive():
    # the system depends on the pair only through w1 - w2, so solutions add
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(3, 6)
        G = gen_good_hypergraph(n, rng.randint(1, max(1, (n - 1) // 2)),
                                seed=rng.randrange(2**30))
        p = rng.choice((3, 5))
        w1, w2, w3 = (tuple(rng.randrange(p) for _ in range(G.n)) for _ in range(3))
        s12 = gaussian_solve(build_system(G, p, w1, w2).system).solvable
        s23 = gaussian_solve(build_system(G, p, w2, w3).system).solvable
        s13 = gaussian_solve(build_system(G, p, w1, w3).system).solvable
        if s12 and s23:
            assert s13
        if s12 and not s23:
            assert not s13


def random_shaped_hypergraph(rng, p):
    """Any hypergraph: size-2 edges, shared pairs, isolated vertices..."""
    n = rng.randint(1, 9)
    edges = set()
    for _ in range(rng.randint(0, 5) if n > 1 else 0):
        size = rng.choice((2, 2, 3, p, p + 2, rng.randint(2, n)))
        edges.add(tuple(sorted(rng.sample(range(n), min(size, n)))))
    return Hypergraph(n, tuple(sorted(edges)))


def test_closed_form_matches_elimination_on_any_hypergraph():
    """The closed-form rule against gaussian_solve on the plain system:
    same solvability, a solution that satisfies A x = b, and the rank."""
    rng = random.Random(20260)
    seen = Counter()
    for _ in range(900):
        p = rng.choice((3, 5, 7))
        G = random_shaped_hypergraph(rng, p)
        sizes = [len(e) for e in G.edges]
        seen["size 2"] += 2 in sizes
        seen["|e| = 2 mod p, |e| > 2"] += any(k > 2 and k % p == 2 for k in sizes)
        seen["|e| = 0 mod p"] += any(k % p == 0 for k in sizes)
        seen["shared pair"] += any(len(set(a) & set(b)) > 1
                                   for a, b in itertools.combinations(G.edges, 2))
        seen["disconnected"] += len(G.structure.components) > 1
        seen["isolated"] += any(not any(v in e for e in G.edges) for v in range(G.n))
        seen[f"p = {p}"] += 1
        rank = _rank(G, p)
        zero = (0,) * G.n
        homogeneous = build_system(G, p, zero, zero).system
        assert rank == homogeneous.ncols - gaussian_solve(homogeneous).dimension
        for _ in range(4):
            w1 = tuple(rng.randrange(p) for _ in range(G.n))
            w2 = tuple(rng.randrange(p) for _ in range(G.n))
            system = build_system(G, p, w1, w2).system
            x = _closed_form_solution(G, p, w1, w2)
            assert (x is not None) == gaussian_solve(system).solvable, (G, p, w1, w2)
            seen["solvable" if x is not None else "unsolvable"] += 1
            if x is not None:
                assert len(x) == system.ncols
                for row, b in zip(system.rows, system.rhs):
                    assert sum(a * xi for a, xi in zip(row, x)) % p == b
            verdict = necessity_filter(G, p, w1, w2)
            assert (verdict is None) == (w1 == w2 or x is not None)
            if verdict is not None:
                assert verdict.certificate.data == {"rank": rank,
                                                    "augmented_rank": rank + 1}
    assert min(seen.values()) >= 20, seen
    assert len(seen) == 11, seen


def count_structure_builds(monkeypatch) -> list:
    """Record every hypergraph whose breadth-first search gets built."""
    built = []
    build = hypergraph._build_structure

    def counting(G):
        built.append(G)
        return build(G)

    monkeypatch.setattr(hypergraph, "_build_structure", counting)
    return built


def test_one_structural_search_per_hypergraph(monkeypatch):
    built = count_structure_builds(monkeypatch)
    G = make_hypergraph(13, [(0, 1, 2), (2, 3, 4), (4, 5, 6, 7, 8), (8, 9, 10), (0, 11, 12)])
    rng = random.Random(11)
    for p in (3, 5):
        for _ in range(6):
            w1 = tuple(rng.randrange(p) for _ in range(G.n))
            w2 = tuple(rng.randrange(p) for _ in range(G.n))
            decide_reachability(G, p, w1, w2, mode=MODE_ALGEBRAIC)
            decide_recurrence(G, p, w1, w2, mode=MODE_ALGEBRAIC)
            classify_state(G, p, w1, mode=MODE_ALGEBRAIC)
            necessity_filter(G, p, w1, w2)
    assert is_good(G).good
    assert G.structure.components == (tuple(range(13)),)
    assert G.structure.incidence[0] == (0, 4)
    assert len(built) == 1 and built[0] is G


def test_synthesis_searches_each_hypergraph_once(monkeypatch):
    """Synthesis reads G's one search: no G minus an edge, no piece of G."""
    built = count_structure_builds(monkeypatch)
    G = make_hypergraph(9, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8)])
    synthesize_schedule(G, 3, (1,) + (0,) * 8, (0,) * 8 + (1,))
    assert len(built) == 1 and built[0] is G


# ---------------------------------------------------------- reachability


def test_reach_trivial_and_degenerate_cases():
    d = decide_reachability(E3, 3, (1, 2, 0), (1, 2, 0), mode="algebraic")
    assert d.answer and d.certificate.kind == "solution_vector"

    d = decide_reachability(E3, 3, ZERO3, (0, 1, 1), mode="algebraic")
    assert not d.answer and d.certificate.kind == "absorbing_source"

    # the saturated state is a garden of Eden: solvable system, still no
    d = decide_reachability(E3, 3, (0, 1, 1), (2, 2, 2), mode="both")
    assert not d.answer and d.certificate.kind == "garden_of_eden"
    assert gaussian_solve(build_system(E3, 3, (0, 1, 1), (2, 2, 2)).system).solvable


def test_reach_known_positive():
    d = decide_reachability(E5, 3, (1, 0, 0, 0, 0), (0, 1, 1, 1, 1), mode="both")
    assert d.answer
    assert d.method == "both"
    assert d.certificate.kind == "solution_vector"
    assert d.oracle_certificate.kind == "schedule"


def test_reach_exhaustive_both_mode_small():
    # every pair on the single 3-edge at p=3; mode="both" raises on any
    # algebra/search disagreement
    for w1 in states(3, 3):
        orbit = orbit_bfs(E3, 3, w1)
        for w2 in states(3, 3):
            d = decide_reachability(E3, 3, w1, w2, mode="both")
            assert d.answer == (w2 in orbit)


def test_reach_sampled_both_mode():
    rng = random.Random(5150)
    for _ in range(120):
        n = rng.randint(3, 7)
        G = gen_good_hypergraph(n, rng.randint(1, max(1, (n - 1) // 2)),
                                seed=rng.randrange(2**30))
        p = 3
        w1 = tuple(rng.randrange(p) for _ in range(G.n))
        w2 = tuple(rng.randrange(p) for _ in range(G.n))
        decide_reachability(G, p, w1, w2, mode="both")  # MismatchError = fail


def test_reach_unsolvable_certificate():
    # single 4-edge at p=3: 2 does not divide... p does not divide k-2=2,
    # so the conserved functional is trivial; use the 5-edge where the
    # total charge mod 3 is conserved
    d = decide_reachability(E5, 3, (1, 0, 0, 0, 0), (0, 1, 0, 0, 1), mode="both")
    assert not d.answer
    assert d.certificate.kind == "unsolvability"
    assert d.certificate.data["augmented_rank"] == d.certificate.data["rank"] + 1


def test_mode_validation():
    with pytest.raises(ValueError):
        decide_reachability(E3, 3, ZERO3, ZERO3, mode="quick")


def test_primality_is_tested_once_per_modulus():
    """The gate and the closed form's inverses all validate p; trial
    division up to sqrt(p) runs once for the largest modulus."""
    rng = random.Random(13)
    p = MAX_MODULUS
    is_odd_prime.cache_clear()
    for k in range(50):
        w1 = tuple(rng.randrange(p) for _ in range(5))
        w2 = tuple(rng.randrange(p) for _ in range(5))
        if k % 3 == 0:
            decide_reachability(TWO_EDGES, p, w1, w2, mode="algebraic")
        elif k % 3 == 1:
            decide_recurrence(TWO_EDGES, p, w1, w2, mode="algebraic")
        else:
            classify_state(TWO_EDGES, p, w1, mode="algebraic")
    assert is_odd_prime.cache_info().misses == 1


def test_algebraic_gate_rejects_irregular_graphs():
    with pytest.raises(NotGood) as err:
        decide_reachability(TRIANGLE, 3, (1, 1, 1), (2, 2, 2), mode="algebraic")
    assert "well-shaped" in str(err.value)
    with pytest.raises(NotGood):
        decide_reachability(TRIANGLE, 3, (1, 1, 1), (2, 2, 2), mode="both")
    # the search oracle takes anything
    d = decide_reachability(TRIANGLE, 3, (1, 1, 1), (2, 2, 2), mode="oracle")
    assert not d.answer and d.certificate.kind == "orbit_exhausted"


# ------------------------------------------------------------ recurrence


def test_recurrence_zero_target_is_special():
    # from [1,1,1] on the 3-edge, every walk can still fall to zero, and
    # zero is where every walk ends up stuck: recurrent
    d = decide_recurrence(E3, 3, (1, 1, 1), ZERO3, mode="both")
    assert d.answer and d.certificate.kind == "solution_vector"
    # from a state whose class misses zero, not only unreachable but
    # certified by the conserved functional
    d2 = decide_recurrence(E5, 3, (1, 0, 0, 0, 0), (0,) * 5, mode="both")
    assert not d2.answer and d2.certificate.kind == "unsolvability"


def test_recurrence_known_positive():
    d = decide_recurrence(E5, 3, (1, 0, 0, 0, 0), (0, 1, 1, 1, 1), mode="both")
    assert d.answer


def test_recurrence_nonzero_target_killed_by_zero_state():
    # the class of [1,1,1] contains zero, so any nonzero target is
    # escapable for good
    d = decide_recurrence(E3, 3, (1, 1, 1), (1, 1, 1), mode="both")
    assert not d.answer and d.certificate.kind == "zero_state_reachable"


def test_recurrence_saturated_target_never():
    d = decide_recurrence(E4, 3, (1, 0, 0, 0), (2, 2, 2, 2), mode="both")
    assert not d.answer and d.certificate.kind == "garden_of_eden"


def test_recurrence_zero_source():
    assert decide_recurrence(E3, 3, ZERO3, ZERO3, mode="both").answer
    d = decide_recurrence(E3, 3, ZERO3, (1, 1, 1), mode="both")
    assert not d.answer and d.certificate.kind == "absorbing_source"


def test_recurrence_exhaustive_both_mode_small():
    for w1 in states(3, 3):
        for w2 in states(3, 3):
            d = decide_recurrence(E3, 3, w1, w2, mode="both")
            assert d.answer == oracle_recurrent(E3, 3, w1, w2)


def test_recurrence_sampled_both_mode():
    rng = random.Random(906)
    hits = misses = 0
    for _ in range(80):
        n = rng.randint(3, 6)
        G = gen_good_hypergraph(n, rng.randint(1, max(1, (n - 1) // 2)),
                                seed=rng.randrange(2**30))
        p = 3
        w1 = tuple(rng.randrange(p) for _ in range(G.n))
        w2 = tuple(rng.randrange(p) for _ in range(G.n))
        d = decide_recurrence(G, p, w1, w2, mode="both")
        hits += d.answer
        misses += not d.answer
    assert hits and misses


def test_oracle_recurrence_certificates():
    kinds = Counter()
    for w1 in states(3, 3):
        for w2 in states(3, 3):
            d = decide_recurrence(E3, 3, w1, w2, mode="oracle")
            orbit, escape = oracle_escape(E3, 3, w1, w2)
            if d.certificate.kind == "escape_state":
                assert not d.answer and w2 in orbit
                assert d.certificate.data == {"state": list(escape)}
            else:
                assert d.certificate.kind == "orbit_exhausted"
                assert d.answer == (escape is None)
                assert d.certificate.data == {"orbit_size": len(orbit)}
            kinds[d.certificate.kind, d.answer] += 1
    assert len(kinds) == 3


def test_edgeless_hypergraph_answers():
    # (0) has no predecessor here, yet recurrence towards it asks only
    # whether the orbit can fall to zero: its certificate differs
    d = decide_reachability(EDGELESS, 3, (1,), (0,), mode="algebraic")
    assert not d.answer and d.certificate.kind == "garden_of_eden"
    d = decide_recurrence(EDGELESS, 3, (1,), (0,), mode="algebraic")
    assert not d.answer and d.certificate.kind == "unsolvability"
    # nothing moves from (1), so it is recurrent from itself
    for mode in ("algebraic", "oracle", "both"):
        assert decide_recurrence(EDGELESS, 3, (1,), (1,), mode=mode).answer
        assert (classify_state(EDGELESS, 3, (1,), mode=mode)
                is StateClass.RECURRENT_OR_INACCESSIBLE)
    for p in (3, 5):
        for w1 in states(p, 1):
            for w2 in states(p, 1):
                decide_reachability(EDGELESS, p, w1, w2, mode="both")
                decide_recurrence(EDGELESS, p, w1, w2, mode="both")


# -------------------------------------------------------- classification


def test_classify_known_cases():
    # single 5-edge at p=3 conserves total charge; charge-1 states can
    # never fall to zero, so they keep meeting themselves: not transient
    assert (classify_state(E5, 3, (1, 0, 0, 0, 0), mode="both")
            is StateClass.RECURRENT_OR_INACCESSIBLE)
    # on the 4-edge nothing is conserved; an accessible nonzero state
    # that can reach zero is transient
    assert classify_state(E4, 3, (0, 1, 1, 1), mode="both") is StateClass.TRANSIENT
    # zero state: absorbing, hence recurrent
    assert (classify_state(E4, 3, (0, 0, 0, 0), mode="both")
            is StateClass.RECURRENT_OR_INACCESSIBLE)
    # saturated state: inaccessible
    assert (classify_state(E4, 3, (2, 2, 2, 2), mode="both")
            is StateClass.RECURRENT_OR_INACCESSIBLE)


def test_classify_exhaustive_both_mode():
    for G in (E3, E4, TWO_EDGES):
        for w in states(3, G.n):
            classify_state(G, 3, w, mode="both")  # MismatchError = fail


def test_classify_matches_direct_definition():
    # transient == accessible and not self-recurrent, read off the oracle
    for w in states(3, 4):
        got = classify_state(E4, 3, w, mode="algebraic")
        accessible = any(
            s[mv.vertex] != 0 and apply_move(E4, 3, s, mv) == w
            for s in states(3, 4)
            for mv in all_moves(E4)
        )
        self_recurrent = oracle_recurrent(E4, 3, w, w)
        expected = (StateClass.TRANSIENT if accessible and not self_recurrent
                    else StateClass.RECURRENT_OR_INACCESSIBLE)
        assert got is expected, w


def small_instances():
    """(G, p, states to classify): one edge, two edges, and generated
    hypergraphs with n <= 7, at p = 3 and 5, wherever p**n <= 3125."""
    rng = random.Random(77)
    family = [E3, E4, TWO_EDGES]
    for _ in range(8):
        n = rng.randint(3, 7)
        family.append(gen_good_hypergraph(n, rng.randint(1, (n - 1) // 2),
                                          seed=rng.randrange(2**30)))
    for G in family:
        for p in (3, 5):
            if p ** G.n <= 3125:
                sample = [(0,) * G.n, (p - 1,) * G.n]
                sample += [tuple(rng.randrange(p) for _ in range(G.n)) for _ in range(6)]
                yield G, p, sample


@pytest.mark.parametrize("mode", ["algebraic", "oracle", "both"])
def test_classification_is_self_recurrence(mode):
    kinds = Counter()
    for G, p, sample in small_instances():
        for w in sample:
            self_recurrent = decide_recurrence(G, p, w, w, mode=mode).answer
            transient = has_predecessor(G, p, w) and not self_recurrent
            got = classify_state(G, p, w, mode=mode)
            assert (got is StateClass.TRANSIENT) == transient, (G, p, w)
            kinds[got, self_recurrent] += 1
    # transient, self-recurrent, and inaccessible-but-able-to-escape all occur
    assert len(kinds) == 3, kinds


def test_classification_mismatch_is_a_self_recurrence_mismatch(monkeypatch):
    oracle_recur = decision._oracle_recur

    def flipped(*args):
        d = oracle_recur(*args)
        return dataclasses.replace(d, answer=not d.answer)

    monkeypatch.setattr(decision, "_oracle_recur", flipped)
    for w in ((0, 1, 1, 1), (1, 0, 0, 0), (2, 2, 2, 2), (0, 0, 0, 0)):
        with pytest.raises(MismatchError, match="classification disagreement"):
            classify_state(E4, 3, w, mode="both")


# ------------------------------------------------------- necessity filter


def test_necessity_filter_is_sound_everywhere():
    # on the irregular triangle, exhaustively: a negative verdict must
    # agree with the search oracle; None (inconclusive) may hide either
    solvable_but_unreachable = 0
    for w1 in states(3, 3):
        orbit = orbit_bfs(TRIANGLE, 3, w1)
        for w2 in states(3, 3):
            verdict = necessity_filter(TRIANGLE, 3, w1, w2)
            truth = w2 in orbit
            if verdict is not None:
                assert verdict.answer is False
                assert not truth
                assert verdict.certificate.kind == "unsolvability"
            elif not truth:
                solvable_but_unreachable += 1
    # the gap the filter cannot see -- this is why it is negative-only
    assert solvable_but_unreachable > 0


def test_necessity_filter_on_good_graphs_agrees_with_decide():
    rng = random.Random(64)
    for _ in range(60):
        n = rng.randint(3, 6)
        G = gen_good_hypergraph(n, rng.randint(1, max(1, (n - 1) // 2)),
                                seed=rng.randrange(2**30))
        w1 = tuple(rng.randrange(3) for _ in range(G.n))
        w2 = tuple(rng.randrange(3) for _ in range(G.n))
        verdict = necessity_filter(G, 3, w1, w2)
        if verdict is not None:
            assert decide_reachability(G, 3, w1, w2, mode="both").answer is False


def test_necessity_filter_trivial_pair_is_inconclusive():
    assert necessity_filter(TRIANGLE, 3, (1, 1, 1), (1, 1, 1)) is None
