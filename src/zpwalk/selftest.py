"""Self-verification sweeps that check every layer against ground truth.

The decision layer answers reachability and recurrence questions with
closed forms.  The ground truth lives in zp_algebra, rebuilt from the
move definition alone: the full state digraph and its strongly
connected components on instances small enough to enumerate, the
conserved linear functionals, and the definitional predecessor check.
This module holds only the sweeps, which call both sides: they
cross-check the algebraic answers, the breadth-first oracle and the
schedule synthesizer against that ground truth and against each other.
Instances too large to enumerate exhaustively get sampled orbit
comparisons and witness-based checks: positive answers must replay,
negative answers must carry a certificate that can be verified
independently (a conserved functional separating the two states, a
source without charge, or a target no move can produce).

run_selftest is what the command-line `selftest` subcommand executes.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

from .decision import (
    MODE_ALGEBRAIC,
    MODE_BOTH,
    StateClass,
    build_system,
    classify_state,
    decide_reachability,
    decide_recurrence,
    necessity_filter,
)
from .dynamics import (
    State,
    oracle_recurrent,
    orbit_bfs,
    replay_schedule,
    state_space,
)
from .errors import MismatchError, NotGood, Unsolvable
from .generate import class_target, gen_good_hypergraph, random_state
from .hypergraph import Hypergraph, is_good
from .synthesis import SYNTHESIS_FAILURES, _single_edge_counts, synthesize_schedule
from .zp_algebra import (
    condense,
    conserved_functionals,
    enumerate_digraph,
    functional_values,
    gaussian_solve,
    no_move_produces,
    recurrent,
    system_norm,
)

#: primes the small well-shaped family is checked at
PRIMES = (3, 5)
#: instances whose whole state digraph we enumerate and verify structurally
EXHAUSTIVE_STATE_BUDGET = 3**7
#: sampled orbit comparison: charged sources per instance, targets per source
ORBIT_SOURCES = 3
ORBIT_TARGETS_PER_SOURCE = 17
#: schedule sweep: instances with at most this many states get every pair
EXHAUSTIVE_PAIR_LIMIT = 30
#: sampled decisions witnessed or certified per generated instance
WITNESS_PAIRS = 4


@dataclass
class SelftestReport:
    """Tallies from one verification run; ok means no divergences."""

    structural_instances: int = 0
    structural_states: int = 0
    sampled_instances: int = 0
    reach_pairs: int = 0
    recur_pairs: int = 0
    classify_checks: int = 0
    oracle_cross_checks: int = 0
    schedules_replayed: int = 0
    generated_instances: int = 0
    witness_positive: int = 0
    certified_negative: int = 0
    #: stays 0 (nothing raises SynthesisIncomplete); kept only for the benchmark's selftest tally
    synthesis_incomplete: int = 0
    nongood_pairs_checked: int = 0
    nongood_solvable_unreachable: int = 0
    elapsed_seconds: float = 0.0
    divergences: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        lines = [
            f"structural sweeps (full state digraph): {self.structural_instances} "
            f"instance/prime combos, {self.structural_states} states",
            f"sampled-orbit sweeps: {self.sampled_instances} instance/prime combos",
            f"reachability pairs checked against enumeration or search: {self.reach_pairs}",
            f"recurrence pairs checked: {self.recur_pairs}",
            f"classification checks: {self.classify_checks}",
            f"algebra-vs-search double decisions: {self.oracle_cross_checks}",
            f"schedules synthesized and replay-verified: {self.schedules_replayed}",
            f"generated instances: {self.generated_instances} "
            f"(positive witnesses {self.witness_positive}, "
            f"certified negatives {self.certified_negative})",
            f"irregular-hypergraph necessity pairs: {self.nongood_pairs_checked} "
            f"(balance-solvable yet unreachable: {self.nongood_solvable_unreachable})",
            f"elapsed: {self.elapsed_seconds:.1f}s",
        ]
        if self.divergences:
            lines.append(f"DIVERGENCES ({len(self.divergences)}):")
            lines.extend(f"  - {d}" for d in self.divergences)
        else:
            lines.append("divergences: none")
        return "\n".join(lines)


def iter_small_good_hypergraphs(max_n: int = 6):
    """Every well-shaped hypergraph with up to max_n vertices and 1 or 2 edges.

    One edge: the edge must cover all vertices (connectivity), so there
    is exactly one instance per n >= 3.  Two edges: they share exactly
    one vertex, cover everything, and each has >= 3 vertices.  For
    max_n = 6 this yields 4 + 15 + 60 = 79 instances.
    """
    for n in range(3, max_n + 1):
        yield Hypergraph(n, (tuple(range(n)),))
    for n in range(5, max_n + 1):
        for shared in range(n):
            others = [v for v in range(n) if v != shared]
            for size_a in range(2, len(others)):
                if size_a > len(others) - size_a:
                    break
                for combo in itertools.combinations(others, size_a):
                    rest = tuple(v for v in others if v not in combo)
                    if len(combo) == len(rest) and combo > rest:
                        continue
                    e1 = tuple(sorted(combo + (shared,)))
                    e2 = tuple(sorted(rest + (shared,)))
                    yield Hypergraph(n, tuple(sorted((e1, e2))))


def _verify_negative(G, p, w1, w2, decision, basis, report) -> None:
    """A negative decision must carry an independently checkable reason."""
    kind = decision.certificate.kind
    if kind == "absorbing_source":
        if any(w1) or w1 == w2:
            report.divergences.append(
                f"{G.n}v/{G.m}e p={p}: absorbing_source certificate for charged source {w1}"
            )
    elif kind == "garden_of_eden":
        if not no_move_produces(G, p, w2):
            report.divergences.append(
                f"{G.n}v/{G.m}e p={p}: garden_of_eden certificate but {w2} has a producer"
            )
    elif kind == "unsolvability":
        if functional_values(basis, w1, p) == functional_values(basis, w2, p):
            report.divergences.append(
                f"{G.n}v/{G.m}e p={p}: unsolvability certificate yet no conserved "
                f"functional separates {w1} from {w2}"
            )
    else:
        report.divergences.append(
            f"{G.n}v/{G.m}e p={p}: negative decision with unexpected certificate {kind}"
        )
    report.certified_negative += 1


def _structural_sweep(
    G: Hypergraph,
    p: int,
    rng: random.Random,
    report: SelftestReport,
    recur_oracle_pairs: int = 8,
) -> None:
    """Enumerate the full state digraph and verify its advertised shape.

    Checks, per conserved-functional class: the states other than the
    inert zero state and the saturated all-(p-1) state form one strongly
    connected component; zero (when in the class) is absorbing but
    enterable; the saturated state has no producer yet rejoins its
    class.  Together these imply the algebraic reachability and
    recurrence rules are exact on the instance.  On top of the
    structural proof, the decision functions are compared directly
    against the condensed digraph on 50+ sampled charged-source pairs,
    and the production search oracle is spot-checked the same way, after
    its engine's successor rows are diffed against the enumerated ones.
    """
    label = f"{G.n}v/{G.m}e p={p} edges={G.edges}"
    states, index, succ = enumerate_digraph(G, p)
    comp, reach = condense(succ)
    # the search engine's rows against the plain step they replace; the
    # engine's codes and the enumeration both number states in product order
    engine = state_space(G, p)
    for i, row in enumerate(succ):
        if [s for s in engine[i] if s != i] != row:
            report.divergences.append(
                f"{label}: the search engine's successors of {states[i]} differ from "
                f"the enumerated digraph's"
            )
            break
    produced = {j for outs in succ for j in outs}
    n = G.n
    zero = (0,) * n
    ge = (p - 1,) * n
    zi, gi = index[zero], index[ge]
    basis = conserved_functionals(G, p)
    classes: dict[tuple[int, ...], list[int]] = {}
    for i, w in enumerate(states):
        classes.setdefault(functional_values(basis, w, p), []).append(i)

    if succ[zi]:
        report.divergences.append(f"{label}: the zero state has outgoing moves")
    producerless = [i for i in range(len(states)) if i not in produced]
    if G.m and producerless != [gi]:
        report.divergences.append(
            f"{label}: producer-free states are {len(producerless)}, expected exactly "
            f"the saturated state"
        )
    for key, members in classes.items():
        core = [i for i in members if i != zi and i != gi]
        if core:
            scc_ids = {comp[i] for i in core}
            if len(scc_ids) != 1:
                report.divergences.append(
                    f"{label}: class {key} splits into {len(scc_ids)} strong components"
                )
        if zi in members and core and not any(zi in succ[i] for i in core):
            report.divergences.append(f"{label}: class {key} cannot enter the zero state")
        if gi in members and core and not any(j in set(core) for j in succ[gi]):
            report.divergences.append(f"{label}: the saturated state cannot rejoin class {key}")

    single_edge = G.edges == (tuple(range(n)),)
    for _ in range(25):
        w1, w2 = rng.choice(states), rng.choice(states)
        solutions = gaussian_solve(build_system(G, p, w1, w2).system)
        solvable = solutions.solvable
        same_class = functional_values(basis, w1, p) == functional_values(basis, w2, p)
        if solvable != same_class:
            report.divergences.append(
                f"{label}: balance solvability disagrees with conserved functionals "
                f"for {w1} -> {w2}"
            )
        if (necessity_filter(G, p, w1, w2) is None) != solvable:
            report.divergences.append(
                f"{label}: the closed-form necessity filter disagrees with elimination "
                f"for {w1} -> {w2}"
            )
        if single_edge:
            try:
                counts = _single_edge_counts(p, w1, w2)
            except Unsolvable:
                counts = None
            if counts != (list(system_norm(solutions)[1]) if solvable else None):
                report.divergences.append(
                    f"{label}: closed-form single-edge counts {counts} disagree with the "
                    f"minimum-norm solution for {w1} -> {w2}"
                )

    # generous sampling: 54 charged-source pairs plus the special
    # sources, each compared against the enumerated digraph
    sources = [random_state(G, p, rng, charged=True) for _ in range(9)]
    for w1 in sources + [zero, ge]:
        targets = [zero, ge, w1] + [rng.choice(states) for _ in range(3)]
        for w2 in targets:
            truth = bool(reach[comp[index[w1]]] >> comp[index[w2]] & 1)
            got = decide_reachability(G, p, w1, w2, mode=MODE_ALGEBRAIC).answer
            if got != truth:
                report.divergences.append(
                    f"{label}: reachability {w1} -> {w2} algebraic={got} enumerated={truth}"
                )
            report.reach_pairs += 1

    for _ in range(recur_oracle_pairs):
        w1 = random_state(G, p, rng, charged=True)
        w2 = rng.choice([zero, ge, rng.choice(states), rng.choice(states)])
        truth = recurrent(comp, reach, index[w1], index[w2])
        got = decide_recurrence(G, p, w1, w2, mode=MODE_ALGEBRAIC).answer
        if got != truth:
            report.divergences.append(
                f"{label}: recurrence {w1} -> {w2} algebraic={got} enumerated={truth}"
            )
        if oracle_recurrent(G, p, w1, w2) != truth:
            report.divergences.append(
                f"{label}: recurrence {w1} -> {w2} search oracle disagrees with enumeration"
            )
        report.recur_pairs += 1

    for w in [zero, ge] + [rng.choice(states) for _ in range(5)]:
        i = index[w]
        # transient: something produces w and its component reaches others
        truth = i in produced and reach[comp[i]] != 1 << comp[i]
        got = classify_state(G, p, w, mode=MODE_ALGEBRAIC) is StateClass.TRANSIENT
        if got != truth:
            report.divergences.append(
                f"{label}: classification of {w} algebraic_transient={got} enumerated={truth}"
            )
        report.classify_checks += 1

    if len(states) <= 1000:
        for _ in range(4):
            w1, w2 = rng.choice(states), rng.choice(states)
            try:
                decide_reachability(G, p, w1, w2, mode=MODE_BOTH)
                decide_recurrence(G, p, w1, w2, mode=MODE_BOTH)
                classify_state(G, p, w1, mode=MODE_BOTH)
            except MismatchError as err:
                report.divergences.append(f"{label}: {err}")
            report.oracle_cross_checks += 3

    report.structural_instances += 1
    report.structural_states += len(states)


def _orbit_pair_sweep(
    G: Hypergraph,
    p: int,
    rng: random.Random,
    report: SelftestReport,
) -> None:
    """Sampled algebra-vs-search comparison for instances too large to
    enumerate exhaustively: one breadth-first orbit per charged source,
    then membership tests against the algebraic decisions."""
    label = f"{G.n}v/{G.m}e p={p}"
    zero = (0,) * G.n
    ge = (p - 1,) * G.n
    for _ in range(ORBIT_SOURCES):
        w1 = random_state(G, p, rng, charged=True)
        orbit = orbit_bfs(G, p, w1)
        targets = [zero, ge, w1]
        while len(targets) < ORBIT_TARGETS_PER_SOURCE:
            if rng.random() < 0.5:
                targets.append(class_target(G, p, w1, rng))
            else:
                targets.append(random_state(G, p, rng))
        for w2 in targets:
            truth = w2 in orbit
            got = decide_reachability(G, p, w1, w2, mode=MODE_ALGEBRAIC).answer
            if got != truth:
                report.divergences.append(
                    f"{label}: reachability {w1} -> {w2} algebraic={got} search={truth}"
                )
            report.reach_pairs += 1
    report.sampled_instances += 1


def _synthesis_sweep(
    G: Hypergraph,
    p: int,
    rng: random.Random,
    report: SelftestReport,
    targets: int,
) -> None:
    """Synthesize and replay schedules for reachable pairs.

    Exhausts every ordered pair on tiny instances; elsewhere samples
    until `targets` positive pairs were witnessed.
    """
    if p ** G.n <= EXHAUSTIVE_PAIR_LIMIT:
        states = list(itertools.product(range(p), repeat=G.n))
        pairs = ((a, b) for a in states for b in states)
    else:
        def sampled():
            for _ in range(targets * 50):
                w1 = random_state(G, p, rng)
                yield w1, class_target(G, p, w1, rng)

        pairs = sampled()
    done = 0
    for w1, w2 in pairs:
        if not decide_reachability(G, p, w1, w2, mode=MODE_ALGEBRAIC).answer:
            continue
        if _witness_schedule(G, p, w1, w2, report):
            done += 1
            if p ** G.n > EXHAUSTIVE_PAIR_LIMIT and done >= targets:
                break


def _witness_schedule(
    G: Hypergraph, p: int, w1: State, w2: State, report: SelftestReport
) -> bool:
    """Synthesize and replay one schedule; False when synthesis failed or
    refused the pair (each is a divergence on a pair the rule accepts,
    not a crash of the sweep)."""
    try:
        schedule = synthesize_schedule(G, p, w1, w2)
    except SYNTHESIS_FAILURES as err:
        report.divergences.append(
            f"{G.n}v/{G.m}e p={p}: synthesis for {w1} -> {w2} failed: {err}"
        )
        return False
    if replay_schedule(G, p, w1, schedule) != w2:
        report.divergences.append(
            f"{G.n}v/{G.m}e p={p}: schedule for {w1} -> {w2} fails replay"
        )
    report.schedules_replayed += 1
    return True


def _witness_checks(
    G: Hypergraph,
    p: int,
    rng: random.Random,
    report: SelftestReport,
) -> None:
    """Witness or certify sampled decisions on one generated instance."""
    n = G.n
    basis = conserved_functionals(G, p)
    zero = (0,) * n
    saturated = (p - 1,) * n
    charged = (1,) + tuple(rng.randrange(1, p) for _ in range(n - 1))
    for w1, w2 in ((zero, charged), (charged, saturated)):
        decision = decide_reachability(G, p, w1, w2, mode=MODE_ALGEBRAIC)
        if decision.answer:
            report.divergences.append(
                f"{n}v/{G.m}e p={p}: decided {w1} -> {w2} reachable, expected refusal"
            )
        else:
            _verify_negative(G, p, w1, w2, decision, basis, report)
    for k in range(WITNESS_PAIRS):
        w1 = random_state(G, p, rng, charged=True)
        if k % 2 == 0:
            w2 = class_target(G, p, w1, rng)
        else:
            w2 = random_state(G, p, rng)
        decision = decide_reachability(G, p, w1, w2, mode=MODE_ALGEBRAIC)
        if decision.answer:
            if _witness_schedule(G, p, w1, w2, report):
                report.witness_positive += 1
        else:
            _verify_negative(G, p, w1, w2, decision, basis, report)


def _generated_sweep(
    report: SelftestReport,
    rng: random.Random,
    count: int,
    schedule_targets: int,
    structural_budget: int,
) -> None:
    """Seeded random well-shaped instances with up to 10 vertices and 4 edges.

    Primes are assigned so the state space stays enumerable or at least
    searchable (5 only up to 6 vertices, 3 everywhere), keeping every
    sampled pair checkable against breadth-first search.  Instances
    below the exhaustive budget get the full structural treatment plus
    a schedule sweep; the rest get sampled orbit comparisons.  All get
    witness-or-certificate checks.
    """
    for _ in range(count):
        n = rng.randint(3, 10)
        m = rng.randint(1, min(4, (n - 1) // 2))
        G = gen_good_hypergraph(n, m, seed=rng.randrange(2**32))
        p = rng.choice((3, 5)) if n <= 6 else 3
        if not is_good(G).good or G.n != n or G.m != m:
            report.divergences.append(f"generator produced a bad instance for n={n} m={m}")
            continue
        report.generated_instances += 1
        if p**n <= structural_budget:
            _structural_sweep(G, p, rng, report, recur_oracle_pairs=4)
            if p**n <= EXHAUSTIVE_STATE_BUDGET:
                _synthesis_sweep(G, p, rng, report, targets=schedule_targets)
        else:
            _orbit_pair_sweep(G, p, rng, report)
        _witness_checks(G, p, rng, report)


def _nongood_sweep(report: SelftestReport) -> None:
    """Hypergraphs outside the well-shaped family.

    The full decision rules do not apply there (and must refuse), but
    balance-system necessity holds on every hypergraph: whenever the
    filter says unreachable, exhaustive search must agree.  Checked on
    the 3-cycle of 2-vertex edges, exhaustively for p = 3: one orbit per
    source answers every target.  Pairs that are balance-solvable yet
    unreachable are counted: their existence is exactly why small edges
    void the algebraic equivalence.
    """
    G = Hypergraph(3, ((0, 1), (0, 2), (1, 2)))
    p = 3
    if is_good(G).good:
        report.divergences.append("the 2-vertex-edge triangle was accepted as well-shaped")
        return
    try:
        decide_reachability(G, p, (1, 1, 1), (0, 0, 0), mode=MODE_ALGEBRAIC)
        report.divergences.append("algebraic mode did not refuse an irregular hypergraph")
    except NotGood:
        pass
    try:
        synthesize_schedule(G, p, (1, 1, 1), (0, 0, 0))
        report.divergences.append("synthesis did not refuse an irregular hypergraph")
    except NotGood:
        pass
    states = list(itertools.product(range(p), repeat=G.n))
    for w1 in states:
        orbit = orbit_bfs(G, p, w1)
        for w2 in states:
            verdict = necessity_filter(G, p, w1, w2)
            reachable = w2 in orbit
            if verdict is None:
                if not reachable:
                    report.nongood_solvable_unreachable += 1
            elif verdict.answer:
                report.divergences.append("necessity filter returned a positive decision")
            elif reachable:
                report.divergences.append(
                    f"necessity filter wrongly excluded {w1} -> {w2} on the triangle"
                )
            report.nongood_pairs_checked += 1
    if not report.nongood_solvable_unreachable:
        report.divergences.append(
            "expected balance-solvable yet unreachable pairs on the triangle, found none"
        )


def run_selftest(
    *,
    seed: int = 20260819,
    max_small_n: int = 6,
    structural_budget: int = 16000,
    schedule_targets: int = 50,
    generated_count: int = 200,
    include_nongood: bool = True,
    progress=None,
) -> SelftestReport:
    """Run every sweep; returns the tallied report.

    The default scope covers all 79 well-shaped instances with <= 6
    vertices and <= 2 edges at p = 3 and p = 5 -- full state-digraph
    verification up to `structural_budget` states, sampled orbit
    comparison above --
    witnesses schedules for 50 reachable pairs per instance, adds
    `generated_count` seeded random instances with up to 10 vertices
    and 4 edges under the same regime, and exhausts the irregular
    triangle where the algebraic equivalence is known to break.
    """
    rng = random.Random(seed)
    report = SelftestReport()
    start = time.monotonic()

    for G in iter_small_good_hypergraphs(max_small_n):
        for p in PRIMES:
            if p**G.n <= structural_budget:
                _structural_sweep(G, p, rng, report)
            else:
                _orbit_pair_sweep(G, p, rng, report)
            _synthesis_sweep(G, p, rng, report, targets=schedule_targets)
        if progress:
            progress(f"checked {G.n} vertices, edges {G.edges}")
    if progress:
        progress(
            f"enumerated family done: {report.structural_instances} structural, "
            f"{report.sampled_instances} sampled"
        )

    _generated_sweep(report, rng, generated_count, schedule_targets, structural_budget)
    if progress:
        progress(f"generated family done: {report.generated_instances} instances")

    if include_nongood:
        _nongood_sweep(report)
        if progress:
            progress("irregular-hypergraph checks done")

    report.elapsed_seconds = time.monotonic() - start
    return report
