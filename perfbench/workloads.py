"""The three workloads: seeded inputs, the operations, and their checks.

Each builder takes the freshly imported package, the workload seed and a
scratch directory, and returns a `Job`: a fixed list of operations, each
with a check that judges its result without trusting the layer that
produced it.  The benchmark repeats the job in a closed loop.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from checks import Rule, replay, solution_problem
from spans import paused

#: synthesis work budgets passed to synthesize_schedule: enumerated
#: kernel points for the minimum-norm sweep, and states for the search
#: fallback.  With the defaults (10**6 and 2 * 10**6) single random
#: instances with n <= 31 ran for up to 2 minutes and 0.7 GB; over
#: budget, the library answers SynthesisIncomplete, which is counted,
#: not failed.
SYNTH_CAP = 3000
SYNTH_MAX_STATES = 5000

#: selftest scope: the enumerated well-shaped family up to 5 vertices,
#: full digraph enumeration up to 3500 states, no generated family
SELFTEST_SCOPE = dict(max_small_n=5, structural_budget=3500, schedule_targets=12,
                      generated_count=0, include_nongood=True)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Job:
    ops: list[Op]
    digest: str
    instances: list[dict]
    #: exception types that are honest resource verdicts, not failures
    incomplete: tuple = ()
    #: adds what one result tells about the job to a dict of counts
    tally: Callable[[dict, object], None] | None = None


def _digest(parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _interleave(rng: random.Random, ops: list, parts: list) -> tuple[list, list]:
    """Shuffle the job so each group's calls spread over the whole run.

    The sandbox's speed drifts over seconds; run in order, all calls of
    one size fall into one window, and the percentile that sits on them
    follows that window's speed.
    """
    order = list(range(len(ops)))
    rng.shuffle(order)
    return [ops[i] for i in order], [parts[i] for i in order]


def _describe(n: int, edges, p: int, rule: Rule) -> dict:
    sum_e = sum(map(len, edges))
    return {"n": n, "m": len(edges), "sum_e": sum_e, "p": p,
            "kernel_dim": sum_e - rule.rank}


def _random_state(rng: random.Random, n: int, p: int) -> tuple[int, ...]:
    w = [rng.randrange(p) for _ in range(n)]
    w[0] = w[0] or 1
    return tuple(w)


def _with_sum(rng: random.Random, n: int, p: int, total: int) -> tuple[int, ...]:
    """A charged, unsaturated random state whose sum is total mod p."""
    while True:
        w = list(_random_state(rng, n, p))
        w[-1] = (w[-1] + total - sum(w)) % p
        if any(w) and any(x != p - 1 for x in w):
            return tuple(w)


def five_edge_tree(zp, m: int, rng: random.Random):
    """Well-shaped loose tree of m 5-edges on 4m + 1 vertices.

    At p = 3 every edge has |e| = 2 (mod p), so the state sum mod 3 is
    conserved and half of all target sums are unreachable.
    """
    n = 4 * m + 1
    labels = list(range(n))
    rng.shuffle(labels)
    fresh = iter(labels)
    used: list[int] = []
    edges = []
    for i in range(m):
        members = [next(fresh) for _ in range(5 if i == 0 else 4)]
        if i:
            members.append(rng.choice(used))
        used.extend(v for v in members if v not in used)
        edges.append(members)
    return zp.make_hypergraph(n, edges)


def _cli(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# -- decide -------------------------------------------------------------------

#: (n, p of the random instance, queries); the 5-edge instance always has
#: p = 3.  The full mix runs low on the ladder and the costly
#: certificate-carrying queries higher up.  The weights place the pooled
#: median inside the n = 101 certificate queries and the 90th percentile
#: inside the n = 401 ones, so neither sits on a step between sizes.  The
#: n = 1001 certificate query (4-5 s) is left out: it doubled the job, and
#: with two repetitions per run the figures spread by more than the bound.
DECIDE_LADDER = (
    (100, 5, ("reach+", "reach+", "reach+", "reach+sum", "reach-sum", "eden", "absorb",
              "recur+", "recur0", "recur0", "classify", "classify", "classify-sum",
              "filter-", "filter+", "filter+", "cli-reach+", "cli-reach+", "cli-reach-",
              "cli-recur", "cli-classify", "cli-classify")),
    (200, 3, ("reach+", "reach+sum", "reach-sum", "eden", "absorb", "recur+",
              "recur0", "classify", "classify-sum", "filter-", "filter+",
              "cli-reach+", "cli-reach-", "cli-classify")),
    (400, 5, ("reach+", "reach-sum", "reach-sum", "eden", "absorb", "recur+", "recur+",
              "classify", "filter-", "cli-reach-", "cli-recur")),
    (1000, 3, ("reach+", "eden", "absorb")),
)
#: queries whose answer turns on the sum invariant run on the 5-edge instance
SUMMED_QUERIES = {"reach+sum", "reach-sum", "recur+", "classify-sum", "filter-", "filter+",
                  "cli-reach-", "cli-recur"}


class _Instance:
    """One hypergraph of the decide ladder with its rule and cached systems."""

    def __init__(self, zp, G, p: int, name: str, tracer):
        self.zp, self.G, self.p, self.name, self.tracer = zp, G, p, name, tracer
        self.rule = Rule(G.n, G.edges, p)
        self._systems: dict = {}
        self.path: str | None = None

    def system(self, w1, w2):
        key = (w1, w2)
        if key not in self._systems:
            with paused(self.tracer):
                self._systems[key] = self.zp.build_system(self.G, self.p, w1, w2).system
        return self._systems[key]

    def certificate_problem(self, cert, w1, w2) -> str | None:
        """Check a certificate's payload against what its kind claims."""
        kind, data = cert.kind, cert.data
        if kind == "solution_vector":
            return solution_problem(self.system(w1, w2), data["solution"])
        if kind == "zero_state_reachable":
            return solution_problem(self.system(w1, (0,) * self.G.n), data["solution"])
        if kind == "unsolvability":
            if (data["rank"], data["augmented_rank"]) != (self.rule.rank, self.rule.rank + 1):
                return f"ranks {data['rank']}/{data['augmented_rank']}, rule says {self.rule.rank}"
            return None
        if kind == "absorbing_source":
            return None if not any(w1) else "absorbing_source for a charged source"
        if kind == "garden_of_eden":
            return None if not self.rule.has_predecessor(w2) else "garden_of_eden for a state with a predecessor"
        return f"unexpected certificate kind {kind!r}"


def _decision_check(inst: _Instance, w1, w2, want: bool):
    def check(result) -> str | None:
        if result.answer != want:
            return f"answer {result.answer}, rule says {want}"
        return inst.certificate_problem(result.certificate, w1, w2)
    return check


def _decide_ops(zp, cli, inst: _Instance, query: str, rng: random.Random) -> tuple[Op, tuple]:
    G, p, rule, n = inst.G, inst.p, inst.rule, inst.G.n
    zero = (0,) * n
    label = f"{query} {inst.name}"
    algebraic = "algebraic"
    if query in ("reach+", "reach+sum", "reach-sum", "eden", "absorb"):
        w1 = zero if query == "absorb" else _random_state(rng, n, p)
        if query == "eden":
            w2 = (p - 1,) * n
        elif query == "reach+sum":
            w2 = _with_sum(rng, n, p, sum(w1))
        elif query == "reach-sum":
            w2 = _with_sum(rng, n, p, sum(w1) + 1)
        else:
            w2 = _random_state(rng, n, p)
        op = Op(label, lambda: zp.decide_reachability(G, p, w1, w2, mode=algebraic),
                _decision_check(inst, w1, w2, rule.reach(w1, w2)))
        return op, (w1, w2)
    if query in ("recur+", "recur0"):
        if query == "recur0":
            w1, w2 = _random_state(rng, n, p), zero
        else:
            # on the 5-edge family a source with sum != 0 mod p cannot fall
            # into the zero state, so targets of its own class are recurrent
            w1 = _with_sum(rng, n, p, 1)
            w2 = _with_sum(rng, n, p, sum(w1))
        op = Op(label, lambda: zp.decide_recurrence(G, p, w1, w2, mode=algebraic),
                _decision_check(inst, w1, w2, rule.recur(w1, w2)))
        return op, (w1, w2)
    if query in ("classify", "classify-sum"):
        w = _with_sum(rng, n, p, 1) if query == "classify-sum" else _random_state(rng, n, p)
        want = "transient" if rule.transient(w) else "recurrent_or_inaccessible"

        def check(result) -> str | None:
            return None if result.value == want else f"class {result.value}, rule says {want}"

        return Op(label, lambda: zp.classify_state(G, p, w, mode=algebraic), check), (w,)
    if query in ("filter-", "filter+"):
        w1 = _random_state(rng, n, p)
        w2 = _with_sum(rng, n, p, sum(w1) + (query == "filter-"))
        solvable = w1 == w2 or rule.solvable(w1, w2)

        def check(result) -> str | None:
            if solvable:
                return None if result is None else "filter refused a solvable pair"
            if result is None or result.answer:
                return "filter let an unsolvable pair through"
            return inst.certificate_problem(result.certificate, w1, w2)

        return Op(label, lambda: zp.necessity_filter(G, p, w1, w2), check), (w1, w2)
    # the CLI slice: in-process zpwalk --json calls on the instance file
    fmt = zp.format_state
    if query == "cli-classify":
        w = _random_state(rng, n, p)
        argv = ["--json", "classify", inst.path, "--state", fmt(w), "--mode", algebraic]
        want_answer, want_code = ("transient" if rule.transient(w)
                                  else "recurrent_or_inaccessible"), 0
        states = (w,)
    else:
        command = "recur" if query == "cli-recur" else "reach"
        w1 = _with_sum(rng, n, p, 1) if command == "recur" else _random_state(rng, n, p)
        w2 = _with_sum(rng, n, p, sum(w1) + (query == "cli-reach-"))
        argv = ["--json", command, inst.path, "--from", fmt(w1), "--to", fmt(w2),
                "--mode", algebraic]
        want_answer = rule.recur(w1, w2) if command == "recur" else rule.reach(w1, w2)
        want_code = 0 if want_answer else 1
        states = (w1, w2)

    def check(result) -> str | None:
        code, text = result
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        answer = json.loads(text.strip().splitlines()[-1])["answer"]
        return None if answer == want_answer else f"answer {answer!r}, rule says {want_answer!r}"

    return Op(label, lambda: _cli(cli, argv), check), states


def build_decide(zp, cli, seed: int, workdir: str, tracer=None) -> Job:
    rng = random.Random(f"decide/{seed}")
    ops: list[Op] = []
    instances: list[dict] = []
    shapes: list = []
    parts: list = []
    for n, p, queries in DECIDE_LADDER:
        # Shapes are fixed per rung: elimination cost depends on fill-in,
        # and one n = 1000 draw took 1.0 to 1.8 s across generator seeds.
        # The run seed picks every query state.
        G = zp.gen_good_hypergraph(n, n // 4, seed=n)
        insts = [_Instance(zp, G, p, f"n={n} random", tracer)]
        if SUMMED_QUERIES.intersection(queries):
            H = five_edge_tree(zp, n // 4, random.Random(f"5-edge/{n}"))
            insts.append(_Instance(zp, H, 3, f"n={H.n} 5-edge", tracer))
        random_inst, summed_inst = insts[0], insts[-1]
        for inst in insts:
            inst.path = os.path.join(workdir, f"decide-{inst.G.n}-{inst.G.m}.hg")
            with open(inst.path, "w", encoding="utf-8") as fh:
                fh.write(zp.format_hypergraph(inst.p, inst.G))
            instances.append(_describe(inst.G.n, inst.G.edges, inst.p, inst.rule))
            shapes.append((inst.p, inst.G.n, inst.G.edges))
        for query in queries:
            inst = summed_inst if query in SUMMED_QUERIES else random_inst
            op, states = _decide_ops(zp, cli, inst, query, rng)
            ops.append(op)
            parts.append((op.label, states))
    ops, parts = _interleave(rng, ops, parts)
    return Job(ops, _digest((shapes, parts)), instances)


# -- synthesize ---------------------------------------------------------------

#: chains of 3-edges carrying one unit end to end: (m, primes, weight).
#: A chain is the same input every time, so weight repeats it.
CHAIN_LADDER = ((20, (3, 5), 24), (50, (3, 5), 6), (60, (3, 5), 1))
#: seeded random well-shaped instances: (n, m, count), p alternating 3, 5
RANDOM_TIERS = ((11, 3, 2), (21, 6, 4), (31, 8, 8))
# Percentiles sit in groups of deterministic chain calls: the median in
# the m = 20 chains, the 90th percentile in the m = 50 ones.  The median
# latency of the random instances moved by a third between seeds, because
# the seed decides which of them fall back to the minimum-norm descent.


def _chain(zp, m: int):
    edges = [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(m)]
    return zp.make_hypergraph(2 * m + 1, edges)


def _class_target(rng: random.Random, G, p: int, w1) -> tuple[int, ...]:
    """w1 plus random multiples of every move effect: balance-solvable."""
    w2 = list(w1)
    for e in G.edges:
        for v in e:
            x = rng.randrange(p)
            for u in e:
                w2[u] = (w2[u] + x) % p
            w2[v] = (w2[v] - 2 * x) % p
    return tuple(w2)


def build_synthesize(zp, cli, seed: int, workdir: str, tracer=None) -> Job:
    rng = random.Random(f"synthesize/{seed}")
    cases = []
    for m, primes, weight in CHAIN_LADDER:
        G = _chain(zp, m)
        w1 = (1,) + (0,) * (G.n - 1)
        w2 = w1[::-1]
        cases += [(f"chain m={m} p={p}", G, p, w1, w2) for p in primes] * weight
    for n, m, count in RANDOM_TIERS:
        for i in range(count):
            p = (3, 5)[i % 2]
            G = zp.gen_good_hypergraph(n, m, seed=rng.randrange(2**32))
            rule = Rule(G.n, G.edges, p)
            while True:
                w1 = _random_state(rng, n, p)
                w2 = _class_target(rng, G, p, w1)
                if w1 != w2 and rule.reach(w1, w2):
                    break
            cases.append((f"random n={n} m={m} p={p}", G, p, w1, w2))
    ops, instances, parts = [], [], []
    for label, G, p, w1, w2 in cases:
        ops.append(Op(label, _synth_call(zp, G, p, w1, w2), _replay_check(G, p, w1, w2)))
        instances.append(_describe(G.n, G.edges, p, Rule(G.n, G.edges, p)))
        parts.append((label, G.edges, w1, w2))
    ops, parts = _interleave(rng, ops, parts)

    def tally(tallies, result):
        if isinstance(result, BaseException):
            tallies["synthesis_incomplete"] = tallies.get("synthesis_incomplete", 0) + 1
        else:
            tallies["schedule_moves"] = tallies.get("schedule_moves", 0) + len(result)

    return Job(ops, _digest((SYNTH_CAP, SYNTH_MAX_STATES, parts)), instances,
               incomplete=(zp.SynthesisIncomplete,), tally=tally)


def _synth_call(zp, G, p, w1, w2):
    return lambda: zp.synthesize_schedule(G, p, w1, w2, max_states=SYNTH_MAX_STATES,
                                          cap=SYNTH_CAP)


def _replay_check(G, p, w1, w2):
    def check(result) -> str | None:
        try:
            final = replay(G.edges, p, w1, [(mv.vertex, mv.edge) for mv in result])
        except ValueError as err:
            return f"schedule does not replay: {err}"
        return None if final == w2 else "schedule replays to the wrong state"
    return check


# -- selftest -----------------------------------------------------------------

def build_selftest(zp, cli, seed: int, workdir: str, tracer=None) -> Job:
    sweep_seed = random.Random(f"selftest/{seed}").randrange(2**32)

    def check(report) -> str | None:
        return None if report.ok else "; ".join(report.divergences[:3])

    def tally(tallies, report):
        if not isinstance(report, BaseException):
            for key in ("structural_instances", "structural_states", "sampled_instances",
                        "reach_pairs", "recur_pairs", "classify_checks",
                        "oracle_cross_checks", "schedules_replayed", "generated_instances",
                        "synthesis_incomplete", "nongood_pairs_checked"):
                tallies[key] = getattr(report, key)

    op = Op("run_selftest", lambda: zp.run_selftest(seed=sweep_seed, **SELFTEST_SCOPE), check)
    return Job([op], _digest((sweep_seed, sorted(SELFTEST_SCOPE.items()))), [], tally=tally)


BUILDERS = {
    "decide": build_decide,
    "synthesize": build_synthesize,
    "selftest": build_selftest,
}
