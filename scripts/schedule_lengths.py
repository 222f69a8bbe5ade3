#!/usr/bin/env python3
"""Measure synthesized schedule lengths against BFS-shortest ones.

The constructive synthesizer trades minimality for termination: its
schedules are correct by replay but can be much longer than the BFS
optimum.  Nothing in the decision layer bounds that overhead -- here we
just measure it over a seeded family of well-shaped instances, pairing
each synthesized schedule with the true shortest schedule extracted
from the orbit BFS of the same source state.

Output: one row per instance (mean/max overhead ratio across sampled
reachable targets) and an aggregate summary line.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
from dataclasses import dataclass

from zpwalk.dynamics import extract_schedule, orbit_bfs, replay_schedule
from zpwalk.generate import gen_good_hypergraph, random_state
from zpwalk.synthesis import synthesize_schedule


@dataclass
class Row:
    n: int
    m: int
    p: int
    pairs: int
    mean_opt: float
    mean_syn: float
    ratio_mean: float
    ratio_max: float


def measure_instance(seed: int, rng: random.Random, pairs: int) -> Row | None:
    n = rng.randint(3, 8)
    m = rng.randint(1, min(3, (n - 1) // 2))
    p = rng.choice((3, 5)) if n <= 6 else 3
    if p**n > 3**8:
        p = 3
    G = gen_good_hypergraph(n, m, seed=seed)

    w1 = random_state(G, p, rng, charged=True)
    orbit = orbit_bfs(G, p, w1)
    targets = [w for w in orbit.order[1:] if any(w)]
    if not targets:
        return None
    rng.shuffle(targets)

    opts: list[int] = []
    syns: list[int] = []
    ratios: list[float] = []
    for w2 in targets[:pairs]:
        shortest = extract_schedule(orbit, w2)
        sched = synthesize_schedule(G, p, w1, w2)
        assert replay_schedule(G, p, w1, sched) == w2
        opt, syn = len(shortest), len(sched)
        opts.append(opt)
        syns.append(syn)
        ratios.append(syn / max(opt, 1))
    return Row(n, m, p, len(opts), statistics.mean(opts),
               statistics.mean(syns), statistics.mean(ratios), max(ratios))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=20260819)
    ap.add_argument("-i", "--instances", type=int, default=30)
    ap.add_argument("--pairs", type=int, default=20,
                    help="sampled reachable targets per instance")
    args = ap.parse_args(argv)
    if args.instances < 1 or args.pairs < 1:
        ap.error("--instances and --pairs must be at least 1")

    rng = random.Random(args.seed)
    rows: list[Row] = []
    print(f"{'n':>3} {'m':>2} {'p':>2} {'pairs':>5} {'opt':>7} "
          f"{'synth':>8} {'ratio':>7} {'worst':>7}")
    while len(rows) < args.instances:
        row = measure_instance(rng.randrange(2**30), rng, args.pairs)
        if row is None:
            continue
        rows.append(row)
        print(f"{row.n:>3} {row.m:>2} {row.p:>2} {row.pairs:>5} "
              f"{row.mean_opt:>7.2f} {row.mean_syn:>8.2f} "
              f"{row.ratio_mean:>7.2f} {row.ratio_max:>7.1f}")

    total = sum(r.pairs for r in rows)
    print(f"\n{len(rows)} instances, {total} schedule pairs; "
          f"overall mean overhead "
          f"{statistics.mean([r.ratio_mean for r in rows]):.2f}x, "
          f"worst {max(r.ratio_max for r in rows):.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
