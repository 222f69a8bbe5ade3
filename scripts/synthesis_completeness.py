#!/usr/bin/env python3
"""Count the reachable pairs that schedule synthesis leaves without a schedule.

Every pair in the family is an algebraic "yes" (decide_reachability in
algebraic mode), so on the well-shaped family each one must end in a
replayed schedule.  A pair that synthesis fails on instead (one of
synthesis.SYNTHESIS_FAILURES, the errors the selftest counts as
divergences) is tallied as failed, and the tier goes on.  Prints one
JSON line per tier: the number of pairs, of schedules, of failed pairs,
the total number of moves, and the CPU seconds spent inside
synthesize_schedule.  The lines, with the seed, also go to
`BENCH_synthesis.json` at the root of the repository.

    PYTHONPATH=src python3 scripts/synthesis_completeness.py --seed 1

The tiers, at p = 3 unless named:
  * random well-shaped hypergraphs, a fresh one per pair, with n = 41,
    m = 15 (20 pairs) and n = 121, m = 50 (10 pairs), each with sources
    that charge three vertices and with dense random sources, and random
    targets redrawn until the pair is an algebraic yes;
  * unit chains of 3-edges with m = 100, 1 000 and 10 000 at p = 3 and
    5, one unit carried from one end to the other.

--tier runs only the named tiers.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from zpwalk.decision import MODE_ALGEBRAIC, decide_reachability
from zpwalk.generate import gen_good_hypergraph, random_state
from zpwalk.hypergraph import make_hypergraph
from zpwalk.synthesis import SYNTHESIS_FAILURES, synthesize_schedule

#: (name, n, m, pairs, source kind)
RANDOM_TIERS = (
    ("n41-charge3", 41, 15, 20, "charge3"),
    ("n41-dense", 41, 15, 20, "dense"),
    ("n121-charge3", 121, 50, 10, "charge3"),
    ("n121-dense", 121, 50, 10, "dense"),
)
CHAIN_TIERS = tuple((f"chain{m}-p{p}", m, p) for m in (100, 1000, 10_000) for p in (3, 5))
TIERS = tuple(t[0] for t in RANDOM_TIERS) + tuple(t[0] for t in CHAIN_TIERS)

#: where main writes its tier lines
OUT = Path(__file__).resolve().parent.parent / "BENCH_synthesis.json"


def random_pairs(rng: random.Random, n: int, m: int, pairs: int, kind: str, p: int = 3):
    """Yield (G, p, w1, w2) with w1 != w2 and an algebraic yes."""
    for _ in range(pairs):
        G = gen_good_hypergraph(n, m, seed=rng.randrange(2**32))
        if kind == "charge3":
            charged = set(rng.sample(range(n), 3))
            w1 = tuple(rng.randrange(1, p) if v in charged else 0 for v in range(n))
        else:
            w1 = random_state(G, p, rng)
        while True:
            w2 = random_state(G, p, rng)
            if w2 != w1 and decide_reachability(G, p, w1, w2, mode=MODE_ALGEBRAIC).answer:
                break
        yield G, p, w1, w2


def unit_chain(m: int, p: int):
    G = make_hypergraph(2 * m + 1, [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(m)])
    w1 = (1,) + (0,) * (2 * m)
    return G, p, w1, w1[::-1]


def run_tier(name: str, cases) -> dict:
    line = {"tier": name, "pairs": 0, "schedules": 0, "failed": 0,
            "moves": 0, "cpu_s": 0.0}
    for G, p, w1, w2 in cases:
        line["pairs"] += 1
        start = time.process_time()
        try:
            schedule = synthesize_schedule(G, p, w1, w2)
        except SYNTHESIS_FAILURES:
            line["failed"] += 1
        else:
            line["schedules"] += 1
            line["moves"] += len(schedule)
        finally:
            line["cpu_s"] += time.process_time() - start
    line["cpu_s"] = round(line["cpu_s"], 3)
    return line


def tier_lines(seed: int, names=TIERS):
    """Run the named tiers in TIERS order and yield one result dict each.

    Each random tier draws from its own generator, so a tier's pairs do
    not depend on which other tiers run.
    """
    for name, n, m, pairs, kind in RANDOM_TIERS:
        if name in names:
            rng = random.Random(f"{seed}/{name}")
            yield run_tier(name, random_pairs(rng, n, m, pairs, kind))
    for name, m, p in CHAIN_TIERS:
        if name in names:
            yield run_tier(name, [unit_chain(m, p)])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--tier", action="append", choices=TIERS,
                    help="run only this tier (repeatable; default all)")
    args = ap.parse_args(argv)
    lines = []
    for line in tier_lines(args.seed, args.tier or TIERS):
        lines.append(line)
        print(json.dumps(line), flush=True)
    OUT.write_text(json.dumps({"seed": args.seed, "tiers": lines}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
