#!/usr/bin/env python3
"""Fingerprint what schedule synthesis does on a seeded family of cases.

Runs 490 seeded cases and prints how many ended in a schedule and how
many in each error type, the total number of moves, and one sha256 over
every case's move list or error type.  Two checkouts that print the same
lines build the same schedules and refuse with the same errors on this
family, so a change that must keep synthesis's behaviour identical is
checked by running this on both and comparing:

    PYTHONPATH=src python3 scripts/synthesis_digest.py --seed 1

The family:
  * 300 random well-shaped instances with n <= 31 and p in {3, 5}; the
    target is a random balance-solvable one, a random state, or the
    source holds one unit on one to three vertices (so that synthesis
    must walk charge over to an empty edge);
  * 10 unit chains of 3-edges (m <= 60, one unit from end to end);
  * 180 single-edge pairs, k = 3..8 and p in {3, 5, 7}; every third one
    sits on an edge inside k + 2 vertices and goes to
    single_edge_schedule, since synthesis refuses a disconnected
    hypergraph.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from collections import Counter

from zpwalk.errors import ZpwalkError
from zpwalk.generate import class_target, gen_good_hypergraph, random_state
from zpwalk.hypergraph import make_hypergraph
from zpwalk.synthesis import single_edge_schedule, synthesize_schedule


def cases(rng: random.Random):
    """Yield (synthesizer, G, p, w1, w2) for every case, in a fixed order."""
    for i in range(300):
        n = rng.randint(3, 31)
        m = rng.randint(1, min(8, (n - 1) // 2))
        G = gen_good_hypergraph(n, m, seed=rng.randrange(2**32))
        p = rng.choice((3, 5))
        if i % 3 == 0:
            w1 = random_state(G, p, rng)
            w2 = class_target(G, p, w1, rng)
        elif i % 3 == 1:
            w1, w2 = random_state(G, p, rng), random_state(G, p, rng)
        else:
            charged = rng.sample(range(n), rng.randint(1, 3))
            w1 = tuple(1 if v in charged else 0 for v in range(n))
            w2 = class_target(G, p, w1, rng, skip=rng.randrange(m))
        yield synthesize_schedule, G, p, w1, w2
    for m in range(6, 61, 6):
        G = make_hypergraph(2 * m + 1, [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(m)])
        w1 = (1,) + (0,) * (2 * m)
        yield synthesize_schedule, G, 3, w1, w1[::-1]
    for k in range(3, 9):
        for p in (3, 5, 7):
            for j in range(10):
                if j % 3 == 2:
                    n = k + 2
                    edge = tuple(sorted(rng.sample(range(n), k)))
                    synth = single_edge_schedule
                else:
                    n, edge, synth = k, tuple(range(k)), synthesize_schedule
                G = make_hypergraph(n, [edge])
                w1 = random_state(G, p, rng)
                w2 = class_target(G, p, w1, rng) if j % 2 == 0 else random_state(G, p, rng)
                yield synth, G, p, w1, w2


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    digest = hashlib.sha256()
    outcomes: Counter[str] = Counter()
    moves = 0
    for synth, G, p, w1, w2 in cases(random.Random(args.seed)):
        try:
            schedule = synth(G, p, w1, w2)
        except ZpwalkError as err:
            outcome = type(err).__name__
            digest.update(f"{outcome}\n".encode())
        else:
            outcome = "schedule"
            moves += len(schedule)
            digest.update(" ".join(f"{mv.vertex}:{mv.edge}" for mv in schedule).encode())
            digest.update(b"\n")
        outcomes[outcome] += 1
    print(f"seed {args.seed}: {sum(outcomes.values())} cases")
    for outcome, count in sorted(outcomes.items()):
        print(f"  {outcome}: {count}")
    print(f"moves: {moves}")
    print(f"sha256: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
