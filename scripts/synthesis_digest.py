#!/usr/bin/env python3
"""Fingerprint what schedule synthesis does on a seeded family of cases.

Runs 490 seeded cases and prints how many ended in a schedule and how
many in each error type, the total number of moves, and one sha256 over
every case's move list or error type.  Two checkouts that print the same
lines build the same schedules and refuse with the same errors on this
family, so a change that must keep synthesis's behaviour identical is
checked by running this on both and comparing:

    PYTHONPATH=src python3 scripts/synthesis_digest.py --seed 1

The family, with max_states = cap = 2000:
  * 300 random well-shaped instances with n <= 31 and p in {3, 5}; the
    target is a random balance-solvable one, a random state, or the
    source holds one unit on one to three vertices (so that synthesis
    must walk charge over to a bridging edge);
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
from zpwalk.generate import gen_good_hypergraph
from zpwalk.hypergraph import make_hypergraph
from zpwalk.synthesis import single_edge_schedule, synthesize_schedule

LIMIT = 2000


def class_target(rng: random.Random, G, p: int, w1, skip=None) -> tuple[int, ...]:
    """w1 plus random multiples of every move's effect off edge `skip`.

    The result is balance-solvable, and without moves on `skip`.
    """
    w2 = list(w1)
    for ei, e in enumerate(G.edges):
        if ei == skip:
            continue
        for v in e:
            x = rng.randrange(p)
            for u in e:
                w2[u] = (w2[u] + x) % p
            w2[v] = (w2[v] - 2 * x) % p
    return tuple(w2)


def random_state(rng: random.Random, n: int, p: int) -> tuple[int, ...]:
    return tuple(rng.randrange(p) for _ in range(n))


def cases(rng: random.Random):
    """Yield (synthesizer, G, p, w1, w2) for every case, in a fixed order."""
    for i in range(300):
        n = rng.randint(3, 31)
        m = rng.randint(1, min(8, (n - 1) // 2))
        G = gen_good_hypergraph(n, m, seed=rng.randrange(2**32))
        p = rng.choice((3, 5))
        if i % 3 == 0:
            w1 = random_state(rng, n, p)
            w2 = class_target(rng, G, p, w1)
        elif i % 3 == 1:
            w1, w2 = random_state(rng, n, p), random_state(rng, n, p)
        else:
            charged = rng.sample(range(n), rng.randint(1, 3))
            w1 = tuple(1 if v in charged else 0 for v in range(n))
            w2 = class_target(rng, G, p, w1, skip=rng.randrange(m))
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
                w1 = random_state(rng, n, p)
                w2 = class_target(rng, G, p, w1) if j % 2 == 0 else random_state(rng, n, p)
                yield synth, G, p, w1, w2


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    digest = hashlib.sha256()
    outcomes: Counter[str] = Counter()
    moves = 0
    for synth, G, p, w1, w2 in cases(random.Random(args.seed)):
        kwargs = {"max_states": LIMIT, "cap": LIMIT} if synth is synthesize_schedule else {}
        try:
            schedule = synth(G, p, w1, w2, **kwargs)
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
