#!/usr/bin/env python3
"""Time the search oracle on a fixed ladder of instances.

For each rung, a seeded well-shaped hypergraph and a seeded charged
source: the seconds of `orbit_bfs` (the full orbit) and of
`oracle_escape` (the orbit plus the back-sweep from a seeded target in
it), each once on a fresh copy of the hypergraph (first query, nothing
cached) and then repeated on the same copy (repeated query, the
instance's engine warm).  States per second divide the orbit size by
those seconds.  `stored` says whether the instance has at most
`dynamics.TABLE_STATES` states, so that its engine stores each row once;
above the bound every row is summed afresh on each visit.  One JSON line
per rung; stdlib only.

    PYTHONPATH=src python3 scripts/oracle_ladder.py
    PYTHONPATH=src python3 scripts/oracle_ladder.py --seed 2 --repeats 5
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time

from zpwalk.dynamics import oracle_escape, orbit_bfs, state_space
from zpwalk.generate import gen_good_hypergraph
from zpwalk.hypergraph import Hypergraph

#: (vertices, edges, modulus): 2186, 19 682, 78 124 and 177 146 orbit
#: states; the last two are above the stored-row bound
LADDER = ((7, 3, 3), (9, 4, 3), (7, 3, 5), (11, 5, 3))


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure(n: int, m: int, p: int, rng: random.Random, repeats: int) -> dict:
    G = gen_good_hypergraph(n, m, seed=rng.randrange(2**32))
    w1 = tuple(rng.randrange(1, p) for _ in range(n))
    orbit = orbit_bfs(G, p, w1)
    w2 = orbit.order[rng.randrange(len(orbit))]
    row = {"n": n, "m": m, "p": p, "states": len(orbit),
           "stored": state_space(G, p).stored}
    queries = {"orbit_bfs": lambda H: orbit_bfs(H, p, w1),
               "oracle_escape": lambda H: oracle_escape(H, p, w1, w2)}
    for name, query in queries.items():
        fresh = Hypergraph(G.n, G.edges)  # no engine cached on it yet
        first = _seconds(lambda: query(fresh))
        repeat = statistics.median(_seconds(lambda: query(fresh)) for _ in range(repeats))
        row[f"{name}.first_s"] = round(first, 4)
        row[f"{name}.repeat_s"] = round(repeat, 4)
        row[f"{name}.first_states_per_s"] = round(len(orbit) / first)
        row[f"{name}.repeat_states_per_s"] = round(len(orbit) / repeat)
    return row


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=3,
                    help="repeated queries per rung; their median is reported")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    rng = random.Random(args.seed)
    for n, m, p in LADDER:
        print(json.dumps(measure(n, m, p, rng, args.repeats)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
