#!/usr/bin/env python3
"""Time the search oracle on a fixed ladder of instances.

For each rung, a seeded well-shaped hypergraph and a seeded charged
source: the CPU seconds (time.process_time) of `orbit_bfs` (the full
orbit) and of `oracle_escape` (the orbit plus the back-sweep from a
seeded target in it).  The first query is the median over `--repeats`
fresh copies of the hypergraph, nothing cached; the repeated query is
the median of as many more on the last copy.  States per second divide
the orbit size by those seconds.  `stored` says whether the instance has
at most `dynamics.TABLE_STATES` states, so that its engine stores each
row once and stays cached on the hypergraph, warm for a repeated query;
above the bound each query builds its own engine and sums every row
afresh on each visit, so a repeat costs what a first query does.  One
JSON line per rung, and all of them, with the seed and the repeats, in
`BENCH_oracle_ladder.json` at the root of the repository; stdlib only.

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
from pathlib import Path

from zpwalk.dynamics import oracle_escape, orbit_bfs, state_space
from zpwalk.generate import gen_good_hypergraph
from zpwalk.hypergraph import Hypergraph

#: (vertices, edges, modulus): 2186, 19 682, 78 124, 177 146 and 59 048
#: orbit states; the third and fourth are above the stored-row bound, the
#: last is the largest stored instance at p = 3
LADDER = ((7, 3, 3), (9, 4, 3), (7, 3, 5), (11, 5, 3), (10, 4, 3))

#: where main writes its rows
OUT = Path(__file__).resolve().parent.parent / "BENCH_oracle_ladder.json"


def _seconds(fn) -> float:
    start = time.process_time()
    fn()
    return time.process_time() - start


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
        firsts = []
        for _ in range(repeats):
            fresh = Hypergraph(G.n, G.edges)  # no engine cached on it yet
            firsts.append(_seconds(lambda: query(fresh)))
        first = statistics.median(firsts)
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
                    help="first and repeated queries per rung; their medians are reported")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    rng = random.Random(args.seed)
    rows = []
    for n, m, p in LADDER:
        rows.append(measure(n, m, p, rng, args.repeats))
        print(json.dumps(rows[-1]), flush=True)
    OUT.write_text(json.dumps({"seed": args.seed, "repeats": args.repeats, "rows": rows},
                              indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
