#!/usr/bin/env python3
"""Time every stage from hypergraph text to a reachability answer.

For each rung, a seeded hypergraph (a chain of 3-edges through shuffled
vertex labels, or a `gen_good_hypergraph` instance with n // 4 edges),
p = 3, and two seeded random states.  The stages, in CPU seconds of
this process (`time.process_time`, as in `oracle_ladder.py`), so that
other load on a shared host does not count:

  gen        build the hypergraph (`Hypergraph` for a chain, the
             generator otherwise)
  format     `format_hypergraph`
  parse      `parse_hypergraph` of that text
  states     `parse_state` of the two state literals
  structure  `G.structure` on the parsed hypergraph
  goodness   `G.goodness`
  decide     algebraic `decide_reachability`, structure and goodness cached
  fresh      structure + goodness + decide: a first library decide on a
             hypergraph nothing is cached on
  cli        one in-process `cli.main(["--json", "reach", ...,
             "--mode", "algebraic"])` on the written file (in-process
             argv has no per-argument size limit)
  schedule   one `synthesize_schedule` for the rung's pair on the parsed
             hypergraph, on which no peel plan is kept yet;
             null when the pair is not reachable
  verify     `format_schedule` of that schedule, then `parse_schedule`
             of the text and `replay_schedule` of what it parsed, as
             the `schedule` and `verify` commands do; null with schedule

Each stage is timed --repeats times and its median printed.  One JSON
line per rung; the rows, with the seed, sizes and repeats, also go to
`BENCH_text_to_answer.json` at the root of the repository; stdlib only.

    PYTHONPATH=src python3 scripts/text_to_answer_ladder.py
    PYTHONPATH=src python3 scripts/text_to_answer_ladder.py --sizes 500000 --repeats 3
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

from zpwalk import cli
from zpwalk.decision import decide_reachability
from zpwalk.dynamics import (
    format_schedule,
    format_state,
    parse_schedule,
    parse_state,
    replay_schedule,
)
from zpwalk.generate import gen_good_hypergraph, random_state
from zpwalk.hypergraph import Hypergraph, format_hypergraph, parse_hypergraph
from zpwalk.synthesis import synthesize_schedule

SIZES = (10**4, 10**5, 10**6)
P = 3
OUT = Path(__file__).resolve().parent.parent / "BENCH_text_to_answer.json"


def chain(n: int, rng: random.Random) -> Hypergraph:
    """3-edges chained end to end over a seeded labelling; an even n
    puts its spare vertex on the last edge."""
    labels = list(range(n))
    rng.shuffle(labels)
    edges = [labels[i:i + 3] for i in range(0, n - 2, 2)]
    if n % 2 == 0:
        edges[-1].append(labels[-1])
    return Hypergraph(n, tuple(tuple(sorted(e)) for e in edges))


def _timed(fn):
    start = time.process_time()
    out = fn()
    return time.process_time() - start, out


def measure(kind: str, n: int, rng: random.Random, workdir: str) -> dict:
    seed = rng.randrange(2**32)
    if kind == "chain":
        t_gen, G = _timed(lambda: chain(n, random.Random(seed)))
    else:
        t_gen, G = _timed(lambda: gen_good_hypergraph(n, n // 4, seed=seed))
    t_format, text = _timed(lambda: format_hypergraph(P, G))
    path = os.path.join(workdir, f"{kind}-{n}.hg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    s1, s2 = (format_state(random_state(G, P, rng)) for _ in range(2))
    t_parse, (p, H) = _timed(lambda: parse_hypergraph(text))
    t_states, (w1, w2) = _timed(lambda: (parse_state(s1, p, H.n), parse_state(s2, p, H.n)))
    t_structure, _ = _timed(lambda: H.structure)
    t_goodness, report = _timed(lambda: H.goodness)
    t_decide, decision = _timed(lambda: decide_reachability(H, p, w1, w2, mode="algebraic"))
    argv = ["--json", "reach", path, "--from", s1, "--to", s2, "--mode", "algebraic"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t_cli, code = _timed(lambda: cli.main(argv))
    if not report.good or json.loads(out.getvalue())["answer"] != decision.answer:
        raise SystemExit(f"{kind} n={n}: inconsistent run")
    t_schedule = t_verify = moves = None
    if decision.answer:
        t_schedule, schedule = _timed(lambda: synthesize_schedule(H, p, w1, w2))
        moves = len(schedule)
        t_verify, end = _timed(
            lambda: replay_schedule(H, p, w1, parse_schedule(format_schedule(schedule))))
        if end != w2:
            raise SystemExit(f"{kind} n={n}: the schedule's text does not replay to the target")
    return {"gen": t_gen, "format": t_format, "parse": t_parse, "states": t_states,
            "structure": t_structure, "goodness": t_goodness, "decide": t_decide,
            "fresh": t_structure + t_goodness + t_decide, "cli": t_cli,
            "schedule": t_schedule, "verify": t_verify, "m": G.m, "answer": decision.answer, "exit": code,
            "moves": moves}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--sizes", type=lambda s: [int(x) for x in s.split(",")],
                    default=list(SIZES), help="comma-separated vertex counts")
    ap.add_argument("--repeats", type=int, default=1, help="runs per rung; medians are printed")
    args = ap.parse_args(argv)
    if args.repeats < 1 or min(args.sizes) < 4:  # a gen rung needs n // 4 >= 1 edges
        ap.error("--repeats must be at least 1 and every size at least 4")
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        for n in args.sizes:
            for kind in ("chain", "gen"):
                runs = [measure(kind, n, random.Random(f"{args.seed}/{kind}/{n}"), workdir)
                        for _ in range(args.repeats)]
                row = {"kind": kind, "n": n, "m": runs[0]["m"], "p": P,
                       "answer": runs[0]["answer"], "exit": runs[0]["exit"],
                       "moves": runs[0]["moves"]}
                for stage in ("gen", "format", "parse", "states", "structure", "goodness",
                              "decide", "fresh", "cli", "schedule", "verify"):
                    times = [r[stage] for r in runs if r[stage] is not None]
                    row[f"{stage}_s"] = round(statistics.median(times), 4) if times else None
                rows.append(row)
                print(json.dumps(row), flush=True)
    OUT.write_text(json.dumps({"seed": args.seed, "sizes": args.sizes,
                               "repeats": args.repeats, "rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
