#!/usr/bin/env python3
"""Run the full self-verification suite and print the tallied report.

Thin runner around zpwalk.selftest.run_selftest for use outside pytest:
sweeps every well-shaped instance up to the small-size cutoff against
an exhaustively enumerated state digraph, samples larger seeded random
instances, replay-verifies synthesized schedules, and cross-checks the
non-good necessity filter.  Exit status 0 iff no divergences.

Typical runs:

    python3 scripts/run_selftest.py                  # full sweep (~70 s)
    python3 scripts/run_selftest.py --quick          # trimmed sweep (~8 s)
    python3 scripts/run_selftest.py --seed 7 -g 400  # bigger random family
"""

from __future__ import annotations

import argparse
import sys

from zpwalk.selftest import run_selftest


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=20260819)
    ap.add_argument("--max-n", type=int, default=6,
                    help="largest vertex count for the exhaustive small family")
    ap.add_argument("-g", "--generated", type=int, default=200,
                    help="number of seeded random instances")
    ap.add_argument("--schedule-targets", type=int, default=50,
                    help="positive synthesis targets per sampled instance")
    ap.add_argument("--structural-budget", type=int, default=16000,
                    help="max p**n for full digraph enumeration")
    ap.add_argument("--skip-nongood", action="store_true",
                    help="skip the non-well-shaped necessity sweep")
    ap.add_argument("--quick", action="store_true",
                    help="shrink every knob for a fast smoke run")
    ap.add_argument("-q", "--quiet", action="store_true")
    args = ap.parse_args(argv)

    if args.quick:
        args.max_n = min(args.max_n, 5)
        args.generated = min(args.generated, 25)
        args.schedule_targets = min(args.schedule_targets, 12)
        args.structural_budget = min(args.structural_budget, 3500)

    progress = None if args.quiet else (lambda msg: print(msg, file=sys.stderr))
    report = run_selftest(
        seed=args.seed,
        max_small_n=args.max_n,
        structural_budget=args.structural_budget,
        schedule_targets=args.schedule_targets,
        generated_count=args.generated,
        include_nongood=not args.skip_nongood,
        progress=progress,
    )
    print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
