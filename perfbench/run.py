#!/usr/bin/env python3
"""zpwalk benchmark: one seeded workload, closed loop, one client.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 25 --trace 0

Builds nothing: it imports the package from ``src/`` of the checkout it
lives in, generates its inputs from ``--seed``, and repeats the
workload's fixed job until ``--seconds`` are used.  Every answer is
checked independently of the layer that produced it.  Human-readable
lines come first; the last line of standard output is one JSON object
``{correct, attempted, failed, metrics}``.  ``--trace 0`` reports the
end-to-end metrics, with times in reference seconds (see speed.py),
``--trace 1`` the per-layer metrics of a traced run
and writes its spans under ``perfbench/out/``.  Exits 1 when an answer
check failed and 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [BENCH_DIR, SRC]

from spans import LAYERS, Tracer, paused  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from workloads import BUILDERS  # noqa: E402

#: set-ups per run; setup_s is their median
SETUPS = 21


def _fresh_import():
    """Import zpwalk from this checkout, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "zpwalk" or n.startswith("zpwalk.")]:
        del sys.modules[name]
    zp = importlib.import_module("zpwalk")
    cli = importlib.import_module("zpwalk.cli")
    if not os.path.abspath(zp.__file__).startswith(SRC + os.sep):
        raise ImportError(f"zpwalk was imported from {zp.__file__}, not from {SRC}")
    return zp, cli


def setup(workload: str, seed: int, workdir: str, tracer: Tracer | None = None):
    """Import, generate the seeded inputs and write the CLI instance files."""
    start = time.perf_counter()
    zp, cli = _fresh_import()
    if tracer is not None:
        tracer.install()
    job = BUILDERS[workload](zp, cli, seed, workdir, tracer)
    return time.perf_counter() - start, job


class Loop:
    """Runs a job repeatedly and checks every answer."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.walls: list[float] = []
        self.latencies_ms: list[float] = []
        #: (start, end) of every repetition and every operation
        self.rep_spans: list[tuple[float, float]] = []
        self.op_spans: list[tuple[float, float]] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.incomplete = 0
        self.rep_counters: list[dict] = []
        self.tallies: dict = {}

    def run_job(self, job) -> None:
        results = []
        before = dict(self.tracer.counters) if self.tracer else None
        with self.tracer.span("bench.job") if self.tracer else contextlib.nullcontext():
            job_start = time.perf_counter()
            for op in job.ops:
                start = time.perf_counter()
                try:
                    result = op.run()
                except Exception as err:  # judged by the op's check below
                    result = err
                results.append((op, result, start, time.perf_counter()))
            self.rep_spans.append((job_start, time.perf_counter()))
            self.walls.append(self.rep_spans[-1][1] - job_start)
        if self.tracer:
            self.rep_counters.append({k: v - before.get(k, 0)
                                      for k, v in self.tracer.counters.items()})
        tallies: dict = {}
        with paused(self.tracer):
            for op, result, start, end in results:
                self.attempted += 1
                self.op_spans.append((start, end))
                self.latencies_ms.append((end - start) * 1000)
                if isinstance(result, job.incomplete):
                    self.incomplete += 1
                    problem = None
                elif isinstance(result, Exception):
                    problem = f"raised {type(result).__name__}: {result}"
                else:
                    problem = op.check(result)
                if problem:
                    self.failures.append(f"{op.label}: {problem}")
                if job.tally:
                    job.tally(tallies, result)
        self.tallies = tallies

    def run_until(self, job, seconds: float, started: float) -> None:
        """Repeat the job while the next repetition should end in time."""
        while True:
            self.run_job(job)
            elapsed = time.perf_counter() - started
            if elapsed + statistics.median(self.walls) > seconds:
                return


def _quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(args, workdir: str):
    """Times in reference seconds (see speed.py); raw wall times are printed."""
    setups = []
    with SpeedSampler() as speed:
        for _ in range(SETUPS):
            start = time.perf_counter()
            seconds, job = setup(args.workload, args.seed, workdir)
            setups.append((start, start + seconds))
        loop = Loop()
        loop.run_until(job, args.seconds, time.perf_counter())
    walls = [speed.seconds(*span) for span in loop.rep_spans]
    latencies_ms = [speed.seconds(*span) * 1000 for span in loop.op_spans]
    metrics = {
        "setup_s": (statistics.median(speed.seconds(*span) for span in setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_ms.p50": (statistics.median(latencies_ms), "ms"),
        "op_ms.p90": (_quantile(latencies_ms, 0.9), "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    raw = {"raw setup_s": statistics.median(e - s for s, e in setups),
           "raw wall_s": statistics.median(loop.walls),
           "raw op_ms.p50": statistics.median(loop.latencies_ms),
           "raw op_ms.p90": _quantile(loop.latencies_ms, 0.9),
           "reference chunks": len(speed.starts)}
    return job, loop, metrics, raw


def per_layer(args, workdir: str):
    # untraced baseline repetition, for the tracing overhead
    _, job = setup(args.workload, args.seed, workdir)
    started = time.perf_counter()
    # the overhead compares reference seconds; span times stay raw
    with SpeedSampler() as speed:
        baseline = Loop()
        baseline.run_job(job)
        tracer = Tracer()
        for _ in range(SETUPS):
            with tracer.span("bench.setup"):
                _, job = setup(args.workload, args.seed, workdir, tracer)
        tracer.counters.clear()  # job metrics count only the job's work
        loop = Loop(tracer)
        loop.run_until(job, args.seconds, started)
    untraced_s = speed.seconds(*baseline.rep_spans[0])
    traced_s = statistics.median(speed.seconds(*span) for span in loop.rep_spans)
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    tracer.dump(os.path.join(BENCH_DIR, "out", f"trace-{args.workload}-{args.seed}.jsonl"))

    reps = len(loop.walls)
    agg = tracer.aggregate()
    job_spans = agg.get("bench.job", {})
    setup_spans = agg.get("bench.setup", {})

    def span(name: str, field: str) -> float:
        return job_spans.get(name, {}).get(field, 0) / reps

    def counter(name: str) -> float:
        return tracer.counters.get(name, 0) / reps

    bfs_ms = span("dynamics.orbit_bfs", "ms")
    metrics = {
        "zp_algebra.gaussian_solve.ms": (span("zp_algebra.gaussian_solve", "ms"), "ms"),
        "zp_algebra.gaussian_solve.calls": (span("zp_algebra.gaussian_solve", "calls"), "count"),
        "zp_algebra.gaussian_solve.cells": (counter("zp_algebra.gaussian_solve.cells"), "count"),
        "zp_algebra.system_norm.ms": (span("zp_algebra.system_norm", "ms"), "ms"),
        "zp_algebra.enumerate_solutions.yielded":
            (counter("zp_algebra.enumerate_solutions.yielded"), "count"),
        "hypergraph.is_good.ms": (span("hypergraph.is_good", "ms"), "ms"),
        "hypergraph.parse_hypergraph.ms": (span("hypergraph.parse_hypergraph", "ms"), "ms"),
        "dynamics.has_predecessor.ms": (span("dynamics.has_predecessor", "ms"), "ms"),
        "dynamics.orbit_bfs.ms": (bfs_ms, "ms"),
        "dynamics.orbit_bfs.states": (counter("dynamics.orbit_bfs.states"), "count"),
        "dynamics.orbit_bfs.states_per_s":
            (counter("dynamics.orbit_bfs.states") / (bfs_ms / 1000) if bfs_ms else 0.0, "1/s"),
        "dynamics.oracle_recurrent.ms": (span("dynamics.oracle_recurrent", "ms"), "ms"),
        "dynamics.oracle_recurrent.calls": (span("dynamics.oracle_recurrent", "calls"), "count"),
        "dynamics.apply_move.calls": (counter("dynamics.apply_move.calls"), "count"),
        "dynamics.replay_schedule.ms": (span("dynamics.replay_schedule", "ms"), "ms"),
        "decision.build_system.ms": (span("decision.build_system", "ms"), "ms"),
        "decision.build_system.calls": (span("decision.build_system", "calls"), "count"),
        "decision.decide_reachability.self_ms":
            (span("decision.decide_reachability", "self_ms"), "ms"),
        "decision.decide_recurrence.self_ms":
            (span("decision.decide_recurrence", "self_ms"), "ms"),
        "decision.classify_state.self_ms": (span("decision.classify_state", "self_ms"), "ms"),
        "decision.necessity_filter.self_ms": (span("decision.necessity_filter", "self_ms"), "ms"),
        "synthesis.synthesize_schedule.self_ms":
            (span("synthesis.synthesize_schedule", "self_ms"), "ms"),
        "synthesis.orbit_bfs.calls": (counter("synthesis.orbit_bfs.calls"), "count"),
        "synthesis.orbit_bfs.states": (counter("synthesis.orbit_bfs.states"), "count"),
        "synthesis.incomplete": (counter("synthesis.incomplete"), "count"),
        "synthesis.schedule_moves": (counter("synthesis.schedule_moves"), "count"),
        "selftest.run_selftest.self_ms": (span("selftest.run_selftest", "self_ms"), "ms"),
        "cli.main.self_ms": (span("cli.main", "self_ms"), "ms"),
        "generate.gen_good_hypergraph.ms":
            (setup_spans.get("generate.gen_good_hypergraph", {}).get("ms", 0) / SETUPS, "ms"),
    }
    for layer in LAYERS:
        if layer not in ("generate", "selftest", "cli"):
            metrics[f"{layer}.self_ms"] = (
                sum(v["self_ms"] for k, v in job_spans.items() if k.startswith(layer + "."))
                / reps, "ms")
    metrics["bench.self_ms"] = (span("bench.job", "self_ms"), "ms")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    repeat = all(c == loop.rep_counters[0] for c in loop.rep_counters)
    extra = {"traced reps": reps, "counts repeat across reps": repeat,
             "untraced wall_s": untraced_s, "traced wall_s": traced_s}
    loop.attempted += baseline.attempted
    loop.failures += baseline.failures
    return job, loop, metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="zpwalk benchmark (one workload per run)")
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zpwalk", "__init__.py")):
        print(f"error: no zpwalk package under {SRC}", file=sys.stderr)
        return 2

    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        if args.trace:
            job, loop, metrics, extra = per_layer(args, workdir)
        else:
            job, loop, metrics, extra = end_to_end(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(loop.failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"input digest {job.digest}")
    for inst in job.instances:
        print("  instance " + "  ".join(f"{k}={v}" for k, v in inst.items()))
    print(f"  job: {len(job.ops)} ops, {len(loop.walls)} reps, {loop.attempted} ops attempted, "
          f"{failed} failed (fail_ratio {failed / loop.attempted:.4f}), "
          f"{loop.incomplete} SynthesisIncomplete")
    for key, value in {**loop.tallies, **extra}.items():
        print(f"  {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.4f} {unit}")
    for problem in loop.failures[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
