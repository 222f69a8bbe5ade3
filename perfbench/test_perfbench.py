"""Tests of the benchmark itself (not of zpwalk).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time

import pytest

import checks
import run
import speed
import workloads

SMALL_LADDER = ((60, 5, ("reach+", "reach-sum", "eden", "absorb", "recur+", "recur0",
                         "classify", "classify-sum", "filter-", "filter+",
                         "cli-reach+", "cli-reach-", "cli-recur", "cli-classify")),)
SMALL_CHAINS = ((6, (3, 5), 1),)
SMALL_TIERS = ((11, 3, 3),)
SMALL_SCOPE = dict(max_small_n=4, structural_budget=100, schedule_targets=2,
                   generated_count=0, include_nongood=False)


@pytest.fixture
def small(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "DECIDE_LADDER", SMALL_LADDER)
    monkeypatch.setattr(workloads, "CHAIN_LADDER", SMALL_CHAINS)
    monkeypatch.setattr(workloads, "RANDOM_TIERS", SMALL_TIERS)
    monkeypatch.setattr(workloads, "SELFTEST_SCOPE", SMALL_SCOPE)
    monkeypatch.setattr(run, "BENCH_DIR", str(tmp_path))
    return str(tmp_path)


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_same_seed_same_digest(small, workload):
    _, first = run.setup(workload, 7, small)
    _, again = run.setup(workload, 7, small)
    _, other = run.setup(workload, 8, small)
    assert first.digest == again.digest
    assert first.digest != other.digest


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_every_answer_passes_its_check(small, workload):
    _, job = run.setup(workload, 3, small)
    loop = run.Loop()
    loop.run_job(job)
    assert loop.attempted == len(job.ops)
    assert loop.failures == []


def _flip(op):
    original = op.run

    def wrong():
        decision = original()
        return type(decision)(not decision.answer, decision.method, decision.certificate)

    op.run = wrong


def test_planted_wrong_answer_is_a_failure(small):
    _, job = run.setup("decide", 3, small)
    reach = next(op for op in job.ops if op.label.startswith("reach+ "))
    _flip(reach)
    loop = run.Loop()
    loop.run_job(job)
    assert [f.split(":")[0] for f in loop.failures] == [reach.label]


def test_planted_wrong_solution_vector_is_a_failure(small):
    _, job = run.setup("decide", 3, small)
    reach = next(op for op in job.ops if op.label.startswith("reach+ "))
    original = reach.run

    def tampered():
        decision = original()
        solution = list(decision.certificate.data["solution"])
        solution[0] = (solution[0] + 1) % 5
        cert = type(decision.certificate)("solution_vector", {"solution": solution})
        return type(decision)(True, decision.method, cert)

    reach.run = tampered
    loop = run.Loop()
    loop.run_job(job)
    assert len(loop.failures) == 1 and "balance row" in loop.failures[0]


def test_schedule_failing_replay_is_a_failure(small):
    _, job = run.setup("synthesize", 3, small)
    op = job.ops[0]
    original = op.run

    def truncated():
        schedule = original()
        return type(schedule)(schedule.moves[:-1])

    op.run = truncated
    loop = run.Loop()
    loop.run_job(job)
    assert [f.split(":")[0] for f in loop.failures] == [op.label]


def test_planted_failure_makes_the_run_exit_nonzero(small, monkeypatch, capsys):
    build = workloads.BUILDERS["decide"]

    def broken(*args):
        job = build(*args)
        _flip(job.ops[0])
        return job

    monkeypatch.setitem(workloads.BUILDERS, "decide", broken)
    code = run.main(["--workload", "decide", "--seed", "1", "--seconds", "0.1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_traced_decide_never_searches(small):
    class Args:
        workload, seed, seconds = "decide", 5, 0.1

    _, loop, metrics, _ = run.per_layer(Args, small)
    assert loop.failures == []
    assert metrics["dynamics.orbit_bfs.states"][0] == 0
    assert metrics["zp_algebra.gaussian_solve.calls"][0] > 0
    assert os.path.isfile(os.path.join(small, "out", "trace-decide-5.jsonl"))


def test_exact_counts_repeat_across_runs(small):
    class Args:
        workload, seed, seconds = "synthesize", 4, 0.1

    exact = ("calls", "states", "yielded", "cells", "incomplete", "schedule_moves")
    runs = []
    for _ in range(2):
        _, _, metrics, extra = run.per_layer(Args, small)
        runs.append({k: v for k, (v, _) in metrics.items() if k.rsplit(".", 1)[-1] in exact})
        assert extra["counts repeat across reps"]
    assert runs[0] == runs[1]
    assert runs[0]["synthesis.schedule_moves"] > 0


def test_rule_agrees_with_the_library_on_small_instances():
    zp, _ = run._fresh_import()
    rng = random.Random(11)
    for _ in range(40):
        p = rng.choice((3, 5))
        n = rng.randint(5, 9 if p == 3 else 6)
        G = zp.gen_good_hypergraph(n, rng.randint(1, (n - 1) // 2), seed=rng.randrange(99))
        rule = checks.Rule(G.n, G.edges, p)
        w1 = tuple(rng.randrange(p) for _ in range(n))
        w2 = tuple(rng.randrange(p) for _ in range(n))
        got = zp.decide_reachability(G, p, w1, w2, mode="oracle").answer
        assert rule.reach(w1, w2) == got


def test_without_the_package_it_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(os.path.dirname(os.path.abspath(run.__file__)), bench,
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".work-*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_seconds_drop_the_sampler_and_scale_by_speed():
    sampler = speed.SpeedSampler()
    chunk = 2 * speed.REF_CHUNK_S  # the host runs at half the reference speed
    sampler.starts = [0.0, 1.0, 2.0]
    sampler.ends = [start + chunk for start in sampler.starts]
    assert sampler.seconds(0.5, 1.5) == pytest.approx((1.0 - chunk) / 2)
    assert sampler.seconds(3.0, 3.1) == pytest.approx(0.1 / 2)  # nearest chunk


def test_sampler_samples_while_entered_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(sampler.starts) >= 4
    assert signal.getsignal(signal.SIGALRM) is before
