"""Command-line surface: exit codes, report wording, JSON contract.

Exit code map under test: 0 decided-positive, 1 decided-negative,
2 usage error, 3 resource bound, 4 internal mismatch.
"""

import argparse
import contextlib
import hashlib
import io
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from zpwalk import cli, generate, hypergraph
from zpwalk.cli import EXIT_MISMATCH, build_parser, main
from zpwalk.dynamics import parse_schedule, parse_state, replay_schedule
from zpwalk.errors import IllegalMove, InternalSynthesisFailure, MismatchError
from zpwalk.hypergraph import format_hypergraph, make_hypergraph, parse_hypergraph

TRIANGLE_FILE = "data/triangle.hg"  # three 2-edges: parses, is not well-shaped

E3_TEXT = "p 3\nvertices 3\nedge 0 1 2\n"
E5_TEXT = "p 3\nvertices 5\nedge 0 1 2 3 4\n"
CHAIN_TEXT = "p 3\nvertices 5\nedge 0 1 2\nedge 2 3 4\n"


@pytest.fixture
def e3(tmp_path):
    f = tmp_path / "e3.hg"
    f.write_text(E3_TEXT)
    return str(f)


@pytest.fixture
def e5(tmp_path):
    f = tmp_path / "e5.hg"
    f.write_text(E5_TEXT)
    return str(f)


@pytest.fixture
def chain(tmp_path):
    f = tmp_path / "chain.hg"
    f.write_text(CHAIN_TEXT)
    return str(f)


# -------------------------------------------- the irregular-input trio


def test_oracle_settles_the_irregular_pair(capsys):
    code = main(["reach", TRIANGLE_FILE, "--from", "1,1,1", "--to", "2,2,2",
                 "--mode", "oracle"])
    assert code == 1
    assert "unreachable" in capsys.readouterr().out


def test_algebraic_mode_refuses_irregular_input(capsys):
    code = main(["reach", TRIANGLE_FILE, "--from", "1,1,1", "--to", "2,2,2",
                 "--mode", "algebraic"])
    assert code == 2
    assert "well-shaped" in capsys.readouterr().err


def test_schedule_and_algebraic_reach_refuse_with_one_message(capsys):
    """Synthesis refuses an irregular hypergraph through decision's gate."""
    pair = [TRIANGLE_FILE, "--from", "1,1,1", "--to", "2,2,2"]
    assert main(["schedule", *pair]) == 2
    refused = capsys.readouterr()
    assert main(["reach", *pair, "--mode", "algebraic"]) == 2
    assert capsys.readouterr() == refused
    assert refused.out == ""
    assert refused.err.startswith(
        "error (NotGood): hypergraph is not well-shaped (small_edge); ")


def test_check_good_flags_the_triangle(capsys):
    code = main(["check-good", TRIANGLE_FILE])
    assert code == 1
    out = capsys.readouterr().out
    assert "not good (3 violations)" in out
    assert out.count("small_edge") == 3


def test_check_good_passes_regular_input(e3, capsys):
    assert main(["check-good", e3]) == 0
    assert "good" in capsys.readouterr().out


@pytest.mark.parametrize("text, line", [
    ("p 3\nvertices 4\nedge 0 1 2\nedge 0 1 3\n",
     "  big_intersection: edges 0 and 1 share vertices [0, 1]"),
    ("p 3\nvertices 6\nedge 0 1 2\nedge 3 4 5\n",
     "  disconnected: separate components around vertices [0, 3]"),
])
def test_check_good_names_each_kind_of_violation(tmp_path, capsys, text, line):
    f = tmp_path / "bad.hg"
    f.write_text(text)
    assert main(["check-good", str(f)]) == 1
    assert capsys.readouterr().out.splitlines() == ["not good (1 violations)", line]


@pytest.mark.parametrize("argv, answer", [
    (["reach", TRIANGLE_FILE, "--from", "1,1,1", "--to", "0,2,1"], "reachable"),
    (["recur", TRIANGLE_FILE, "--from", "1,1,1", "--to", "2,2,2"],
     "not recurrent: some walk loses the target for good"),
    (["classify", TRIANGLE_FILE, "--state", "1,1,1"], "transient"),
])
def test_allow_nongood_decides_irregular_input_by_search(capsys, argv, answer):
    """In the default mode --allow-nongood falls back to the oracle and
    says so; the answer and exit code are the oracle's."""
    oracle = main(argv + ["--mode", "oracle"])
    capsys.readouterr()
    assert main(argv + ["--allow-nongood"]) == oracle
    assert capsys.readouterr().out.splitlines() == [
        "irregular hypergraph: deciding by search only", answer]
    assert main(["--json", *argv, "--allow-nongood"]) == oracle
    report = json.loads(capsys.readouterr().out)
    assert report["input"]["mode"] == "oracle" and report["method"] == "oracle"


# ------------------------------------------------------- reach / recur


def test_reach_positive_with_witness(e5, capsys):
    code = main(["reach", e5, "--from", "1,0,0,0,0", "--to", "0,1,1,1,1",
                 "--witness"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("reachable")
    sched = parse_schedule("\n".join(out.splitlines()[1:]))
    G = make_hypergraph(5, [(0, 1, 2, 3, 4)])
    assert replay_schedule(G, 3, (1, 0, 0, 0, 0), sched) == (0, 1, 1, 1, 1)


def test_reach_with_an_empty_witness_prints_no_schedule_line(capsys):
    code = main(["reach", TRIANGLE_FILE, "--from", "1,1,1", "--to", "1,1,1",
                 "--mode", "oracle", "--witness"])
    assert code == 0
    assert capsys.readouterr().out == "reachable\n"


def test_reach_negative(e5, capsys):
    code = main(["reach", e5, "--from", "1,0,0,0,0", "--to", "0,1,0,0,1"])
    assert code == 1
    assert "unreachable" in capsys.readouterr().out


def test_reach_necessary_only_tristate(capsys):
    # solvable (inconclusive) on the triangle even though truly unreachable
    code = main(["reach", TRIANGLE_FILE, "--from", "1,1,1", "--to", "2,2,2",
                 "--necessary-only"])
    assert code == 0
    assert "inconclusive" in capsys.readouterr().out
    # total charge is conserved on 2-edges, so this pair is certified out
    code = main(["reach", TRIANGLE_FILE, "--from", "1,1,1", "--to", "1,1,0",
                 "--necessary-only"])
    assert code == 1
    assert "unreachable" in capsys.readouterr().out


def test_recur_answers(e3, e5, capsys):
    assert main(["recur", e3, "--from", "1,1,1", "--to", "0,0,0"]) == 0
    assert "recurrent" in capsys.readouterr().out
    code = main(["recur", e5, "--from", "1,0,0,0,0", "--to", "0,0,0,0,0"])
    assert code == 1
    assert "not recurrent" in capsys.readouterr().out


def test_recur_on_the_edgeless_instance(tmp_path, capsys):
    # nothing moves, so a state is recurrent from itself; both sides agree
    f = tmp_path / "point.hg"
    f.write_text("p 3\nvertices 1\n")
    assert main(["recur", str(f), "--from", "1", "--to", "1"]) == 0
    assert main(["recur", str(f), "--from", "1", "--to", "0"]) == 1
    assert main(["classify", str(f), "--state", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "recurrent_or_inaccessible"


def test_classify(e5, capsys):
    assert main(["classify", e5, "--state", "1,0,0,0,0"]) == 0
    assert "recurrent_or_inaccessible" in capsys.readouterr().out
    assert main(["classify", e5, "--state", "0,1,1,1,0"]) == 0
    assert "transient" in capsys.readouterr().out


# ---------------------------------------------------------------- orbit


def test_orbit_lists_small_orbits(capsys):
    assert main(["orbit", TRIANGLE_FILE, "--from", "1,1,1"]) == 0
    out = capsys.readouterr().out
    assert "orbit size: 8" in out
    assert "0,0,0" in out


def test_orbit_list_limit(capsys):
    assert main(["orbit", TRIANGLE_FILE, "--from", "1,1,1",
                 "--list-limit", "2"]) == 0
    out = capsys.readouterr().out
    assert "orbit size: 8" in out
    assert "0,0,0" not in out  # listing suppressed above the limit


def test_orbit_list_limit_zero_lists_nothing(capsys):
    assert main(["--json", "orbit", TRIANGLE_FILE, "--from", "1,1,1",
                 "--list-limit", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["stats"]["orbit_size"] == 8
    assert "states" not in report["stats"]


# --------------------------------------------- schedule / verify / gen


def test_schedule_then_verify_round_trip(chain, tmp_path, capsys):
    code = main(["schedule", chain, "--from", "1,0,0,0,0", "--to", "0,0,0,1,1"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("moves")
    sched_file = tmp_path / "walk.sched"
    sched_file.write_text(out)

    code = main(["verify", chain, str(sched_file), "--from", "1,0,0,0,0",
                 "--to", "0,0,0,1,1"])
    assert code == 0
    assert "verified" in capsys.readouterr().out

    code = main(["verify", chain, str(sched_file), "--from", "1,0,0,0,0",
                 "--to", "1,0,0,0,0"])
    assert code == 1
    assert "endpoint mismatch" in capsys.readouterr().out


def test_each_output_mode_keeps_only_what_it_prints(chain, monkeypatch, capsys):
    """A text report keeps no schedule line list in its stats, which it
    never prints, and a --json report keeps no printed lines."""
    reports = []
    emit = cli._Reporter.emit

    def recorded(rep):
        reports.append(rep)
        emit(rep)

    monkeypatch.setattr(cli._Reporter, "emit", recorded)
    pair = [chain, "--from", "1,0,0,0,0", "--to", "0,0,0,1,1"]
    for argv, key in ((["schedule", *pair], "schedule"),
                      (["reach", *pair, "--witness"], "witness")):
        assert main(argv) == 0
        assert main(["--json", *argv]) == 0
        text, as_json = reports[-2:]
        assert key not in text.stats and len(text.lines) > 1
        assert as_json.lines == [] and len(as_json.stats[key]) == as_json.stats[
            "moves" if key == "schedule" else "witness_moves"]


def test_schedule_ten_thousand_edge_chain_is_exit_0(tmp_path, capsys):
    # synthesis loops over one edge order, so a long chain neither recurses
    # nor runs out of budget
    m = 10_000
    f = tmp_path / "long_chain.hg"
    f.write_text(format_hypergraph(
        3, make_hypergraph(2 * m + 1, [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(m)])))
    w1 = ",".join(["1"] + ["0"] * (2 * m))
    code = main(["--json", "schedule", str(f), "--from", w1, "--to", w1[::-1]])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["answer"] is True


def test_schedule_unreachable_exits_negative(e5, capsys):
    code = main(["schedule", e5, "--from", "1,0,0,0,0", "--to", "0,1,0,0,1"])
    assert code == 1
    assert capsys.readouterr().err


def test_verify_without_a_target_reports_the_final_state(e3, tmp_path, capsys):
    sched = tmp_path / "one.sched"
    sched.write_text("v 0 e 0\n")
    assert main(["verify", e3, str(sched), "--from", "1,0,0"]) == 0
    assert capsys.readouterr().out == "replays legally; final state 0,1,1\n"
    assert main(["--json", "verify", e3, str(sched), "--from", "1,0,0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["answer"] is True and report["stats"]["final_state"] == "0,1,1"
    assert "to" not in report["input"]


def test_verify_illegal_schedule(e3, tmp_path, capsys):
    bad = tmp_path / "bad.sched"
    bad.write_text("v 0 e 0\nv 0 e 0\n")  # second move from a drained vertex
    code = main(["verify", e3, str(bad), "--from", "1,0,0"])
    assert code == 1
    assert "step 1" in capsys.readouterr().err


@pytest.mark.parametrize("moves", ("v 0 e 0\n", "v 1 e 0\n"), ids=("legal", "illegal"))
def test_verify_refuses_a_malformed_target_before_replaying(e3, tmp_path, capsys, moves):
    sched = tmp_path / "one.sched"
    sched.write_text(moves)
    assert main(["verify", e3, str(sched), "--from", "1,0,0", "--to", "1,2"]) == 2
    assert capsys.readouterr().err.startswith("error (ParseError): state has 2 entries")


def test_verify_json_names_the_target_of_a_failed_replay(e3, tmp_path, capsys):
    bad = tmp_path / "bad.sched"
    bad.write_text("v 0 e 0\nv 0 e 0\n")
    assert main(["--json", "verify", e3, str(bad), "--from", "1,0,0", "--to", "0,1,1"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["error"]["type"] == "IllegalMove"
    assert report["input"]["to"] == "0,1,1"


#: a lever chain of three edges, small enough for the default mode's search
GOLDEN_TEXT = "p 3\nvertices 9\nedge 0 1 2\nedge 2 3 4 5 6\nedge 6 7 8\n"
GOLDEN_PAIR = ["--from", "0,0,0,0,0,0,0,0,1", "--to", "1,0,2,2,2,0,0,2,0"]
#: sha256 of stdout per command line, JSON with elapsed_ms masked
GOLDEN_STDOUT = {
    "schedule":
        "13faa815349deda828c9145b3e0593fa8744c203de8e4f446907dfcad7bdd670",
    "--json schedule":
        "3ce353e90615b754a79f6da8d14d0fd7692403f24ce5c22650087fcf75baa776",
    "reach --witness":
        "ceb62a3d1501261cc9be22887941e1d597012af376a2610bc6604fa7d960c133",
    "--json reach --witness":
        "13d3ce8c51b102f23cabadf5c96314cba28ab9458df13ffac6bfd58076484634",
    "verify schedule":
        "dc5fc9ef2c81985c2f79731b239f198516625efa2a1e0e49f15c65e2f5189bc0",
    "--json verify schedule":
        "5d2a91d9e0c549f70617d26533341a98502af7fce5be9c2be54bdeb938221e8c",
    "verify witness":
        "dc5fc9ef2c81985c2f79731b239f198516625efa2a1e0e49f15c65e2f5189bc0",
    "--json verify witness":
        "06643fca5f88840f008512113942637a0725831777a6824c50c464044ad084a5",
}


def _masked_run(argv, capsys) -> str:
    """stdout of one successful command line that writes no stderr,
    with the JSON elapsed_ms masked."""
    assert main(argv) == 0, argv
    out, err = capsys.readouterr()
    assert err == "", argv
    return re.sub(r'"elapsed_ms": [^,}]+', '"elapsed_ms": 0', out)


def test_schedule_reach_and_verify_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    """The bytes of schedule, reach --witness (in the default mode, the
    search's schedule) and verify of each, on one fixed instance."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "golden.hg").write_text(GOLDEN_TEXT)
    seen = {}
    for command, key in (("schedule", "schedule"), ("reach --witness", "witness")):
        argv = [*command.split()[:1], "golden.hg", *GOLDEN_PAIR, *command.split()[1:]]
        text = _masked_run(argv, capsys)
        seen[command] = text
        seen[f"--json {command}"] = _masked_run(["--json", *argv], capsys)
        # reach prints its answer line before the schedule
        (tmp_path / f"{key}.sched").write_text(text.removeprefix("reachable\n"))
        for prefix in ("", "--json "):
            seen[f"{prefix}verify {key}"] = _masked_run(
                [*prefix.split(), "verify", "golden.hg", f"{key}.sched", *GOLDEN_PAIR], capsys)
    digests = {k: hashlib.sha256(text.encode()).hexdigest() for k, text in seen.items()}
    assert digests == GOLDEN_STDOUT


#: a legal prefix on the chain from 1,0,0,0,0, leaving 0,1,0,1,1
LEGAL_PREFIX = ((0, 0), (2, 1))


@pytest.mark.parametrize("step, fault, reason", [
    (0, (3, 5), "edge 5 outside [0, 2)"),
    (2, (3, 5), "edge 5 outside [0, 2)"),
    (0, (3, 0), "vertex 3 not in edge 0 (0, 1, 2)"),
    (2, (0, 1), "vertex 0 not in edge 1 (2, 3, 4)"),
    (0, (1, 0), "vertex 1 has zero units"),
    (2, (2, 1), "vertex 2 has zero units"),
], ids=[f"{kind}-step{step}" for kind in ("edge", "vertex", "charge")
        for step in (0, 2)])
def test_replay_faults_name_their_step(chain, tmp_path, capsys, step, fault, reason):
    """Each kind of illegal move, first or after legal ones: replay_schedule
    and verify report the same message and step."""
    moves = [*LEGAL_PREFIX[:step], fault]
    text = "".join(f"v {v} e {e}\n" for v, e in moves)
    _, G = parse_hypergraph(CHAIN_TEXT)
    with pytest.raises(IllegalMove) as err:
        replay_schedule(G, 3, (1, 0, 0, 0, 0), parse_schedule(text))
    assert err.value.step == step
    assert str(err.value) == f"step {step}: {reason}"
    sched = tmp_path / "fault.sched"
    sched.write_text(text)
    assert main(["verify", chain, str(sched), "--from", "1,0,0,0,0"]) == 1
    assert capsys.readouterr() == ("", f"error (IllegalMove): step {step}: {reason}\n")


def test_gen_deterministic_and_valid(tmp_path, capsys):
    out1 = tmp_path / "a.hg"
    out2 = tmp_path / "b.hg"
    assert main(["gen", "-n", "7", "-m", "2", "--seed", "5",
                 "-o", str(out1)]) == 0
    assert main(["gen", "-n", "7", "-m", "2", "--seed", "5",
                 "-o", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_text() == out2.read_text()
    p, G = parse_hypergraph(out1.read_text())
    assert (p, G.n, G.m) == (3, 7, 2)
    assert main(["check-good", str(out1)]) == 0


def test_gen_infeasible_is_usage_error(capsys):
    assert main(["gen", "-n", "3", "-m", "2"]) == 2
    assert "need n >=" in capsys.readouterr().err


@pytest.mark.parametrize("modulus, code", (("4", 2), ("0", 2), ("2", 0)))
def test_gen_refuses_a_modulus_its_file_format_refuses(tmp_path, capsys, modulus, code):
    out = tmp_path / "g.hg"
    assert main(["gen", "-n", "7", "-m", "3", "-p", modulus, "-o", str(out)]) == code
    assert out.exists() == (code == 0)
    if code:
        assert "modulus must be a prime" in capsys.readouterr().err
    else:
        assert main(["check-good", str(out)]) == 0


def test_gen_checks_the_modulus_before_generating_and_parses_nothing(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("gen generated or re-parsed")

    monkeypatch.setattr(cli, "parse_hypergraph", refuse)
    assert main(["gen", "-n", "7", "-m", "3", "--seed", "1", "-p", "5"]) == 0
    monkeypatch.setattr(generate, "_try_build", refuse)
    assert main(["gen", "-n", "7", "-m", "3", "-p", "9"]) == 2
    assert "line 1: modulus must be a prime in [2, 2147483647], got 9" in capsys.readouterr().err


def test_huge_inputs_are_usage_errors(tmp_path, monkeypatch, capsys):
    """Refused by the input ceilings, before anything is allocated or a
    huge modulus is trial-divided."""

    def no_build(*args):
        raise AssertionError("got past a ceiling and started building")

    prime = hypergraph.is_odd_prime

    def small_primes_only(p):
        assert p < 2**32, "a huge modulus reached trial division"
        return prime(p)

    monkeypatch.setattr(generate, "_try_build", no_build)
    monkeypatch.setattr(hypergraph, "_build_structure", no_build)
    monkeypatch.setattr(hypergraph, "is_odd_prime", small_primes_only)
    assert main(["gen", "-n", str(10**12), "-m", "3"]) == 2
    for text in (f"p 3\nvertices {10**12}\nedge 0 1 2\n",
                 f"p {10**18 + 9}\nvertices 3\nedge 0 1 2\n"):
        f = tmp_path / "huge.hg"
        f.write_text(text)
        assert main(["check-good", str(f)]) == 2
        assert main(["reach", str(f), "--from", "1,0,0", "--to", "0,0,1"]) == 2
    err = capsys.readouterr().err
    assert str(hypergraph.MAX_VERTICES) in err and str(hypergraph.MAX_MODULUS) in err


def test_gen_stdout_parses(capsys):
    assert main(["gen", "-n", "5", "-m", "2", "--seed", "1", "-p", "5"]) == 0
    p, G = parse_hypergraph(capsys.readouterr().out)
    assert p == 5 and (G.n, G.m) == (5, 2)


# ----------------------------------------------------------- exit codes


def test_missing_file_is_usage_error(capsys):
    assert main(["reach", "data/nope.hg", "--from", "1", "--to", "1"]) == 2


def test_bad_state_literal_is_usage_error(e3, capsys):
    assert main(["reach", e3, "--from", "1,1", "--to", "1,1,1"]) == 2
    assert main(["reach", e3, "--from", "9,9,9", "--to", "1,1,1"]) == 2


def test_argparse_rejects_unknown_mode(e3):
    with pytest.raises(SystemExit) as err:
        main(["reach", e3, "--from", "1,1,1", "--to", "1,1,1",
              "--mode", "psychic"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["reach", "E5", "--from", "1,0,0,0,0", "--to", "0,1,1,1,1", "--mode", "oracle",
     "--max-states", "-5"],
    ["recur", "E5", "--from", "1,0,0,0,0", "--to", "0,0,0,0,0", "--max-states", "0"],
    ["classify", "E5", "--state", "1,0,0,0,0", "--max-states", "0"],
    ["orbit", "E5", "--from", "1,0,0,0,0", "--max-states", "0"],
    ["orbit", "E5", "--from", "1,0,0,0,0", "--list-limit", "-1"],
    ["reach", "E5", "--from", "1,0,0,0,0", "--to", "0,1,1,1,1", "--witness", "--cap", "-1"],
    ["schedule", "E5", "--from", "1,0,0,0,0", "--to", "0,1,1,1,1", "--cap", "-1"],
    ["schedule", "E5", "--from", "1,0,0,0,0", "--to", "0,1,1,1,1", "--max-states", "-1"],
    ["selftest", "--generated", "-1"],
    ["selftest", "--schedule-targets", "-1"],
    ["selftest", "--max-n", "-1"],
])
def test_malformed_budgets_are_usage_errors(e5, capsys, argv):
    with pytest.raises(SystemExit) as err:
        main([e5 if arg == "E5" else arg for arg in argv])
    assert err.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_smallest_budgets_are_accepted(e5, capsys):
    assert main(["orbit", e5, "--from", "1,0,0,0,0", "--max-states", "1"]) == 3
    assert main(["selftest", "--max-n", "0", "--generated", "0",
                 "--schedule-targets", "0", "--quiet"]) == 0
    assert "divergences: none" in capsys.readouterr().out


def test_resource_bound_is_exit_3(e5, capsys):
    code = main(["orbit", e5, "--from", "1,1,1,1,1", "--max-states", "5"])
    assert code == 3
    assert "refusing to truncate" in capsys.readouterr().err


def test_witness_needs_no_search_budget(tmp_path, capsys):
    # synthesis runs no search, so even a tiny --max-states leaves the
    # witness to this pair intact, for reach as for schedule
    f = tmp_path / "fallback.hg"
    f.write_text("p 3\nvertices 6\nedge 0 1 3\nedge 0 2 4 5\n")
    pair = [str(f), "--from", "0,0,2,1,1,2", "--to", "2,2,2,0,2,2"]
    witness = ["reach", *pair, "--mode", "algebraic", "--witness"]
    assert main(witness) == 0
    default = capsys.readouterr().out
    assert main([*witness, "--max-states", "7"]) == 0
    assert capsys.readouterr().out == default
    assert main(["schedule", *pair, "--max-states", "7"]) == 0
    sched = parse_schedule(capsys.readouterr().out)
    p, G = parse_hypergraph(f.read_text())
    assert replay_schedule(G, p, parse_state("0,0,2,1,1,2", p, G.n), sched) == parse_state(
        "2,2,2,0,2,2", p, G.n)


def test_unread_knobs_are_hidden_from_help_and_still_parse(e5, capsys):
    pair = [e5, "--from", "1,0,0,0,0", "--to", "0,1,1,1,1"]
    quick = ["--max-n", "0", "--generated", "0", "--schedule-targets", "0", "--quiet"]
    knobs = [  # command line without the knob, the knob, a value refused or None
        (["reach", *pair, "--witness"], "--cap", "-1"),
        (["schedule", *pair], "--max-states", "-1"),
        (["schedule", *pair], "--cap", "-1"),
        (["schedule", *pair], "--witness", None),
        (["selftest", *quick], "--necessary-only", None),
    ]
    # every flag the parser hides has a row here
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    hidden = {(name, option) for name, sub in commands.choices.items()
              for action in sub._actions if action.help == argparse.SUPPRESS
              for option in action.option_strings}
    assert hidden == {(argv[0], knob) for argv, knob, _ in knobs}
    for argv, knob, refused in knobs:
        with pytest.raises(SystemExit) as err:
            main([argv[0], "--help"])
        assert err.value.code == 0
        assert knob not in capsys.readouterr().out
        code = main(argv)
        plain = capsys.readouterr().out
        given = [*argv, knob] if refused is None else [*argv, knob, "7"]
        assert main(given) == code == 0
        if argv[0] != "selftest":  # its report carries a timing
            assert capsys.readouterr().out == plain
        if refused is not None:
            with pytest.raises(SystemExit) as err:
                main([*argv, knob, refused])
            assert err.value.code == 2
            assert "must be at least" in capsys.readouterr().err


def test_internal_disagreement_is_exit_4(e5, monkeypatch, capsys):
    """A decision's MismatchError and a synthesis replay failure are bugs,
    reported as exit 4 with the error, never as an answer."""
    def mismatch(*args, **kwargs):
        raise MismatchError("algebra and search disagree")

    def unreplayable(*args, **kwargs):
        raise InternalSynthesisFailure("schedule fails replay")

    monkeypatch.setattr(cli, "decide_reachability", mismatch)
    monkeypatch.setattr(cli, "synthesize_schedule", unreplayable)
    pair = ["--from", "1,0,0,0,0", "--to", "0,1,1,1,1"]
    for argv, error in ((["reach", e5, *pair], "MismatchError"),
                        (["schedule", e5, *pair], "InternalSynthesisFailure")):
        assert main(argv) == EXIT_MISMATCH
        assert f"error ({error})" in capsys.readouterr().err
        assert main(["--json", *argv]) == EXIT_MISMATCH
        report = json.loads(capsys.readouterr().out)
        assert report["answer"] is None and report["error"]["type"] == error


@pytest.mark.parametrize("target, argv", [
    ("zpwalk.cli.orbit_bfs", ["orbit", "--from", "1,0,0,0,0"]),
    ("zpwalk.decision._oracle_reach",
     ["reach", "--from", "1,0,0,0,0", "--to", "0,1,1,1,1", "--mode", "oracle"]),
])
def test_running_out_of_memory_is_exit_3(e5, monkeypatch, capsys, target, argv):
    """A search that runs out of memory withholds its answer, as a state
    cap does: exit 3 with the error, never a negative or a traceback."""
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(target, exhausted)
    argv = [argv[0], e5, *argv[1:]]
    assert main(["--json", *argv]) == 3
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["answer"] is None and report["error"]["type"] == "MemoryError"
    assert report["error"]["message"] == "MemoryError"
    assert err == ""
    assert main(argv) == 3
    line = capsys.readouterr().err.strip()
    assert line.startswith("error (MemoryError): ") and line.partition(": ")[2].strip()


# ------------------------------------------------------------------ json


def test_input_digest_is_pinned(e5, capsys):
    """The digest is the sha256 of the file text and a NUL byte, 16 hex digits."""
    assert main(["--json", "check-good", e5]) == 0
    assert json.loads(capsys.readouterr().out)["input"]["digest"] == "2b8caa7e75757d0b"


def test_json_reports_round_trip(e5, capsys):
    assert main(["--json", "reach", e5, "--from", "1,0,0,0,0",
                 "--to", "0,1,1,1,1", "--witness"]) == 0
    blob = capsys.readouterr().out
    report = json.loads(blob)
    assert report["command"] == "reach"
    assert report["answer"] is True
    assert report["method"] == "both"
    assert report["certificate"]["kind"] == "solution_vector"
    assert report["stats"]["witness_moves"] >= 1
    assert "digest" in report["input"]
    # emit -> parse -> emit is stable
    assert json.loads(json.dumps(report)) == report


def test_json_on_errors(capsys):
    code = main(["--json", "reach", TRIANGLE_FILE, "--from", "1,1,1",
                 "--to", "2,2,2", "--mode", "algebraic"])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "reach"
    assert report["error"]["type"] == "NotGood"
    assert "well-shaped" in report["error"]["message"]


def test_json_check_good_violations(capsys):
    assert main(["--json", "check-good", TRIANGLE_FILE]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["answer"] is False
    assert len(report["input"]["violations"]) == 3


# ------------------------------------------------------- parser reuse


def _observed(argv, output):
    """Exit code, stdout (JSON without elapsed_ms), stderr and the -o file."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    text = out.getvalue()
    if argv[0] == "--json":
        report = json.loads(text)
        del report["stats"]["elapsed_ms"]
        text = json.dumps(report, sort_keys=True)
    written = output.read_text() if output.exists() else None
    output.unlink(missing_ok=True)
    return code, text, err.getvalue(), written


def test_reused_parser_leaks_nothing_between_calls(e5, tmp_path, monkeypatch):
    """main builds one parser per process; a sequence of calls through it
    gives what a freshly built parser gives for each call alone."""
    output = tmp_path / "gen.hg"
    sequence = [
        ["--json", "reach", e5, "--from", "1,0,0,0,0", "--to", "0,1,1,1,1", "--witness"],
        ["reach", e5, "--from", "1,0,0,0,0", "--to", "0,1,1,1,1"],
        ["classify", e5, "--state", "1,0,0,0,0"],
        ["recur", e5, "--from", "1,0,0,0,0", "--to", "0,1,1,1,1", "--max-states", "50"],
        ["--json", "recur", e5, "--from", "1,0,0,0,0", "--to", "0,1,1,1,1"],
        ["--json", "orbit", TRIANGLE_FILE, "--from", "1,1,1", "--list-limit", "0"],
        ["--json", "orbit", TRIANGLE_FILE, "--from", "1,1,1"],
        ["gen", "-n", "7", "-m", "3", "--seed", "1", "-o", str(output)],
        ["gen", "-n", "7", "-m", "3", "--seed", "1", "-p", "5"],
        ["reach", e5, "--from", "1,0,0,0,0", "--to", "0,1,1,1,1", "--mode", "psychic"],
        ["reach", e5, "--from", "1,0", "--to", "0,1,1,1,1"],
        ["--json", "reach", e5, "--from", "1,0,0,0,0", "--to", "0,1,1,1,1"],
    ]
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(_observed(argv, output))
    assert [code for code, *_ in fresh] == [0, 0, 0, 3, 0, 0, 0, 0, 0, 2, 2, 0]
    assert "invalid choice: 'psychic'" in fresh[9][2]
    assert "state has 2 entries" in fresh[10][2]

    built = []

    def counted_build():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted_build)
    cli._parser.cache_clear()
    for argv, want in zip(sequence, fresh):
        assert _observed(argv, output) == want, argv
    assert len(built) == 1


# --------------------------------------------------------------- selftest


def test_selftest_smoke(capsys):
    code = main(["selftest", "--max-n", "4", "--generated", "2",
                 "--schedule-targets", "4", "--quiet"])
    assert code == 0
    out = capsys.readouterr().out
    assert "divergences: none" in out


def test_selftest_reports_progress_unless_quiet(capsys):
    argv = ["selftest", "--max-n", "3", "--generated", "1", "--schedule-targets", "2"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-2:] == ["divergences: none", "selftest passed"]
    progress = captured.err.splitlines()
    assert progress and all(line.startswith("  .. ") for line in progress)
    assert main(argv + ["--quiet"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "divergences: none" and captured.err == ""


def test_selftest_json(capsys):
    code = main(["--json", "selftest", "--max-n", "4", "--generated", "1",
                 "--schedule-targets", "3", "--quiet"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["answer"] is True
    assert report["stats"]["divergences"] == []
    assert report["stats"]["reach_pairs"] > 0
    # the report names every knob of the sweep it ran, defaults included
    assert report["input"] == {"seed": 20260819, "max_n": 4, "generated": 1,
                               "schedule_targets": 3, "allow_nongood": False}


# ------------------------------------------------------------------ fuzz

#: fixture files for the fuzzed command lines, with their vertex counts
FUZZ_FILES = {
    "e3.hg": (E3_TEXT, 3),
    "chain.hg": (CHAIN_TEXT, 5),
    "garbage.hg": ("p 3\nvertices two\nedge 0 1\n", 3),
    "ok.sched": ("v 0 e 0\nv 1 e 0\n", None),
    "bad.sched": ("v 0 e\n", None),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, (text, _) in FUZZ_FILES.items():
        (root / name).write_text(text)
    return root


def _state(n: int):
    """Mostly a state of n residues, now and then junk text."""
    junk = st.text(alphabet="0123,- x", max_size=8)
    good = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(
        lambda xs: ",".join(map(str, xs)))
    return st.integers(0, 4).flatmap(lambda k: junk if k == 0 else good)


#: mostly a small budget, now and then one that argparse or the CLI refuses
_budget = st.integers(0, 4).flatmap(
    lambda k: st.sampled_from(["-3", "-1", "0", "", "x", "1e3"]) if k == 0
    else st.integers(1, 40).map(str))

#: per command: the flags it requires and the flags it may take
_COMMANDS = {
    "check-good": ((), ()),
    "reach": (("--from", "--to"), ("--mode", "--max-states", "--cap", "--allow-nongood",
                                   "--witness", "--necessary-only")),
    "recur": (("--from", "--to"), ("--mode", "--max-states", "--allow-nongood")),
    "classify": (("--state",), ("--mode", "--max-states", "--allow-nongood")),
    "orbit": (("--from",), ("--max-states", "--list-limit")),
    "schedule": (("--from", "--to"), ("--max-states", "--cap")),
    "verify": (("--from",), ("--to",)),
}


@st.composite
def _argvs(draw, root):
    """A bounded command line: mostly well formed, with junk values and a
    dropped or stray token now and then."""
    argv = ["--json"] if draw(st.booleans()) else []
    command = draw(st.sampled_from(sorted(_COMMANDS) + ["gen", "selftest"]))
    argv.append(command)
    if command == "gen":
        argv += ["-n", draw(_budget), "-m", str(draw(st.integers(-1, 6))),
                 "-p", draw(st.sampled_from(["2", "3", "4", "5", "x"]))]
    elif command == "selftest":
        argv += ["--max-n", str(draw(st.integers(-1, 3))),
                 "--generated", draw(st.sampled_from(["-1", "0"])),
                 "--schedule-targets", str(draw(st.integers(-1, 2))), "--quiet"]
    else:
        name = draw(st.sampled_from(["e3.hg", "chain.hg", "garbage.hg", "missing.hg",
                                     "triangle"]))
        n = FUZZ_FILES.get(name, ("", 3))[1]
        argv.append(TRIANGLE_FILE if name == "triangle" else str(root / name))
        if command == "verify":
            argv.append(str(root / draw(st.sampled_from(["ok.sched", "bad.sched", "none"]))))
        required, optional = _COMMANDS[command]
        if optional:
            required += tuple(draw(st.lists(st.sampled_from(optional), max_size=3,
                                            unique=True)))
        values = {"--mode": st.sampled_from(["algebraic", "oracle", "both", "psychic"]),
                  "--max-states": _budget, "--cap": _budget, "--list-limit": _budget,
                  "--from": _state(n), "--to": _state(n), "--state": _state(n)}
        for flag in required:
            argv.append(flag)
            if flag in values:
                argv.append(draw(values[flag]))
    if draw(st.integers(0, 9)) == 0:
        del argv[draw(st.integers(0, len(argv) - 1))]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-"])))
    return argv


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_command_lines_end_in_an_exit_code(fuzz_dir, data):
    """Any bounded command line exits 0-3 without a traceback; argparse's
    refusals are SystemExit(2), and --json prints one JSON line."""
    argv = data.draw(_argvs(fuzz_dir), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, err.getvalue()
            return
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    if argv[:1] == ["--json"]:
        lines = out.getvalue().splitlines()
        assert len(lines) == 1
        json.loads(lines[0])
