"""Command-line interface.

One subcommand per question the library answers.  Exit codes encode
the outcome, not the path taken to it:

  0  decided positive / command succeeded
  1  decided negative (unreachable, not recurrent, bad witness, not
     well-shaped for check-good)
  2  usage error: unparseable input, infeasible request, modulus or
     shape violation, algebraic mode on an irregular hypergraph
  3  the search oracle hit its state cap (--max-states) or ran out of memory
  4  internal disagreement between the algebraic rule and the search
     oracle -- always a bug, please capture the instance

With --json each command prints exactly one JSON object with the
fields {command, input, answer, method, certificate, stats} (error
runs carry an extra "error" field, {type, message}, and a null answer;
an error with no text of its own, such as a bare MemoryError, has its
type as the message).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
import time

from .decision import (
    MODE_ALGEBRAIC,
    MODE_BOTH,
    MODE_ORACLE,
    classify_state,
    decide_reachability,
    decide_recurrence,
    necessity_filter,
)
from .dynamics import (
    DEFAULT_MAX_STATES,
    Schedule,
    format_schedule,
    format_state,
    orbit_bfs,
    parse_schedule,
    parse_state,
    replay_schedule,
)
from .errors import (
    IllegalMove,
    InternalSynthesisFailure,
    MismatchError,
    StateSpaceTooLarge,
    UnreachableTarget,
    Unsolvable,
    ZpwalkError,
)
from .generate import gen_good_hypergraph
from .hypergraph import check_modulus, format_hypergraph, is_good, parse_hypergraph
from .selftest import run_selftest
from .synthesis import synthesize_schedule

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_MISMATCH = 4

_NEGATIVE_ERRORS = (UnreachableTarget, Unsolvable, IllegalMove)


def _certificate_payload(cert):
    if cert is None:
        return None
    return {"kind": cert.kind, "data": cert.data}


class _Reporter:
    """Collects one command's outcome and prints it once, as text or JSON
    (under --json, say keeps no lines)."""

    def __init__(self, command: str, as_json: bool):
        self.command = command
        self.as_json = as_json
        self.started = time.monotonic()
        self.input: dict = {}
        self.answer = None
        self.method = None
        self.certificate = None
        self.stats: dict = {}
        self.lines: list[str] = []
        self.error: dict | None = None

    def say(self, line: str) -> None:
        if not self.as_json:
            self.lines.append(line)

    def fail(self, err: Exception) -> None:
        self.error = {"type": type(err).__name__, "message": str(err) or type(err).__name__}

    def emit(self) -> None:
        self.stats.setdefault(
            "elapsed_ms", round(1000 * (time.monotonic() - self.started), 3)
        )
        if self.as_json:
            payload = {
                "command": self.command,
                "input": self.input,
                "answer": self.answer,
                "method": self.method,
                "certificate": _certificate_payload(self.certificate),
                "stats": self.stats,
            }
            if self.error:
                payload["error"] = self.error
            print(json.dumps(payload, sort_keys=True))
        else:
            for line in self.lines:
                print(line)
            if self.error:
                print(f"error ({self.error['type']}): {self.error['message']}", file=sys.stderr)


def _load_instance(rep: _Reporter, path: str):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    p, G = parse_hypergraph(text)
    rep.input["hypergraph"] = path
    rep.input["digest"] = hashlib.sha256(text.encode() + b"\x00").hexdigest()[:16]
    rep.stats.update({"p": p, "n": G.n, "m": G.m})
    return p, G


def _load_pair(rep: _Reporter, args):
    """The instance and its --from / --to states, recorded as input."""
    p, G = _load_instance(rep, args.hypergraph)
    w1 = parse_state(args.from_state, p, G.n)
    w2 = parse_state(args.to_state, p, G.n)
    rep.input["from"] = format_state(w1)
    rep.input["to"] = format_state(w2)
    return p, G, w1, w2


def _report_decision(rep: _Reporter, decision) -> None:
    rep.answer = decision.answer
    rep.method = decision.method
    rep.certificate = decision.certificate
    if decision.oracle_certificate is not None:
        rep.stats["oracle_certificate"] = _certificate_payload(decision.oracle_certificate)


def _effective_mode(rep: _Reporter, G, args) -> str:
    """Honor --allow-nongood: fall back to the search oracle when the
    default double-checking mode would refuse an irregular hypergraph."""
    mode = args.mode
    if args.allow_nongood and mode == MODE_BOTH and not is_good(G).good:
        rep.say("irregular hypergraph: deciding by search only")
        mode = MODE_ORACLE
    rep.input["mode"] = mode
    return mode


def _witness_from(decision, G, p, w1, w2) -> Schedule:
    for cert in (decision.oracle_certificate, decision.certificate):
        if cert is not None and cert.kind == "schedule":
            moves = cert.data["moves"]
            return Schedule.from_columns([v for v, _ in moves], [e for _, e in moves])
    return synthesize_schedule(G, p, w1, w2)


def _report_schedule(rep: _Reporter, key: str, schedule: Schedule) -> None:
    """The schedule's lines: stats[key] under --json, printed text otherwise."""
    text = format_schedule(schedule)
    if rep.as_json:
        rep.stats[key] = text.splitlines()
    elif text:
        rep.say(text.rstrip("\n"))


def _cmd_check_good(rep: _Reporter, args) -> int:
    p, G = _load_instance(rep, args.hypergraph)
    report = is_good(G)
    rep.answer = report.good
    rep.stats["violations"] = len(report.violations)
    if report.good:
        rep.say("good: connected, all edges >= 3 vertices, pairwise overlaps <= 1")
        return EXIT_YES
    rep.say(f"not good ({len(report.violations)} violations)")
    for v in report.violations:
        if v.kind == "small_edge":
            (i,) = v.detail
            detail = f"edge {i} has only {len(G.edges[i])} vertices: {G.edges[i]}"
        elif v.kind == "big_intersection":
            i, j = v.detail
            shared = sorted(set(G.edges[i]) & set(G.edges[j]))
            detail = f"edges {i} and {j} share vertices {shared}"
        else:
            detail = f"separate components around vertices {list(v.detail)}"
        rep.say(f"  {v.kind}: {detail}")
    rep.input["violations"] = [[v.kind, list(v.detail)] for v in report.violations]
    return EXIT_NO


def _cmd_reach(rep: _Reporter, args) -> int:
    p, G, w1, w2 = _load_pair(rep, args)
    if args.necessary_only:
        rep.method = "necessary_only"
        rep.input["mode"] = "necessary_only"
        verdict = necessity_filter(G, p, w1, w2)
        if verdict is None:
            rep.answer = None
            rep.say("inconclusive: the balance system is solvable")
            return EXIT_YES
        rep.answer = False
        rep.certificate = verdict.certificate
        rep.say("unreachable: no balance-system solution exists")
        return EXIT_NO
    mode = _effective_mode(rep, G, args)
    decision = decide_reachability(G, p, w1, w2, mode=mode, max_states=args.max_states)
    _report_decision(rep, decision)
    rep.say("reachable" if decision.answer else "unreachable")
    if decision.answer and args.witness:
        schedule = _witness_from(decision, G, p, w1, w2)
        rep.stats["witness_moves"] = len(schedule)
        rep.input["witness"] = True
        _report_schedule(rep, "witness", schedule)
    return EXIT_YES if decision.answer else EXIT_NO


def _cmd_recur(rep: _Reporter, args) -> int:
    p, G, w1, w2 = _load_pair(rep, args)
    mode = _effective_mode(rep, G, args)
    decision = decide_recurrence(G, p, w1, w2, mode=mode, max_states=args.max_states)
    _report_decision(rep, decision)
    if decision.answer:
        rep.say("recurrent: the target stays reachable along every walk")
    else:
        rep.say("not recurrent: some walk loses the target for good")
    return EXIT_YES if decision.answer else EXIT_NO


def _cmd_classify(rep: _Reporter, args) -> int:
    p, G = _load_instance(rep, args.hypergraph)
    w = parse_state(args.state, p, G.n)
    rep.input["state"] = format_state(w)
    mode = _effective_mode(rep, G, args)
    label = classify_state(G, p, w, mode=mode, max_states=args.max_states)
    rep.answer = label.value
    rep.method = mode
    rep.say(label.value)
    return EXIT_YES


def _cmd_orbit(rep: _Reporter, args) -> int:
    p, G = _load_instance(rep, args.hypergraph)
    w = parse_state(args.from_state, p, G.n)
    rep.input["from"] = format_state(w)
    orbit = orbit_bfs(G, p, w, max_states=args.max_states)
    rep.answer = len(orbit)
    rep.method = "oracle"
    rep.stats["orbit_size"] = len(orbit)
    rep.say(f"orbit size: {len(orbit)}")
    if len(orbit) <= args.list_limit:
        states = sorted(orbit.order)
        rep.stats["states"] = [format_state(s) for s in states]
        for s in states:
            rep.say(f"  {format_state(s)}")
    return EXIT_YES


def _cmd_schedule(rep: _Reporter, args) -> int:
    p, G, w1, w2 = _load_pair(rep, args)
    schedule = synthesize_schedule(G, p, w1, w2)
    rep.answer = True
    rep.method = "synthesis"
    rep.stats["moves"] = len(schedule)
    _report_schedule(rep, "schedule", schedule)
    rep.say(f"# {len(schedule)} moves")
    return EXIT_YES


def _cmd_verify(rep: _Reporter, args) -> int:
    p, G = _load_instance(rep, args.hypergraph)
    w1 = parse_state(args.from_state, p, G.n)
    rep.input["from"] = format_state(w1)
    w2 = None
    if args.to_state is not None:
        w2 = parse_state(args.to_state, p, G.n)
        rep.input["to"] = format_state(w2)
    with open(args.schedule, encoding="utf-8") as fh:
        schedule = parse_schedule(fh.read())
    rep.input["schedule"] = args.schedule
    rep.stats["moves"] = len(schedule)
    final = replay_schedule(G, p, w1, schedule)
    rep.stats["final_state"] = format_state(final)
    if w2 is None:
        rep.answer = True
        rep.say(f"replays legally; final state {format_state(final)}")
        return EXIT_YES
    if final == w2:
        rep.answer = True
        rep.say(f"verified: schedule ends at {format_state(w2)}")
        return EXIT_YES
    rep.answer = False
    rep.say(f"endpoint mismatch: schedule ends at {format_state(final)}, expected {format_state(w2)}")
    return EXIT_NO


def _cmd_gen(rep: _Reporter, args) -> int:
    check_modulus(args.modulus, 1)  # the output's first line, as its parser would say
    G = gen_good_hypergraph(args.vertices, args.edges, seed=args.seed)
    text = format_hypergraph(args.modulus, G)
    rep.input.update({"n": args.vertices, "m": args.edges, "seed": args.seed})
    rep.answer = True
    rep.method = "generator"
    rep.stats.update({"p": args.modulus, "n": G.n, "m": G.m})
    rep.stats["edges"] = [list(e) for e in G.edges]
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        rep.say(f"wrote {args.output}")
    else:
        rep.say(text.rstrip("\n"))
    return EXIT_YES


def _cmd_selftest(rep: _Reporter, args) -> int:
    rep.input.update({knob: getattr(args, knob) for knob in (
        "seed", "max_n", "generated", "schedule_targets", "allow_nongood")})
    progress = None
    if not args.json and not args.quiet:
        progress = lambda msg: print(f"  .. {msg}", file=sys.stderr)
    report = run_selftest(
        seed=args.seed,
        max_small_n=args.max_n,
        generated_count=args.generated,
        schedule_targets=args.schedule_targets,
        include_nongood=args.allow_nongood,
        progress=progress,
    )
    rep.answer = report.ok
    rep.method = MODE_BOTH
    stats = dataclasses.asdict(report)
    stats["sweep_seconds"] = round(stats.pop("elapsed_seconds"), 1)
    rep.stats.update(stats)
    rep.say(report.summary())
    if progress is not None and report.ok:
        rep.say("selftest passed")
    return EXIT_YES if report.ok else EXIT_MISMATCH


def _at_least(lowest: int):
    """argparse type for an integer budget: a smaller value is a usage error."""
    def budget(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        return value
    return budget


def _add_decision_flags(sub) -> None:
    sub.add_argument(
        "--mode",
        choices=(MODE_ALGEBRAIC, MODE_ORACLE, MODE_BOTH),
        default=MODE_BOTH,
        help="decision procedure: linear algebra, breadth-first search, or both cross-checked (default)",
    )
    sub.add_argument(
        "--max-states",
        type=_at_least(1),
        default=DEFAULT_MAX_STATES,
        help=f"state cap for search (default {DEFAULT_MAX_STATES})",
    )
    sub.add_argument(
        "--allow-nongood",
        action="store_true",
        help="on an irregular hypergraph, decide by search instead of refusing",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zpwalk",
        description="decide reachability and recurrence of annihilating walks modulo an odd prime",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable single-object report")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("check-good", help="is the hypergraph within the solvable family?")
    sub.add_argument("hypergraph")
    sub.set_defaults(handler=_cmd_check_good)

    sub = commands.add_parser("reach", help="can the walk transform one state into another?")
    sub.add_argument("hypergraph")
    sub.add_argument("--from", dest="from_state", required=True, metavar="STATE")
    sub.add_argument("--to", dest="to_state", required=True, metavar="STATE")
    sub.add_argument(
        "--necessary-only",
        action="store_true",
        help="only apply the sound unreachability filter (valid on any hypergraph)",
    )
    _add_decision_flags(sub)
    sub.add_argument("--witness", action="store_true", help="also print a move schedule")
    # parsed for old command lines; nothing reads it
    sub.add_argument("--cap", type=_at_least(0), help=argparse.SUPPRESS)
    sub.set_defaults(handler=_cmd_reach)

    sub = commands.add_parser("recur", help="does the target stay reachable along every walk?")
    sub.add_argument("hypergraph")
    sub.add_argument("--from", dest="from_state", required=True, metavar="STATE")
    sub.add_argument("--to", dest="to_state", required=True, metavar="STATE")
    _add_decision_flags(sub)
    sub.set_defaults(handler=_cmd_recur)

    sub = commands.add_parser("classify", help="transient or recurrent-or-inaccessible?")
    sub.add_argument("hypergraph")
    sub.add_argument("--state", required=True, metavar="STATE")
    _add_decision_flags(sub)
    sub.set_defaults(handler=_cmd_classify)

    sub = commands.add_parser("orbit", help="breadth-first search of everything reachable")
    sub.add_argument("hypergraph")
    sub.add_argument("--from", dest="from_state", required=True, metavar="STATE")
    sub.add_argument("--max-states", type=_at_least(1), default=DEFAULT_MAX_STATES)
    sub.add_argument(
        "--list-limit",
        type=_at_least(0),
        default=60,
        help="print the states themselves when the orbit is at most this big (default 60)",
    )
    sub.set_defaults(handler=_cmd_orbit)

    sub = commands.add_parser("schedule", help="synthesize a witness move schedule")
    sub.add_argument("hypergraph")
    sub.add_argument("--from", dest="from_state", required=True, metavar="STATE")
    sub.add_argument("--to", dest="to_state", required=True, metavar="STATE")
    sub.add_argument("--witness", action="store_true", help=argparse.SUPPRESS)
    # parsed for old command lines; synthesis searches and enumerates nothing
    sub.add_argument("--max-states", type=_at_least(1), default=DEFAULT_MAX_STATES,
                     help=argparse.SUPPRESS)
    sub.add_argument("--cap", type=_at_least(0), help=argparse.SUPPRESS)
    sub.set_defaults(handler=_cmd_schedule)

    sub = commands.add_parser("verify", help="replay a schedule file and check its endpoint")
    sub.add_argument("hypergraph")
    sub.add_argument("schedule", help="schedule file (lines of: v <vertex> e <edge-index>)")
    sub.add_argument("--from", dest="from_state", required=True, metavar="STATE")
    sub.add_argument("--to", dest="to_state", default=None, metavar="STATE")
    sub.set_defaults(handler=_cmd_verify)

    sub = commands.add_parser("gen", help="generate a seeded well-shaped hypergraph")
    sub.add_argument("--vertices", "-n", type=int, required=True)
    sub.add_argument("--edges", "-m", type=int, required=True)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--modulus", "-p", type=int, default=3, help="modulus line for the output file")
    sub.add_argument("--output", "-o", default=None, help="write to a file instead of standard output")
    sub.set_defaults(handler=_cmd_gen)

    sub = commands.add_parser("selftest", help="cross-validate algebra, search, and synthesis")
    sub.add_argument("--seed", type=int, default=20260819)
    sub.add_argument("--max-n", type=_at_least(0), default=6, help="vertex bound for the enumerated family")
    sub.add_argument("--generated", type=_at_least(0), default=200, help="number of random instances")
    sub.add_argument("--schedule-targets", type=_at_least(0), default=50, help="witness pairs per instance")
    sub.add_argument(
        "--allow-nongood",
        action="store_true",
        help="also sweep the irregular triangle where only the necessity filter is sound",
    )
    # parsed for old command lines: irregular instances are only ever
    # checked with the sound filter
    sub.add_argument("--necessary-only", action="store_true", help=argparse.SUPPRESS)
    sub.add_argument("--quiet", action="store_true", help="no progress lines")
    sub.set_defaults(handler=_cmd_selftest)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built by the first main call: parsing
    leaves no state on it, so every later call can reuse it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    rep = _Reporter(args.command, args.json)
    try:
        code = args.handler(rep, args)
    except (MismatchError, InternalSynthesisFailure) as err:
        rep.fail(err)
        code = EXIT_MISMATCH
    except (StateSpaceTooLarge, MemoryError) as err:
        rep.fail(err)
        code = EXIT_RESOURCE
    except _NEGATIVE_ERRORS as err:
        rep.fail(err)
        rep.answer = False
        code = EXIT_NO
    except (ZpwalkError, ValueError, OSError) as err:  # anything else is a usage problem
        rep.fail(err)
        code = EXIT_USAGE
    rep.emit()
    return code


if __name__ == "__main__":
    sys.exit(main())
