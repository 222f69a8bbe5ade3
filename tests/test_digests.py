"""Behaviour fingerprints of synthesis and of the algebraic decision layer.

scripts/synthesis_digest.py hashes every schedule or error type on a
seeded family of synthesis cases, and scripts/decision_digest.py every
answer and certificate on a seeded family of decision cases.  These are
their lines at seeds 1 and 2.  A change meant to keep behaviour keeps
them; a change meant to alter schedules or certificates updates them and
says why.

The synthesis lines last changed when the single-edge descent came to
emulate a move at an empty vertex with one bracket (two vertices lend it
a unit and take it back, 2p + 1 moves) wherever two vertices can: every
case keeps its outcome, none is longer, and about half are shorter.

The decision lines last changed when recurrence on the edgeless
one-vertex hypergraph was mended: a charged state there cannot move, so
it is recurrent from itself (solution_vector), where the rule used to
certify garden_of_eden against the search oracle's answer.
"""

import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

SYNTHESIS_SEED_1 = """\
seed 1: 490 cases
  Unsolvable: 30
  schedule: 460
moves: 15065
sha256: 1b3d3d1da3fa868c496f70df6b82495a761e8902d1182e43064ff60fabdad504
"""

SYNTHESIS_SEED_2 = """\
seed 2: 490 cases
  UnreachableTarget: 2
  Unsolvable: 32
  schedule: 456
moves: 14516
sha256: 9f5d9e06c7a9022f1fa336373ec9391fc3b4ff99aa64e0bc020a008dc5e2c82a
"""

DECISION_SEED_1 = """\
seed 1: 560 hypergraphs, 300 well-shaped
  classify NotGood: 1560
  classify recurrent_or_inaccessible: 624
  classify transient: 1176
  filter inconclusive: 2543
  filter unsolvability: 817
  reach NotGood: 1560
  reach absorbing_source: 311
  reach garden_of_eden: 317
  reach solution_vector: 1107
  reach unsolvability: 65
  recur NotGood: 1560
  recur absorbing_source: 311
  recur garden_of_eden: 307
  recur solution_vector: 177
  recur unsolvability: 67
  recur zero_state_reachable: 938
sha256: 391d1c837efeb448625624ef94b036b0322cf350a7d743aa13e28d31e761636f
"""

DECISION_SEED_2 = """\
seed 2: 560 hypergraphs, 302 well-shaped
  classify NotGood: 1548
  classify recurrent_or_inaccessible: 562
  classify transient: 1250
  filter inconclusive: 2602
  filter unsolvability: 758
  reach NotGood: 1548
  reach absorbing_source: 312
  reach garden_of_eden: 316
  reach solution_vector: 1115
  reach unsolvability: 69
  recur NotGood: 1548
  recur absorbing_source: 312
  recur garden_of_eden: 310
  recur solution_vector: 132
  recur unsolvability: 56
  recur zero_state_reachable: 1002
sha256: 0e09a4ec6b43d793187da43afd88fae3e345585f47373203fb79a5ed237730c1
"""


def test_digests_at_seed_1_are_pinned(capsys):
    for script, expected in (("synthesis_digest.py", SYNTHESIS_SEED_1),
                             ("decision_digest.py", DECISION_SEED_1)):
        main = runpy.run_path(str(SCRIPTS / script))["main"]
        assert main(["--seed", "1"]) == 0
        assert capsys.readouterr().out == expected, script


def test_synthesis_digest_at_seed_2_is_pinned(capsys):
    main = runpy.run_path(str(SCRIPTS / "synthesis_digest.py"))["main"]
    assert main(["--seed", "2"]) == 0
    assert capsys.readouterr().out == SYNTHESIS_SEED_2


def test_decision_digest_at_seed_2_is_pinned(capsys):
    main = runpy.run_path(str(SCRIPTS / "decision_digest.py"))["main"]
    assert main(["--seed", "2"]) == 0
    assert capsys.readouterr().out == DECISION_SEED_2
