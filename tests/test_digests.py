"""Behaviour fingerprints of synthesis and of the algebraic decision layer.

scripts/synthesis_digest.py hashes every schedule or error type on a
seeded family of synthesis cases, and scripts/decision_digest.py every
answer and certificate on a seeded family of decision cases.  These are
their lines at seed 1, and the synthesis digest's at seed 2, whose
family also trips _transfer_into_edge's corridor guard (seed 1 never
does).  A change meant to keep behaviour keeps them; a
change meant to alter schedules or certificates updates them and says
why.
"""

import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

SYNTHESIS_SEED_1 = """\
seed 1: 490 cases
  SynthesisIncomplete: 5
  Unsolvable: 30
  schedule: 455
moves: 16962
sha256: 44f9308d245b189bdfbc2e13af7367b178a976b7f3ba36390f9afc640f54efe4
"""

SYNTHESIS_SEED_2 = """\
seed 2: 490 cases
  SynthesisIncomplete: 6
  UnreachableTarget: 2
  Unsolvable: 32
  schedule: 450
moves: 16570
sha256: 7249a80b9d530aed31620f4889763b0e7a9b2778d9edc2e1862005bcf47618c8
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
  recur garden_of_eden: 373
  recur solution_vector: 111
  recur unsolvability: 67
  recur zero_state_reachable: 938
sha256: 65a4db40db63944ccca9ed3ae48fb87c5f46cfa3920e8db8c609746c1808a2d7
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
