"""Annihilating walks modulo an odd prime: decision procedures and witnesses.

A state puts a residue mod p on every vertex of a hypergraph.  A legal
move picks a vertex with nonzero charge and one of its edges, removes
one unit there and adds one unit at every other vertex of that edge.
On well-shaped hypergraphs (connected, edges of >= 3 vertices, pairwise
edge overlaps <= 1) reachability and recurrence reduce to solvability
of small linear systems over Z_p; this package implements the
reduction, an exhaustive search oracle to check it against, and a
constructive scheduler that turns positive answers into replayable
move sequences.
"""

from .decision import (
    MODE_ALGEBRAIC,
    MODE_BOTH,
    MODE_ORACLE,
    Certificate,
    Decision,
    ReachSystem,
    StateClass,
    build_system,
    classify_state,
    decide_reachability,
    decide_recurrence,
    necessity_filter,
)
from .dynamics import (
    DEFAULT_MAX_STATES,
    Move,
    OrbitResult,
    Schedule,
    State,
    all_moves,
    apply_move,
    extract_schedule,
    format_schedule,
    format_state,
    has_predecessor,
    oracle_recurrent,
    orbit_bfs,
    parse_schedule,
    parse_state,
    replay_schedule,
    validate_state,
)
from .errors import (
    EnumerationTooLarge,
    IllegalMove,
    Infeasible,
    InternalSynthesisFailure,
    InvalidModulus,
    MismatchError,
    NormUndefined,
    NotGood,
    ParseError,
    ShapeError,
    StateSpaceTooLarge,
    SynthesisIncomplete,
    UnreachableTarget,
    Unsolvable,
    ZpwalkError,
)
from .generate import feasible, gen_good_hypergraph
from .hypergraph import (
    GoodnessReport,
    Hypergraph,
    Violation,
    format_hypergraph,
    is_good,
    make_hypergraph,
    parse_hypergraph,
)
from .selftest import SelftestReport, iter_small_good_hypergraphs, run_selftest
from .synthesis import single_edge_schedule, synthesize_schedule
from .zp_algebra import (
    DEFAULT_ENUMERATION_CAP,
    SolutionSpace,
    ZpMatrixSystem,
    enumerate_solutions,
    gaussian_solve,
    is_odd_prime,
    make_system,
    system_norm,
    validate_modulus,
)

__version__ = "0.1.0"
