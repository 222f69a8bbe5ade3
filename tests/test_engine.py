"""The oracles' search engine against the definition of a move.

The engine keys every state by its base-p code.  Every test on the
small instances runs twice, with rows stored (up to the module's size
bound) and with every row summed afresh (the bound patched to 0).  Rows,
orbits, escape states and state-cap refusals are compared with plain
references written out here from apply_move alone; instances natively
above the bound are compared with the same references, which expand
each state only when they visit it.
"""

import functools
import itertools
import random

import pytest

from zpwalk import dynamics
from zpwalk.dynamics import (
    ILLEGAL,
    all_moves,
    apply_move,
    extract_schedule,
    oracle_escape,
    orbit_bfs,
    replay_schedule,
    state_space,
)
from zpwalk.errors import IllegalMove, StateSpaceTooLarge
from zpwalk.generate import gen_good_hypergraph
from zpwalk.hypergraph import Hypergraph, make_hypergraph
from zpwalk.zp_algebra import MAX_MODULUS

E3 = make_hypergraph(3, [(0, 1, 2)])
E5 = make_hypergraph(5, [(0, 1, 2, 3, 4)])
TWO_EDGES = make_hypergraph(5, [(0, 1, 2), (2, 3, 4)])
TRIANGLE = make_hypergraph(3, [(0, 1), (0, 2), (1, 2)])
GENERATED = [gen_good_hypergraph(n, m, seed=seed)
             for n, m, seed in ((4, 1, 11), (5, 2, 12), (6, 2, 13), (7, 3, 14))]
CASES = [(G, p) for G in [E3, E5, TWO_EDGES, TRIANGLE] + GENERATED for p in (2, 3, 5)
         if p**G.n <= 5**5]
#: instances natively above the bound: the oracle ladder's 7-vertex p = 5
#: rung (78 125 states), 3^301 states, and E3 at the largest modulus
LARGE = [(gen_good_hypergraph(7, 3, seed=2325348894), 5),
         (gen_good_hypergraph(301, 100, seed=15), 3), (E3, MAX_MODULUS)]

#: TABLE_STATES per engine mode: rows stored in the table, or summed on every read
ENGINES = {"table": 2**16, "summed": 0}


@pytest.fixture(params=sorted(ENGINES))
def engine(request, monkeypatch):
    """Whether the engine stores its rows."""
    monkeypatch.setattr(dynamics, "TABLE_STATES", ENGINES[request.param])
    return request.param == "table"


def fresh(G):
    """A copy of G with no engine cached on it yet."""
    return Hypergraph(G.n, G.edges)


def step(G, p, w, move):
    """The state move leads to, by the definition, or None when illegal."""
    try:
        return apply_move(G, p, w, move)
    except IllegalMove:
        return None


def trial_unmove(G, p, t, move):
    """The state move takes to t, by trial (has_predecessor's rule), or None."""
    edge = G.edges[move.edge]
    prior = list(t)
    for u in edge:
        prior[u] = (prior[u] - 1) % p
    prior[move.vertex] = (prior[move.vertex] + 2) % p
    if prior[move.vertex] == 0:
        return None
    assert apply_move(G, p, tuple(prior), move) == t
    return tuple(prior)


@functools.lru_cache(maxsize=2**14)
def successors(G, p, w):
    """w's (move, next state) pairs, one apply_move per incidence."""
    return [(move, t) for move in all_moves(G) if (t := step(G, p, w, move)) is not None]


def plain_bfs(G, p, start, max_states=None, stop_at=None):
    """Visit order and (state, move) links of a breadth-first search that
    expands each state when it visits it, so it never lists all p^n states."""
    links = {start: None}
    order = [start]
    if stop_at == start:
        return order, links
    for w in order:
        for move, t in successors(G, p, w):
            if t in links:
                continue
            if max_states is not None and len(links) >= max_states:
                raise StateSpaceTooLarge("plain reference")
            links[t] = (w, move)
            order.append(t)
            if t == stop_at:
                return order, links
    return order, links


def plain_escape(G, p, w1, w2):
    """The first orbit state that cannot reach w2, from inverted forward steps."""
    order, _ = plain_bfs(G, p, w1)
    if w2 not in order:
        return w1
    preds = {w: [] for w in order}
    for w in order:
        for _, t in successors(G, p, w):
            preds[t].append(w)
    reaching, todo = {w2}, [w2]
    while todo:
        for s in preds[todo.pop()]:
            if s not in reaching:
                reaching.add(s)
                todo.append(s)
    return next((w for w in order if w not in reaching), None)


def assert_trips_alike(G, p, start, cap, stop_at):
    """orbit_bfs refuses at cap exactly when the plain search does."""
    try:
        plain_bfs(G, p, start, max_states=cap, stop_at=stop_at)
    except StateSpaceTooLarge:
        with pytest.raises(StateSpaceTooLarge):
            orbit_bfs(G, p, start, max_states=cap, stop_at=stop_at)
    else:
        orbit_bfs(G, p, start, max_states=cap, stop_at=stop_at)


def test_the_bound_is_on_the_number_of_states(monkeypatch):
    for bound, stored in ((3**5, True), (3**5 - 1, False)):
        monkeypatch.setattr(dynamics, "TABLE_STATES", bound)
        space = state_space(fresh(E5), 3)
        assert type(space) is dynamics._CodeTable and space.stored is stored
    G = fresh(E5)
    assert state_space(G, 3) is state_space(G, 3)  # cached on G
    assert state_space(G, 3) is not state_space(G, 5)


def assert_rows_match(space, G, p, w):
    key = space.key(w)
    assert space.state(key) == w
    forward, backward = space.successors(key), space.unmoves(key)
    assert len(forward) == len(backward) == len(space.moves)
    for move, nxt, prior in zip(space.moves, forward, backward):
        expected = step(G, p, w, move)
        assert nxt == (ILLEGAL if expected is None else space.key(expected)), (G, p, w, move)
        expected = trial_unmove(G, p, w, move)
        assert prior == (ILLEGAL if expected is None else space.key(expected)), (
            G, p, w, move)


def test_rows_match_the_definition(engine):
    for G, p in CASES:
        G = fresh(G)
        space = state_space(G, p)
        assert space.stored is engine
        assert space.moves == all_moves(G)
        for w in itertools.product(range(p), repeat=G.n):
            assert_rows_match(space, G, p, w)


def test_codes_are_product_order_and_refuse_non_states(monkeypatch):
    monkeypatch.setattr(dynamics, "TABLE_STATES", 2**16)
    space = state_space(fresh(TWO_EDGES), 3)
    for code, w in enumerate(itertools.product(range(3), repeat=5)):
        assert space.key(w) == code
    for bad in ((0, 3, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0, 0, 0), (-1, 0, 0, 0, 0)):
        assert space.key(bad) == ILLEGAL
        assert bad not in orbit_bfs(fresh(TWO_EDGES), 3, (1, 0, 0, 0, 0))


def test_orbits_match_a_plain_search(engine):
    rng = random.Random(1201)
    for G, p in CASES:
        G = fresh(G)
        for _ in range(3):
            start = tuple(rng.randrange(p) for _ in range(G.n))
            order, links = plain_bfs(G, p, start)
            orbit = orbit_bfs(G, p, start)
            assert orbit.start == start
            assert orbit.order == tuple(order), (G, p, start)
            assert orbit.predecessor == links
            assert len(orbit) == len(order)
            assert all(w in orbit for w in order)
            assert list(start) in orbit  # any sequence of residues is looked up
            for t in {order[0], order[-1], *rng.sample(order, min(4, len(order)))}:
                i = order.index(t)
                partial = orbit_bfs(G, p, start, stop_at=t)
                assert partial.order == tuple(order[:i + 1])
                assert partial.predecessor == plain_bfs(G, p, start, stop_at=t)[1]
                assert replay_schedule(G, p, start, extract_schedule(partial, t)) == t
            outside = next((w for w in itertools.product(range(p), repeat=G.n)
                            if w not in links), None)
            if outside is not None:
                assert orbit_bfs(G, p, start, stop_at=outside).order == tuple(order)


def test_escape_states_match_a_plain_search(engine):
    rng = random.Random(1202)
    escapes = 0
    for G, p in CASES:
        G = fresh(G)
        for _ in range(3):
            w1 = tuple(rng.randrange(p) for _ in range(G.n))
            order, _ = plain_bfs(G, p, w1)
            for w2 in (rng.choice(order), tuple(rng.randrange(p) for _ in range(G.n))):
                orbit, escape = oracle_escape(G, p, w1, w2)
                assert orbit.order == tuple(order)
                assert escape == plain_escape(G, p, w1, w2), (G, p, w1, w2)
                escapes += escape is not None and w2 in orbit
    assert escapes


def test_the_state_cap_trips_at_the_same_count(engine):
    rng = random.Random(1203)
    for G, p in CASES:
        G = fresh(G)
        start = tuple(rng.randrange(1, p) for _ in range(G.n))
        order, _ = plain_bfs(G, p, start)
        target = order[len(order) // 2]
        i = order.index(target)
        for cap in sorted({1, 2, i, i + 1, len(order) - 1, len(order)} - {0}):
            for stop_at in (None, target):
                assert_trips_alike(G, p, start, cap, stop_at)


def test_repeated_queries_read_the_same_rows(engine):
    G = fresh(TWO_EDGES)
    first = orbit_bfs(G, 3, (1, 0, 2, 0, 1))
    space = state_space(G, 3)
    again = orbit_bfs(G, 3, (1, 0, 2, 0, 1))
    assert state_space(G, 3) is space
    assert again.order == first.order and again.predecessor == first.predecessor
    assert extract_schedule(again, first.order[-1]) == extract_schedule(first, first.order[-1])


@pytest.mark.parametrize("G, p", LARGE, ids=["7v-p5", "301v-p3", "E3-pmax"])
def test_instances_above_the_bound_match_a_plain_search(G, p):
    G = fresh(G)
    space = state_space(G, p)
    rng = random.Random(1204)
    edge_values = (0, 1, p - 2, p - 1)  # the digits a move or un-move wraps at
    for _ in range(6):
        w = tuple(rng.choice(edge_values) if rng.random() < 0.5 else rng.randrange(p)
                  for _ in range(G.n))
        assert_rows_match(space, G, p, w)
    start = tuple(rng.randrange(1, p) for _ in range(G.n))
    if p**G.n <= 5**7:
        order, links = plain_bfs(G, p, start)
        orbit = orbit_bfs(G, p, start)
        assert orbit.order == tuple(order) and orbit.predecessor == links
        assert all(w in orbit for w in order)
    # two moves out: found while the second state's row is read
    first = successors(G, p, start)[0][1]
    for t in (first, successors(G, p, first)[-1][1]):
        order, links = plain_bfs(G, p, start, stop_at=t)
        partial = orbit_bfs(G, p, start, stop_at=t)
        assert partial.order == tuple(order) and partial.predecessor == links
        assert all(w in partial for w in order)
        assert replay_schedule(G, p, start, extract_schedule(partial, t)) == t
        k = len(space.moves)
        for cap in sorted({1, 2, k, k + 1, len(order) - 1, len(order)} - {0}):
            assert_trips_alike(G, p, start, cap, t)
