"""Hypergraph model: parsing, well-shapedness, connectivity, edge paths."""

import random

import pytest

from zpwalk.errors import NoPath, ParseError
from zpwalk.generate import gen_good_hypergraph
from zpwalk.hypergraph import (
    EdgePath,
    Hypergraph,
    connected_components,
    format_hypergraph,
    is_good,
    make_hypergraph,
    parse_hypergraph,
    shortest_edge_path,
    vertex_edges,
)

TRIANGLE = make_hypergraph(3, [(0, 1), (0, 2), (1, 2)])  # not well-shaped
TWO_EDGES = make_hypergraph(5, [(0, 1, 2), (2, 3, 4)])  # well-shaped
CHAIN3 = make_hypergraph(7, [(0, 1, 2), (2, 3, 4), (4, 5, 6)])


def test_constructor_validation():
    with pytest.raises(ValueError):
        Hypergraph(0, ())
    with pytest.raises(ValueError):
        Hypergraph(3, ((0,),))  # edge too small
    with pytest.raises(ValueError):
        Hypergraph(3, ((1, 0, 2),))  # not sorted
    with pytest.raises(ValueError):
        Hypergraph(3, ((0, 1, 3),))  # vertex out of range


def test_make_hypergraph_canonicalizes():
    G = make_hypergraph(4, [(3, 1, 0, 1)])
    assert G.edges == ((0, 1, 3),)
    assert G.m == 1


def test_vertex_edges():
    assert vertex_edges(CHAIN3) == ((0,), (0,), (0, 1), (1,), (1, 2), (2,), (2,))


# ----------------------------------------------------------- file format


def test_parse_basic():
    p, G = parse_hypergraph(
        """
        # a comment line
        p 5
        vertices 5   # trailing comment
        edge 0 1 2
        edge 2 3 4
        """
    )
    assert p == 5
    assert G == TWO_EDGES


def test_parse_format_round_trip():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(3, 10)
        m = rng.randint(1, (n - 1) // 2)
        G = gen_good_hypergraph(n, m, seed=rng.randrange(2**30))
        p = rng.choice((3, 5, 7))
        assert parse_hypergraph(format_hypergraph(p, G)) == (p, G)


def test_parse_accepts_two_as_modulus():
    # the exhaustive search layer works at p=2; only the algebraic layer
    # insists on odd primes, and it rejects later with a clearer error
    p, _ = parse_hypergraph("p 2\nvertices 3\nedge 0 1 2\n")
    assert p == 2


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("vertices 3\nedge 0 1 2\n", "missing 'p'"),
        ("p 3\n", "missing 'vertices'"),
        ("p 3\np 3\nvertices 3\n", "duplicate 'p'"),
        ("p 3\nvertices 3\nvertices 3\n", "duplicate 'vertices'"),
        ("p 4\nvertices 3\n", "prime"),
        ("p 3\nvertices 0\n", "at least one vertex"),
        ("p 3\nedge 0 1 2\nvertices 3\n", "'edge' before 'vertices'"),
        ("p 3\nvertices 3\nedge 0\n", "at least 2"),
        ("p 3\nvertices 3\nedge 0 1 1\n", "duplicate vertex"),
        ("p 3\nvertices 3\nedge 0 1 5\n", "outside"),
        ("p 3\nvertices 3\nedge 0 1 2\nedge 2 1 0\n", "duplicate edge"),
        ("p 3\nvertices 3\nedgee 0 1 2\n", "unknown directive"),
        ("p x\nvertices 3\n", "not an integer"),
    ],
)
def test_parse_rejects(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_hypergraph(text)
    assert fragment in str(err.value)


# ------------------------------------------------------- well-shapedness


def test_is_good_accepts_the_good():
    for G in (TWO_EDGES, CHAIN3, make_hypergraph(3, [(0, 1, 2)])):
        report = is_good(G)
        assert report.good and report.violations == ()


def test_is_good_flags_small_edges():
    report = is_good(TRIANGLE)
    assert not report.good
    assert [v.kind for v in report.violations] == ["small_edge"] * 3
    assert [v.detail for v in report.violations] == [(0,), (1,), (2,)]


def test_is_good_flags_big_intersections():
    G = make_hypergraph(4, [(0, 1, 2), (1, 2, 3)])
    report = is_good(G)
    assert [v.kind for v in report.violations] == ["big_intersection"]
    assert report.violations[0].detail == (0, 1)


def test_is_good_big_intersections_match_all_pairs():
    rng = random.Random(138)
    flagged = 0
    for _ in range(200):
        n = rng.randint(2, 10)
        edges = [rng.sample(range(n), rng.randint(2, min(n, 6)))
                 for _ in range(rng.randint(0, 8))]
        G = make_hypergraph(n, sorted({tuple(sorted(e)) for e in edges}))
        expected = [(i, j) for i in range(G.m) for j in range(i + 1, G.m)
                    if len(set(G.edges[i]) & set(G.edges[j])) > 1]
        got = [v.detail for v in is_good(G).violations if v.kind == "big_intersection"]
        assert got == expected, G
        flagged += bool(expected)
    assert flagged > 50


def test_is_good_flags_disconnection():
    G = make_hypergraph(7, [(0, 1, 2), (4, 5, 6)])  # vertex 3 isolated too
    report = is_good(G)
    kinds = [v.kind for v in report.violations]
    assert kinds == ["disconnected"]
    assert report.violations[0].detail == (0, 3, 4)  # component representatives


def test_generated_instances_are_good():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(3, 11)
        m = rng.randint(1, (n - 1) // 2)
        assert is_good(gen_good_hypergraph(n, m, seed=rng.randrange(2**30))).good


# ---------------------------------------------------------- connectivity


def test_connected_components():
    assert connected_components(CHAIN3) == ((0, 1, 2, 3, 4, 5, 6),)
    without_middle = Hypergraph(CHAIN3.n, (CHAIN3.edges[0], CHAIN3.edges[2]))
    assert connected_components(without_middle) == (
        (0, 1, 2),
        (3,),
        (4, 5, 6),
    )


def test_isolated_vertices_are_singletons():
    G = make_hypergraph(5, [(0, 1, 2)])
    assert connected_components(G) == ((0, 1, 2), (3,), (4,))


# ------------------------------------------------------------ edge paths


def test_shortest_edge_path_direct():
    path = shortest_edge_path(CHAIN3, 0, 0)
    assert path == EdgePath(0, (0,), ())


def test_shortest_edge_path_chain():
    path = shortest_edge_path(CHAIN3, 0, 2)
    assert path.edges == (0, 1, 2)
    assert path.connectors == (2, 4)
    assert path.start_vertex == 0


def test_shortest_edge_path_avoid():
    # diamond: two equally short routes from edge 0 to edge 3; the lower
    # edge index wins the tie
    G = make_hypergraph(9, [(0, 1, 2), (2, 3, 4), (2, 7, 8), (4, 5, 6)])
    direct = shortest_edge_path(G, 0, 3)
    assert direct.edges == (0, 1, 3)


def test_shortest_edge_path_no_route():
    G = make_hypergraph(7, [(0, 1, 2), (4, 5, 6)])
    with pytest.raises(NoPath):
        shortest_edge_path(G, 0, 1)
    with pytest.raises(NoPath):
        shortest_edge_path(G, 3, 0)  # vertex 3 touches no edge


def test_shortest_edge_path_bounds():
    with pytest.raises(ValueError):
        shortest_edge_path(CHAIN3, -1, 0)
    with pytest.raises(ValueError):
        shortest_edge_path(CHAIN3, 0, 9)
