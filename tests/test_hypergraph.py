"""Hypergraph model: parsing, well-shapedness, connectivity."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from zpwalk import generate, hypergraph
from zpwalk.errors import Infeasible, ParseError
from zpwalk.generate import gen_good_hypergraph
from zpwalk.hypergraph import (
    MAX_VERTICES,
    Hypergraph,
    format_hypergraph,
    is_good,
    make_hypergraph,
    parse_hypergraph,
)
from zpwalk.selftest import iter_small_good_hypergraphs

TRIANGLE = make_hypergraph(3, [(0, 1), (0, 2), (1, 2)])  # not well-shaped
TWO_EDGES = make_hypergraph(5, [(0, 1, 2), (2, 3, 4)])  # well-shaped
CHAIN3 = make_hypergraph(7, [(0, 1, 2), (2, 3, 4), (4, 5, 6)])


def test_cached_fields_leave_equality_hash_and_repr_alone():
    G, H = make_hypergraph(5, [(0, 1, 2), (2, 3, 4)]), TWO_EDGES
    text = repr(G)
    assert G.m == 2 and G.structure.components == ((0, 1, 2, 3, 4),)
    assert G == H and hash(G) == hash(H)
    assert repr(G) == text == repr(H)


def test_constructor_validation():
    with pytest.raises(ValueError, match=r"need at least one vertex, got n=0"):
        Hypergraph(0, ())
    with pytest.raises(ValueError, match=r"edge 0 has 1 vertices, need at least 2"):
        Hypergraph(3, ((0,),))  # edge too small
    with pytest.raises(ValueError, match=r"edge 1 must be a sorted tuple of distinct vertices"):
        Hypergraph(3, ((0, 1), (1, 0, 2)))  # not sorted
    with pytest.raises(ValueError, match="sorted tuple of distinct vertices"):
        Hypergraph(3, ((0, 0, 1),))  # repeated vertex
    with pytest.raises(ValueError, match=r"edge 0 has vertices outside \[0, 3\)"):
        Hypergraph(3, ((0, 1, 3),))  # vertex out of range
    with pytest.raises(ValueError, match=r"edge 0 has vertices outside \[0, 3\)"):
        Hypergraph(3, ((-1, 1, 2),))


def test_trusted_build_sets_every_field():
    G = Hypergraph._trusted(5, ((0, 1, 2), (2, 3, 4)))
    assert set(vars(G)) == {f.name for f in dataclasses.fields(Hypergraph)}
    assert G == TWO_EDGES and hash(G) == hash(TWO_EDGES)


def test_make_hypergraph_canonicalizes():
    G = make_hypergraph(4, [(3, 1, 0, 1)])
    assert G.edges == ((0, 1, 3),)
    assert G.m == 1


def test_vertex_edges():
    assert CHAIN3.structure.incidence == ((0,), (0,), (0, 1), (1,), (1, 2), (2,), (2,))


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


def plain_violations(G):
    """Reference for is_good: small edges, then every pair of edges tested
    for two shared vertices, then the union-find components."""
    small = [("small_edge", (i,)) for i, e in enumerate(G.edges) if len(e) < 3]
    big = [("big_intersection", (i, j)) for i in range(G.m) for j in range(i + 1, G.m)
           if len(set(G.edges[i]) & set(G.edges[j])) > 1]
    components = union_find_components(G)
    split = [("disconnected", tuple(c[0] for c in components))] if len(components) > 1 else []
    return small + big + split


def every_hypergraph(max_n, max_m):
    """Every hypergraph with up to max_n vertices and max_m distinct edges."""
    for n in range(1, max_n + 1):
        candidates = [c for k in range(2, n + 1) for c in itertools.combinations(range(n), k)]
        for m in range(max_m + 1):
            for edges in itertools.combinations(candidates, m):
                yield Hypergraph(n, edges)


def generated_and_broken(seed):
    """Generated instances, each also with an edge meeting edge 0 in two
    vertices, a copy of edge 0, and its last edge dropped."""
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randint(3, 40)
        G = gen_good_hypergraph(n, rng.randint(1, (n - 1) // 2), seed=rng.randrange(2**30))
        yield G
        yield Hypergraph(G.n, G.edges + (G.edges[0][:2],))
        yield Hypergraph(G.n, G.edges + (G.edges[0],))
        yield Hypergraph(G.n, G.edges[:-1])


@pytest.mark.parametrize("family", ["enumerated good", "every small", "generated", "arbitrary"])
def test_is_good_matches_a_plain_all_pairs_reference(family):
    """The structure search's overlap pairs give is_good the same
    violations, in the same order, as testing every pair of edges."""
    if family == "enumerated good":
        instances = list(iter_small_good_hypergraphs(6))
    elif family == "every small":
        instances = list(every_hypergraph(4, 3))
    elif family == "generated":
        instances = list(generated_and_broken(15))
    else:
        rng = random.Random(1515)
        instances = [arbitrary_hypergraph(rng) for _ in range(400)]
    kinds = set()
    for G in instances:
        got = [(v.kind, v.detail) for v in is_good(G).violations]
        assert got == plain_violations(G), G
        kinds.update(kind for kind, _ in got)
    want = {"enumerated good": set()}.get(
        family, {"small_edge", "big_intersection", "disconnected"})
    assert kinds == want


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
    assert CHAIN3.structure.components == ((0, 1, 2, 3, 4, 5, 6),)
    without_middle = Hypergraph(CHAIN3.n, (CHAIN3.edges[0], CHAIN3.edges[2]))
    assert without_middle.structure.components == (
        (0, 1, 2),
        (3,),
        (4, 5, 6),
    )


def test_isolated_vertices_are_singletons():
    G = make_hypergraph(5, [(0, 1, 2)])
    assert G.structure.components == ((0, 1, 2), (3,), (4,))


def arbitrary_hypergraph(rng):
    """Any hypergraph: size-2 edges, shared pairs, isolated vertices..."""
    n = rng.randint(1, 14)
    edges = set()
    for _ in range(rng.randint(0, 7) if n > 1 else 0):
        edges.add(tuple(sorted(rng.sample(range(n), rng.randint(2, min(n, 5))))))
    return Hypergraph(n, tuple(sorted(edges)))


def union_find_components(G):
    """Reference partition: union the vertices of every edge."""
    parent = list(range(G.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in G.edges:
        for v in e[1:]:
            parent[find(v)] = find(e[0])
    groups = {}
    for v in range(G.n):
        groups.setdefault(find(v), []).append(v)
    return tuple(sorted(tuple(g) for g in groups.values()))


def test_connected_components_match_union_find():
    rng = random.Random(4242)
    for _ in range(400):
        G = arbitrary_hypergraph(rng)
        comps = G.structure.components
        assert comps == union_find_components(G), G
        structure = G.structure
        assert all(structure.component[v] == c for c, comp in enumerate(comps) for v in comp)
        assert sorted(i for scan in structure.scan for i in scan) == list(range(G.m))
        # the vertex-edge incidence graph is a forest iff it has n + m - c links
        cyclic = sum(map(len, G.edges)) > G.n + G.m - len(comps)
        assert bool(structure.closing) == cyclic


def test_structure_is_cached_and_keeps_equality():
    G, H = CHAIN3, make_hypergraph(CHAIN3.n, CHAIN3.edges)
    assert G.structure is G.structure and is_good(G) is is_good(G)
    assert G == H and hash(G) == hash(H) and repr(G) == repr(H)


# ------------------------------------------------------- input ceilings

HUGE = 10**12


def test_vertex_ceiling_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse_hypergraph(f"p 3\nvertices {HUGE}\nedge 0 1 2\n")
    assert err.value.line == 2
    p, G = parse_hypergraph(f"p 3\nvertices {MAX_VERTICES}\n")
    assert G.n == MAX_VERTICES  # nothing per-vertex is built while parsing


def test_generator_refuses_huge_vertex_counts(monkeypatch):
    def no_build(*args):
        raise AssertionError("the generator started building")

    monkeypatch.setattr(generate, "_try_build", no_build)
    with pytest.raises(Infeasible):
        gen_good_hypergraph(HUGE, 3, seed=1)
    with pytest.raises(Infeasible):
        gen_good_hypergraph(MAX_VERTICES + 1, 3, seed=1)


def test_huge_modulus_is_refused_before_trial_division(monkeypatch):
    def no_trial(p):
        raise AssertionError("trial division started")

    monkeypatch.setattr(hypergraph, "is_odd_prime", no_trial)
    for p in (10**18 + 9, 10**4000):
        with pytest.raises(ParseError):
            parse_hypergraph(f"p {p}\nvertices 3\n")


# ----------------------------------------------------------- parser fuzz

TOKENS = st.one_of(
    st.sampled_from(["p", "vertices", "edge", "#", "3", "5", "0", "1", "2", "-1"]),
    st.integers().map(str),
    st.text(max_size=3),
)
DIRECTIVES = st.lists(st.lists(TOKENS, max_size=6).map(" ".join), max_size=8).map("\n".join)
NEARLY_VALID = st.builds(
    lambda p, n, edges: "\n".join(
        [f"p {p}", f"vertices {n}"] + ["edge " + " ".join(map(str, e)) for e in edges]
    ),
    st.sampled_from([2, 3, 4, 7, 10**20]),
    st.integers(-1, 8),
    st.lists(st.lists(st.integers(-1, 8), max_size=5), max_size=4),
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(NEARLY_VALID, DIRECTIVES, st.text()))
def test_parse_hypergraph_parses_or_raises_parse_error(text):
    try:
        p, G = parse_hypergraph(text)
    except ParseError:
        return
    assert p >= 2 and 1 <= G.n <= MAX_VERTICES
    # the parser skips the constructor's checks: what it built must pass them
    H = Hypergraph(G.n, G.edges)
    assert G == H and hash(G) == hash(H)
