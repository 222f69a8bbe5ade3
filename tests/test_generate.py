"""Random instance generator: shape guarantees and determinism."""

import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from zpwalk.errors import Infeasible
from zpwalk.generate import feasible, gen_good_hypergraph
from zpwalk.hypergraph import is_good


def test_feasibility_boundary():
    assert feasible(1, 0)
    assert not feasible(2, 0)
    for m in range(1, 6):
        assert not feasible(2 * m, m)
        assert feasible(2 * m + 1, m)


@pytest.mark.parametrize("n, m", [(3, 2), (1, 1), (4, 2), (10, 5), (2, 0)])
def test_infeasible_shapes_rejected(n, m):
    with pytest.raises(Infeasible):
        gen_good_hypergraph(n, m, seed=1)


def test_edgeless_instance():
    G = gen_good_hypergraph(1, 0, seed=0)
    assert G.n == 1 and G.edges == ()


def test_deterministic_for_fixed_seed():
    a = gen_good_hypergraph(9, 3, seed=42)
    b = gen_good_hypergraph(9, 3, seed=42)
    assert a == b
    variants = {gen_good_hypergraph(9, 3, seed=s) for s in range(30)}
    assert len(variants) > 10  # seeds actually vary the draw


def test_tight_shapes():
    # n = 2m+1 is the extreme boundary; still realizable for every m
    for m in range(1, 8):
        for seed in range(5):
            G = gen_good_hypergraph(2 * m + 1, m, seed=seed)
            assert G.n == 2 * m + 1 and G.m == m
            assert is_good(G).good


@given(
    st.integers(min_value=3, max_value=12),
    st.data(),
)
def test_generated_shape_and_goodness(n, data):
    m = data.draw(st.integers(min_value=1, max_value=(n - 1) // 2))
    seed = data.draw(st.integers(min_value=0, max_value=2**20))
    G = gen_good_hypergraph(n, m, seed=seed)
    assert G.n == n
    assert G.m == m
    assert is_good(G).good
    covered = {v for e in G.edges for v in e}
    assert covered == set(range(n))  # spanning: no isolated vertices


def test_generated_instances_are_pinned():
    """The draws and the output of 3000 seeded instances, bit for bit."""
    rng = random.Random(5)
    digest = hashlib.sha256()
    for _ in range(3000):
        n = rng.randint(1, 60)
        m = rng.randint(0, max(0, (n - 1) // 2))
        if m == 0:
            n = 1
        G = gen_good_hypergraph(n, m, seed=rng.randrange(2**32))
        digest.update(repr(G.edges).encode())
    assert digest.hexdigest() == (
        "ab4aed5936fa07e4037184809d2f48f404866e47ac4ad700eef024f2ac93c58c")


@pytest.mark.parametrize("m", [1, 49_999])
def test_large_instances_are_built_in_linear_time(m):
    # one fat edge, and the tightest shape with the most extra edges;
    # a quadratic build takes minutes here
    G = gen_good_hypergraph(100_000, m, seed=3)
    assert G.n == 100_000 and G.m == m
    assert is_good(G).good
