"""Exact linear algebra over Z_p, checked against brute-force enumeration.

The gaussian solver is the foundation everything else trusts, so it gets
a full differential treatment: random systems small enough to enumerate
all of Z_p^ncols are solved both ways and every facet of the answer
(solvability, solution count, membership, norm) must agree.
"""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from zpwalk import zp_algebra
from zpwalk.errors import (
    EnumerationTooLarge,
    InvalidModulus,
    NoInverse,
    NormUndefined,
    ShapeError,
)
from zpwalk.zp_algebra import (
    MAX_MODULUS,
    ZpMatrixSystem,
    enumerate_solutions,
    gaussian_solve,
    is_odd_prime,
    make_system,
    mod_inverse,
    system_norm,
    validate_modulus,
)

SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def brute_solutions(system: ZpMatrixSystem) -> set[tuple[int, ...]]:
    """All of Z_p^ncols, filtered by direct substitution."""
    sols = set()
    for x in itertools.product(range(system.p), repeat=system.ncols):
        if all(
            sum(a * xi for a, xi in zip(row, x)) % system.p == b
            for row, b in zip(system.rows, system.rhs)
        ):
            sols.add(x)
    return sols


def random_system(rng: random.Random) -> ZpMatrixSystem:
    p = rng.choice((3, 5))
    ncols = rng.randint(1, 8 if p == 3 else 5)  # keeps p**ncols <= 3**8
    nrows = rng.randint(0, ncols + 2)
    rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
    rhs = [rng.randrange(p) for _ in range(nrows)]
    return make_system(rows, rhs, p, ncols=ncols)


# ---------------------------------------------------------------- units


def test_is_odd_prime():
    assert [q for q in range(100) if is_odd_prime(q)] == list(SMALL_PRIMES)


def test_mod_inverse_known_value():
    assert mod_inverse(3, 7) == 5


def test_mod_inverse_exhaustive_small_primes():
    for p in SMALL_PRIMES:
        for a in range(1, p):
            assert (a * mod_inverse(a, p)) % p == 1


def test_mod_inverse_reduces_input_first():
    assert mod_inverse(10, 7) == mod_inverse(3, 7)
    assert mod_inverse(-4, 7) == mod_inverse(3, 7)


def test_mod_inverse_of_zero_rejected():
    with pytest.raises(NoInverse):
        mod_inverse(0, 5)
    with pytest.raises(NoInverse):
        mod_inverse(15, 5)


@pytest.mark.parametrize("bad", [1, 2, 4, 6, 9, 15, 0, -3, -7, True])
def test_validate_modulus_rejects(bad):
    with pytest.raises(InvalidModulus):
        validate_modulus(bad)


def test_validate_modulus_accepts_odd_primes():
    for p in SMALL_PRIMES:
        validate_modulus(p)
    validate_modulus(MAX_MODULUS)


def test_validate_modulus_refuses_huge_p_before_trial_division(monkeypatch):
    def no_trial(p):
        raise AssertionError("trial division started")

    monkeypatch.setattr(zp_algebra, "is_odd_prime", no_trial)
    for p in (MAX_MODULUS + 2, 10**18 + 9, 10**4000):
        with pytest.raises(InvalidModulus, match="odd prime in"):
            validate_modulus(p)


def test_make_system_canonicalizes_entries():
    sys_ = make_system([[-1, 4]], [-2], 3)
    assert sys_.rows == ((2, 1),)
    assert sys_.rhs == (1,)
    assert sys_.ncols == 2


def test_system_shape_validation():
    with pytest.raises(ShapeError):
        ZpMatrixSystem(((1, 2),), (0, 1), 3, 2)  # rows/rhs length mismatch
    with pytest.raises(ShapeError):
        ZpMatrixSystem(((1, 2, 0),), (0,), 3, 2)  # row width mismatch
    with pytest.raises(ShapeError):
        ZpMatrixSystem(((1, 5),), (0,), 3, 2)  # non-canonical residue
    with pytest.raises(ShapeError):
        make_system([], [], 3)  # empty system needs explicit ncols
    empty = make_system([], [], 3, ncols=4)
    space = gaussian_solve(empty)
    assert space.solvable and space.count == 3**4


# ------------------------------------------------- differential sweeps


def test_gaussian_solve_matches_brute_force():
    """200+ random systems: solvability, count, membership, both directions."""
    rng = random.Random(4021)
    checked = 0
    solvable_seen = unsolvable_seen = 0
    while checked < 220:
        system = random_system(rng)
        truth = brute_solutions(system)
        space = gaussian_solve(system)
        assert space.solvable == bool(truth)
        assert space.count == len(truth)
        if space.solvable:
            solvable_seen += 1
            assert space.particular in truth
            got = set(enumerate_solutions(space))
            assert got == truth
            for vec in space.kernel_basis:
                forward = tuple(
                    sum(a * v for a, v in zip(row, vec)) % system.p
                    for row in system.rows
                )
                assert all(x == 0 for x in forward)
        else:
            unsolvable_seen += 1
            assert space.particular is None and space.kernel_basis == ()
        checked += 1
    # the generator should exercise both outcomes heavily
    assert solvable_seen > 30 and unsolvable_seen > 30


def test_system_norm_matches_brute_force():
    rng = random.Random(515)
    solvable_checked = 0
    while solvable_checked < 80:
        system = random_system(rng)
        truth = brute_solutions(system)
        if not truth:
            with pytest.raises(NormUndefined):
                system_norm(gaussian_solve(system))
            continue
        best = min((sum(x), x) for x in truth)
        assert system_norm(gaussian_solve(system)) == best
        solvable_checked += 1


def test_norm_of_single_edge_balance_system():
    # balance system of one 4-vertex edge at p=3, from charge [1,0,0,0]
    # to [0,1,1,1]: row v reads x_v - sum of the others = w1(v) - w2(v)
    rows = [[1 if u == v else -1 for u in range(4)] for v in range(4)]
    rhs = [1, -1, -1, -1]
    space = gaussian_solve(make_system(rows, rhs, 3))
    assert system_norm(space) == (1, (1, 0, 0, 0))


def test_enumeration_cap():
    # 0 = 0 with 8 free columns: 3^8 solutions
    system = make_system([[0] * 8], [0], 3)
    space = gaussian_solve(system)
    assert space.count == 3**8
    with pytest.raises(EnumerationTooLarge) as err:
        list(enumerate_solutions(space, cap=100))
    assert err.value.count == 3**8
    assert len(list(enumerate_solutions(space, cap=3**8))) == 3**8


def test_enumerate_unsolvable_is_empty():
    system = make_system([[0, 0]], [1], 3)
    assert list(enumerate_solutions(gaussian_solve(system))) == []


# ------------------------------------------------------ property tests

@st.composite
def small_systems(draw):
    p = draw(st.sampled_from((3, 5)))
    ncols = draw(st.integers(min_value=1, max_value=4))
    nrows = draw(st.integers(min_value=1, max_value=4))
    rows = [
        [draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    rhs = [draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(nrows)]
    return make_system(rows, rhs, p, ncols=ncols)


@given(small_systems())
def test_solutions_satisfy_their_system(system):
    space = gaussian_solve(system)
    if not space.solvable:
        assert brute_solutions(system) == set()
        return
    for x in itertools.islice(enumerate_solutions(space), 30):
        for row, b in zip(system.rows, system.rhs):
            assert sum(a * xi for a, xi in zip(row, x)) % system.p == b


@given(small_systems(), st.integers(min_value=1, max_value=4))
def test_scaling_rhs_scales_solutions(system, c):
    """x solves (A, b)  ==>  c*x solves (A, c*b); solvability is preserved."""
    scaled = make_system(system.rows, [c * b for b in system.rhs],
                         system.p, ncols=system.ncols)
    space = gaussian_solve(system)
    scaled_space = gaussian_solve(scaled)
    if c % system.p != 0:
        assert space.solvable == scaled_space.solvable
    if space.solvable:
        x = tuple((c * xi) % system.p for xi in space.particular)
        for row, b in zip(scaled.rows, scaled.rhs):
            assert sum(a * xi for a, xi in zip(row, x)) % system.p == b % system.p
