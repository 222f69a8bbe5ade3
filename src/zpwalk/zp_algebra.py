"""Linear algebra over Z_p for odd primes p.

Everything here is exact integer arithmetic on canonical residues in
[0, p).  Determinism matters: the balance systems we solve feed schedule
synthesis, and replays must reproduce bit-for-bit, so pivoting and
enumeration orders are fixed (leftmost pivot column, lowest pivot row,
lexicographic free-coefficient sweeps).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import (
    EnumerationTooLarge,
    InvalidModulus,
    NoInverse,
    NormUndefined,
    ShapeError,
)

DEFAULT_ENUMERATION_CAP = 1_000_000

#: the largest modulus accepted: is_odd_prime divides by trial, once per p
MAX_MODULUS = 2**31 - 1


@functools.cache
def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def validate_modulus(p: int) -> None:
    """Raise InvalidModulus unless p is an odd prime in [3, MAX_MODULUS]."""
    if (not isinstance(p, int) or isinstance(p, bool) or p > MAX_MODULUS
            or not is_odd_prime(p)):
        raise InvalidModulus(f"modulus must be an odd prime in [3, {MAX_MODULUS}], got {p!r}")


def mod_inverse(a: int, p: int) -> int:
    """Multiplicative inverse of a mod p, via Fermat's little theorem."""
    validate_modulus(p)
    a %= p
    if a == 0:
        raise NoInverse(f"0 has no inverse mod {p}")
    return pow(a, p - 2, p)


@dataclass(frozen=True)
class ZpMatrixSystem:
    """A x = b over Z_p, stored as canonical residues.

    ncols is explicit so the empty-row system (every vector is a
    solution) still knows its ambient dimension.
    """

    rows: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]
    p: int
    ncols: int

    def __post_init__(self):
        validate_modulus(self.p)
        if len(self.rows) != len(self.rhs):
            raise ShapeError(
                f"{len(self.rows)} rows but {len(self.rhs)} right-hand sides"
            )
        if self.ncols < 0:
            raise ShapeError(f"ncols must be >= 0, got {self.ncols}")
        for i, row in enumerate(self.rows):
            if len(row) != self.ncols:
                raise ShapeError(f"row {i} has {len(row)} entries, expected {self.ncols}")
            for x in row:
                if not 0 <= x < self.p:
                    raise ShapeError(f"row {i} entry {x} not a canonical residue mod {self.p}")
        for x in self.rhs:
            if not 0 <= x < self.p:
                raise ShapeError(f"rhs entry {x} not a canonical residue mod {self.p}")


def make_system(rows, rhs, p: int, ncols: int | None = None) -> ZpMatrixSystem:
    """Build a ZpMatrixSystem from arbitrary ints, canonicalizing mod p."""
    validate_modulus(p)
    rows = tuple(tuple(x % p for x in row) for row in rows)
    if ncols is None:
        if not rows:
            raise ShapeError("ncols is required for a system with no rows")
        ncols = len(rows[0])
    return ZpMatrixSystem(rows, tuple(x % p for x in rhs), p, ncols)


@dataclass(frozen=True)
class SolutionSpace:
    """Affine solution set: particular + span(kernel_basis), or empty.

    kernel_basis rows are reduced-echelon kernel vectors listed in
    increasing free-column order; together with the fixed particular
    solution this makes every downstream choice reproducible.
    """

    solvable: bool
    particular: tuple[int, ...] | None
    kernel_basis: tuple[tuple[int, ...], ...]
    p: int
    ncols: int

    @property
    def dimension(self) -> int:
        return len(self.kernel_basis)

    @property
    def count(self) -> int:
        """Number of solutions (0 if unsolvable)."""
        return self.p ** self.dimension if self.solvable else 0


def gaussian_solve(system: ZpMatrixSystem) -> SolutionSpace:
    """Row-reduce to RREF and read off the solution space.

    Pivot choice is deterministic: scan columns left to right, take the
    lowest-index row with a nonzero entry.
    """
    p = system.p
    nrows, ncols = len(system.rows), system.ncols
    aug = [list(row) + [b] for row, b in zip(system.rows, system.rhs)]
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        sel = next((i for i in range(r, nrows) if aug[i][c] != 0), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        inv = pow(aug[r][c], p - 2, p)
        aug[r] = [(x * inv) % p for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
    for i in range(r, nrows):
        if aug[i][ncols] != 0:
            return SolutionSpace(False, None, (), p, ncols)
    particular = [0] * ncols
    for i, c in enumerate(pivot_cols):
        particular[c] = aug[i][ncols]
    pivot_set = set(pivot_cols)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [0] * ncols
        vec[fc] = 1
        for i, c in enumerate(pivot_cols):
            vec[c] = (-aug[i][fc]) % p
        basis.append(tuple(vec))
    return SolutionSpace(True, tuple(particular), tuple(basis), p, ncols)


def enumerate_solutions(space: SolutionSpace, cap: int = DEFAULT_ENUMERATION_CAP):
    """Yield every solution, lexicographic in the free-coefficient vector.

    Raises EnumerationTooLarge up front if there are more than cap
    solutions.
    """
    if not space.solvable:
        return
    if space.count > cap:
        raise EnumerationTooLarge(
            f"{space.count} solutions exceed the cap of {cap}", count=space.count
        )
    p = space.p
    part = space.particular
    basis = space.kernel_basis
    if not basis:
        yield part
        return
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        sol = list(part)
        for c, vec in zip(coeffs, basis):
            if c:
                for j, v in enumerate(vec):
                    sol[j] = (sol[j] + c * v) % p
        yield tuple(sol)


def system_norm(
    space: SolutionSpace, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[int, tuple[int, ...]]:
    """Minimum lifted coordinate sum over all solutions, with its witness.

    Residues lift to [0, p), so the norm of a solution is just the sum
    of its canonical entries.  Ties break toward the lexicographically
    smallest solution vector.  Raises NormUndefined on an unsolvable
    space and EnumerationTooLarge via the solution sweep.
    """
    if not space.solvable:
        raise NormUndefined("norm of an unsolvable system")
    best: tuple[int, tuple[int, ...]] | None = None
    for sol in enumerate_solutions(space, cap=cap):
        key = (sum(sol), sol)
        if best is None or key < best:
            best = key
    assert best is not None
    return best
