"""Linear algebra over Z_p for odd primes p, and the judge's ground truth.

Everything here is exact integer arithmetic on canonical residues in
[0, p).  The decisions eliminate nothing: elimination, solution
enumeration and minimum-norm solutions serve selftest and the test
suite, which check the closed forms against them.  Pivoting and
enumeration orders are fixed (leftmost pivot column, lowest pivot row,
lexicographic free-coefficient sweeps), so runs reproduce bit-for-bit.

The ground truth -- the enumerated state digraph, its condensation, the
conserved functionals, the predecessor check -- is built from G.n,
G.edges and the move rule alone, and this module imports only errors
from the package: a step shared with what it judges would let one bug
pass on both sides.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import (
    EnumerationTooLarge,
    InvalidModulus,
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
            return SolutionSpace(False, None, (), p)
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
    return SolutionSpace(True, tuple(particular), tuple(basis), p)


def enumerate_solutions(space: SolutionSpace):
    """Yield every solution, lexicographic in the free-coefficient vector.

    Raises EnumerationTooLarge up front if there are more than
    DEFAULT_ENUMERATION_CAP solutions.
    """
    if not space.solvable:
        return
    if space.count > DEFAULT_ENUMERATION_CAP:
        raise EnumerationTooLarge(f"{space.count} solutions exceed the cap of "
                                  f"{DEFAULT_ENUMERATION_CAP}", count=space.count)
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


def system_norm(space: SolutionSpace) -> tuple[int, tuple[int, ...]]:
    """Minimum lifted coordinate sum over all solutions, with its witness.

    Residues lift to [0, p), so the norm of a solution is just the sum
    of its canonical entries.  Ties break toward the lexicographically
    smallest solution vector.  Raises NormUndefined on an unsolvable
    space and EnumerationTooLarge, past DEFAULT_ENUMERATION_CAP
    solutions, via the solution sweep.
    """
    if not space.solvable:
        raise NormUndefined("norm of an unsolvable system")
    best: tuple[int, tuple[int, ...]] | None = None
    for sol in enumerate_solutions(space):
        key = (sum(sol), sol)
        if best is None or key < best:
            best = key
    assert best is not None
    return best


# -- ground truth: the walk rebuilt from G.n, G.edges and the move rule -------


def enumerate_digraph(G, p: int):
    """All p^n states with their legal-move successor lists.

    States come in itertools.product order, and each successor list in
    (edge, vertex) order of its legal moves, so the search engine's rows
    can be diffed against it entry by entry.
    """
    states = list(itertools.product(range(p), repeat=G.n))
    index = {s: i for i, s in enumerate(states)}
    # the mover loses one unit net (+1 with its edge, -2 as the mover)
    moves = [(v, [u for u in e if u != v]) for e in G.edges for v in e]
    up = [(x + 1) % p for x in range(p)]
    down = [(x - 1) % p for x in range(p)]
    succ: list[list[int]] = [[] for _ in states]
    for w, row in zip(states, succ):
        for v, others in moves:
            if w[v] == 0:
                continue
            nxt = list(w)
            for u in others:
                nxt[u] = up[w[u]]
            nxt[v] = down[w[v]]
            row.append(index[tuple(nxt)])
    return states, index, succ


def condense(succ: list[list[int]]) -> tuple[list[int], list[int]]:
    """Strongly connected components and what each one reaches (iterative Tarjan).

    Returns comp, the component id of every node, and reach, per
    component a bitmask of the components it reaches, itself included.
    Tarjan closes a component only after every component it reaches,
    so one pass completes each mask from its successors' masks.  A
    node's position on the stack serves as its Tarjan index: the stack
    holds the open nodes in the order they were found.  The work stack
    holds one iterator over its successors per open node of the search.
    """
    comp = [-1] * len(succ)
    pos = [-1] * len(succ)
    low = [0] * len(succ)
    reach: list[int] = []
    stack: list[int] = []
    for root in range(len(succ)):
        if pos[root] != -1:
            continue
        pos[root] = low[root] = len(stack)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, todo = work[-1]
            for nxt in todo:
                if pos[nxt] == -1:
                    pos[nxt] = low[nxt] = len(stack)
                    stack.append(nxt)
                    work.append((nxt, iter(succ[nxt])))
                    break
                if comp[nxt] == -1:
                    low[node] = min(low[node], pos[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == pos[node]:
                    members = stack[pos[node]:]
                    del stack[pos[node]:]
                    for x in members:
                        comp[x] = len(reach)
                    mask = 1 << len(reach)
                    for x in members:
                        for y in succ[x]:
                            if comp[y] != comp[x]:
                                mask |= reach[comp[y]]
                    reach.append(mask)
    return comp, reach


def recurrent(comp: list[int], reach: list[int], i: int, j: int) -> bool:
    """Does every node that i reaches reach j?  Every component i reaches must."""
    mask, target = reach[comp[i]], 1 << comp[j]
    return all(reach[c] & target for c in range(mask.bit_length()) if mask >> c & 1)


def conserved_functionals(G, p: int) -> tuple[tuple[int, ...], ...]:
    """Basis of linear functionals y with y . (move effect) = 0 for all moves.

    The move effects are the rows, one per (edge, vertex) incidence:
    +1 on every other vertex of e and p - 1 at v.  Two states in the same
    walk must agree on every functional of their kernel, so differing
    values certify unreachability independently of the balance matrix.
    """
    rows = []
    for e in G.edges:
        for v in e:
            row = [0] * G.n
            for u in e:
                row[u] = 1
            row[v] = p - 1
            rows.append(row)
    return gaussian_solve(make_system(rows, (0,) * len(rows), p, ncols=G.n)).kernel_basis


def functional_values(basis, w: tuple[int, ...], p: int) -> tuple[int, ...]:
    """The value of each functional of basis at the state w."""
    return tuple(sum(y[v] * w[v] for v in range(len(w))) % p for y in basis)


def no_move_produces(G, p: int, w: tuple[int, ...]) -> bool:
    """Definitional predecessor check: undoing any move on w leaves its mover at 0."""
    for e in G.edges:
        for v in e:
            prior = list(w)
            for u in e:
                prior[u] = (prior[u] - 1) % p
            prior[v] = (prior[v] + 2) % p
            if prior[v] != 0:
                return False
    return True
