"""Answer checks that do not trust the layer that produced the answer.

`Rule` decides reachability, recurrence and classification from the
per-component sum invariant, computed here from the hypergraph alone:
on a connected well-shaped component the balance system is solvable for
every right-hand side unless every edge there has |e| = 2 (mod p), and
then exactly when the component sums agree mod p.  A state has a
predecessor exactly when some vertex on an edge holds less than p - 1.
"""

from __future__ import annotations


class Rule:
    """Closed-form verdicts for one hypergraph and odd prime p."""

    def __init__(self, n: int, edges, p: int):
        self.n, self.p = n, p
        parent = list(range(n))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e in edges:
            for v in e[1:]:
                parent[find(v)] = find(e[0])
        members: dict[int, list[int]] = {}
        for v in range(n):
            members.setdefault(find(v), []).append(v)
        invariant = {root: True for root in members}
        has_edge = set()
        for e in edges:
            root = find(e[0])
            has_edge.add(root)
            if len(e) % p != 2 % p:
                invariant[root] = False
        self.isolated = [v for root, vs in members.items() if root not in has_edge for v in vs]
        self.summed = [vs for root, vs in members.items() if root in has_edge and invariant[root]]
        self.on_edge = sorted(v for root, vs in members.items() if root in has_edge for v in vs)
        # rank of the balance matrix: a component loses one dimension
        # to its sum invariant; isolated vertices contribute nothing
        self.rank = sum(len(vs) - invariant[root]
                        for root, vs in members.items() if root in has_edge)

    def solvable(self, w1, w2) -> bool:
        if any(w1[v] != w2[v] for v in self.isolated):
            return False
        return all((sum(w1[v] for v in vs) - sum(w2[v] for v in vs)) % self.p == 0
                   for vs in self.summed)

    def has_predecessor(self, w) -> bool:
        return any(w[v] != self.p - 1 for v in self.on_edge)

    def reach(self, w1, w2) -> bool:
        if w1 == w2:
            return True
        return any(w1) and self.has_predecessor(w2) and self.solvable(w1, w2)

    def recur(self, w1, w2) -> bool:
        zero = (0,) * self.n
        if w1 == zero:
            return w2 == zero
        zero_reachable = self.solvable(w1, zero)
        if w2 == zero:
            return zero_reachable
        return self.has_predecessor(w2) and not zero_reachable and self.solvable(w1, w2)

    def transient(self, w) -> bool:
        zero = (0,) * self.n
        return w != zero and self.has_predecessor(w) and self.solvable(w, zero)


def solution_problem(system, solution) -> str | None:
    """None when A x = b holds mod p on the balance system's own matrix."""
    p = system.p
    if len(solution) != system.ncols:
        return f"solution has {len(solution)} entries, system has {system.ncols} columns"
    for v, (row, b) in enumerate(zip(system.rows, system.rhs)):
        if sum(a * x for a, x in zip(row, solution) if a) % p != b:
            return f"solution vector violates balance row {v}"
    return None


def replay(edges, p: int, w1, moves):
    """Apply (vertex, edge) moves by the definition; raises ValueError."""
    w = list(w1)
    for step, (v, ei) in enumerate(moves):
        if not 0 <= ei < len(edges) or v not in edges[ei]:
            raise ValueError(f"step {step}: vertex {v} is not on edge {ei}")
        if w[v] == 0:
            raise ValueError(f"step {step}: vertex {v} has no charge")
        for u in edges[ei]:
            w[u] = (w[u] + 1) % p
        w[v] = (w[v] - 2) % p
    return tuple(w)
