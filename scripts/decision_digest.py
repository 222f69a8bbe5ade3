#!/usr/bin/env python3
"""Fingerprint what the algebraic decision layer answers on seeded cases.

Runs seeded hypergraphs with several state pairs each and prints how
many answers carried each certificate kind (or ended in each error
type), and one sha256 over everything the layer returned: the answer
and certificate data of algebraic decide_reachability,
decide_recurrence and classify_state, necessity_filter's verdict,
is_good's violations and connected_components.  Two checkouts that
print the same lines decide identically on this family, so a change
that must keep the decisions bit-identical is checked by running this
on both and comparing:

    PYTHONPATH=src python3 scripts/decision_digest.py --seed 1

The family, at p in {3, 5, 7}:
  * 300 arbitrary hypergraphs with n <= 12: isolated vertices, size-2
    edges, edges with |e| = 2 and |e| = 0 (mod p), pairs of edges that
    share two vertices, several components;
  * 200 random well-shaped hypergraphs with n <= 41;
  * 60 loose trees of equal edges with |e| = 2 or 0 (mod p), chained
    through one shared vertex each.

Each hypergraph gets six pairs: two random ones, a balance-solvable
target, the zero source, the all-(p-1) target and w1 = w2.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from collections import Counter

from zpwalk.decision import (
    MODE_ALGEBRAIC,
    classify_state,
    decide_reachability,
    decide_recurrence,
    necessity_filter,
)
from zpwalk.errors import ZpwalkError
from zpwalk.generate import gen_good_hypergraph
from zpwalk.hypergraph import connected_components, is_good, make_hypergraph

PRIMES = (3, 5, 7)


def arbitrary_hypergraph(rng: random.Random, p: int):
    n = rng.randint(1, 12)
    edges = set()
    for _ in range(rng.randint(0, 6) if n > 1 else 0):
        size = rng.choice((2, 3, p, p + 2, rng.randint(2, n)))
        edges.add(tuple(sorted(rng.sample(range(n), min(size, n)))))
    return make_hypergraph(n, sorted(edges))


def loose_tree(rng: random.Random, m: int, k: int):
    """m edges of k vertices, each new one hung on a used vertex."""
    n = (k - 1) * m + 1
    labels = list(range(n))
    rng.shuffle(labels)
    fresh = iter(labels)
    used: list[int] = []
    edges = []
    for i in range(m):
        members = [next(fresh) for _ in range(k if i == 0 else k - 1)]
        if i:
            members.append(rng.choice(used))
        used.extend(members[:k - 1] if i else members)
        edges.append(members)
    return make_hypergraph(n, edges)


def class_target(rng: random.Random, G, p: int, w1) -> tuple[int, ...]:
    """w1 plus random multiples of every move's effect: balance-solvable."""
    w2 = list(w1)
    for e in G.edges:
        for v in e:
            x = rng.randrange(p)
            for u in e:
                w2[u] = (w2[u] + x) % p
            w2[v] = (w2[v] - 2 * x) % p
    return tuple(w2)


def hypergraphs(rng: random.Random):
    """Yield (G, p) for every hypergraph of the family, in a fixed order."""
    for _ in range(300):
        p = rng.choice(PRIMES)
        yield arbitrary_hypergraph(rng, p), p
    for _ in range(200):
        n = rng.randint(3, 41)
        m = rng.randint(1, min(12, (n - 1) // 2))
        yield gen_good_hypergraph(n, m, seed=rng.randrange(2**32)), rng.choice(PRIMES)
    for i in range(60):
        p = PRIMES[i % 3]
        k = p + 2 if i % 2 == 0 else p  # |e| = 2 or 0 (mod p)
        yield loose_tree(rng, rng.randint(1, 8), k), p


def pairs(rng: random.Random, G, p: int):
    def state():
        return tuple(rng.randrange(p) for _ in range(G.n))

    w = state()
    yield state(), state()
    yield state(), state()
    yield w, class_target(rng, G, p, w)
    yield (0,) * G.n, state()
    yield state(), (p - 1,) * G.n
    yield w, w


def outcome(call) -> tuple[str, object]:
    """(kind, data) of one decision, or of the error it raised."""
    try:
        result = call()
    except ZpwalkError as err:
        return type(err).__name__, None
    if result is None:
        return "inconclusive", None
    if hasattr(result, "certificate"):
        return result.certificate.kind, (result.answer, result.certificate.data)
    return result.value, None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    digest = hashlib.sha256()
    kinds: Counter[str] = Counter()
    graphs = good = 0
    for G, p in hypergraphs(rng):
        graphs += 1
        report = is_good(G)
        good += report.good
        digest.update(repr((G, p, report.violations, connected_components(G))).encode())
        for w1, w2 in pairs(rng, G, p):
            for name, call in (
                ("reach", lambda: decide_reachability(G, p, w1, w2, mode=MODE_ALGEBRAIC)),
                ("recur", lambda: decide_recurrence(G, p, w1, w2, mode=MODE_ALGEBRAIC)),
                ("classify", lambda: classify_state(G, p, w1, mode=MODE_ALGEBRAIC)),
                ("filter", lambda: necessity_filter(G, p, w1, w2)),
            ):
                kind, data = outcome(call)
                kinds[f"{name} {kind}"] += 1
                digest.update(repr((name, w1, w2, kind, data)).encode())
    print(f"seed {args.seed}: {graphs} hypergraphs, {good} well-shaped")
    for kind, count in sorted(kinds.items()):
        print(f"  {kind}: {count}")
    print(f"sha256: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
