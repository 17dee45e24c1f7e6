"""Answers the benchmark computes itself, without any of vest's code.

Graph answers come from plain bitmask domination tests over the benchmark's
own edge lists; rational answers from a small reference evaluator over
``fractions.Fraction`` tuples. Both run outside every timed region.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations


def random_edges(rng, n, p):
    """A uniform graph with exactly round(p * C(n, 2)) edges, so that seeds
    change which edges there are but not how many."""
    pairs = list(combinations(range(n), 2))
    return sorted(rng.sample(pairs, round(p * len(pairs))))


def edgelist_text(n, edges):
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def closed_neighbourhoods(n, edges):
    closed = [1 << u for u in range(n)]
    for u, v in edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    return closed


def dominates(closed, n, vertices):
    covered = 0
    for u in vertices:
        covered |= closed[u]
    return covered == (1 << n) - 1


def dominating_counts(closed, n, k_max):
    """D_0..D_k_max: dominating sets of each exact size."""
    return [sum(1 for combo in combinations(range(n), k) if dominates(closed, n, combo))
            for k in range(k_max + 1)]


def sequence_accepted(closed, n, seq):
    """A compiled instance accepts exactly the sequences of pairwise distinct
    vertices that dominate the graph."""
    return len(set(seq)) == len(seq) and dominates(closed, n, seq)


def expected_m(d_counts):
    """M_k = k! * D_k for a compiled graph."""
    return [math.factorial(k) * d for k, d in enumerate(d_counts)]


def random_scalar(rng):
    return Fraction(rng.randint(-3, 3), rng.choice((-3, -2, -1, 1, 2, 3)))


def random_rational(rng, d, m, h):
    """Start vector, m d x d matrices and an h x d selector, as row tuples."""
    def matrix(rows):
        return tuple(tuple(random_scalar(rng) for _ in range(d)) for _ in range(rows))
    start = tuple(random_scalar(rng) for _ in range(d))
    return start, tuple(matrix(d) for _ in range(m)), matrix(h)


def _apply(rows, x):
    return tuple(sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows)


def _killed(selector, x):
    return not any(_apply(selector, x))


def rational_counts(v, transformations, selector, k_max):
    """M_0..M_k_max by merging sequences that reach the same vector."""
    level = {v: 1}
    counts = []
    for k in range(k_max + 1):
        if k:
            nxt = {}
            for x, mult in level.items():
                for t in transformations:
                    y = _apply(t, x)
                    nxt[y] = nxt.get(y, 0) + mult
            level = nxt
        counts.append(sum(mult for x, mult in level.items() if _killed(selector, x)))
    return counts


def rational_accepted(v, transformations, selector, seq):
    x = v
    for t in seq:
        x = _apply(transformations[t], x)
    return _killed(selector, x)
