"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the package's own data structures:
``naive_dominating_count`` works on plain sets,
``inclusion_exclusion_dominating_counts`` on plain int bitmasks,
``dense_product`` on raw tuples, ``Reference`` on plain ``Fraction``
tuples, and ``absorbing_closures`` and ``selector_preimages`` on plain sets
of rows, so they cannot inherit a bug from the code under test.
"""

from __future__ import annotations

import hashlib
import math
import types
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, List, Optional, Tuple

import vest.core
from vest import DenseMatrix, FunctionalMatrix, Graph, Semiring, VestInstance, new_instance


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, list(combinations(range(n), 2)))


def edgeless_graph(n: int) -> Graph:
    return Graph.from_edges(n, [])


def random_graph(rng, n: int, p: float) -> Graph:
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def all_labeled_graphs(n: int) -> List[Graph]:
    """Every graph on vertex set {0..n-1}, one per edge subset."""
    slots = list(combinations(range(n), 2))
    out = []
    for bits in range(1 << len(slots)):
        edges = [slots[i] for i in range(len(slots)) if bits >> i & 1]
        out.append(Graph.from_edges(n, edges))
    return out


@lru_cache(maxsize=None)
def _canonical_forms(n: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    slots = list(combinations(range(n), 2))
    seen = set()
    for bits in range(1 << len(slots)):
        edges = [slots[i] for i in range(len(slots)) if bits >> i & 1]
        best = None
        for perm in permutations(range(n)):
            relabeled = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
            if best is None or relabeled < best:
                best = relabeled
        seen.add(best)
    return tuple(sorted(seen))


def nonisomorphic_graphs(n: int) -> List[Graph]:
    """One representative per isomorphism class of n-vertex graphs."""
    return [Graph.from_edges(n, list(edges)) for edges in _canonical_forms(n)]


def naive_dominating_count(n: int, edges: Iterable[Tuple[int, int]], k: int) -> int:
    """Set-based reference count of size-k dominating sets."""
    neighbors = {u: {u} for u in range(n)}
    for u, v in edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    everything = set(range(n))
    count = 0
    for combo in combinations(range(n), k):
        covered = set()
        for u in combo:
            covered |= neighbors[u]
        if covered == everything:
            count += 1
    return count


def inclusion_exclusion_dominating_counts(n: int, edges: Iterable[Tuple[int, int]]) -> Tuple[int, ...]:
    """D_0..D_n, the number of dominating sets of each size, with no subset
    of any size enumerated: D_k is the sum over vertex sets Y of
    (-1)^|Y| C(a(Y), k), where a(Y) counts the vertices u with N[u] disjoint
    from Y (Bjoerklund, Husfeldt and Koivisto, Set partitioning via
    inclusion-exclusion, SIAM J. Comput. 2009). One pass over the 2^n sets Y."""
    closed = [1 << u for u in range(n)]
    for u, v in edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    signed = [0] * (n + 1)  # signed[a]: sets Y with a(Y) = a, each counted (-1)^|Y|
    for y in range(1 << n):
        a = sum(1 for c in closed if not c & y)
        signed[a] += -1 if bin(y).count("1") & 1 else 1
    return tuple(sum(s * math.comb(a, k) for a, s in enumerate(signed)) for k in range(n + 1))


def dense_product(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Reference matrix product over plain Python arithmetic."""
    assert a.ncols == b.nrows
    rows = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = 0
            for l in range(a.ncols):
                acc += a.rows[i][l] * b.rows[l][j]
            row.append(acc)
        rows.append(tuple(row))
    return DenseMatrix(rows)


def random_scalar(rng) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice((-3, -2, -1, 1, 2, 3)))


def random_rational_instance(rng, max_d: int = 4, max_m: int = 3, max_h: int = 3) -> VestInstance:
    d = rng.randint(1, max_d)
    m = rng.randint(1, max_m)
    h = rng.randint(1, max_h)
    v = tuple(random_scalar(rng) for _ in range(d))
    transformations = [
        DenseMatrix(tuple(tuple(random_scalar(rng) for _ in range(d)) for _ in range(d)))
        for _ in range(m)
    ]
    selector = DenseMatrix(tuple(tuple(random_scalar(rng) for _ in range(d)) for _ in range(h)))
    return new_instance(Semiring.RATIONAL, v, transformations, selector)


def random_functional_matrix(rng, d: int, rows: Optional[int] = None) -> FunctionalMatrix:
    """*rows* x d row actions (d x d by default), each a random column or zero."""
    choices = [None] + list(range(d))
    return FunctionalMatrix(tuple(rng.choice(choices) for _ in range(rows or d)), d)


def absorbing_closures(instance: VestInstance) -> Tuple[int, dict]:
    """The closures of ``PackedEngine._pull_selector_back`` by plain
    reachability: from each selected row, follow ``t.actions`` of every
    transformation t. The closure counts when no ``None`` is reached; it
    maps ``1 << row`` to the mask of the rows seen, and sticky is the mask
    of the rows whose closure counts."""
    actions = [t.actions for t in instance.transformations]
    closures = {}
    for row in set(instance.selector.actions) - {None}:
        seen, todo, reaches_none = {row}, [row], False
        while todo:
            i = todo.pop()
            for acts in actions:
                j = acts[i]
                if j is None:
                    reaches_none = True
                elif j not in seen:
                    seen.add(j)
                    todo.append(j)
        if not reaches_none:
            closures[1 << row] = sum(1 << j for j in seen)
    return sum(closures), closures


def selector_preimages(instance: VestInstance) -> Tuple[int, ...]:
    """The preimages of ``PackedEngine._pull_selector_back`` from plain sets:
    for each transformation t, the rows ``t.actions[i]``, not ``None``, over
    the selected rows i, as a mask."""
    selected = set(instance.selector.actions) - {None}
    preimages = []
    for t in instance.transformations:
        sources = {t.actions[i] for i in selected} - {None}
        preimages.append(sum(1 << j for j in sources))
    return tuple(preimages)


class Reference:
    """Plain-``Fraction`` walk of an instance, read without vest's code: each
    matrix row is kept as its nonzero (column, coefficient) pairs, and each
    product is reduced mod 2 over GF(2)."""

    def __init__(self, instance: VestInstance):
        self.m = instance.m
        self._gf2 = instance.semiring is Semiring.GF2
        self._start = tuple(Fraction(e) for e in instance.v)
        self._steps = [self._rows(t) for t in instance.transformations]
        self._selector = self._rows(instance.selector)

    @staticmethod
    def _rows(matrix):
        if isinstance(matrix, FunctionalMatrix):
            return [[] if j is None else [(j, Fraction(1))] for j in matrix.actions]
        return [[(j, Fraction(e)) for j, e in enumerate(row) if e != 0] for row in matrix.rows]

    def _product(self, rows, x):
        out = tuple(sum((a * x[j] for j, a in row), Fraction(0)) for row in rows)
        return tuple(e % 2 for e in out) if self._gf2 else out

    def step(self, t: int, x: tuple) -> tuple:
        return self._product(self._steps[t], x)

    def killed(self, x: tuple) -> bool:
        return not any(self._product(self._selector, x))

    def accepts(self, sequence: Iterable[int]) -> bool:
        x = self._start
        for t in sequence:
            x = self.step(t, x)
        return self.killed(x)

    def counts(self, k_max: int) -> Tuple[int, ...]:
        """M_0..M_k_max by merging sequences that reach the same exact vector."""
        level = {self._start: 1}
        counts = []
        for k in range(k_max + 1):
            if k:
                nxt = {}
                for x, mult in level.items():
                    for t in range(self.m):
                        y = self.step(t, x)
                        nxt[y] = nxt.get(y, 0) + mult
                level = nxt
            counts.append(sum(mult for x, mult in level.items() if self.killed(x)))
        return tuple(counts)


def count_hashes(monkeypatch) -> list:
    """Route ``vest.core``'s ``hashlib.sha256`` through a counter for the
    rest of the test; returns the list that gets one entry per hash made."""
    hashed = []

    def counting_sha256(*args):
        hashed.append(args)
        return hashlib.sha256(*args)

    monkeypatch.setattr(vest.core, "hashlib", types.SimpleNamespace(sha256=counting_sha256))
    return hashed
