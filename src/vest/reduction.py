"""Compile dominating-set questions into vector-transformation instances.

A graph on n vertices becomes an instance of dimension 3n + 1. Each vertex
u owns three coordinates: an "uncovered" flag that starts at 1 and is wiped
by choosing any vertex of u's closed neighborhood, a "chosen twice" slot,
and a "chosen once" slot. One extra coordinate stays constantly 1 and feeds
the chosen-once slots. Choosing vertex u means applying u's transformation:
it zeroes the uncovered flags across N[u], shifts u's chosen-once value
into chosen-twice, and refills chosen-once from the constant.

After applying the transformations for an index sequence, the selector
(which reads every uncovered flag and every chosen-twice slot) maps the
state to zero exactly when the chosen vertices are pairwise distinct and
dominate the graph. Length-k annihilated sequences are therefore ordered
listings of size-k dominating sets, giving M_k = k! * D_k where D_k counts
dominating sets of size exactly k.

All matrices built here are functional (0/1 with at most one 1 per row),
so every compiled instance runs on ``PackedEngine``, whose constructor
states that rule. The matrices are built and kept as row actions, the
2n x (3n + 1) selector included, so no compiled matrix is ever held as
dense rows. A vertex matrix moves only deg(u) + 3 of its 3n + 1 rows; its
constructor finds those and checks them alone, and the engine's step plans
walk them alone (``FunctionalMatrix.moved``).
``run_verification`` checks that identity on a given graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from time import perf_counter

from .core import DenseMatrix, FunctionalMatrix, Semiring, VestError, VestInstance, new_instance
from .evaluate import DEDUP, check_count, m_counts
from .graphs import Graph, check_subset_bound, count_dominating_sets, mask_vertices


class EmptyGraph(VestError):
    pass


@dataclass(frozen=True)
class CoordinateLayout:
    """Maps graph vertices to coordinate indices of the reduced instance."""

    n: int

    @property
    def dimension(self) -> int:
        return 3 * self.n + 1

    @cached_property
    def identity(self) -> tuple:
        """Row actions of the identity, built once per layout. Every vertex
        matrix of one compile copies them, so all their fixed rows share one
        int object per index: CPython shares only the ints up to 256."""
        return tuple(range(self.dimension))

    @property
    def constant(self) -> int:
        """Index of the always-1 coordinate."""
        return 3 * self.n

    def uncovered(self, u: int) -> int:
        """Flag that is 1 until some vertex of N[u] is chosen."""
        return 3 * u

    def chosen_twice(self, u: int) -> int:
        """Becomes nonzero when u is chosen a second time."""
        return 3 * u + 1

    def chosen_once(self, u: int) -> int:
        """Becomes 1 when u is chosen; source for the chosen-twice slot."""
        return 3 * u + 2


def coordinate_layout(n: int) -> CoordinateLayout:
    if n < 1:
        raise EmptyGraph(f"need at least one vertex, got {n}")
    return CoordinateLayout(n)


def build_initial_vector(layout: CoordinateLayout) -> tuple:
    """Every uncovered flag 1, both chosen slots 0, constant 1."""
    v = [0] * layout.dimension
    for u in range(layout.n):
        v[layout.uncovered(u)] = 1
    v[layout.constant] = 1
    return tuple(v)


def build_vertex_action(g: Graph, layout: CoordinateLayout, u: int) -> FunctionalMatrix:
    """Row-action form of the transformation for choosing vertex u."""
    actions = list(layout.identity)
    for w in mask_vertices(g.closed_mask(u)):
        actions[layout.uncovered(w)] = None
    actions[layout.chosen_twice(u)] = layout.chosen_once(u)
    actions[layout.chosen_once(u)] = layout.constant
    return FunctionalMatrix(actions)


def build_vertex_matrix(g: Graph, layout: CoordinateLayout, u: int) -> DenseMatrix:
    """Dense form of ``build_vertex_action``."""
    return build_vertex_action(g, layout, u).dense()


def build_selector(g: Graph, layout: CoordinateLayout) -> FunctionalMatrix:
    """2n x d row actions: for each vertex, one row reading its uncovered
    flag and one reading its chosen-twice slot."""
    actions = []
    for u in range(layout.n):
        actions += (layout.uncovered(u), layout.chosen_twice(u))
    return FunctionalMatrix(actions, layout.dimension)


@dataclass(frozen=True)
class ReducedInstance:
    """A compiled instance together with its layout and source graph size."""

    instance: VestInstance
    layout: CoordinateLayout
    vertex_count: int


def reduce_graph(g: Graph, semiring: Semiring = Semiring.GF2) -> ReducedInstance:
    """Compile *g*; one transformation per vertex, in vertex order.

    The construction is semiring-agnostic: all entries are 0/1 and no step
    ever adds two nonzero values, so rational and GF(2) instances produce
    identical counts.
    """
    layout = coordinate_layout(g.n)
    v = build_initial_vector(layout)
    transformations = [build_vertex_action(g, layout, u) for u in range(g.n)]
    selector = build_selector(g, layout)
    instance = new_instance(semiring, v, transformations, selector)
    return ReducedInstance(instance, layout, g.n)


@dataclass(frozen=True)
class VerificationRow:
    """One length k: the sequence count, the dominating-set count, and the
    factorial-scaled expectation they must meet."""

    k: int
    m_k: int
    d_k: int
    expected: int
    passed: bool
    seconds: float


@dataclass(frozen=True)
class VerificationReport:
    vertex_count: int
    edge_count: int
    semiring: Semiring
    evaluator: str
    rows: tuple

    @property
    def all_pass(self) -> bool:
        return all(row.passed for row in self.rows)


def run_verification(
    g: Graph,
    k_max: int,
    semiring: Semiring = Semiring.GF2,
    evaluator: str = DEDUP,
    _corrupt: bool = False,
) -> VerificationReport:
    """Compile *g*, count M_0..M_k_max with *evaluator* ("dedup" or
    "brute"), and compare each against k! * D_k. A row's ``seconds`` is the
    time its M_k took; brute force counts every length in one walk, so its
    row 0 holds the walk's time and every later row almost none.

    ``_corrupt`` deliberately zeroes the first coordinate of the compiled
    start vector. It exists as a negative control: a verification harness
    that cannot fail on a sabotaged instance proves nothing.

    The request is refused before *g* is compiled, whose memory grows
    quadratically in n: first by ``check_count`` (m being n), so a negative
    *k_max* leaves no row to pass vacuously, then by ``check_subset_bound``
    at the size where C(n, k) peaks. A request that breaks both a count
    rule and the subset cap gets the count refusal.
    """
    check_count(g.n, k_max, evaluator)
    check_subset_bound(g, min(k_max, g.n // 2))
    instance = reduce_graph(g, semiring).instance
    if _corrupt:
        instance = replace(instance, v=(semiring.zero,) + instance.v[1:])
    counts = m_counts(instance, k_max, evaluator)
    rows = []
    for k in range(k_max + 1):
        start = perf_counter()
        m_k = next(counts)
        seconds = perf_counter() - start
        d_k = count_dominating_sets(g, k)
        expected = math.factorial(k) * d_k if d_k else 0
        rows.append(VerificationRow(k, m_k, d_k, expected, m_k == expected, seconds))
    return VerificationReport(g.n, g.edge_count, semiring, evaluator, tuple(rows))
