"""Graph-to-instance compilation."""

from __future__ import annotations

import random
import time

import pytest

import vest.evaluate
import vest.graphs
import vest.reduction
from vest import (
    EmptyGraph,
    FunctionalMatrix,
    NegativeLength,
    ResourceBound,
    Semiring,
    VestError,
    build_initial_vector,
    build_selector,
    build_vertex_action,
    build_vertex_matrix,
    coordinate_layout,
    m_sequence,
    reduce_graph,
    run_verification,
    to_functional,
)
from vest.evaluate import PackedEngine, engine_for

from helpers import (
    complete_graph,
    cycle_graph,
    dense_product,
    edgeless_graph,
    nonisomorphic_graphs,
    path_graph,
    random_graph,
)


def test_layout_covers_all_coordinates():
    for n in (1, 2, 5):
        layout = coordinate_layout(n)
        assert layout.dimension == 3 * n + 1
        seen = {layout.constant}
        for u in range(n):
            seen.update({layout.uncovered(u), layout.chosen_twice(u), layout.chosen_once(u)})
        assert seen == set(range(layout.dimension))


def test_layout_rejects_empty_graphs():
    with pytest.raises(EmptyGraph):
        coordinate_layout(0)
    with pytest.raises(EmptyGraph):
        coordinate_layout(-2)


def test_initial_vector_two_vertices():
    assert build_initial_vector(coordinate_layout(2)) == (1, 0, 0, 1, 0, 0, 1)


def test_selector_two_vertices():
    sel = build_selector(edgeless_graph(2), coordinate_layout(2))
    assert sel.nrows == 4 and sel.ncols == 7
    picked = [row.index(1) for row in sel.rows]
    assert picked == [0, 1, 3, 4]
    assert all(sum(row) == 1 for row in sel.rows)


def test_single_vertex_instance_structure():
    inst = reduce_graph(edgeless_graph(1)).instance
    assert (inst.d, inst.m, inst.h) == (4, 1, 2)
    assert inst.v == (1, 0, 0, 1)
    assert inst.transformations[0].dense().rows == (
        (0, 0, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (0, 0, 0, 1),
    )
    assert inst.selector.rows == ((1, 0, 0, 0), (0, 1, 0, 0))


def test_vertex_matrix_wipes_closed_neighborhood():
    g = path_graph(3)
    layout = coordinate_layout(3)
    middle = build_vertex_action(g, layout, 1)
    # choosing the middle vertex covers everything
    assert [middle.actions[layout.uncovered(u)] for u in range(3)] == [None, None, None]
    end = build_vertex_action(g, layout, 0)
    assert end.actions[layout.uncovered(0)] is None
    assert end.actions[layout.uncovered(1)] is None
    assert end.actions[layout.uncovered(2)] == layout.uncovered(2)


def test_vertex_matrix_cycles_chosen_slots():
    g = edgeless_graph(2)
    layout = coordinate_layout(2)
    t0 = build_vertex_action(g, layout, 0)
    assert t0.actions[layout.chosen_twice(0)] == layout.chosen_once(0)
    assert t0.actions[layout.chosen_once(0)] == layout.constant
    # vertex 1's slots are untouched
    assert t0.actions[layout.chosen_twice(1)] == layout.chosen_twice(1)
    assert t0.actions[layout.chosen_once(1)] == layout.chosen_once(1)
    assert t0.actions[layout.constant] == layout.constant


def test_dense_and_action_forms_agree():
    g = cycle_graph(4)
    layout = coordinate_layout(4)
    for u in range(4):
        assert build_vertex_matrix(g, layout, u) == build_vertex_action(g, layout, u)


def _vertex_action_from_every_row(g, layout, u):
    """``build_vertex_action`` made by testing every vertex's bit of N[u]:
    the identity, each uncovered flag of N[u] zeroed, then the two chosen
    slots."""
    actions = list(range(layout.dimension))
    for w in range(g.n):
        if g.closed_mask(u) >> w & 1:
            actions[layout.uncovered(w)] = None
    actions[layout.chosen_twice(u)] = layout.chosen_once(u)
    actions[layout.chosen_once(u)] = layout.constant
    return FunctionalMatrix(actions)


def test_vertex_actions_move_their_closed_neighbourhood_and_chosen_slots():
    rng = random.Random(1603)
    graphs = [random_graph(rng, rng.randint(1, 30), rng.choice((0.0, 0.2, 0.5, 1.0)))
              for _ in range(40)]
    graphs += [complete_graph(30), edgeless_graph(30), path_graph(1)]
    for g in graphs:
        layout = coordinate_layout(g.n)
        for u in range(g.n):
            t = build_vertex_action(g, layout, u)
            expected = _vertex_action_from_every_row(g, layout, u)
            assert t == expected and hash(t) == hash(expected)
            assert t.actions == expected.actions and t.moved == expected.moved
            assert len(t.moved) == bin(g.closed_mask(u)).count("1") + 2


def test_vertex_matrices_of_one_compile_share_their_fixed_row_ints():
    # CPython shares the ints up to 256 anyway; row 297, the uncovered flag
    # of vertex 99, is fixed in every other vertex's matrix, and each matrix
    # holds the one int object of the layout's identity there
    g = path_graph(100)
    layout = coordinate_layout(g.n)
    first, second = reduce_graph(g).instance.transformations[:2]
    assert first.actions[297] == 297 and first.actions[297] is second.actions[297]
    a, b = (build_vertex_action(g, layout, u) for u in (0, 1))
    assert a.actions[297] is b.actions[297] is layout.identity[297]


def test_compiled_instances_are_fully_functional():
    for g in (path_graph(4), complete_graph(3), edgeless_graph(2)):
        reduced = reduce_graph(g)
        assert isinstance(engine_for(reduced.instance), PackedEngine)
        assert reduced.vertex_count == g.n
        for t, form in zip(reduced.instance.transformations,
                           reduced.instance.functional_forms):
            assert isinstance(t, FunctionalMatrix)
            assert to_functional(t.dense()) == form


def test_products_of_vertex_matrices_stay_functional():
    for g in nonisomorphic_graphs(3):
        layout = coordinate_layout(g.n)
        dense = [build_vertex_matrix(g, layout, u) for u in range(g.n)]
        for a in dense:
            for b in dense:
                assert to_functional(dense_product(a, b)) is not None


def test_semiring_choice_does_not_change_counts():
    for g in (path_graph(3), cycle_graph(4)):
        over_gf2 = m_sequence(reduce_graph(g, Semiring.GF2).instance, 3)
        over_q = m_sequence(reduce_graph(g, Semiring.RATIONAL).instance, 3)
        assert over_gf2.values == over_q.values


def test_reduce_defaults_to_gf2():
    assert reduce_graph(path_graph(2)).instance.semiring is Semiring.GF2


def test_run_verification_on_a_path():
    report = run_verification(path_graph(3), 3)
    assert [row.k for row in report.rows] == [0, 1, 2, 3]
    assert [row.m_k for row in report.rows] == [0, 1, 6, 6]
    assert [row.d_k for row in report.rows] == [0, 1, 3, 1]
    assert [row.expected for row in report.rows] == [0, 1, 6, 6]
    assert report.all_pass
    assert (report.vertex_count, report.edge_count) == (3, 2)
    assert report.semiring is Semiring.GF2 and report.evaluator == "dedup"


def test_run_verification_is_fast_where_no_dominating_set_exists():
    # past k = 3 every D_k of the path is 0 and so is every M_k: no k! is
    # computed for them, and the dedup count stops at its first dead level
    start = time.perf_counter()
    report = run_verification(path_graph(3), 8000)
    assert time.perf_counter() - start < 1.0
    assert report.all_pass and len(report.rows) == 8001
    assert [row.expected for row in report.rows[:5]] == [0, 1, 6, 6, 0]


def test_run_verification_evaluators_agree():
    for g in (path_graph(3), cycle_graph(4)):
        for semiring in Semiring:
            dedup = run_verification(g, 3, semiring, "dedup")
            brute = run_verification(g, 3, semiring, "brute")
            assert [r.m_k for r in dedup.rows] == [r.m_k for r in brute.rows]
            assert dedup.all_pass and brute.all_pass
            assert brute.evaluator == "brute"


def test_run_verification_fails_on_a_corrupted_instance():
    for evaluator in ("dedup", "brute"):
        report = run_verification(path_graph(3), 3, evaluator=evaluator, _corrupt=True)
        assert len(report.rows) == 4
        assert not report.all_pass


def test_run_verification_refuses_a_negative_length():
    # zero rows would pass vacuously, so the request itself is refused
    for evaluator in ("dedup", "brute"):
        with pytest.raises(NegativeLength) as info:
            run_verification(path_graph(3), -1, evaluator=evaluator)
        assert isinstance(info.value, VestError)


def test_run_verification_refuses_a_subset_job_past_the_cap_before_counting(monkeypatch):
    # C(6, k) peaks at k = 3 with 20 sets. Under a cap of 19 every job that
    # reaches k = 3 is refused before its first count, M_k or D_k, though
    # C(6, 5) = 6 and C(6, 6) = 1 would pass; k_max = 2 (15 sets) runs.
    g = path_graph(6)
    monkeypatch.setattr(vest.graphs, "DEFAULT_SUBSET_CAP", 19)
    assert run_verification(g, 2).all_pass
    counted = []
    monkeypatch.setattr(vest.evaluate, "annihilated_mass", lambda *args: counted.append(args))
    monkeypatch.setattr(vest.evaluate, "m_k_bruteforce", lambda *args: counted.append(args))
    monkeypatch.setattr(vest.evaluate, "engine_for", lambda *args: counted.append(args))
    monkeypatch.setattr(vest.reduction, "count_dominating_sets",
                        lambda *args: counted.append(args))
    for evaluator in ("dedup", "brute"):
        for k_max in (3, 4, 6, 10):
            with pytest.raises(ResourceBound) as info:
                run_verification(g, k_max, evaluator=evaluator)
            assert "size-3 sets in a 6-vertex graph" in str(info.value)
    assert counted == []


def test_run_verification_refuses_a_brute_job_past_the_cap_before_compiling(monkeypatch):
    # brute force over 30 vertices to k = 2 walks 30**2 = 900 sequences of
    # length 2, past a cap of 100; m = n, so the graph alone refuses the job
    g = edgeless_graph(30)
    monkeypatch.setattr(vest.evaluate, "DEFAULT_BRUTE_CAP", 100)
    assert run_verification(g, 1, evaluator="brute").all_pass
    def compile_graph(*args):
        raise AssertionError("the graph was compiled before the refusal")
    monkeypatch.setattr(vest.reduction, "reduce_graph", compile_graph)
    with pytest.raises(ResourceBound, match="brute force over 30\\*\\*2 sequences"):
        run_verification(g, 2, evaluator="brute")


def test_run_verification_refuses_before_compiling(monkeypatch):
    # compile memory grows quadratically in n, so a job that the graph
    # alone refuses is refused before the graph is compiled
    def compile_graph(*args):
        raise AssertionError("the graph was compiled before the refusal")
    monkeypatch.setattr(vest.reduction, "reduce_graph", compile_graph)
    monkeypatch.setattr(vest.graphs, "DEFAULT_SUBSET_CAP", 19)  # C(6, 3) = 20
    for evaluator in ("dedup", "brute"):
        with pytest.raises(NegativeLength, match="^maximum length must be >= 0, got -1$"):
            run_verification(path_graph(6), -1, evaluator=evaluator)
        with pytest.raises(ResourceBound, match="size-3 sets in a 6-vertex graph"):
            run_verification(path_graph(6), 3, evaluator=evaluator)
    with pytest.raises(ValueError, match="^unknown method 'bogus'$"):
        run_verification(path_graph(6), 1, evaluator="bogus")
