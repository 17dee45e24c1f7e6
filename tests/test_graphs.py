"""Graph model, dominating-set counting, and the two parsers."""

from __future__ import annotations

import random

import pytest

import vest.graphs
from vest import (
    Graph,
    GraphSyntaxError,
    InconsistentHeader,
    NegativeLength,
    ResourceBound,
    VertexOutOfRange,
    count_dominating_sets,
    is_dominating,
    parse_graph,
)
from vest.graphs import (check_subset_bound, mask_vertices, parse_dimacs, parse_edgelist,
                         vertex_mask)

from helpers import (
    all_labeled_graphs,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    inclusion_exclusion_dominating_counts,
    naive_dominating_count,
    nonisomorphic_graphs,
    path_graph,
    random_graph,
)


def test_from_edges_counts_distinct_edges():
    g = Graph.from_edges(3, [(0, 1), (1, 0), (1, 2)])
    assert g.edge_count == 2
    assert g.adj[1] == 0b101


def test_from_edges_rejects_bad_vertices():
    with pytest.raises(VertexOutOfRange):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(VertexOutOfRange):
        Graph.from_edges(3, [(-1, 0)])
    # the message names the first endpoint out of range
    for edge, bad in (((0, 3), 3), ((3, 0), 3), ((-1, 5), -1), ((1, -2), -2)):
        with pytest.raises(VertexOutOfRange, match=rf"^vertex {bad} outside \[0, 3\)$"):
            Graph.from_edges(3, [edge])
    with pytest.raises(ValueError):
        Graph.from_edges(0, [])


def test_self_loops_warn_and_drop():
    with pytest.warns(UserWarning):
        g = Graph.from_edges(2, [(0, 0), (0, 1)])
    assert g.edge_count == 1
    assert g.adj[0] == 0b10


def test_closed_neighborhood():
    p = path_graph(4)
    assert p.closed_mask(0) == 0b0011
    assert p.closed_mask(1) == 0b0111
    assert p.closed_mask(3) == 0b1100
    with pytest.raises(VertexOutOfRange):
        p.closed_mask(4)


def test_mask_helpers_round_trip():
    assert vertex_mask((0, 3), 5) == 0b1001
    assert mask_vertices(0b1001) == (0, 3)
    with pytest.raises(VertexOutOfRange):
        vertex_mask((5,), 5)


def test_is_dominating_hand_cases():
    p3 = path_graph(3)
    assert is_dominating(p3, {1})
    assert not is_dominating(p3, {0})
    assert is_dominating(p3, (0, 2))
    c4 = cycle_graph(4)
    assert not is_dominating(c4, {0})
    assert is_dominating(c4, {0, 1})
    # opposite corners dominate the square too
    assert is_dominating(c4, {0, 2})


def test_is_dominating_accepts_masks():
    p3 = path_graph(3)
    assert is_dominating(p3, 0b010)
    assert not is_dominating(p3, 0b001)
    with pytest.raises(VertexOutOfRange):
        is_dominating(p3, 0b1000)


def test_empty_set_dominates_nothing():
    assert not is_dominating(edgeless_graph(1), ())
    assert not is_dominating(complete_graph(3), 0)


def test_whole_vertex_set_dominates():
    for g in (path_graph(5), edgeless_graph(4), complete_graph(2)):
        assert is_dominating(g, range(g.n))


def test_count_against_naive_oracle_exhaustive():
    for n in (1, 2, 3, 4):
        for g in all_labeled_graphs(n):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if g.adj[u] >> v & 1]
            for k in range(n + 1):
                assert count_dominating_sets(g, k) == naive_dominating_count(n, edges, k)


def test_count_against_naive_oracle_random():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(5, 8)
        g = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if g.adj[u] >> v & 1]
        k = rng.randint(0, n)
        assert count_dominating_sets(g, k) == naive_dominating_count(n, edges, k)


def test_count_against_inclusion_exclusion_oracle():
    # a second oracle that never enumerates subsets of one size
    assert inclusion_exclusion_dominating_counts(3, [(0, 1), (1, 2)]) == (0, 1, 3, 1)
    rng = random.Random(12)
    graphs = [g for n in range(1, 6) for g in nonisomorphic_graphs(n)]
    graphs += [random_graph(rng, n, p) for n in range(6, 13) for p in (0.2, 0.5, 0.8)]
    for g in graphs:
        edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] >> v & 1]
        assert (inclusion_exclusion_dominating_counts(g.n, edges)
                == tuple(count_dominating_sets(g, k) for k in range(g.n + 1)))


def test_count_edge_cases():
    g = path_graph(3)
    assert count_dominating_sets(g, 0) == 0
    assert count_dominating_sets(g, 4) == 0
    assert count_dominating_sets(g, 3) == 1
    for k in (-1, -10**100):
        with pytest.raises(NegativeLength, match=f"^set size must be >= 0, got {k}$"):
            count_dominating_sets(g, k)
        with pytest.raises(NegativeLength):
            check_subset_bound(g, k)


def test_count_respects_cap(monkeypatch):
    g = edgeless_graph(30)
    monkeypatch.setattr(vest.graphs, "DEFAULT_SUBSET_CAP", 1000)
    with pytest.raises(ResourceBound):
        count_dominating_sets(g, 15)


def test_nonisomorphic_catalog_sizes():
    # standard counts for simple graphs on 1..5 vertices
    assert [len(nonisomorphic_graphs(n)) for n in (1, 2, 3, 4, 5)] == [1, 2, 4, 11, 34]


def test_parse_edgelist_round_trip():
    text = "# a comment\n\n4 3\n0 1\n1 2\n\n# trailing comment\n2 3\n"
    g = parse_edgelist(text)
    assert g.n == 4 and g.edge_count == 3
    assert is_dominating(g, {1, 3})


def test_parse_edgelist_errors_carry_line_numbers():
    with pytest.raises(GraphSyntaxError) as err:
        parse_edgelist("3\n0 1\n")
    assert err.value.line == 1
    with pytest.raises(GraphSyntaxError) as err:
        parse_edgelist("3 2\n0 1\n0 x\n")
    assert err.value.line == 3
    with pytest.raises(GraphSyntaxError) as err:
        parse_edgelist("# leading\n3 2\n0 5\n")
    assert err.value.line == 3
    with pytest.raises(GraphSyntaxError):
        parse_edgelist("0 0\n")
    with pytest.raises(GraphSyntaxError):
        parse_edgelist("")
    with pytest.raises(GraphSyntaxError):
        parse_edgelist("3 2\n0 1 2\n")


@pytest.mark.parametrize("text, message", [
    ("  3 x  \n", "line 1: non-integer header field in '3 x'"),
    ("\t# c\n 3 \n", "line 2: expected header 'n m', got '3'"),
    ("3 2\n  0 1 2\t\n", "line 2: expected edge 'u v', got '0 1 2'"),
    ("3 2\n0 y \n", "line 2: non-integer endpoint in '0 y'"),
    ("3 2\n 0 7 \n", "line 2: endpoint outside [0, 3) in '0 7'"),
    ("  # only\n\n", "line 1: empty input: no 'n m' header found"),
    ("0 1\n", "line 1: vertex count must be >= 1, got 0"),
    ("3 -1\n", "line 1: edge count must be >= 0, got -1"),
])
def test_parse_edgelist_messages_quote_the_stripped_line(text, message):
    with pytest.raises(GraphSyntaxError) as err:
        parse_edgelist(text)
    assert str(err.value) == message


def test_parse_edgelist_skips_indented_comments_and_blank_lines():
    with pytest.warns(UserWarning, match="^ignoring self-loop at vertex 1$"):
        g = parse_edgelist(" 3 2 \n #x\n 0  1 \n\t\n1 1\n")
    assert g == Graph.from_edges(3, [(0, 1)])


def test_parse_edgelist_header_count_is_advisory():
    # declared edge count need not match; duplicates collapse
    g = parse_edgelist("2 99\n0 1\n0 1\n")
    assert g.edge_count == 1


def test_parse_dimacs_round_trip():
    text = "c little square\np edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n"
    g = parse_dimacs(text)
    assert g.n == 4 and g.edge_count == 4
    assert g.adj[0] == cycle_graph(4).adj[0]


def test_parse_dimacs_header_must_match_edge_lines():
    with pytest.raises(InconsistentHeader):
        parse_dimacs("p edge 3 2\ne 1 2\n")
    with pytest.raises(InconsistentHeader):
        parse_dimacs("p edge 3 0\ne 1 2\n")
    # duplicate edge lines still count as lines
    g = parse_dimacs("p edge 2 2\ne 1 2\ne 1 2\n")
    assert g.edge_count == 1


def test_parse_dimacs_names_a_self_loop_by_its_file_vertex():
    with pytest.warns(UserWarning, match="^ignoring self-loop at vertex 1$"):
        g = parse_dimacs("p edge 2 2\ne 1 1\ne 1 2\n")
    assert g == Graph.from_edges(2, [(0, 1)])
    # the dropped line still counts against the declared edge count
    with pytest.warns(UserWarning), pytest.raises(InconsistentHeader):
        parse_dimacs("p edge 2 1\ne 2 2\ne 1 2\n")


def test_parse_dimacs_errors():
    with pytest.raises(GraphSyntaxError) as err:
        parse_dimacs("e 1 2\np edge 2 1\n")
    assert err.value.line == 1
    with pytest.raises(GraphSyntaxError):
        parse_dimacs("p edge 2 1\np edge 2 1\ne 1 2\n")
    with pytest.raises(GraphSyntaxError):
        parse_dimacs("p edge 2 1\ne 0 1\n")
    with pytest.raises(GraphSyntaxError):
        parse_dimacs("p edge 2 1\ne 1 3\n")
    with pytest.raises(GraphSyntaxError):
        parse_dimacs("p edge 2 1\nq 1 2\n")
    with pytest.raises(GraphSyntaxError):
        parse_dimacs("c only a comment\n")
    with pytest.raises(GraphSyntaxError):
        parse_dimacs("p node 2 1\ne 1 2\n")


def test_parse_graph_dispatch():
    assert parse_graph("1 0\n", "edgelist").n == 1
    assert parse_graph("p edge 1 0\n", "dimacs").n == 1
    with pytest.raises(ValueError):
        parse_graph("1 0\n", "gml")
