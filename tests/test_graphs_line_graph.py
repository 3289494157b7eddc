"""Tests for line-graph views and edge degrees."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidInstanceError
from repro.graphs.edges import edge_key, edge_set
from repro.graphs.families import build_family, family_names
from repro.graphs.generators import random_regular
from repro.graphs.line_graph import (
    conflicting_pairs,
    edge_degree,
    induced_edge_degrees,
    line_graph,
    line_graph_adjacency,
    max_edge_degree,
)


class TestEdgeDegree:
    def test_path_middle_edge(self):
        g = nx.path_graph(4)
        assert edge_degree(g, (1, 2)) == 2
        assert edge_degree(g, (0, 1)) == 1

    def test_complete_graph(self):
        g = nx.complete_graph(5)
        # deg(e) = 2(n-1) - 2 = 6
        assert all(edge_degree(g, e) == 6 for e in edge_set(g))

    def test_rejects_missing_edge(self):
        g = nx.path_graph(3)
        with pytest.raises(InvalidInstanceError):
            edge_degree(g, (0, 2))


class TestMaxEdgeDegree:
    def test_empty(self):
        assert max_edge_degree(nx.Graph()) == 0

    def test_single_edge(self):
        g = nx.Graph([(0, 1)])
        assert max_edge_degree(g) == 0

    def test_star(self):
        g = nx.star_graph(5)
        assert max_edge_degree(g) == 4

    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=2, max_value=8))
    def test_bounded_by_2_delta_minus_2(self, d):
        g = random_regular(d, 2 * d + (2 * d * d) % 2, seed=1)
        assert max_edge_degree(g) <= 2 * d - 2


class TestLineGraphAdjacency:
    def test_matches_networkx_line_graph(self):
        g = nx.petersen_graph()
        ours = line_graph_adjacency(g)
        theirs = nx.line_graph(g)
        for edge, neighbors in ours.items():
            expected = {edge_key(*e) for e in theirs.neighbors(edge)}
            assert set(neighbors) == expected

    def test_degrees_match_edge_degree(self):
        g = nx.barbell_graph(4, 2)
        adjacency = line_graph_adjacency(g)
        for edge, neighbors in adjacency.items():
            assert len(neighbors) == edge_degree(g, edge)

    def test_line_graph_nodes_are_canonical_edges(self):
        g = nx.cycle_graph(5)
        lg = line_graph(g)
        assert set(lg.nodes()) == set(edge_set(g))


def reference_line_graph_adjacency(graph):
    """The original per-edge builder, kept here as the equivalence oracle."""
    adjacency = {}
    for edge in edge_set(graph):
        u, v = edge
        neighbors = set()
        for endpoint in (u, v):
            for other in graph.neighbors(endpoint):
                candidate = edge_key(endpoint, other)
                if candidate != edge:
                    neighbors.add(candidate)
        adjacency[edge] = sorted(neighbors, key=repr)
    return adjacency


def assert_same_adjacency(graph):
    ours = line_graph_adjacency(graph)
    reference = reference_line_graph_adjacency(graph)
    assert list(ours) == list(reference)
    for edge, neighbors in reference.items():
        assert ours[edge] == neighbors, edge


class TestLineGraphAdjacencyEquivalence:
    """The builder matches the reference loop in key order and lists."""

    @pytest.mark.parametrize("family", family_names())
    @pytest.mark.parametrize("size", [3, 6])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_every_family(self, family, size, seed):
        assert_same_adjacency(build_family(family, size, seed))

    @pytest.mark.parametrize(
        "edges",
        [
            [("a", "b"), ("b", 1), (1, 2), (2, "a")],
            [(9, 10), (10, 11), (9, 11), (100, 9), (2, 10)],
            [(("v", 1, 0), ("v", 2, 0)), (("v", 2, 0), 3), (3, "x"), ("x", ("v", 1, 0))],
            [(0, "0"), ("0", (0,)), ((0,), 1), (1, "1"), ("1", 0)],
        ],
        ids=["int-str", "int-widths", "tuple-int-str", "lookalikes"],
    )
    def test_mixed_labels(self, edges):
        assert_same_adjacency(nx.Graph(edges))

    def test_empty_graph(self):
        assert line_graph_adjacency(nx.Graph()) == {}
        assert_same_adjacency(nx.Graph())

    def test_edgeless_graph(self):
        g = nx.empty_graph(5)
        assert line_graph_adjacency(g) == {}
        assert_same_adjacency(g)

    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(0, 12), st.sampled_from("abc")),
                st.one_of(st.integers(0, 12), st.sampled_from("abc")),
            ),
            max_size=30,
        )
    )
    def test_random_label_mixes(self, pairs):
        g = nx.Graph()
        g.add_edges_from((u, v) for u, v in pairs if u != v)
        assert_same_adjacency(g)


class TestInducedEdgeDegrees:
    def test_subset_degrees(self):
        g = nx.path_graph(5)  # edges (0,1),(1,2),(2,3),(3,4)
        degrees = induced_edge_degrees(g, [(0, 1), (1, 2), (3, 4)])
        assert degrees[(0, 1)] == 1
        assert degrees[(1, 2)] == 1
        assert degrees[(3, 4)] == 0

    def test_rejects_foreign_edge(self):
        g = nx.path_graph(3)
        with pytest.raises(InvalidInstanceError):
            induced_edge_degrees(g, [(0, 2)])


class TestConflictingPairs:
    def test_proper_coloring_has_none(self):
        g = nx.cycle_graph(4)
        coloring = {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2}
        assert conflicting_pairs(g, coloring) == []

    def test_detects_conflicts(self):
        g = nx.path_graph(3)
        coloring = {(0, 1): 1, (1, 2): 1}
        assert len(conflicting_pairs(g, coloring)) == 1

    def test_partial_assignments_allowed(self):
        g = nx.path_graph(4)
        assert conflicting_pairs(g, {(0, 1): 1}) == []
