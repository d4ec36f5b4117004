"""Graph container: validation, accessors, partition and connectivity."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyhex import (
    DuplicateEdgeError,
    EdgePartition,
    Graph,
    SelfLoopError,
    VertexOutOfRangeError,
    edge_partition,
    is_connected,
)

import oracles


@st.composite
def graphs(draw, max_vertices: int = 8):
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    else:
        edges = []
    return Graph(n, edges)


@st.composite
def graphs_with_permutation(draw):
    g = draw(graphs())
    perm = draw(st.permutations(range(g.vertex_count)))
    return g, tuple(perm)


def relabel(g: Graph, perm: tuple[int, ...]) -> Graph:
    return Graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(0, [])
        assert g.vertex_count == 0
        assert g.edge_count == 0
        assert g.edges == ()

    def test_isolated_vertices(self):
        g = Graph(3, [])
        assert g.vertex_count == 3
        assert g.degrees == (0, 0, 0)

    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        assert g.edge_count == 1
        assert g.degrees == (1, 1)

    def test_edges_are_canonical_and_sorted(self):
        g = Graph(4, [(3, 2), (1, 0), (0, 2)])
        assert g.edges == ((0, 1), (0, 2), (2, 3))

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            Graph(3, [(1, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            Graph(3, [(0, 1), (0, 1)])

    def test_reversed_duplicate_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            Graph(3, [(0, 1), (1, 0)])

    def test_endpoint_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError):
            Graph(3, [(0, 3)])

    def test_negative_endpoint(self):
        with pytest.raises(VertexOutOfRangeError):
            Graph(3, [(-1, 0)])

    def test_out_of_range_message_names_bounds(self):
        with pytest.raises(VertexOutOfRangeError, match=r"0\.\.2"):
            Graph(3, [(0, 7)])

    def test_validation_errors_are_value_errors(self):
        for exc in (SelfLoopError, DuplicateEdgeError, VertexOutOfRangeError):
            assert issubclass(exc, ValueError)

    def test_equality_ignores_input_order(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(2, 1), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self):
        assert Graph(3, [(0, 1)]) != Graph(3, [(1, 2)])
        assert Graph(2, []) != Graph(3, [])


class TestAccessors:
    def test_degree_and_neighbors(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert g.degree(3) == 1

    def test_degree_out_of_range(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(VertexOutOfRangeError):
            g.degree(2)
        with pytest.raises(VertexOutOfRangeError):
            g.degree(-1)

    def test_no_attribute_injection(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(AttributeError):
            g.extra = 1

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_handshake(self, g: Graph):
        assert sum(g.degrees) == 2 * g.edge_count

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_degrees_match_brute_force(self, g: Graph):
        assert list(g.degrees) == oracles.degrees_from_edges(
            g.vertex_count, list(g.edges)
        )


class TestEdgePartition:
    def test_cycle(self):
        part = edge_partition(oracles.cycle_graph(6))
        assert dict(part.classes) == {(2, 2): 6}

    def test_path(self):
        part = edge_partition(oracles.path_graph(4))
        assert dict(part.classes) == {(1, 2): 2, (2, 2): 1}

    def test_total_matches_edge_count(self):
        g = oracles.cycle_graph(5)
        assert edge_partition(g).total == g.edge_count

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, g: Graph):
        part = edge_partition(g)
        assert dict(part.classes) == oracles.partition_from_edges(
            g.vertex_count, list(g.edges)
        )
        assert part.total == g.edge_count

    @given(graphs_with_permutation())
    @settings(max_examples=60, deadline=None)
    def test_relabel_invariant(self, data):
        g, perm = data
        assert dict(edge_partition(g).classes) == dict(
            edge_partition(relabel(g, perm)).classes
        )

    def test_keys_sorted(self):
        part = EdgePartition({(3, 3): 1, (1, 2): 2, (2, 3): 4})
        assert list(part.classes) == [(1, 2), (2, 3), (3, 3)]

    def test_zero_counts_dropped(self):
        part = EdgePartition({(2, 2): 0, (2, 3): 5})
        assert dict(part.classes) == {(2, 3): 5}

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            EdgePartition({(2, 2): -1})

    def test_unordered_degree_pair_rejected(self):
        with pytest.raises(ValueError):
            EdgePartition({(3, 2): 1})

    def test_nonpositive_degree_rejected(self):
        with pytest.raises(ValueError):
            EdgePartition({(0, 2): 1})

    def test_counts_read_only(self):
        part = EdgePartition({(2, 2): 3})
        with pytest.raises(TypeError):
            part.classes[(2, 2)] = 0  # type: ignore[index]


class TestConnectivity:
    def test_empty_graph_connected(self):
        assert is_connected(Graph(0, []))

    def test_single_vertex_connected(self):
        assert is_connected(Graph(1, []))

    def test_cycle_connected(self):
        assert is_connected(oracles.cycle_graph(6))

    def test_two_components(self):
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))

    def test_isolated_vertex_disconnects(self):
        assert not is_connected(Graph(3, [(0, 1)]))

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_component_count(self, g: Graph):
        components = oracles.component_count(g.vertex_count, list(g.edges))
        assert is_connected(g) == (components <= 1)
