"""Graph container: validation, accessors, partition and connectivity."""

from __future__ import annotations

import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyhex import (
    MAX_BUILD_EDGES,
    DuplicateEdgeError,
    EdgePartition,
    Graph,
    GraphError,
    NanotubeKind,
    NanotubeSpec,
    SelfLoopError,
    VertexOutOfRangeError,
    azi,
    build_nanotube,
    edge_partition,
    tube_edge_count,
    tube_vertex_count,
)
from polyhex.forms import _walk_rows
from polyhex.graph import _MAX_VERTICES
from polyhex.indices import AZI, UndefinedTermError, index_from_partition

import oracles
from test_indices import HOSTILE, traced_peak


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


@st.composite
def raw_edge_lists(draw, max_vertices: int = 8):
    """Unvalidated input: self-loops, reversed duplicates, ids < 0 or >= n.

    Half the lists draw their ids in range (0 for an empty graph), so that
    more of them are valid. A list comes as drawn, or as its distinct
    canonical edges: in any order with loops left out, or in sorted order
    (the input Graph takes without sorting), or sorted with one edge
    repeated next to itself.
    """
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    if draw(st.booleans()):
        ids = st.integers(min_value=0, max_value=max(n - 1, 0))
    else:
        ids = st.integers(min_value=-2, max_value=n + 1)
    edges = draw(st.lists(st.tuples(ids, ids), max_size=10))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges += [(v, u) for (u, v), flip in zip(edges, flips) if flip]
    order = draw(st.sampled_from(["drawn", "distinct", "sorted", "sorted with a duplicate"]))
    if order == "drawn":
        return n, draw(st.permutations(edges))
    canonical = sorted({(min(u, v), max(u, v)) for u, v in edges})
    if order == "distinct":
        return n, draw(st.permutations([(u, v) for u, v in canonical if u != v]))
    if order == "sorted with a duplicate" and canonical:
        at = draw(st.integers(min_value=0, max_value=len(canonical) - 1))
        canonical.insert(at, canonical[at])
    return n, canonical


def naive_fault(n: int, edges: list[tuple[int, int]]):
    """The documented error class and offending edge, found edge by edge."""
    for u, v in edges:
        if u == v:
            return SelfLoopError, (u, v)
        if not (0 <= u < n and 0 <= v < n):
            return VertexOutOfRangeError, (u, v)
    canonical = sorted((min(u, v), max(u, v)) for u, v in edges)
    duplicates = [a for a, b in zip(canonical, canonical[1:]) if a == b]
    if duplicates:
        return DuplicateEdgeError, duplicates[0]
    return None, None


def traced_armchair_build(m: int, n: int) -> tuple[Graph, int, int]:
    """build_nanotube of armchair [m, n], with the traced bytes it kept and its traced peak."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        g = build_nanotube(NanotubeSpec(NanotubeKind.ARMCHAIR, m, n))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return g, kept - before, peak - before


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
        assert (a.vertex_count, a.edges) == (b.vertex_count, b.edges)

    @given(raw_edge_lists())
    @settings(max_examples=300, deadline=None)
    def test_validation_matches_naive_checker(self, case):
        n, edges = case
        fault, offender = naive_fault(n, edges)
        if fault is None:
            g = Graph(n, edges)
            assert g.edges == tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
            assert list(g.degrees) == oracles.degrees_from_edges(n, edges)
            return
        with pytest.raises(GraphError) as info:
            Graph(n, edges)
        assert type(info.value) is fault
        assert info.value.edge == offender

    @pytest.mark.parametrize(
        "vertex_count, edges",
        [(3, [(0.5, 1)]), (2.5, []), (3, [("a", 1)]), (3, [(0, 1, 2)]), (3, [(1,)]),
         (3, 5), (True, [])],
        ids=["float-id", "float-count", "str-id", "triple", "single", "not-iterable",
             "bool-count"],
    )
    def test_non_int_input_rejected(self, vertex_count, edges):
        with pytest.raises(GraphError) as info:
            Graph(vertex_count, edges)
        assert type(info.value) is GraphError

    # Each comparison of the order check in the constructor's loop, against
    # the canonical pair before: an equal low with a falling high, a repeated
    # pair given in the other orientation, a falling low with a rising high,
    # a first edge at low 0, and strictly rising pairs given high end first.
    # Only input that is not strictly rising is sorted and scanned for
    # duplicates after the loop.
    @pytest.mark.parametrize(
        "vertex_count, edges, fault",
        [
            (3, [(0, 2), (0, 1)], (None, None)),
            (3, [(0, 1), (1, 0)], (DuplicateEdgeError, (0, 1))),
            (4, [(1, 2), (0, 3)], (None, None)),
            (2, [(0, 1)], (None, None)),
            (3, [(0, 1), (0, 2), (1, 2)], (None, None)),
            (3, [(1, 0), (2, 0), (2, 1)], (None, None)),
        ],
        ids=["equal-low-falling-high", "reversed-duplicate", "falling-low",
             "first-at-low-0", "rising", "rising-reversed"],
    )
    def test_order_check_matches_naive_checker(self, vertex_count, edges, fault):
        assert naive_fault(vertex_count, edges) == fault
        if fault[0] is not None:
            with pytest.raises(fault[0]) as info:
                Graph(vertex_count, edges)
            assert info.value.edge == fault[1]
            return
        g = Graph(vertex_count, edges)
        assert g.edges == tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
        assert list(g.degrees) == oracles.degrees_from_edges(vertex_count, edges)

    # Once Graph(10**10, []) asked for an 80 GB degree list, and raised
    # MemoryError under an address-space limit; the refusal allocates nothing.
    @pytest.mark.parametrize("vertex_count", [_MAX_VERTICES + 1, 10**10, 10**300])
    def test_huge_vertex_count_refused_before_allocation(self, vertex_count):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            with pytest.raises(GraphError, match=r"vertex_count must be in 0\.\.30000000 \(got"):
                Graph(vertex_count, [])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert peak < 64 * 1024

    # The same refusal in a process that may map only 1 GB (as ulimit -v
    # 1000000 sets it), where allocating the degree list fails at once.
    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is Linux's")
    def test_huge_vertex_count_refused_under_a_memory_limit(self):
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))

        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (f"import sys; sys.path.insert(0, {src!r})\n"
                "from polyhex import Graph, GraphError\n"
                "try:\n    Graph(10**10, [])\nexcept GraphError:\n    print('refused')\n")
        result = subprocess.run([sys.executable, "-I", "-B", "-c", code],
                                capture_output=True, text=True, preexec_fn=limit)
        assert (result.returncode, result.stdout, result.stderr) == (0, "refused\n", "")

    # A tube vertex has degree 2 or 3, so a tube has fewer vertices than
    # edges, and every tube build_nanotube accepts is under the vertex cap.
    @given(st.sampled_from(NanotubeKind), st.integers(2, 10**7), st.integers(1, 10**7))
    @example(NanotubeKind.ARMCHAIR, 2, 1)
    @example(NanotubeKind.ZIGZAG, 2, 1)
    @settings(max_examples=100, deadline=None)
    def test_every_buildable_tube_is_under_the_vertex_cap(self, kind, m, n):
        spec = NanotubeSpec(kind, m, n)
        assert tube_vertex_count(spec) < tube_edge_count(spec)
        assert MAX_BUILD_EDGES <= _MAX_VERTICES

    def test_bool_ids_read_as_zero_and_one(self):
        # documented: endpoints are not type-checked one by one
        g = Graph(2, [(True, False)])
        assert g.edges == ((0, 1),)
        assert g.degrees == (1, 1)

    def test_inequality(self):
        for a, b in ((Graph(3, [(0, 1)]), Graph(3, [(1, 2)])), (Graph(2, []), Graph(3, []))):
            assert (a.vertex_count, a.edges) != (b.vertex_count, b.edges)

    # At its peak, construction holds one array beside the stored graph: the
    # tube generator's list of vertex ids, a pointer per vertex (5.7-6.0
    # traced bytes per edge at these sizes). Input sorted as pairs, which a
    # tube's never is, adds about 78 (measured on reversed input).
    @pytest.mark.parametrize("m, n", [(60, 60), (120, 60)])
    def test_transient_memory_is_one_pointer_array(self, m, n):
        g, kept, peak = traced_armchair_build(m, n)
        assert kept >= 16 * g.edge_count  # the stored id list alone, two pointers an edge
        assert peak - kept <= 10 * g.edge_count

    # A built tube stores its edges as one flat list of ids that share the
    # tube's int per vertex: 44 traced bytes an edge kept, the ids list (16),
    # the ints (21) and the degree list (5), and a peak of 50. Edges stored as
    # a tuple of 2-tuples kept 90 and peaked at 99.
    @pytest.mark.parametrize("m, n", [(120, 60), (200, 120)])
    def test_peak_and_kept_memory_per_edge(self, m, n):
        g, kept, peak = traced_armchair_build(m, n)
        assert peak < 64 * g.edge_count
        assert kept < 48 * g.edge_count


class TestAccessors:
    def test_degree_and_neighbors(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degrees[0] == 3
        assert g.degrees[3] == 1

    def test_no_attribute_injection(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(AttributeError):
            g.extra = 1

    # .edges and .degrees build a new tuple on each call, from the stored lists
    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_repeated_calls_return_equal_tuples(self, g: Graph):
        assert type(g.edges) is type(g.degrees) is tuple
        assert g.edges == g.edges
        assert g.degrees == g.degrees

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
        assert sum(edge_partition(g).classes.values()) == g.edge_count

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, g: Graph):
        part = edge_partition(g)
        assert dict(part.classes) == oracles.partition_from_edges(
            g.vertex_count, list(g.edges)
        )
        assert sum(part.classes.values()) == g.edge_count

    @given(graphs_with_permutation())
    @settings(max_examples=60, deadline=None)
    def test_relabel_invariant(self, data):
        g, perm = data
        assert dict(edge_partition(g).classes) == dict(
            edge_partition(relabel(g, perm)).classes
        )

    @pytest.mark.parametrize(
        "vertex_count, edges",
        [
            (301, [(0, v) for v in range(1, 301)]),
            (301, [(v, 300) for v in range(300)]),
            (8, [(0, 5), (1, 5), (2, 5), (3, 5), (4, 5), (5, 6), (5, 7), (0, 1)]),
        ],
        ids=["star-K1-300-hub-first", "star-K1-300-hub-last", "low-endpoint-higher-degree"],
    )
    def test_wide_degrees_match_brute_force(self, vertex_count, edges):
        # the hypothesis graphs stay under degree 8; these reach degree 300
        # and put the higher degree on either endpoint
        part = edge_partition(Graph(vertex_count, edges))
        assert dict(part.classes) == oracles.partition_from_edges(vertex_count, edges)

    @given(
        st.dictionaries(
            st.one_of(
                st.tuples(st.integers(-1, 5), st.integers(-1, 5)),
                st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
                st.tuples(st.integers(1, 5), st.floats(1, 5)),
                st.tuples(st.booleans(), st.integers(1, 5)),
                st.integers(1, 5),
                st.text(max_size=2),
            ),
            st.one_of(
                st.integers(-2, 10**6), st.booleans(), st.floats(allow_nan=False),
                st.fractions(), st.none(),
            ),
            max_size=5,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_constructor_accepts_exactly_valid_classes(self, classes):
        valid = all(
            isinstance(pair, tuple) and len(pair) == 2
            and type(pair[0]) is int and type(pair[1]) is int
            and 1 <= pair[0] <= pair[1] and type(count) is int and count >= 0
            for pair, count in classes.items()
        )
        if not valid:
            with pytest.raises(ValueError):
                EdgePartition(classes)
            return
        part = EdgePartition(classes)
        kept = {pair: count for pair, count in classes.items() if count}
        assert dict(part.classes) == kept
        assert list(part.classes) == sorted(kept)
        assert sum(part.classes.values()) == sum(kept.values())

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

    @pytest.mark.parametrize(
        "classes",
        [{(2, 3): 2.5}, {(2, 3): True}, {5: 1}, {(2, 3): 1, 7: 1}, {(2, 3.0): 1}, {(1, 2, 3): 1}],
        ids=["float-count", "bool-count", "int-key", "mixed-keys", "float-degree", "triple-key"],
    )
    def test_malformed_class_rejected(self, classes):
        with pytest.raises(ValueError):
            EdgePartition(classes)

    # Each once failed with AttributeError: ... has no attribute 'items'.
    @pytest.mark.parametrize("classes", [None, [((2, 2), 1)]], ids=["none", "list-of-pairs"])
    def test_non_mapping_rejected(self, classes):
        with pytest.raises(ValueError, match="must map degree pairs to counts"):
            EdgePartition(classes)

    # Each once failed with AttributeError: ... has no attribute '_partition'.
    @pytest.mark.parametrize(
        "g", [None, EdgePartition({(2, 2): 6})], ids=["none", "edge-partition"]
    )
    def test_non_graph_rejected(self, g):
        with pytest.raises(GraphError, match="can only partition a Graph"):
            edge_partition(g)

    def test_partition_computed_once_per_graph(self):
        g = oracles.cycle_graph(6)
        assert edge_partition(g) is edge_partition(g)
        assert edge_partition(oracles.cycle_graph(6)) is not edge_partition(g)

    def test_counts_read_only(self):
        part = EdgePartition({(2, 2): 3})
        with pytest.raises(TypeError):
            part.classes[(2, 2)] = 0  # type: ignore[index]


def induced_prefix(g: Graph, cut: int) -> Graph:
    return Graph(cut, [e for e in g.edges if e[1] < cut])


def walk_from(g: Graph, cuts: range) -> list[tuple[int, int]] | type[Exception]:
    """The values _walk_rows reads off g, or the class of the error it raises."""
    try:
        return _walk_rows(g, cuts)
    except (RuntimeError, UndefinedTermError) as exc:
        return type(exc)


def expected_walk(g: Graph, cuts: range) -> list[tuple[int, int]] | type[Exception]:
    """What the walk must give: the AZI summed off the partition of each prefix
    built at its cut, or UndefinedTermError where one of those sums raises it.
    Before that, RuntimeError if an edge ends past the row after its own, with
    rows of cuts.step vertices that end at the cuts.
    """
    if any((v - cuts[0]) // cuts.step >= (u - cuts[0]) // cuts.step + 2 for u, v in g.edges):
        return RuntimeError
    try:
        return [index_from_partition(edge_partition(induced_prefix(g, c)), AZI)._ratio
                for c in cuts]
    except UndefinedTermError:
        return UndefinedTermError


def path_with_chords(vertex_count: int, length: int) -> Graph:
    """A path on vertex_count vertices plus a chord (v, v + length) at every third v.

    With length vertex_count - 1 the one chord joins the path's two ends.
    """
    path = [(v, v + 1) for v in range(vertex_count - 1)]
    return Graph(vertex_count, path + [(v, v + length) for v in range(0, vertex_count - length, 3)])


class TestPrefixPartitions:
    """The row walk behind the verify oracle, forms._walk_rows, against a graph built at
    every cut."""

    # cuts a whole number of steps below the vertex count, up to it
    @given(graphs(max_vertices=10), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_partition_of_each_built_prefix(self, g: Graph, data):
        step = data.draw(st.integers(1, max(g.vertex_count, 1)), label="step")
        rows = data.draw(st.integers(0, g.vertex_count // step), label="rows")
        cuts = range(g.vertex_count - rows * step, g.vertex_count + 1, step)
        walked = walk_from(g, cuts)
        assert walked == expected_walk(g, cuts)
        if isinstance(walked, list):  # the walk stored g's partition
            assert g._partition == edge_partition(Graph(g.vertex_count, g.edges))
        else:
            assert g._partition is None

    # a hub of degree 6 at either end of the ids, isolated vertices, and
    # cuts from zero at every step that divides the vertex count; step 1
    # cuts at every vertex count, and refuses every edge longer than 1
    @pytest.mark.parametrize(
        "g",
        [
            Graph(9, [(0, v) for v in (1, 2, 3, 5, 7, 8)] + [(1, 2), (5, 7)]),
            Graph(9, [(u, 8) for u in (0, 1, 3, 4, 5, 6)] + [(0, 1), (3, 4)]),
            Graph(4, []),
            Graph(0, []),
        ],
        ids=["hub-first", "hub-last", "no-edges", "empty"],
    )
    def test_every_cut_from_zero(self, g: Graph):
        v = g.vertex_count
        for step in (s for s in range(1, max(v, 1) + 1) if v % s == 0):
            cuts = range(0, v + 1, step)
            walked = walk_from(g, cuts)
            assert walked == expected_walk(g, cuts)
        # the last step makes one row, which holds every edge
        assert walked[0] == (0, 1)
        assert walked[-1] == azi(Graph(v, g.edges))._ratio

    # The chords are longer than the gap between cuts, so a row's band holds
    # an edge from the row before, or the walk refuses a chord that reaches
    # past the next row.
    @pytest.mark.parametrize(
        "vertex_count, length", [(3, 2), (8, 7), (13, 12), (13, 4), (14, 6)]
    )
    @pytest.mark.parametrize("step", [1, 2, 3])
    def test_edge_longer_than_the_gap_between_cuts(self, vertex_count, length, step):
        g = path_with_chords(vertex_count, length)
        cuts = range(vertex_count % step, vertex_count + 1, step)
        assert walk_from(g, cuts) == expected_walk(g, cuts)

    # The walk's last cut is the vertex count, where it stores g's own
    # partition as edge_partition would: the verify oracle's azi(g) reads it.
    # A refused walk stores nothing.
    @pytest.mark.parametrize(
        "make, cuts",
        [(lambda: build_nanotube(NanotubeSpec(NanotubeKind.ARMCHAIR, 3, 4)), range(24, 37, 6)),
         (lambda: build_nanotube(NanotubeSpec(NanotubeKind.ZIGZAG, 2, 5)), range(16, 25, 4)),
         (lambda: path_with_chords(9, 8), range(1, 10, 8))],
        ids=["armchair-3-4", "zigzag-2-5", "path-with-end-chord"],
    )
    def test_last_cut_stores_the_partition_on_g(self, make, cuts):
        g = make()
        walked = _walk_rows(g, cuts)
        stored = g._partition
        assert edge_partition(g) is stored
        assert stored == edge_partition(Graph(g.vertex_count, g.edges))
        assert walked[-1] == azi(g)._ratio
        refused = make()
        with pytest.raises(RuntimeError, match=r"has an edge longer than a row of 1 vertices$"):
            _walk_rows(refused, range(g.vertex_count - 1, g.vertex_count + 1))
        assert refused._partition is None


class TestConnectivity:
    def test_empty_graph_connected(self):
        assert oracles.is_connected(Graph(0, []))

    def test_single_vertex_connected(self):
        assert oracles.is_connected(Graph(1, []))

    def test_cycle_connected(self):
        assert oracles.is_connected(oracles.cycle_graph(6))

    def test_two_components(self):
        assert not oracles.is_connected(Graph(4, [(0, 1), (2, 3)]))

    def test_isolated_vertex_disconnects(self):
        assert not oracles.is_connected(Graph(3, [(0, 1)]))

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_component_count(self, g: Graph):
        components = oracles.component_count(g.vertex_count, list(g.edges))
        assert oracles.is_connected(g) == (components <= 1)


# Hostile arguments for the public callables of graph: test_indices' HOSTILE
# values, plus ids and counts of the right type, in and out of range, edges
# that are not pairs, and generators. Vertex counts are drawn only from
# invalid values and 0..64: a valid count near _MAX_VERTICES allocates a
# 240 MB degree list.
H_VERTEX_COUNTS = st.one_of(st.integers(0, 64), st.integers(-(10**400), -1), HOSTILE)
H_IDS = st.one_of(st.integers(-3, 70), st.integers(-(10**400), -(10**300)), HOSTILE)
H_EDGES = st.one_of(
    st.tuples(H_IDS, H_IDS), st.tuples(), st.tuples(H_IDS), st.tuples(H_IDS, H_IDS, H_IDS),
    st.lists(H_IDS, max_size=3), st.tuples(H_IDS, H_IDS).map(lambda pair: (v for v in pair)),
    HOSTILE,
)
H_EDGE_LISTS = st.one_of(
    st.lists(H_EDGES, max_size=8), st.lists(H_EDGES, max_size=8).map(lambda es: (e for e in es)),
    HOSTILE,
)
H_GRAPHS = st.one_of(graphs(), HOSTILE)
H_DEGREES = st.one_of(st.integers(10**300, 10**400), HOSTILE)
H_PAIRS = st.one_of(st.tuples(H_DEGREES, H_DEGREES), st.tuples(H_DEGREES),
                    st.tuples(H_DEGREES, H_DEGREES, H_DEGREES), HOSTILE)
H_COUNTS = st.one_of(st.integers(-(10**6), 10**6), st.integers(10**300, 10**400), HOSTILE)
H_CLASSES = st.one_of(
    st.dictionaries(H_PAIRS, H_COUNTS, max_size=4),
    st.dictionaries(H_PAIRS, H_COUNTS, max_size=4).map(MappingProxyType),
    st.lists(st.tuples(H_PAIRS, H_COUNTS), max_size=4), HOSTILE,
)

HOSTILE_CALLS = {
    "Graph": (Graph, st.tuples(H_VERTEX_COUNTS, H_EDGE_LISTS)),
    "edge_partition": (edge_partition, st.tuples(H_GRAPHS)),
    "EdgePartition": (EdgePartition, st.tuples(H_CLASSES)),
}
# traced bytes a call may peak at: a Graph of 64 vertices and a few edges, or
# a partition of a few classes, takes a few KB
GRAPH_PEAK_BOUND = 256 * 1024


class TestHostileInput:
    # Each call returns or raises a ValueError subclass; any other exception
    # fails the test, and so does a traced peak past GRAPH_PEAK_BOUND.
    @pytest.mark.parametrize("name", sorted(HOSTILE_CALLS))
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_returns_or_raises_value_error(self, name, data):
        call, arguments = HOSTILE_CALLS[name]
        args = data.draw(arguments)
        assert traced_peak(lambda: call(*args)) < GRAPH_PEAK_BOUND
