"""Nanotube builders: counts, degree structure, layout, girth, validation."""

from __future__ import annotations

import enum
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractions import Fraction

import polyhex.tubes
from polyhex import (
    MAX_BUILD_EDGES,
    ClosedForm,
    EdgePartition,
    InvalidSpecError,
    NanotubeKind,
    NanotubeSpec,
    Provenance,
    TubeTooLargeError,
    build_nanotube,
    edge_partition,
    grid_tubes,
    tube_edge_count,
    tube_edge_partition,
    tube_vertex_count,
    validate_ranges,
)

import oracles

KINDS = (NanotubeKind.ARMCHAIR, NanotubeKind.ZIGZAG)
Three = enum.IntEnum("Three", {"THREE": 3})  # an int subclass, equal to 3
HUGE = 10**200  # far past any tube that can be built

specs = st.tuples(
    st.sampled_from(KINDS), st.integers(2, 7), st.integers(1, 7)
).map(lambda t: NanotubeSpec(*t))

# ints in and out of the domain, and values of the wrong type
loose_numbers = st.one_of(
    st.integers(-3, 12), st.booleans(), st.floats(-3, 12), st.fractions(-3, 12),
    st.text(max_size=2), st.none(),
)


class TestSpecValidation:
    def test_m_lower_bound(self):
        with pytest.raises(InvalidSpecError, match=r"m must be >= 2 \(got 1\)"):
            NanotubeSpec(NanotubeKind.ARMCHAIR, 1, 3)

    def test_n_lower_bound(self):
        with pytest.raises(InvalidSpecError, match=r"n must be >= 1 \(got 0\)"):
            NanotubeSpec(NanotubeKind.ZIGZAG, 4, 0)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: NanotubeSpec("armchair", 5, 9), "kind must be a NanotubeKind"),
            (lambda: NanotubeSpec(NanotubeKind.ZIGZAG, 2.5, 1), r"m must be an int \(got 2.5\)"),
            (lambda: NanotubeSpec(NanotubeKind.ARMCHAIR, 3, True), r"n must be an int \(got True\)"),
            # once accepted, although grid_tubes refused the same m
            (lambda: NanotubeSpec(NanotubeKind.ZIGZAG, Three.THREE, 2),
             r"m must be an int \(got <Three.THREE: 3>\)"),
            (lambda: grid_tubes(NanotubeKind.ZIGZAG, (Three.THREE, 3), (2, 2)),
             r"m range must be a pair of ints"),
            (
                lambda: ClosedForm(
                    NanotubeKind.ARMCHAIR, "azi", Fraction(2187, 64), Fraction(807, 32),
                    Provenance.FITTED,
                ).evaluate(2.5, 1),
                r"m must be an int \(got 2.5\)",
            ),
        ],
        ids=["kind-as-string", "float-m", "bool-n", "int-enum-m", "grid-int-enum-m",
             "closed-form-float-m"],
    )
    def test_wrong_types_rejected(self, make, message):
        with pytest.raises(InvalidSpecError, match=message):
            make()

    # Each once raised AttributeError: ... has no attribute 'kind'.
    @pytest.mark.parametrize(
        "call",
        [
            lambda: tube_vertex_count(None),
            lambda: tube_edge_count((NanotubeKind.ZIGZAG, 2, 1)),
            lambda: tube_edge_partition("zigzag"),
            lambda: build_nanotube(None),
        ],
        ids=["vertex-count-none", "edge-count-tuple", "partition-str", "build-none"],
    )
    def test_spec_functions_refuse_a_non_spec(self, call):
        with pytest.raises(InvalidSpecError, match="spec must be a NanotubeSpec"):
            call()

    def test_invalid_spec_is_value_error(self):
        assert issubclass(InvalidSpecError, ValueError)

    def test_kind_parse(self):
        assert NanotubeKind.parse("armchair") is NanotubeKind.ARMCHAIR
        assert NanotubeKind.parse("ZIGZAG") is NanotubeKind.ZIGZAG
        with pytest.raises(InvalidSpecError):
            NanotubeKind.parse("chiral")

    @pytest.mark.parametrize("name", [5, None, b"armchair"])
    def test_kind_parse_rejects_non_str(self, name):
        with pytest.raises(InvalidSpecError, match="unknown nanotube kind"):
            NanotubeKind.parse(name)

    @given(
        st.one_of(st.sampled_from(KINDS), st.sampled_from(["armchair", "zigzag"]), st.none()),
        loose_numbers,
        loose_numbers,
    )
    @settings(max_examples=200, deadline=None)
    def test_constructor_accepts_exactly_valid_specs(self, kind, m, n):
        valid = (
            isinstance(kind, NanotubeKind)
            and type(m) is int and type(n) is int and m >= 2 and n >= 1
        )
        if not valid:
            with pytest.raises(InvalidSpecError):
                NanotubeSpec(kind, m, n)
            return
        spec = NanotubeSpec(kind, m, n)
        assert (spec.kind, spec.m, spec.n) == (kind, m, n)

    def test_validate_ranges_accepts_forward_ranges(self):
        validate_ranges((2, 12), (1, 12))

    def test_validate_ranges_returns_inclusive_ranges(self):
        assert validate_ranges((2, 12), (1, 1)) == (range(2, 13), range(1, 2))
        assert validate_ranges((5, 5), (3, 7)) == (range(5, 6), range(3, 8))

    def test_validate_ranges_refuses_empty_as_invalid_spec(self):
        with pytest.raises(InvalidSpecError, match="empty range 12:2 for m"):
            validate_ranges((12, 2), (1, 3))
        with pytest.raises(InvalidSpecError, match="empty range 5:4 for n"):
            validate_ranges((2, 3), (5, 4))

    def test_validate_ranges_rejects_empty(self):
        with pytest.raises(ValueError, match="empty range 12:2"):
            validate_ranges((12, 2), (1, 3))
        with pytest.raises(ValueError, match="empty range 5:4"):
            validate_ranges((2, 3), (5, 4))

    @pytest.mark.parametrize(
        "m_range, n_range, message",
        [
            ((2, 3.5), (1, 2), r"m range must be a pair of ints \(got \(2, 3.5\)\)"),
            ((2, 3), (1.0, 2), r"n range must be a pair of ints"),
            ((False, 3), (1, 2), r"m range must be a pair of ints \(got \(False, 3\)\)"),
            ((2, 3), (1, True), r"n range must be a pair of ints"),
            (("2", 3), (1, 2), r"m range must be a pair of ints"),
            ((2, 3), "1:2", r"n range must be a pair of ints"),
            ((2, 3, 4), (1, 2), r"m range must be a pair of ints"),
        ],
        ids=["float-hi", "float-lo", "bool-lo", "bool-hi", "str-bound", "str-range", "triple"],
    )
    def test_validate_ranges_rejects_non_int_bounds(self, m_range, n_range, message):
        with pytest.raises(InvalidSpecError, match=message):
            validate_ranges(m_range, n_range)

    def test_validate_ranges_rejects_domain(self):
        with pytest.raises(InvalidSpecError):
            validate_ranges((1, 3), (1, 3))
        with pytest.raises(InvalidSpecError):
            validate_ranges((2, 3), (0, 3))


class TestBuildSizeGuard:
    """Sizes are computed, never built: the huge cases allocate nothing."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_huge_tube_refused_before_any_edge(self, kind, monkeypatch):
        def no_edges(kind, m, n):
            raise AssertionError("edges generated for a refused tube")

        monkeypatch.setattr(polyhex.tubes, "_tube_edges", no_edges)
        spec = NanotubeSpec(kind, 100_000, 100_000)
        assert tube_edge_count(spec) > MAX_BUILD_EDGES
        with pytest.raises(TubeTooLargeError, match="more than the 5000000"):
            build_nanotube(spec)
        assert issubclass(TubeTooLargeError, InvalidSpecError)

    def test_limit_is_inclusive(self, monkeypatch):
        spec = NanotubeSpec(NanotubeKind.ARMCHAIR, 2, 1)
        monkeypatch.setattr(polyhex.tubes, "MAX_BUILD_EDGES", tube_edge_count(spec))
        assert build_nanotube(spec).edge_count == tube_edge_count(spec)
        with pytest.raises(TubeTooLargeError):
            build_nanotube(NanotubeSpec(NanotubeKind.ARMCHAIR, 2, 2))


class TestBuildMemory:
    @pytest.mark.parametrize("kind", KINDS)
    def test_peak_traced_bytes_per_edge(self, kind):
        # Each edge and each vertex id is allocated once: no edge list is
        # built beside Graph's canonical tuples.
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            g = build_nanotube(NanotubeSpec(kind, 100, 100))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        assert peak - before <= 130 * g.edge_count


class TestCounts:
    @pytest.mark.parametrize(
        "kind,m,n,vertices,edges",
        [
            (NanotubeKind.ARMCHAIR, 2, 1, 12, 14),
            (NanotubeKind.ARMCHAIR, 5, 9, 110, 155),
            (NanotubeKind.ZIGZAG, 2, 1, 8, 10),
            (NanotubeKind.ZIGZAG, 7, 5, 84, 119),
        ],
    )
    def test_known_sizes(self, kind, m, n, vertices, edges):
        spec = NanotubeSpec(kind, m, n)
        assert tube_vertex_count(spec) == vertices
        assert tube_edge_count(spec) == edges
        g = build_nanotube(spec)
        assert g.vertex_count == vertices
        assert g.edge_count == edges

    @given(specs)
    @settings(max_examples=40, deadline=None)
    def test_formulas_match_built_graph(self, spec: NanotubeSpec):
        g = build_nanotube(spec)
        assert g.vertex_count == tube_vertex_count(spec)
        assert g.edge_count == tube_edge_count(spec)

    @given(specs)
    @settings(max_examples=40, deadline=None)
    def test_closed_count_formulas(self, spec: NanotubeSpec):
        m, n = spec.m, spec.n
        if spec.kind is NanotubeKind.ARMCHAIR:
            assert tube_vertex_count(spec) == 2 * m * (n + 2)
            assert tube_edge_count(spec) == 3 * m * n + 4 * m
        else:
            assert tube_vertex_count(spec) == 2 * m * (n + 1)
            assert tube_edge_count(spec) == 3 * m * n + 2 * m


class TestPartition:
    @pytest.mark.parametrize(
        "kind,m,n,expected",
        [
            (NanotubeKind.ARMCHAIR, 2, 1, {(2, 2): 4, (2, 3): 8, (3, 3): 2}),
            (NanotubeKind.ARMCHAIR, 5, 9, {(2, 2): 10, (2, 3): 20, (3, 3): 125}),
            (NanotubeKind.ZIGZAG, 2, 1, {(2, 3): 8, (3, 3): 2}),
            (NanotubeKind.ZIGZAG, 7, 5, {(2, 3): 28, (3, 3): 91}),
        ],
    )
    def test_known_partitions(self, kind, m, n, expected):
        spec = NanotubeSpec(kind, m, n)
        assert dict(tube_edge_partition(spec).classes) == expected
        assert dict(edge_partition(build_nanotube(spec)).classes) == expected

    @given(specs)
    @settings(max_examples=40, deadline=None)
    def test_partition_formula_matches_built_graph(self, spec: NanotubeSpec):
        assert dict(tube_edge_partition(spec).classes) == dict(
            edge_partition(build_nanotube(spec)).classes
        )

    @given(specs)
    @settings(max_examples=40, deadline=None)
    def test_class_sizes(self, spec: NanotubeSpec):
        m, n = spec.m, spec.n
        classes = oracles.CLASS_COUNTS[spec.kind]
        assert dict(tube_edge_partition(spec).classes) == {
            pair: (c_mn * n + c_m) * m for pair, (c_mn, c_m) in classes.items()
        }

    # Held to the hand-written table, the counts read off the tubes (2, 1) and
    # (2, 2) at import do not have the builder, which the verify oracle reads
    # too, as their only source.
    def test_class_counts_equal_the_hand_written_table(self):
        assert polyhex.tubes._CLASS_COUNTS == oracles.CLASS_COUNTS
        for kind, classes in oracles.CLASS_COUNTS.items():
            assert list(polyhex.tubes._CLASS_COUNTS[kind].items()) == list(classes.items())

    # The class counts are read off two tubes at m = 2, so this holds every
    # count to built tubes far from both, where a count that is not linear in
    # m and n would show.
    @given(st.sampled_from(KINDS), st.integers(2, 120), st.integers(1, 120))
    @example(NanotubeKind.ARMCHAIR, 120, 120)
    @example(NanotubeKind.ZIGZAG, 119, 117)
    @settings(max_examples=25, deadline=None)
    def test_counts_match_built_tubes_far_from_where_they_are_read(self, kind, m, n):
        spec = NanotubeSpec(kind, m, n)
        g = build_nanotube(spec)
        assert (tube_vertex_count(spec), tube_edge_count(spec)) == (g.vertex_count, g.edge_count)
        assert list(tube_edge_partition(spec).classes.items()) == list(
            edge_partition(g).classes.items()
        )

    # Every count is (a*n + b)*m, so comparing the (a, b) pairs per unit m
    # checks the class counts, read off the tubes (2, 1) and (2, 2), against
    # the sizes the building rule gives at every m >= 2 and n >= 1. Both
    # checks also pass with (c22, c23, c33) moved by t*(1, -2, 1) for any t,
    # so they do not fix the split among classes: the hand-written table
    # and the checks against built graphs above do.
    @pytest.mark.parametrize("kind", KINDS)
    def test_class_counts_fit_the_rule_for_every_tube(self, kind):
        vertices, edges = polyhex.tubes._sizes(kind, 1)
        for m in (2, 3, 7, 10**12):
            assert polyhex.tubes._sizes(kind, m) == tuple(
                (a * m, b * m) for a, b in (vertices, edges)
            )
        classes = polyhex.tubes._CLASS_COUNTS[kind]
        assert set(classes) <= {(2, 2), (2, 3), (3, 3)}
        assert tuple(map(sum, zip(*classes.values()))) == edges
        c22, c23, c33 = (classes.get(pair, (0, 0)) for pair in ((2, 2), (2, 3), (3, 3)))
        for i in (0, 1):  # the m*n coefficients, then the m ones
            degree_2, degree_3 = 3 * vertices[i] - 2 * edges[i], 2 * edges[i] - 2 * vertices[i]
            assert 2 * c22[i] + c23[i] == 2 * degree_2
            assert c23[i] + 2 * c33[i] == 3 * degree_3


class TestGridTubes:
    @pytest.mark.parametrize(
        "m_range, n_range", [((2, 2), (1, 1)), ((2, 6), (1, 5)), ((7, 9), (4, 11))]
    )
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_the_per_tube_functions_in_m_major_order(self, kind, m_range, n_range):
        expected = []
        for m in range(m_range[0], m_range[1] + 1):
            for n in range(n_range[0], n_range[1] + 1):
                spec = NanotubeSpec(kind, m, n)
                expected.append((m, n, tube_vertex_count(spec), tube_edge_count(spec),
                                 tube_edge_partition(spec)))
        tubes = list(grid_tubes(kind, m_range, n_range))
        assert tubes == expected
        for got, want in zip(tubes, expected):
            assert list(got[4].classes.items()) == list(want[4].classes.items())

    # The one count evaluator, tubes._tube_rows, builds its partitions
    # without EdgePartition's checks; these hold them, read through
    # tube_edge_partition and grid_tubes, to what the checked constructor
    # makes of the same counts.
    def test_count_table_needs_no_partition_check(self):
        for kind, classes in polyhex.tubes._CLASS_COUNTS.items():
            pairs = list(classes)
            assert pairs == sorted(pairs), kind
            for (lo, hi), (c_mn, c_m) in classes.items():
                assert type(lo) is type(hi) is int and 1 <= lo <= hi
                # with n >= 1 and m >= 2, (c_mn*n + c_m)*m >= (c_mn + c_m)*m > 0
                assert type(c_mn) is type(c_m) is int and c_mn >= 0 and c_mn + c_m >= 1

    # The counts were read at import: no count builds a tube when called.
    def test_counts_build_no_tube(self, monkeypatch):
        def no_build(*args):
            raise AssertionError("a tube was built for a count")

        def counts() -> list:
            sizes = ((2, 1), (7, 5), (HUGE, HUGE))
            grids = (((2, 9), (1, 8)), ((HUGE, HUGE), (1, 2)))
            return [*(tube_edge_partition(NanotubeSpec(k, *size)) for k in KINDS for size in sizes),
                    *(list(grid_tubes(k, *grid)) for k in KINDS for grid in grids)]

        before = counts()
        monkeypatch.setattr(polyhex.tubes, "build_nanotube", no_build)
        monkeypatch.setattr(polyhex.tubes, "Graph", no_build)
        assert counts() == before
        with pytest.raises(AssertionError, match="a tube was built"):
            build_nanotube(NanotubeSpec(NanotubeKind.ZIGZAG, 2, 1))

    @given(st.sampled_from(KINDS), st.integers(2, 10**6), st.integers(1, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_partitions_equal_the_checked_constructor(self, kind, m, n):
        from_spec = tube_edge_partition(NanotubeSpec(kind, m, n))
        from_grid = next(grid_tubes(kind, (m, m), (n, n)))[4]
        checked = EdgePartition(dict(from_spec.classes))
        for made in (from_spec, from_grid):
            assert made == checked
            assert list(made.classes.items()) == list(checked.classes.items())

    @pytest.mark.parametrize(
        "kind, m_range, n_range, message",
        [
            ("armchair", (2, 3), (1, 2), "kind must be a NanotubeKind"),
            (None, (2, 3), (1, 2), "kind must be a NanotubeKind"),
            (NanotubeKind.ZIGZAG, (False, 3), (1, 2), "m range must be a pair of ints"),
            (NanotubeKind.ZIGZAG, (2, 3), (1, True), "n range must be a pair of ints"),
            (NanotubeKind.ZIGZAG, (2, 3.0), (1, 2), "m range must be a pair of ints"),
            (NanotubeKind.ZIGZAG, (2, 3), ("1", 2), "n range must be a pair of ints"),
            (NanotubeKind.ARMCHAIR, (2, 3), (5, 4), "empty range 5:4 for n"),
            (NanotubeKind.ARMCHAIR, (1, 3), (1, 2), "m must be >= 2"),
            (NanotubeKind.ARMCHAIR, (2, 3), (0, 2), "n must be >= 1"),
        ],
        ids=["kind-name", "none", "bool-m", "bool-n", "float-m", "str-n", "empty", "m-below",
             "n-below"],
    )
    def test_refuses_when_called(self, kind, m_range, n_range, message):
        with pytest.raises(InvalidSpecError, match=message):
            grid_tubes(kind, m_range, n_range)


class TestStructure:
    @given(specs)
    @settings(max_examples=30, deadline=None)
    def test_connected(self, spec: NanotubeSpec):
        g = build_nanotube(spec)
        assert oracles.is_connected(g)
        assert oracles.component_count(g.vertex_count, list(g.edges)) == 1

    @given(specs)
    @settings(max_examples=30, deadline=None)
    def test_degrees_are_two_or_three(self, spec: NanotubeSpec):
        degs = build_nanotube(spec).degrees
        assert set(degs) <= {2, 3}
        expected_twos = 4 * spec.m if spec.kind is NanotubeKind.ARMCHAIR else 2 * spec.m
        assert degs.count(2) == expected_twos

    def test_armchair_rim_rows_have_degree_two(self):
        spec = NanotubeSpec(NanotubeKind.ARMCHAIR, 4, 3)
        g = build_nanotube(spec)
        width = 2 * spec.m
        rows = g.vertex_count // width
        for c in range(width):
            assert g.degrees[c] == 2
            assert g.degrees[(rows - 1) * width + c] == 2

    def test_zigzag_interior_rows_have_degree_three(self):
        spec = NanotubeSpec(NanotubeKind.ZIGZAG, 4, 3)
        g = build_nanotube(spec)
        width = 2 * spec.m
        for r in range(1, spec.n):
            for c in range(width):
                assert g.degrees[r * width + c] == 3

    def test_zigzag_row_cycles_and_vertical_parity(self):
        spec = NanotubeSpec(NanotubeKind.ZIGZAG, 3, 2)
        g = build_nanotube(spec)
        width = 2 * spec.m
        edges = set(g.edges)
        for r in range(spec.n + 1):
            for c in range(width):
                a, b = r * width + c, r * width + (c + 1) % width
                assert (min(a, b), max(a, b)) in edges
        for r in range(spec.n):
            for c in range(width):
                present = (r * width + c, (r + 1) * width + c) in edges
                assert present == (c % 2 == r % 2)

    @pytest.mark.parametrize("m,expected", [(2, 4), (3, 6), (4, 6), (5, 6)])
    def test_zigzag_girth(self, m, expected):
        g = build_nanotube(NanotubeSpec(NanotubeKind.ZIGZAG, m, 2))
        assert oracles.girth(g.vertex_count, list(g.edges)) == expected

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_armchair_girth_is_hexagonal(self, m):
        g = build_nanotube(NanotubeSpec(NanotubeKind.ARMCHAIR, m, 2))
        assert oracles.girth(g.vertex_count, list(g.edges)) == 6

    @pytest.mark.parametrize(
        "m, n", [(m, n) for m in range(2, 10) for n in range(1, 10)] + [(30, 17)]
    )
    def test_edges_match_loop_reference(self, m, n):
        for kind, reference in (
            (NanotubeKind.ARMCHAIR, oracles.armchair_edges_reference),
            (NanotubeKind.ZIGZAG, oracles.zigzag_edges_reference),
        ):
            edges = list(polyhex.tubes._tube_edges(kind, m, n))
            expected = reference(m, n)
            assert len(edges) == len(expected)
            assert {(min(e), max(e)) for e in edges} == {(min(e), max(e)) for e in expected}

    @given(st.integers(2, 60), st.integers(1, 40))
    @settings(max_examples=20, deadline=None)
    def test_edges_match_loop_reference_at_drawn_size(self, m, n):
        self.test_edges_match_loop_reference(m, n)

    # The generator yields the edges Graph keeps, in Graph's order: `build`
    # prints them as they come, and Graph's sort has nothing to move.
    @given(st.sampled_from(KINDS), st.integers(2, 40), st.integers(1, 30))
    @example(NanotubeKind.ZIGZAG, 2, 1)
    @example(NanotubeKind.ARMCHAIR, 2, 1)
    @settings(max_examples=40, deadline=None)
    def test_edges_come_out_sorted(self, kind, m, n):
        edges = list(polyhex.tubes._tube_edges(kind, m, n))
        assert edges == list(build_nanotube(NanotubeSpec(kind, m, n)).edges)
        assert all(u < v for u, v in edges)
        assert all(a < b for a, b in zip(edges, edges[1:]))

    @given(specs)
    @settings(max_examples=20, deadline=None)
    def test_build_is_deterministic(self, spec: NanotubeSpec):
        a, b = build_nanotube(spec), build_nanotube(spec)
        assert (a.vertex_count, a.edges) == (b.vertex_count, b.edges)

    # The verify oracle reads each tube below the grid's last n off that
    # tube's edges (polyhex.forms._oracle_values).
    @given(st.sampled_from(KINDS), st.integers(2, 7), st.integers(1, 8), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_smaller_n_is_an_induced_prefix(self, kind, m, n, extra):
        small = NanotubeSpec(kind, m, n)
        cut = tube_vertex_count(small)
        large = build_nanotube(NanotubeSpec(kind, m, n + extra))
        assert build_nanotube(small).edges == tuple(e for e in large.edges if e[1] < cut)
