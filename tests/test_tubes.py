"""Nanotube builders: counts, degree structure, layout, girth, validation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractions import Fraction

from polyhex import (
    ClosedForm,
    InvalidSpecError,
    NanotubeKind,
    NanotubeSpec,
    Provenance,
    build_nanotube,
    edge_partition,
    is_connected,
    tube_edge_count,
    tube_edge_partition,
    tube_vertex_count,
    validate_ranges,
)

import oracles

KINDS = (NanotubeKind.ARMCHAIR, NanotubeKind.ZIGZAG)

specs = st.tuples(
    st.sampled_from(KINDS), st.integers(2, 7), st.integers(1, 7)
).map(lambda t: NanotubeSpec(*t))


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
            (
                lambda: ClosedForm(
                    NanotubeKind.ARMCHAIR, "azi", Fraction(2187, 64), Fraction(807, 32),
                    Provenance.FITTED,
                ).evaluate(2.5, 1),
                r"m must be an int \(got 2.5\)",
            ),
        ],
        ids=["kind-as-string", "float-m", "bool-n", "closed-form-float-m"],
    )
    def test_wrong_types_rejected(self, make, message):
        with pytest.raises(InvalidSpecError, match=message):
            make()

    def test_invalid_spec_is_value_error(self):
        assert issubclass(InvalidSpecError, ValueError)

    def test_kind_parse(self):
        assert NanotubeKind.parse("armchair") is NanotubeKind.ARMCHAIR
        assert NanotubeKind.parse("ZIGZAG") is NanotubeKind.ZIGZAG
        with pytest.raises(InvalidSpecError):
            NanotubeKind.parse("chiral")

    def test_validate_ranges_accepts_forward_ranges(self):
        validate_ranges((2, 12), (1, 12))

    def test_validate_ranges_rejects_empty(self):
        with pytest.raises(ValueError, match="empty range 12:2"):
            validate_ranges((12, 2), (1, 3))
        with pytest.raises(ValueError, match="empty range 5:4"):
            validate_ranges((2, 3), (5, 4))

    def test_validate_ranges_rejects_domain(self):
        with pytest.raises(InvalidSpecError):
            validate_ranges((1, 3), (1, 3))
        with pytest.raises(InvalidSpecError):
            validate_ranges((2, 3), (0, 3))


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
        counts = dict(tube_edge_partition(spec).classes)
        if spec.kind is NanotubeKind.ARMCHAIR:
            assert counts == {(2, 2): 2 * m, (2, 3): 4 * m, (3, 3): 3 * m * n - 2 * m}
        else:
            assert counts == {(2, 3): 4 * m, (3, 3): 3 * m * n - 2 * m}


class TestStructure:
    @given(specs)
    @settings(max_examples=30, deadline=None)
    def test_connected(self, spec: NanotubeSpec):
        g = build_nanotube(spec)
        assert is_connected(g)
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
            assert g.degree(c) == 2
            assert g.degree((rows - 1) * width + c) == 2

    def test_zigzag_interior_rows_have_degree_three(self):
        spec = NanotubeSpec(NanotubeKind.ZIGZAG, 4, 3)
        g = build_nanotube(spec)
        width = 2 * spec.m
        for r in range(1, spec.n):
            for c in range(width):
                assert g.degree(r * width + c) == 3

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

    @given(specs)
    @settings(max_examples=20, deadline=None)
    def test_build_is_deterministic(self, spec: NanotubeSpec):
        assert build_nanotube(spec) == build_nanotube(spec)
