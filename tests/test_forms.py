"""Closed forms a*m*n + b*m: published variants, exact fitting, verification."""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyhex.cli
import polyhex.forms
import polyhex.tubes
from polyhex import (
    DEFAULT_FIT_SAMPLES,
    MAX_BUILD_EDGES,
    MAX_VERIFY_EDGES,
    ClosedForm,
    Graph,
    GridTooLargeError,
    InconsistentSamplesError,
    InvalidSpecError,
    NanotubeKind,
    NanotubeSpec,
    Provenance,
    SingularSystemError,
    TubeTooLargeError,
    azi,
    build_nanotube,
    edge_partition,
    fit_closed_form,
    fit_from_values,
    grid_edge_count,
    grid_tubes,
    published_forms,
    tube_edge_count,
    tube_edge_partition,
    tube_vertex_count,
    validate_ranges,
    verify_forms,
    verify_published_forms,
)

import oracles
import test_acceptance
from test_indices import HOSTILE, traced_peak

A = Fraction(2187, 64)
FITTED_B = {NanotubeKind.ARMCHAIR: Fraction(807, 32), NanotubeKind.ZIGZAG: Fraction(295, 32)}


def oracle_value(kind: NanotubeKind, m: int, n: int) -> Fraction:
    value = azi(build_nanotube(NanotubeSpec(kind, m, n))).exact
    assert value is not None
    return value

ORACLE_VALUES = {
    (kind, m, n): oracle_value(kind, m, n)
    for kind in NanotubeKind for m in range(2, 6) for n in range(1, 5)
}

# exact coefficients, and values of the wrong type
loose_coefficients = st.one_of(
    st.integers(-50, 50), st.fractions(-50, 50, max_denominator=64), st.booleans(),
    st.floats(-50, 50), st.text(max_size=2), st.none(),
)


class TestPublishedForms:
    def test_catalog(self):
        forms = published_forms()
        assert len(forms) == 4
        coefficients = {
            (f.kind, f.provenance): (f.a, f.b) for f in forms
        }
        assert coefficients == {
            (NanotubeKind.ARMCHAIR, Provenance.STATED): (A, Fraction(-573, 64)),
            (NanotubeKind.ARMCHAIR, Provenance.PROOF): (A, Fraction(-807, 32)),
            (NanotubeKind.ZIGZAG, Provenance.STATED): (A, Fraction(-597, 64)),
            (NanotubeKind.ZIGZAG, Provenance.PROOF): (A, Fraction(-434, 64)),
        }
        assert all(f.index_name == "azi" for f in forms)

    def test_variants_disagree_pairwise_per_kind(self):
        by_kind: dict[NanotubeKind, list[Fraction]] = {}
        for f in published_forms():
            by_kind.setdefault(f.kind, []).append(f.b)
        for bs in by_kind.values():
            assert len(set(bs)) == len(bs)

    def test_evaluate(self):
        form = ClosedForm(
            NanotubeKind.ARMCHAIR, "azi", A, Fraction(807, 32), Provenance.FITTED
        )
        assert form.evaluate(2, 1) == Fraction(3801, 32)
        assert form.evaluate(5, 9) == Fraction(106485, 64)

    def test_evaluate_rejects_out_of_domain(self):
        form = published_forms()[0]
        with pytest.raises(InvalidSpecError):
            form.evaluate(1, 3)
        with pytest.raises(InvalidSpecError):
            form.evaluate(4, 0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("a", 0.5, r"coefficient a must be an int or a Fraction \(got 0.5\)"),
            ("b", True, r"coefficient b must be an int or a Fraction \(got True\)"),
            ("b", "1/2", r"coefficient b must be an int or a Fraction"),
            ("kind", "armchair", r"kind must be a NanotubeKind \(got 'armchair'\)"),
            ("provenance", "stated", r"provenance must be a Provenance \(got 'stated'\)"),
            ("index_name", "wiener", r"unknown index 'wiener'"),
            ("index_name", None, r"unknown index None"),
        ],
        ids=["float-a", "bool-b", "str-b", "str-kind", "str-provenance", "unknown-index",
             "none-index"],
    )
    def test_malformed_form_rejected(self, field, value, message):
        fields = dict(
            kind=NanotubeKind.ARMCHAIR, index_name="azi", a=A, b=Fraction(1),
            provenance=Provenance.STATED,
        )
        fields[field] = value
        with pytest.raises(ValueError, match=message):
            ClosedForm(**fields)

    def test_int_coefficients_stored_as_fractions(self):
        form = ClosedForm(NanotubeKind.ZIGZAG, "azi", 2, -1, Provenance.STATED)
        assert type(form.a) is Fraction and type(form.b) is Fraction
        assert type(form.evaluate(2, 1)) is Fraction

    @given(
        st.one_of(st.sampled_from(list(NanotubeKind)), st.just("zigzag")),
        st.sampled_from(["azi", "randic", "abc", "wiener", ""]),
        loose_coefficients,
        loose_coefficients,
        st.one_of(st.sampled_from(list(Provenance)), st.just("fitted")),
    )
    @settings(max_examples=200, deadline=None)
    def test_constructor_accepts_exactly_valid_forms(self, kind, index_name, a, b, provenance):
        valid = (
            isinstance(kind, NanotubeKind)
            and index_name in ("azi", "randic", "abc")
            and all(type(c) is int or type(c) is Fraction for c in (a, b))
            and isinstance(provenance, Provenance)
        )
        if not valid:
            with pytest.raises(ValueError):
                ClosedForm(kind, index_name, a, b, provenance)
            return
        form = ClosedForm(kind, index_name, a, b, provenance)
        assert (form.a, form.b) == (a, b)
        assert form.evaluate(3, 2) == Fraction(a) * 6 + Fraction(b) * 3
        assert type(form.evaluate(3, 2)) is Fraction

    def test_evaluate_is_linear_in_n(self):
        form = published_forms()[0]
        for m in (2, 5, 9):
            step = form.evaluate(m, 3) - form.evaluate(m, 2)
            assert step == form.a * m


class TestFitting:
    @pytest.mark.parametrize("kind", list(NanotubeKind))
    def test_fit_recovers_exact_coefficients(self, kind):
        form = fit_closed_form(kind, "azi", DEFAULT_FIT_SAMPLES)
        assert form.a == A
        assert form.b == FITTED_B[kind]
        assert form.provenance is Provenance.FITTED

    @pytest.mark.parametrize("kind", list(NanotubeKind))
    def test_fitted_b_is_positive_unlike_published(self, kind):
        form = fit_closed_form(kind, "azi", DEFAULT_FIT_SAMPLES)
        assert form.b > 0
        assert all(f.b < 0 for f in published_forms())

    def test_fit_from_alternate_samples(self):
        form = fit_closed_form(
            NanotubeKind.ZIGZAG, "azi", ((4, 2), (5, 3), (6, 7))
        )
        assert (form.a, form.b) == (A, FITTED_B[NanotubeKind.ZIGZAG])

    def test_fit_needs_two_distinct_n(self):
        with pytest.raises(SingularSystemError):
            fit_closed_form(NanotubeKind.ARMCHAIR, "azi", ((2, 1), (3, 1)))
        with pytest.raises(SingularSystemError):
            fit_closed_form(NanotubeKind.ARMCHAIR, "azi", ((2, 1),))

    def test_fit_rejects_duplicate_samples(self):
        with pytest.raises(SingularSystemError):
            fit_closed_form(NanotubeKind.ARMCHAIR, "azi", ((2, 1), (2, 1)))

    @pytest.mark.parametrize("index_name", ["randic", "abc"])
    def test_fit_refuses_float_indices(self, index_name):
        with pytest.raises(InconsistentSamplesError):
            fit_closed_form(NanotubeKind.ARMCHAIR, index_name, DEFAULT_FIT_SAMPLES)

    def test_fit_rejects_unknown_index(self):
        with pytest.raises(ValueError):
            fit_closed_form(NanotubeKind.ARMCHAIR, "wiener", DEFAULT_FIT_SAMPLES)

    def test_fit_from_values_solves_two_by_two(self):
        samples = ((2, 1), (2, 2))
        values = tuple(oracle_value(NanotubeKind.ARMCHAIR, m, n) for m, n in samples)
        assert fit_from_values(samples, values) == (A, FITTED_B[NanotubeKind.ARMCHAIR])

    def test_fit_from_values_checks_extra_samples(self):
        samples = ((2, 1), (2, 2), (3, 4))
        values = [oracle_value(NanotubeKind.ZIGZAG, m, n) for m, n in samples]
        assert fit_from_values(samples, values) == (A, FITTED_B[NanotubeKind.ZIGZAG])
        values[2] += 1
        with pytest.raises(InconsistentSamplesError):
            fit_from_values(samples, values)

    def test_fit_from_values_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_from_values(((2, 1), (2, 2)), (Fraction(1),))

    # Each was once solved as given or failed with a bare TypeError.
    @pytest.mark.parametrize(
        "samples",
        [
            ((2, 1), (3, None)),
            ((True, 1), (2, 2)),
            ((2, 1), (1, 2)),
            ((0, 1), (2, 1), (2, 2)),
            ((2, 1), (2, 0)),
            ((2, 1), (2.0, 2)),
            ((2, 1), 5),
            ((2, 1), (2, 2, 3)),
        ],
        ids=["none-n", "bool-m", "m-1", "m-0", "n-0", "float-m", "not-a-pair", "triple"],
    )
    def test_fit_from_values_rejects_malformed_samples(self, samples):
        with pytest.raises(InvalidSpecError):
            fit_from_values(samples, [Fraction(k) for k in range(len(samples))])

    @pytest.mark.parametrize(
        "values",
        [[0.1, 0.2], [Fraction(1), 2.0], [True, 1], ["1", 2], [None, 1]],
        ids=["floats", "one-float", "bool", "str", "none"],
    )
    def test_fit_from_values_rejects_inexact_values(self, values):
        with pytest.raises(ValueError, match="must be an int or a Fraction"):
            fit_from_values([(2, 1), (2, 2)], values)

    def test_fit_from_values_accepts_int_values(self):
        assert fit_from_values([(2, 1), (2, 2)], [4, 6]) == (Fraction(1), Fraction(1))

    @pytest.mark.parametrize(
        "samples", [[5], [(2, 1), "3,2"], [(2, 1), (3,)]], ids=["int", "str", "single"]
    )
    def test_fit_rejects_malformed_samples_before_any_build(self, monkeypatch, samples):
        def no_build(spec):
            raise AssertionError("tube built for refused samples")

        monkeypatch.setattr(polyhex.forms, "build_nanotube", no_build)
        with pytest.raises(InvalidSpecError, match="must be an"):
            fit_closed_form(NanotubeKind.ARMCHAIR, "azi", samples)

    # Each once failed with TypeError: ... has no len().
    def test_fits_read_one_shot_iterables(self, monkeypatch):
        kind = NanotubeKind.ZIGZAG
        form = fit_closed_form(kind, "azi", iter(DEFAULT_FIT_SAMPLES))
        assert (form.a, form.b) == (A, FITTED_B[kind])
        values = (ORACLE_VALUES[kind, m, n] for m, n in DEFAULT_FIT_SAMPLES)
        assert fit_from_values(iter(DEFAULT_FIT_SAMPLES), values) == (A, FITTED_B[kind])

        def no_build(spec):
            raise AssertionError("tube built for refused samples")

        monkeypatch.setattr(polyhex.forms, "build_nanotube", no_build)
        with pytest.raises(SingularSystemError):
            fit_closed_form(kind, "azi", ((2, n) for n in (1, 1)))

    # Besides a fixed list, samples whose leading ones share one n, so the
    # first sample with another n, which fixes the fit, lies past index 1.
    @given(
        a=st.fractions(min_value=-50, max_value=50, max_denominator=64),
        b=st.fractions(min_value=-50, max_value=50, max_denominator=64),
        samples=st.one_of(
            st.just(((2, 1), (3, 2), (4, 5), (7, 3))),
            st.integers(1, 50).flatmap(lambda lead: st.tuples(
                st.lists(st.tuples(st.integers(2, 10**6), st.just(lead)), min_size=2, max_size=4),
                st.lists(st.tuples(st.integers(2, 10**6), st.integers(1, 50).filter(
                    lambda n: n != lead)), min_size=1, max_size=3),
            )).map(lambda parts: (*parts[0], *parts[1])),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_fit_from_values_round_trips(self, a, b, samples):
        values = tuple(a * m * n + b * m for m, n in samples)
        assert fit_from_values(samples, values) == (a, b)


class TestVerification:
    def test_report_covers_every_grid_point(self):
        report = verify_published_forms((2, 4), (1, 3))
        for check in report.checks:
            assert len(check.points) == 9
            assert {(p.m, p.n) for p in check.points} == {
                (m, n) for m in range(2, 5) for n in range(1, 4)
            }

    def test_fitted_consistent_published_not(self):
        report = verify_published_forms((2, 6), (1, 6))
        for check in report.checks:
            if check.form.provenance is Provenance.FITTED:
                assert check.consistent
                assert all(p.difference == 0 for p in check.points)
            else:
                assert not check.consistent
                assert all(p.difference != 0 for p in check.points)

    def test_point_fields(self):
        report = verify_published_forms((2, 2), (1, 1))
        for check in report.checks:
            point = check.points[0]
            assert point.oracle == oracle_value(check.form.kind, 2, 1)
            assert point.claimed == check.form.evaluate(2, 1)
            assert point.difference == point.claimed - point.oracle

    # Every grid point of a form whose coefficients are far from the oracle's,
    # negative, zero or large, holds the same values ClosedForm.evaluate gives.
    @given(
        st.sampled_from(list(NanotubeKind)),
        st.one_of(st.just(0), st.integers(-(10**40), 10**40), st.fractions(max_denominator=10**12)),
        st.one_of(st.just(0), st.integers(-(10**40), 10**40), st.fractions(max_denominator=10**12)),
        st.integers(2, 5), st.integers(1, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_point_values_match_evaluate(self, kind, a, b, m_hi, n_hi):
        form = ClosedForm(kind, "azi", a, b, Provenance.STATED)
        (check,) = verify_forms([form], (2, m_hi), (1, n_hi)).checks
        for p in check.points:
            assert type(p.claimed) is type(p.difference) is Fraction
            assert p.claimed == form.evaluate(p.m, p.n)
            assert p.oracle == ORACLE_VALUES[kind, p.m, p.n]
            assert p.difference == p.claimed - p.oracle

    # The oracle builds, per kind and m, the one tube at the grid's last n,
    # after each fit builds its own samples; every n below comes from the walk.
    def test_builds_the_last_n_per_kind_and_m(self, monkeypatch):
        built = []

        def counting_build(spec):
            built.append(spec)
            return build_nanotube(spec)

        monkeypatch.setattr(polyhex.forms, "build_nanotube", counting_build)
        fits = [NanotubeSpec(kind, m, n) for kind in NanotubeKind for m, n in DEFAULT_FIT_SAMPLES]
        for n_range in ((1, 8), (3, 5), (6, 7), (4, 4)):
            built.clear()
            verify_published_forms((2, 9), n_range)
            assert built == fits + [
                NanotubeSpec(kind, m, n_range[1]) for kind in NanotubeKind for m in range(2, 10)
            ]

    # Every oracle value, read off a built tube or off the walk, equals the
    # brute-force AZI of the loop-reference edges.
    @pytest.mark.parametrize("n_range", [(1, 6), (2, 7), (3, 4), (5, 5)])
    def test_every_oracle_value_matches_the_loop_reference(self, n_range):
        references = {
            NanotubeKind.ARMCHAIR: oracles.armchair_edges_reference,
            NanotubeKind.ZIGZAG: oracles.zigzag_edges_reference,
        }
        report = verify_forms(published_forms(), (2, 6), n_range)
        for check in report.checks:
            assert len(check.points) == 5 * (n_range[1] - n_range[0] + 1)
            for p in check.points:
                edges = references[check.form.kind](p.m, p.n)
                vertex_count = 1 + max(map(max, edges))
                assert p.oracle == oracles.azi_reference(vertex_count, edges)

    # The oracle's values for any grid of n values in 1..12 at m in 2..9.
    @given(
        st.sampled_from(list(NanotubeKind)), st.integers(2, 9),
        st.integers(1, 12).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, 12))),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_walked_value_matches_the_loop_reference(self, kind, m, n_range):
        references = {
            NanotubeKind.ARMCHAIR: oracles.armchair_edges_reference,
            NanotubeKind.ZIGZAG: oracles.zigzag_edges_reference,
        }
        ns = range(n_range[0], n_range[1] + 1)
        for n, pair in zip(ns, polyhex.forms._oracle_values(kind, m, ns), strict=True):
            edges = references[kind](m, n)
            assert Fraction(*pair) == oracles.azi_reference(1 + max(map(max, edges)), edges)

    # A two-n grid walks its one tube once, cutting at the first tube's
    # vertex count and at its own; its values stay exact.
    def test_two_n_grid_walks_its_tube_once(self, monkeypatch):
        walks = []
        walk_rows = polyhex.forms._walk_rows

        def recording_walk(g, cuts):
            walks.append(cuts)
            return walk_rows(g, cuts)

        monkeypatch.setattr(polyhex.forms, "_walk_rows", recording_walk)
        report = verify_forms(published_forms(), (2, 4), (6, 7))
        assert [len(cuts) for cuts in walks] == [2] * 6  # per kind, one walk per m
        for check in report.checks:
            assert [(p.m, p.n) for p in check.points] == [(m, n) for m in (2, 3, 4) for n in (6, 7)]
            for p in check.points:
                assert p.oracle == oracle_value(check.form.kind, p.m, p.n)

    # The walk cuts once per n, the last at the tube's vertex count, where it
    # stores the tube's partition, so azi of the tube counts no edge again.
    @pytest.mark.parametrize("kind", list(NanotubeKind))
    def test_last_tube_is_partitioned_once(self, monkeypatch, kind):
        built, walked = [], []
        walk_rows = polyhex.forms._walk_rows

        def recording_build(spec):
            built.append(build_nanotube(spec))
            return built[-1]

        def recording_walk(g, cuts):
            walked.append((cuts, walk_rows(g, cuts), g._partition))
            return walked[-1][1]

        monkeypatch.setattr(polyhex.forms, "build_nanotube", recording_build)
        monkeypatch.setattr(polyhex.forms, "_walk_rows", recording_walk)
        values = polyhex.forms._oracle_values(kind, 3, range(1, 6))
        # each value is the (numerator, denominator) pair of the oracle's Fraction
        assert [Fraction(*pair) for pair in values] == [oracle_value(kind, 3, n) for n in range(1, 6)]
        assert all(Fraction(*pair).as_integer_ratio() == pair for pair in values)
        [(cuts, walked_values, stored)] = walked
        assert len(built) == 1 and cuts[-1] == built[-1].vertex_count and len(cuts) == 5
        assert walked_values == values
        assert edge_partition(built[-1]) is stored
        assert stored == edge_partition(Graph(built[-1].vertex_count, built[-1].edges))

    # An edge that reaches past the next row would be missed by every band,
    # so the walk refuses it, whether it starts in a row the walk steps
    # through or below them all, before any value is read or partition stored.
    @pytest.mark.parametrize("starts_in", ["a-row", "the-first-rows"])
    @pytest.mark.parametrize("kind", list(NanotubeKind))
    def test_oracle_refuses_an_edge_longer_than_a_row(self, monkeypatch, kind, starts_in):
        built = []

        def build_with_long_edge(spec):
            g = build_nanotube(spec)
            u = tube_vertex_count(NanotubeSpec(kind, 3, 2)) - 1 if starts_in == "a-row" else 0
            built.append(Graph(g.vertex_count, [*g.edges, (u, g.vertex_count - 1)]))
            return built[-1]

        monkeypatch.setattr(polyhex.forms, "build_nanotube", build_with_long_edge)
        with pytest.raises(RuntimeError, match="has an edge longer than a row of 6 vertices$"):
            verify_forms([f for f in published_forms() if f.kind is kind], (3, 3), (2, 5))
        assert built[-1]._partition is None

    # A two-n grid's first tube is checked against its last too.
    def test_oracle_refuses_a_last_tube_that_does_not_extend_the_first(self, monkeypatch):
        def build_missing_first_edge(spec):
            g = build_nanotube(spec)
            return g if spec.n == 1 else Graph(g.vertex_count, g.edges[1:])

        monkeypatch.setattr(polyhex.forms, "build_nanotube", build_missing_first_edge)
        for last in (3, 2):
            with pytest.raises(RuntimeError, match=f"is not the subgraph of tube n={last} on its"):
                verify_forms(published_forms(), (2, 2), (1, last))

    # The cuts step one row per n from the first tube's vertex count to the
    # last's, so a last tube one vertex too large (uneven steps) or as large
    # as the first (no step) is refused before any row is walked, although
    # its edges below the first tube's vertex count are the first tube's.
    @pytest.mark.parametrize(
        "n_range, built_n, extra_vertices", [((1, 3), 3, 1), ((1, 2), 1, 0)],
        ids=["uneven", "no-step"],
    )
    def test_oracle_refuses_a_last_tube_not_whole_rows_past_the_first(
        self, monkeypatch, n_range, built_n, extra_vertices
    ):
        def build_last(spec):
            if spec.n == n_range[0]:
                return build_nanotube(spec)
            g = build_nanotube(NanotubeSpec(spec.kind, spec.m, built_n))
            return Graph(g.vertex_count + extra_vertices, g.edges)

        def no_walk(g, cuts):
            raise AssertionError("rows walked past a refused last tube")

        monkeypatch.setattr(polyhex.forms, "build_nanotube", build_last)
        monkeypatch.setattr(polyhex.forms, "_walk_rows", no_walk)
        with pytest.raises(RuntimeError, match=r"first \d+ vertices, a row per n below its \d+$"):
            verify_forms(published_forms(), (2, 2), n_range)

    # Swapping ids 0 and 1 in the last tube keeps its graph up to relabelling,
    # its degree multiset and its partition, so only a check of the first
    # tube's edges themselves refuses it.
    @pytest.mark.parametrize("kind", list(NanotubeKind))
    def test_oracle_refuses_a_last_tube_with_relabelled_ids(self, monkeypatch, kind):
        swap = {0: 1, 1: 0}

        def build_swapped(spec):
            g = build_nanotube(spec)
            if spec.n == 1:
                return g
            return Graph(g.vertex_count, [(swap.get(u, u), swap.get(v, v)) for u, v in g.edges])

        tube = build_nanotube(NanotubeSpec(kind, 3, 4))
        swapped = build_swapped(NanotubeSpec(kind, 3, 4))
        assert swapped.edges != tube.edges
        assert sorted(swapped.degrees) == sorted(tube.degrees)
        assert edge_partition(swapped) == edge_partition(tube)
        monkeypatch.setattr(polyhex.forms, "build_nanotube", build_swapped)
        with pytest.raises(
            RuntimeError,
            match=f"{kind.value} tube m=3, n=1 is not the subgraph of tube n=4 on its first",
        ):
            verify_forms([f for f in published_forms() if f.kind is kind], (3, 3), (1, 4))

    # The first tube is never built: its ids come from the builder's id
    # stream, so ids that lose an edge or swap two are refused, before any
    # row is walked, against the one tube built. Only forms' name is patched:
    # the tube built reads tubes._tube_ids, so only the first tube's ids change.
    @pytest.mark.parametrize("n_range", [(1, 2), (2, 5)], ids=["two-n", "four-n"])
    @pytest.mark.parametrize("corruption", ["lose-an-edge", "swap-two-ids"])
    def test_oracle_refuses_first_tube_rows_that_differ(self, monkeypatch, n_range, corruption):
        def corrupt_first_ids(spec):
            vertex_count, edge_count, ids = polyhex.tubes._tube_ids(spec)
            ids = [*ids]
            if corruption == "lose-an-edge":
                del ids[:2]
            else:
                ids[1], ids[3] = ids[3], ids[1]
            return vertex_count, edge_count, iter(ids)

        def no_walk(g, cuts):
            raise AssertionError("rows walked past refused first-tube rows")

        monkeypatch.setattr(polyhex.forms, "_tube_ids", corrupt_first_ids)
        monkeypatch.setattr(polyhex.forms, "_walk_rows", no_walk)
        first, last = n_range
        for kind in NanotubeKind:
            with pytest.raises(
                RuntimeError,
                match=f"{kind.value} tube m=3, n={first} is not the subgraph of tube n={last} "
                f"on its first {tube_vertex_count(NanotubeSpec(kind, 3, first))} vertices",
            ):
                verify_forms([f for f in published_forms() if f.kind is kind], (3, 3), n_range)

    def test_checks_for_filters_by_provenance(self):
        report = verify_published_forms((2, 2), (1, 2))
        stated = report.checks_for(Provenance.STATED)
        assert len(stated) == 2
        assert all(c.form.provenance is Provenance.STATED for c in stated)

    # Each once returned () for a provenance given by name or as None.
    @pytest.mark.parametrize("provenance", ["stated", None], ids=["str", "none"])
    def test_checks_for_refuses_non_provenance(self, provenance):
        report = verify_published_forms((2, 2), (1, 1))
        name = type(provenance).__name__
        with pytest.raises(ValueError, match=rf"must be a Provenance \(got {name}\)"):
            report.checks_for(provenance)

    def test_kind_filter(self):
        report = verify_published_forms(
            (2, 2), (1, 2), kinds=[NanotubeKind.ZIGZAG]
        )
        assert {c.form.kind for c in report.checks} == {NanotubeKind.ZIGZAG}

    # A repeated kind was once fitted and checked once per mention, while the
    # grid's edge budget counted it once.
    def test_repeated_kind_checked_once(self):
        zigzag, armchair = NanotubeKind.ZIGZAG, NanotubeKind.ARMCHAIR
        report = verify_published_forms((2, 2), (1, 2), [zigzag, armchair, zigzag])
        assert report == verify_published_forms((2, 2), (1, 2), [zigzag, armchair])
        assert [c.form.kind for c in report.checks] == [zigzag] * 3 + [armchair] * 3

    def test_verify_custom_form(self):
        correct = ClosedForm(
            NanotubeKind.ZIGZAG, "azi", A, FITTED_B[NanotubeKind.ZIGZAG],
            Provenance.FITTED,
        )
        report = verify_forms([correct], (2, 5), (1, 5))
        assert report.checks[0].consistent

    @pytest.mark.parametrize(
        "items", [["x"], [published_forms()[0], None], [(A, A)]], ids=["str", "none", "tuple"]
    )
    def test_verify_rejects_non_forms_before_any_build(self, monkeypatch, items):
        def no_build(spec):
            raise AssertionError("tube built for a refused form")

        monkeypatch.setattr(polyhex.forms, "build_nanotube", no_build)
        with pytest.raises(ValueError, match="can only verify a ClosedForm"):
            verify_forms(items, (2, 3), (1, 2))

    # verify_forms checks each form's index itself, as a ClosedForm may hold
    # any index of EDGE_FUNCTIONS.
    def test_verify_rejects_non_azi_forms_before_any_build(self, monkeypatch):
        def no_build(spec):
            raise AssertionError("tube built for a refused form")

        form = ClosedForm(NanotubeKind.ZIGZAG, "randic", A, A, Provenance.FITTED)
        monkeypatch.setattr(polyhex.forms, "build_nanotube", no_build)
        with pytest.raises(ValueError, match="covers 'azi' only, not 'randic'"):
            verify_forms([published_forms()[0], form], (2, 3), (1, 2))

    def test_verify_rejects_empty_range(self):
        with pytest.raises(ValueError, match="empty range"):
            verify_published_forms((5, 2), (1, 3))

    @pytest.mark.parametrize(
        "m_range, n_range",
        [((2, 3.5), (1, 2)), ((2, 3), (1.0, 2)), ((True, 3), (1, 2)), ((2, 3), ("1", 2))],
        ids=["float-m", "float-n", "bool-m", "str-n"],
    )
    def test_verify_rejects_non_int_bounds(self, m_range, n_range):
        with pytest.raises(InvalidSpecError, match="range must be a pair of ints"):
            verify_forms(published_forms(), m_range, n_range)

    def test_verify_rejects_out_of_domain_range(self):
        with pytest.raises(InvalidSpecError):
            verify_published_forms((1, 3), (1, 3))


class TestArgumentShapes:
    # Each once raised TypeError: "... is not iterable", or for the index
    # name "unhashable type: 'list'".
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: grid_edge_count(None, (2, 3), (1, 2)), r"kinds .* \(got NoneType\)"),
            (lambda: verify_forms(None, (2, 3), (1, 2)), r"forms .* \(got NoneType\)"),
            (lambda: fit_from_values(None, None), r"samples .* \(got NoneType\)"),
            (lambda: fit_from_values(DEFAULT_FIT_SAMPLES, 7), r"values .* \(got int\)"),
            (
                lambda: verify_published_forms((2, 3), (1, 2), NanotubeKind.ZIGZAG),
                r"kinds must be an iterable \(got NanotubeKind\)",
            ),
            (
                lambda: fit_closed_form(NanotubeKind.ZIGZAG, ["azi"], DEFAULT_FIT_SAMPLES),
                r"unknown index \['azi'\]",
            ),
            (
                lambda: fit_closed_form(NanotubeKind.ZIGZAG, "azi", None),
                r"samples must be an iterable \(got NoneType\)",
            ),
        ],
        ids=[
            "grid-kinds-none", "verify-forms-none", "fit-samples-none", "fit-values-int",
            "verify-one-kind", "fit-index-list", "fit-closed-form-samples-none",
        ],
    )
    def test_refused_with_value_error_before_any_build(self, monkeypatch, call, message):
        def no_build(spec):
            raise AssertionError("tube built for refused arguments")

        monkeypatch.setattr(polyhex.forms, "build_nanotube", no_build)
        with pytest.raises(ValueError, match=message):
            call()


class TestGridBudget:
    """Grid sizes are computed, never built: the refused grids allocate nothing."""

    @pytest.mark.parametrize(
        "m_range, n_range", [((2, 2), (1, 1)), ((2, 9), (1, 7)), ((5, 13), (4, 6))]
    )
    @pytest.mark.parametrize(
        "kinds", [[NanotubeKind.ARMCHAIR], [NanotubeKind.ZIGZAG], list(NanotubeKind) * 2]
    )
    def test_grid_edge_count_is_the_sum_over_tubes(self, kinds, m_range, n_range):
        expected = sum(
            tube_edge_count(NanotubeSpec(kind, m, n))
            for kind in set(kinds)
            for m in range(m_range[0], m_range[1] + 1)
            for n in range(n_range[0], n_range[1] + 1)
        )
        assert grid_edge_count(kinds, m_range, n_range) == expected

    @pytest.mark.parametrize(
        "m_range, n_range", [((2, 3.5), (1, 2)), ((2, 3), (1, 2.0)), ((2, 3), (False, 2))],
        ids=["float-m", "float-n", "bool-n"],
    )
    def test_grid_edge_count_rejects_non_int_bounds(self, m_range, n_range):
        with pytest.raises(InvalidSpecError, match="range must be a pair of ints"):
            grid_edge_count([NanotubeKind.ARMCHAIR], m_range, n_range)

    # A kind's name or None was once counted as a zigzag tube.
    @pytest.mark.parametrize(
        "kinds", [["armchair"], [None], [NanotubeKind.ARMCHAIR, "zigzag"]],
        ids=["name", "none", "kind-and-name"],
    )
    def test_grid_edge_count_rejects_non_kinds(self, kinds):
        with pytest.raises(InvalidSpecError, match="kind must be a NanotubeKind"):
            grid_edge_count(kinds, (2, 3), (1, 2))

    def test_grid_edge_count_is_constant_time(self):
        # a sum over these ranges would not finish; armchair tubes have
        # 3mn + 4m edges, zigzag tubes 3mn + 2m
        hi = 10**15
        m_sum, n_sum = (2 + hi) * (hi - 1) // 2, (1 + hi) * hi // 2
        expected = m_sum * (3 * n_sum + 4 * hi) + m_sum * (3 * n_sum + 2 * hi)
        assert grid_edge_count(list(NanotubeKind), (2, hi), (1, hi)) == expected

    def test_grid_edge_count_past_sys_maxsize(self):
        # ranges with more than sys.maxsize items have no len(); the count
        # must still come out, as an int, for the budget check to refuse
        hi = 10**19
        assert hi - 1 > sys.maxsize
        m_sum = (2 + hi) * (hi - 1) // 2
        assert grid_edge_count([NanotubeKind.ARMCHAIR], (2, hi), (1, 2)) == m_sum * (3 * 3 + 4 * 2)

    def test_grid_of_small_tubes_refused_before_any_build(self, monkeypatch):
        def no_build(spec):
            raise AssertionError("tube built for a refused grid")

        monkeypatch.setattr(polyhex.forms, "build_nanotube", no_build)
        m_range, n_range = (2, 400), (1, 400)
        largest = NanotubeSpec(NanotubeKind.ARMCHAIR, 400, 400)
        assert tube_edge_count(largest) <= MAX_BUILD_EDGES
        assert grid_edge_count(list(NanotubeKind), m_range, n_range) > MAX_VERIFY_EDGES
        with pytest.raises(GridTooLargeError, match="more than the 20000000"):
            verify_published_forms(m_range, n_range)
        form = published_forms()[0]
        with pytest.raises(GridTooLargeError):
            verify_forms([form], m_range, n_range)
        assert issubclass(GridTooLargeError, InvalidSpecError)

    def test_limit_is_inclusive(self, monkeypatch):
        kinds = [NanotubeKind.ZIGZAG]
        limit = grid_edge_count(kinds, (2, 3), (1, 2))
        monkeypatch.setattr(polyhex.forms, "MAX_VERIFY_EDGES", limit)
        assert len(verify_published_forms((2, 3), (1, 2), kinds).checks) == 3
        with pytest.raises(GridTooLargeError):
            verify_published_forms((2, 3), (1, 3), kinds)

    def test_long_fit_sample_list_refused_before_any_build(self, monkeypatch):
        def no_build(spec):
            raise AssertionError("tube built for a refused fit")

        monkeypatch.setattr(polyhex.forms, "build_nanotube", no_build)
        samples = [(1000, 1000 + i) for i in range(7)]
        edges = [tube_edge_count(NanotubeSpec(NanotubeKind.ARMCHAIR, m, n)) for m, n in samples]
        assert max(edges) <= MAX_BUILD_EDGES
        assert sum(edges) > MAX_VERIFY_EDGES
        with pytest.raises(GridTooLargeError, match="more than the 20000000 one fit may build"):
            fit_closed_form(NanotubeKind.ARMCHAIR, "azi", samples)

    def test_fit_limit_is_inclusive(self, monkeypatch):
        kind = NanotubeKind.ZIGZAG
        samples = [(2, 1), (2, 2), (3, 1)]
        limit = sum(tube_edge_count(NanotubeSpec(kind, m, n)) for m, n in samples)
        monkeypatch.setattr(polyhex.forms, "MAX_VERIFY_EDGES", limit)
        assert fit_closed_form(kind, "azi", samples).b == FITTED_B[kind]
        with pytest.raises(GridTooLargeError):
            fit_closed_form(kind, "azi", [*samples, (2, 3)])


class TestCrossKind:
    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_armchair_exceeds_zigzag_by_16m(self, m):
        for n in (1, 3, 6):
            gap = oracle_value(NanotubeKind.ARMCHAIR, m, n) - oracle_value(
                NanotubeKind.ZIGZAG, m, n
            )
            assert gap == 16 * m

    def test_fitted_forms_show_same_gap(self):
        arm = fit_closed_form(NanotubeKind.ARMCHAIR, "azi", DEFAULT_FIT_SAMPLES)
        zig = fit_closed_form(NanotubeKind.ZIGZAG, "azi", DEFAULT_FIT_SAMPLES)
        assert arm.a == zig.a
        assert arm.b - zig.b == 16


# Every class count replaced by a wrong one, in each degree class at every
# (m, n), and with them the sums of each kind's counts. Tubes are built and
# sized by the rule (tubes._RULES), so no size, graph or `build` byte moves.
WRONG_CLASS_COUNTS = {
    NanotubeKind.ARMCHAIR: {(2, 2): (0, 3), (2, 3): (0, 2), (3, 3): (3, 1)},
    NanotubeKind.ZIGZAG: {(2, 3): (0, 5), (3, 3): (3, -1)},
}


class TestOracleIndependence:
    """The oracle and every size read the building rule, never the class counts judged."""

    def outputs(self, capsys) -> tuple[dict, dict, dict, dict]:
        """Oracle values (walk, two-n and one-n), built graphs, `build` stdout and sizes.

        The sizes are the per-tube and grid counts and the MAX_BUILD_EDGES
        refusal of a tube just over it, raised before any edge is made.
        """
        values, graphs, printed, sizes = {}, {}, {}, {}
        for kind in NanotubeKind:
            for m in (2, 5):
                for ns in (range(1, 9), range(7, 9), range(4, 5)):
                    values[kind, m, ns] = polyhex.forms._oracle_values(kind, m, ns)
                for n in range(1, 9):
                    spec = NanotubeSpec(kind, m, n)
                    g = build_nanotube(spec)
                    graphs[kind, m, n] = (g.vertex_count, g.edges)
                    sizes[spec] = (tube_vertex_count(spec), tube_edge_count(spec))
            for fmt in ("json", "dot"):
                argv = ["build", "--kind", kind.value, "--m", "5", "--n", "4", "--format", fmt]
                assert polyhex.cli.main(argv) == 0
                printed[kind, fmt] = capsys.readouterr().out
            for grid in (((2, 9), (1, 8)), ((7, 30), (4, 11))):
                sizes[kind, grid] = grid_edge_count([kind], *grid)
        sizes["both"] = grid_edge_count(NanotubeKind, (2, 40), (1, 40))
        # 3mn + 4m and 3mn + 2m edges: 5,002,000 and 5,003,000
        for kind, n in ((NanotubeKind.ARMCHAIR, 1666), (NanotubeKind.ZIGZAG, 1667)):
            with pytest.raises(TubeTooLargeError) as refused:
                build_nanotube(NanotubeSpec(kind, 1000, n))
            sizes[kind, "refused"] = str(refused.value)
        return values, graphs, printed, sizes

    def test_wrong_class_counts_change_no_oracle_value_graph_or_build_byte(
        self, monkeypatch, capsys
    ):
        for kind, classes in polyhex.tubes._CLASS_COUNTS.items():
            wrong = WRONG_CLASS_COUNTS[kind]
            assert wrong.keys() == classes.keys()
            # each count is off by a nonzero multiple of m at every (m, n),
            # and so is their sum, so any size read off the counts would move
            for (w_mn, w_m), (c_mn, c_m) in zip(wrong.values(), classes.values()):
                assert w_mn == c_mn and w_m != c_m
            assert sum(w[1] for w in wrong.values()) != sum(c[1] for c in classes.values())
        before = self.outputs(capsys)
        monkeypatch.setattr(polyhex.tubes, "_CLASS_COUNTS", WRONG_CLASS_COUNTS)
        assert self.outputs(capsys) == before

    # Acceptance criterion 7 trusts tube_edge_partition only after checking
    # it against built graphs on a sampled sub-grid; that check must fail.
    def test_wrong_class_counts_fail_the_spot_validation(self, monkeypatch, capsys):
        monkeypatch.setattr(polyhex.tubes, "_CLASS_COUNTS", WRONG_CLASS_COUNTS)
        with pytest.raises(AssertionError, match=r"^assert \{"):
            test_acceptance.test_criterion_7_performance()
        assert capsys.readouterr().out.startswith("criterion 7: FAIL")


# Hostile arguments for the public callables of tubes and forms: test_indices'
# HOSTILE values, plus values of the right type, in and out of the domain.
# Sizes are -3..9 or 10**300 and above, so every tube that passes a check is
# small and every larger one is refused before it is built.
SIZES = st.one_of(st.integers(-3, 9), st.integers(10**300, 10**400))
H_KINDS = st.one_of(st.sampled_from(NanotubeKind), st.sampled_from(["zigzag", "ARMCHAIR"]), HOSTILE)
H_SPECS = st.one_of(
    st.builds(NanotubeSpec, st.sampled_from(NanotubeKind), st.integers(2, 9), st.integers(1, 9)),
    st.builds(NanotubeSpec, st.sampled_from(NanotubeKind),
              st.integers(10**300, 10**400), st.integers(10**300, 10**400)),
    st.tuples(H_KINDS, SIZES, SIZES), HOSTILE,
)
H_RANGES = st.one_of(st.tuples(SIZES, SIZES), st.tuples(SIZES, SIZES, SIZES),
                     st.lists(SIZES, max_size=2), HOSTILE)
H_KIND_LISTS = st.one_of(st.lists(H_KINDS, max_size=3), st.lists(H_KINDS, max_size=3).map(tuple),
                         H_KINDS)
H_INDEX_NAMES = st.one_of(st.sampled_from(["azi", "randic", "abc", "AZI"]), HOSTILE)
H_PROVENANCES = st.one_of(st.sampled_from(Provenance), HOSTILE)
FORMS = st.builds(ClosedForm, st.sampled_from(NanotubeKind), st.sampled_from(["azi", "randic"]),
                  st.fractions(), st.fractions(), st.sampled_from(Provenance))
H_FORMS = st.one_of(FORMS, HOSTILE)
H_SAMPLES = st.one_of(st.lists(st.one_of(st.tuples(SIZES, SIZES), HOSTILE), max_size=5), HOSTILE)
H_VALUES = st.one_of(st.lists(st.one_of(st.fractions(), HOSTILE), max_size=5), HOSTILE)

HOSTILE_CALLS = {
    "NanotubeKind.parse": (NanotubeKind.parse, st.tuples(H_KINDS)),
    "NanotubeSpec": (NanotubeSpec, st.tuples(H_KINDS, SIZES, SIZES)),
    "tube_vertex_count": (tube_vertex_count, st.tuples(H_SPECS)),
    "tube_edge_count": (tube_edge_count, st.tuples(H_SPECS)),
    "tube_edge_partition": (tube_edge_partition, st.tuples(H_SPECS)),
    "build_nanotube": (build_nanotube, st.tuples(H_SPECS)),
    "grid_edge_count": (grid_edge_count, st.tuples(H_KIND_LISTS, H_RANGES, H_RANGES)),
    "grid_tubes": (lambda *args: next(grid_tubes(*args)), st.tuples(H_KINDS, H_RANGES, H_RANGES)),
    "validate_ranges": (validate_ranges, st.tuples(H_RANGES, H_RANGES)),
    "fit_from_values": (fit_from_values, st.tuples(H_SAMPLES, H_VALUES)),
    "fit_closed_form": (fit_closed_form, st.tuples(H_KINDS, H_INDEX_NAMES, H_SAMPLES)),
    "verify_forms": (verify_forms, st.tuples(st.lists(H_FORMS, max_size=3), H_RANGES, H_RANGES)),
    "verify_published_forms": (
        verify_published_forms, st.tuples(H_RANGES, H_RANGES, st.one_of(st.none(), H_KIND_LISTS))
    ),
    "ClosedForm": (ClosedForm, st.tuples(H_KINDS, H_INDEX_NAMES, st.one_of(st.fractions(), HOSTILE),
                                         st.one_of(st.fractions(), HOSTILE), H_PROVENANCES)),
    "ClosedForm.evaluate": (ClosedForm.evaluate, st.tuples(FORMS, HOSTILE, HOSTILE)),
}
# traced bytes a call may peak at: the largest call that passes every check,
# verify_published_forms on 2:9 x 1:9 for both kinds, peaks near 110 KB
FORMS_PEAK_BOUND = 256 * 1024


class TestHostileInput:
    # Each call returns or raises a ValueError subclass; any other exception
    # fails the test, and so does a traced peak past FORMS_PEAK_BOUND.
    @pytest.mark.parametrize("name", sorted(HOSTILE_CALLS))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_returns_or_raises_value_error(self, name, data):
        call, arguments = HOSTILE_CALLS[name]
        args = data.draw(arguments)
        assert traced_peak(lambda: call(*args)) < FORMS_PEAK_BOUND

    # With no form, or no kind, the edge budget is 0 however large the grid,
    # so no point of it may be made: once verify_forms listed every point
    # before reading a form, and these asked for 10**600 of them.
    def test_no_form_over_a_huge_grid_is_an_empty_report(self):
        huge = ((2, 10**300), (1, 10**300))
        for call in (lambda: verify_forms([], *huge), lambda: verify_published_forms(*huge, [])):
            assert traced_peak(call) < FORMS_PEAK_BOUND
            assert call().checks == ()
