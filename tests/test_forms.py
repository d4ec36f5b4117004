"""Closed forms a*m*n + b*m: published variants, exact fitting, verification."""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyhex.forms
from polyhex import (
    DEFAULT_FIT_SAMPLES,
    MAX_BUILD_EDGES,
    MAX_VERIFY_EDGES,
    ClosedForm,
    GridTooLargeError,
    InconsistentSamplesError,
    InvalidSpecError,
    NanotubeKind,
    NanotubeSpec,
    Provenance,
    SingularSystemError,
    azi,
    build_nanotube,
    fit_closed_form,
    fit_from_values,
    grid_edge_count,
    published_forms,
    tube_edge_count,
    verify_forms,
    verify_published_forms,
)

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

    @given(
        a=st.fractions(min_value=-50, max_value=50, max_denominator=64),
        b=st.fractions(min_value=-50, max_value=50, max_denominator=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_fit_from_values_round_trips(self, a, b):
        samples = ((2, 1), (3, 2), (4, 5), (7, 3))
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

    def test_each_tube_built_once_per_call(self, monkeypatch):
        built = []

        def counting_build(spec):
            built.append(spec)
            return build_nanotube(spec)

        monkeypatch.setattr(polyhex.forms, "build_nanotube", counting_build)
        verify_published_forms((2, 9), (1, 8))
        # the fit samples lie on the grid, so its 2 * 8 * 8 tubes are all there are
        assert len(built) == len(set(built)) == 128

    def test_checks_for_filters_by_provenance(self):
        report = verify_published_forms((2, 2), (1, 2))
        stated = report.checks_for(Provenance.STATED)
        assert len(stated) == 2
        assert all(c.form.provenance is Provenance.STATED for c in stated)

    def test_kind_filter(self):
        report = verify_published_forms(
            (2, 2), (1, 2), kinds=[NanotubeKind.ZIGZAG]
        )
        assert {c.form.kind for c in report.checks} == {NanotubeKind.ZIGZAG}

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
