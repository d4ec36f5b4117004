"""Edge functions and index evaluation: exact values, references, invariants."""

from __future__ import annotations

import copy
import decimal
import math
import pickle
import tracemalloc
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyhex import (
    ABC,
    AZI,
    EDGE_FUNCTIONS,
    RANDIC,
    EdgePartition,
    Graph,
    GraphError,
    NanotubeKind,
    NanotubeSpec,
    UndefinedTermError,
    abc,
    abc_term,
    azi,
    azi_term,
    build_nanotube,
    edge_partition,
    index_from_partition,
    randic,
    randic_term,
    tube_edge_partition,
)
from polyhex.indices import EdgeFunction

import oracles


class Ratio:
    """Has a numerator and a denominator, but is neither an int nor a Fraction."""

    def __init__(self, numerator, denominator):
        self.numerator, self.denominator = numerator, denominator

    def __repr__(self):
        return f"Ratio({self.numerator}, {self.denominator})"


degree_pairs = st.tuples(st.integers(1, 9), st.integers(1, 9))
partitions = st.dictionaries(
    st.tuples(st.integers(1, 8), st.integers(1, 8))
    .map(lambda p: (min(p), max(p)))
    .filter(lambda p: p != (1, 1)),
    st.integers(0, 10**6),
).map(EdgePartition)


def _azi_pairs_by_denominator() -> dict[int, list[tuple[int, int]]]:
    """Degree pairs up to 9 by the denominator of their AZI term, for 1, 8, 64 and 125.

    Such as (2, 2) -> 8, (1, 3) -> 27/8, (3, 3) -> 729/64 and (3, 4) -> 1728/125.
    """
    pairs: dict[int, list[tuple[int, int]]] = {1: [], 8: [], 64: [], 125: []}
    for a in range(1, 10):
        for b in range(max(a, 2), 10):
            if (den := (Fraction(a * b, a + b - 2) ** 3).denominator) in pairs:
                pairs[den].append((a, b))
    return pairs


AZI_PAIRS_BY_DENOMINATOR = _azi_pairs_by_denominator()


class TestTerms:
    def test_azi_term_values(self):
        assert azi_term(2, 2) == Fraction(8)
        assert azi_term(2, 3) == Fraction(8)
        assert azi_term(3, 3) == Fraction(729, 64)
        assert azi_term(1, 2) == Fraction(8)

    def test_azi_term_undefined_at_two_pendants(self):
        with pytest.raises(UndefinedTermError):
            azi_term(1, 1)
        assert issubclass(UndefinedTermError, ValueError)

    def test_nonpositive_degree_rejected(self):
        for term in (azi_term, randic_term, abc_term):
            with pytest.raises(ValueError):
                term(0, 2)
            with pytest.raises(ValueError):
                term(3, -1)

    def test_failures_raised_on_every_call(self):
        for _ in range(3):
            with pytest.raises(UndefinedTermError):
                azi_term(1, 1)
            with pytest.raises(ValueError):
                abc_term(0, 3)

    def test_float_degrees_not_answered_from_int_entries(self):
        assert azi_term(2, 3) == 8
        with pytest.raises(ValueError):
            azi_term(2.0, 3.0)

    # abc and randic once answered a float degree; azi answered True as 1 and
    # failed on a float with a bare TypeError.
    @pytest.mark.parametrize(
        "term, d_u, d_v",
        [(abc_term, 2.5, 3), (randic_term, 2.0, 3), (azi_term, True, 3), (azi_term, 2.0, 3)],
        ids=["abc-float", "randic-float", "azi-bool", "azi-float"],
    )
    def test_non_int_degree_rejected(self, term, d_u, d_v):
        term(1, 3)  # an int entry in the cache, which must not answer
        with pytest.raises(ValueError, match="must be ints"):
            term(d_u, d_v)

    # A known gap: each term's lru_cache hashes its arguments before
    # _check_degrees runs, so an unhashable degree raises TypeError. A check
    # in front of the cache would slow every cached call in a sweep. Removing
    # the caches mends it, and waits on AZI.term staying azi_term itself
    # (the benchmark's tracer pins that identity), so AZI's uncached int-pair
    # term cannot replace it yet; this test then passes and must lose its mark.
    @pytest.mark.xfail(strict=True, raises=TypeError,
                       reason="the term cache hashes degrees before they are checked")
    @pytest.mark.parametrize(
        "term, d_u, d_v",
        [(azi_term, [2], 3), (randic_term, [1], 2), (abc_term, 2, {3})],
        ids=["azi-list", "randic-list", "abc-set"],
    )
    def test_unhashable_degree_rejected(self, term, d_u, d_v):
        with pytest.raises(ValueError, match="must be ints"):
            term(d_u, d_v)

    def test_randic_term_values(self):
        assert randic_term(2, 2) == 0.5
        assert randic_term(1, 1) == 1.0
        assert randic_term(2, 3) == pytest.approx(1 / math.sqrt(6), rel=1e-15)

    def test_abc_term_values(self):
        assert abc_term(1, 2) == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert abc_term(3, 3) == pytest.approx(2 / 3, rel=1e-15)
        assert abc_term(1, 1) == 0.0

    # abc_term(10**400, 10**400) once returned 0.0: the quotient underflowed
    # before the root was taken. Past about 10**616 each the term itself is
    # below the normal floats, so the draws stop at 10**600.
    @given(st.integers(10**154, 10**600), st.integers(10**154, 10**600))
    @example(10**400, 10**400)
    @example(10**154, 10**154)
    @example(10**600, 10**600)
    @settings(max_examples=60, deadline=None)
    def test_abc_term_of_huge_degrees_matches_decimal_reference(self, d_u, d_v):
        with decimal.localcontext(oracles.REFERENCE_CONTEXT):
            reference = (decimal.Decimal(d_u + d_v - 2) / (d_u * d_v)).sqrt()
        assert oracles.rel_close(abc_term(d_u, d_v), reference)

    @given(degree_pairs)
    @settings(max_examples=60, deadline=None)
    def test_terms_symmetric(self, pair):
        d_u, d_v = pair
        assert randic_term(d_u, d_v) == randic_term(d_v, d_u)
        assert abc_term(d_u, d_v) == abc_term(d_v, d_u)
        if (d_u, d_v) != (1, 1):
            assert azi_term(d_u, d_v) == azi_term(d_v, d_u)

    def test_registry(self):
        assert set(EDGE_FUNCTIONS) == {"azi", "randic", "abc"}
        assert EDGE_FUNCTIONS["azi"] is AZI
        assert AZI.exact and not RANDIC.exact and not ABC.exact


class TestExactRationals:
    fractions = st.fractions(
        min_value=-1000, max_value=1000, max_denominator=10**6
    )

    @given(fractions, fractions, fractions)
    @settings(max_examples=80, deadline=None)
    def test_field_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)

    @given(fractions)
    @settings(max_examples=80, deadline=None)
    def test_canonical_form(self, a):
        assert a.denominator > 0
        assert math.gcd(a.numerator, a.denominator) == 1

    @given(degree_pairs)
    @settings(max_examples=60, deadline=None)
    def test_azi_term_reduced(self, pair):
        d_u, d_v = pair
        if (d_u, d_v) == (1, 1):
            return
        value = azi_term(d_u, d_v)
        assert value > 0
        assert math.gcd(value.numerator, value.denominator) == 1


class TestGraphIndices:
    def test_empty_graph(self):
        g = Graph(0, [])
        assert azi(g).exact == 0
        assert randic(g).approx == 0.0
        assert abc(g).approx == 0.0

    def test_hexagon(self):
        g = oracles.cycle_graph(6)
        assert azi(g).exact == Fraction(48)
        assert randic(g).approx == pytest.approx(3.0, rel=1e-15)
        assert abc(g).approx == pytest.approx(6 / math.sqrt(2), rel=1e-15)

    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(UndefinedTermError, match=r"\(1, 1\)"):
            azi(g)
        assert randic(g).approx == 1.0
        assert abc(g).approx == 0.0

    def test_azi_value_object(self):
        value = azi(oracles.cycle_graph(4))
        assert value.exact == Fraction(32)
        assert value.approx == 32.0
        assert float(value.exact) == value.approx

    @pytest.mark.parametrize(
        "kind,m,n,expected",
        [
            (NanotubeKind.ARMCHAIR, 2, 1, Fraction(3801, 32)),
            (NanotubeKind.ARMCHAIR, 5, 9, Fraction(106485, 64)),
            (NanotubeKind.ZIGZAG, 2, 1, Fraction(2777, 32)),
            (NanotubeKind.ZIGZAG, 7, 5, Fraction(80675, 64)),
        ],
    )
    def test_azi_tube_values(self, kind, m, n, expected):
        g = build_nanotube(NanotubeSpec(kind, m, n))
        assert azi(g).exact == expected

    def test_randic_tube_values(self):
        g = build_nanotube(NanotubeSpec(NanotubeKind.ARMCHAIR, 2, 1))
        assert oracles.rel_close(randic(g).approx, "5.932652990377571")
        g = build_nanotube(NanotubeSpec(NanotubeKind.ARMCHAIR, 5, 9))
        assert oracles.rel_close(randic(g).approx, "54.831632475943927")

    def test_abc_tube_value(self):
        g = build_nanotube(NanotubeSpec(NanotubeKind.ARMCHAIR, 5, 9))
        assert oracles.rel_close(abc(g).approx, "104.54653676892976")

    @given(st.sampled_from([(k, m, n) for k in NanotubeKind
                            for m in (2, 3, 5) for n in (1, 2, 4)]))
    @settings(max_examples=18, deadline=None)
    def test_against_references(self, key):
        kind, m, n = key
        g = build_nanotube(NanotubeSpec(kind, m, n))
        edges = list(g.edges)
        assert azi(g).exact == oracles.azi_reference(g.vertex_count, edges)
        assert oracles.rel_close(
            randic(g).approx, oracles.randic_reference(g.vertex_count, edges)
        )
        assert oracles.rel_close(
            abc(g).approx, oracles.abc_reference(g.vertex_count, edges)
        )


class TestPartitionEvaluation:
    def test_empty_partition(self):
        empty = EdgePartition({})
        assert index_from_partition(empty, AZI).exact == 0
        assert index_from_partition(empty, RANDIC).approx == 0.0

    def test_known_armchair_partition(self):
        part = EdgePartition({(2, 2): 10, (2, 3): 20, (3, 3): 125})
        assert index_from_partition(part, AZI).exact == Fraction(106485, 64)

    def test_known_zigzag_partition(self):
        part = EdgePartition({(2, 3): 28, (3, 3): 91})
        assert index_from_partition(part, AZI).exact == Fraction(80675, 64)

    # Each once failed with AttributeError.
    def test_wrong_argument_types_rejected(self):
        part = EdgePartition({(2, 2): 10, (2, 3): 20, (3, 3): 125})
        with pytest.raises(ValueError, match="must be AZI, RANDIC or ABC"):
            index_from_partition(part, "azi")
        with pytest.raises(ValueError, match="must be an EdgePartition"):
            index_from_partition(build_nanotube(NanotubeSpec(NanotubeKind.ARMCHAIR, 5, 9)), AZI)
        for index in (azi, randic, abc):
            with pytest.raises(GraphError, match="can only partition a Graph"):
                index(part)

    # Only the three registry objects are summed: an EdgeFunction built
    # outside polyhex.indices, malformed, with any term, or with the very
    # fields of AZI, is refused.
    @pytest.mark.parametrize(
        "lookalike",
        [
            EdgeFunction(b"azi", azi_term, True),
            EdgeFunction("azi", "notcallable", True),
            EdgeFunction("azi", azi_term, 1),
            EdgeFunction("azi", azi_term, None),
            EdgeFunction("x", randic_term, True),
            EdgeFunction("x", max, True),
            EdgeFunction("x", lambda a, b: True, True),
            EdgeFunction("x", lambda a, b: Ratio(1.5, 2), True),
            EdgeFunction("x", lambda a, b: Ratio(1, 0), True),
            EdgeFunction("x", lambda a, b: type("Half", (Fraction,), {})(1, 2), True),
            EdgeFunction("x", lambda a, b: "no", False),
            EdgeFunction("x", lambda a, b: None, False),
            EdgeFunction("x", lambda a, b: [1], False),
            EdgeFunction("x", lambda a, b: 1j, False),
            EdgeFunction("azi", azi_term, True),
            EdgeFunction("randic", randic_term, False),
            EdgeFunction("abc", abc_term, False),
        ],
        ids=["bytes-name", "str-term", "int-exact", "none-exact", "float-exact-term",
             "int-exact-term", "bool-exact-term", "float-numerator", "zero-denominator",
             "fraction-subclass-term", "str-term-value", "none-term-value", "list-term-value",
             "complex-term-value", "azi-twin", "randic-twin", "abc-twin"],
    )
    def test_lookalike_edge_function_refused(self, lookalike):
        part = EdgePartition({(2, 2): 10, (2, 3): 20})
        refusal = r"f must be AZI, RANDIC or ABC \(got EdgeFunction\("
        with pytest.raises(ValueError, match=refusal) as excinfo:
            index_from_partition(part, lookalike)
        assert "0x" not in str(excinfo.value)  # the same message in every run

    # The term prints by name, not by the address of its cache wrapper.
    def test_repr_is_the_same_in_every_run(self):
        assert repr(AZI) == "EdgeFunction(name='azi', term=azi_term, exact=True)"

    # copy, deepcopy and pickle give back the registry object itself, which
    # index_from_partition accepts.
    @pytest.mark.parametrize("f", [AZI, RANDIC, ABC], ids=lambda f: f.name)
    def test_copies_and_pickles_are_the_registry_object(self, f):
        part = EdgePartition({(2, 2): 10, (2, 3): 20, (3, 3): 125})
        twins = [copy.copy(f), copy.deepcopy(f), copy.deepcopy(EDGE_FUNCTIONS)[f.name],
                 pickle.loads(pickle.dumps(f, 0)), pickle.loads(pickle.dumps(f))]
        for twin in twins:
            assert twin is f
            assert index_from_partition(part, twin) == index_from_partition(part, f)

    # Each once raised OverflowError from the float approximation, which
    # reached the command line as a traceback.
    @pytest.mark.parametrize("f", [AZI, RANDIC, ABC], ids=lambda f: f.name)
    @pytest.mark.parametrize("kind", list(NanotubeKind), ids=lambda k: k.value)
    def test_value_past_floats_refused_by_name(self, kind, f):
        part = tube_edge_partition(NanotubeSpec(kind, 10**200, 10**200))
        with pytest.raises(ValueError, match=f"the {f.name} index is too large for a float"):
            index_from_partition(part, f)

    # Values just inside the float range keep their float.
    def test_values_near_the_float_limit_are_kept(self):
        assert index_from_partition(EdgePartition({(2, 2): 10**307}), AZI).approx == 8e307
        assert index_from_partition(EdgePartition({(2, 2): 10**308}), RANDIC).approx == 5e307
        assert index_from_partition(EdgePartition({(1, 2): 10**308}), ABC).approx == pytest.approx(
            math.sqrt(0.5) * 1e308, rel=1e-15
        )

    def test_randic_term_past_floats_refused(self):
        with pytest.raises(ValueError, match=r"randic term needs d_u\*d_v as a float"):
            randic_term(10**400, 1)
        assert randic_term(10**150, 10**150) == 1e-150

    def test_undefined_class_named(self):
        part = EdgePartition({(1, 1): 3})
        with pytest.raises(UndefinedTermError, match=r"\(1, 1\)"):
            index_from_partition(part, AZI)

    @given(partitions)
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_naive_class_sums(self, part):
        classes = list(part.classes.items())
        exact = index_from_partition(part, AZI).exact
        assert type(exact) is Fraction
        assert exact == sum(
            (count * Fraction(a * b, a + b - 2) ** 3 for (a, b), count in classes), Fraction(0)
        )
        assert index_from_partition(part, RANDIC).approx == math.fsum(
            count * (1.0 / math.sqrt(a * b)) for (a, b), count in classes
        )
        assert index_from_partition(part, ABC).approx == math.fsum(
            count * math.sqrt((a + b - 2) / (a * b)) for (a, b), count in classes
        )

    # The exact sum takes a new lcm only when the running denominator is not
    # already a multiple of the term's. AZI terms that mix ints and Fractions
    # with nested and coprime denominators (1, 8, 64 and 125), met in every
    # order, take both branches: each order is the sorted order of one degree
    # pair per denominator.
    @given(st.lists(st.integers(1, 10**6), min_size=4, max_size=4))
    @example([3, 5, 7, 1])
    @settings(max_examples=25, deadline=None)
    def test_mixed_exact_terms_sum_like_fractions(self, counts):
        for order in permutations(AZI_PAIRS_BY_DENOMINATOR):
            pairs, last = [], (0, 0)
            for den in order:
                last = min(pair for pair in AZI_PAIRS_BY_DENOMINATOR[den] if pair > last)
                pairs.append(last)
            part = EdgePartition(dict(zip(pairs, counts)))
            assert [azi_term(*pair).denominator for pair in part.classes] == list(order)
            result = index_from_partition(part, AZI)
            expected = sum((count * Fraction(a * b, a + b - 2) ** 3
                            for (a, b), count in zip(pairs, counts)), Fraction(0))
            assert type(result.exact) is Fraction
            assert result.exact == expected
            assert result.approx == float(expected)

    @given(st.sampled_from([(k, m, n) for k in NanotubeKind
                            for m in (2, 4, 6) for n in (1, 3, 5)]))
    @settings(max_examples=18, deadline=None)
    def test_agrees_with_edgewise(self, key):
        kind, m, n = key
        g = build_nanotube(NanotubeSpec(kind, m, n))
        part = edge_partition(g)
        assert index_from_partition(part, AZI).exact == azi(g).exact
        assert index_from_partition(part, RANDIC).approx == pytest.approx(
            randic(g).approx, rel=1e-12
        )
        assert index_from_partition(part, ABC).approx == pytest.approx(
            abc(g).approx, rel=1e-12
        )


class TestInvariance:
    @given(st.permutations(range(8)))
    @settings(max_examples=40, deadline=None)
    def test_relabel_invariance(self, perm):
        g = build_nanotube(NanotubeSpec(NanotubeKind.ZIGZAG, 2, 1))
        relabeled = Graph(
            g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges]
        )
        assert azi(relabeled).exact == azi(g).exact
        assert randic(relabeled).approx == pytest.approx(randic(g).approx, rel=1e-12)
        assert abc(relabeled).approx == pytest.approx(abc(g).approx, rel=1e-12)

    def test_additive_over_disjoint_union(self):
        a = oracles.cycle_graph(6)
        b = build_nanotube(NanotubeSpec(NanotubeKind.ZIGZAG, 3, 2))
        both = oracles.disjoint_union(a, b)
        assert azi(both).exact == azi(a).exact + azi(b).exact
        assert randic(both).approx == pytest.approx(
            randic(a).approx + randic(b).approx, rel=1e-12
        )
        assert abc(both).approx == pytest.approx(
            abc(a).approx + abc(b).approx, rel=1e-12
        )


class TestTubeDenominators:
    @given(st.sampled_from([(k, m, n) for k in NanotubeKind
                            for m in (2, 5, 9) for n in (1, 4, 7)]))
    @settings(max_examples=18, deadline=None)
    def test_azi_denominator_divides_64(self, key):
        kind, m, n = key
        value = azi(build_nanotube(NanotubeSpec(kind, m, n))).exact
        assert 64 % value.denominator == 0


# Hostile arguments: wrong types, bools, ints of 10**300 and above, zero and
# negative values, and generators. Unhashable degrees are left out: they are
# the strict xfails of TestTerms.
HOSTILE = st.one_of(
    st.integers(-3, 9), st.booleans(), st.integers(10**300, 10**400), st.floats(),
    st.fractions(), st.text(max_size=3), st.none(), st.builds(lambda: (d for d in (2, 3))),
)
HOSTILE_DEGREES = st.one_of(st.integers(1, 9), st.integers(10**300, 10**400))
HOSTILE_PARTITIONS = st.one_of(
    HOSTILE,
    st.dictionaries(
        st.tuples(HOSTILE_DEGREES, HOSTILE_DEGREES).map(sorted).map(tuple),
        st.one_of(st.integers(0, 10**6), st.integers(10**300, 10**400)),
        max_size=4,
    ).map(EdgePartition),
)
# EdgeFunctions built outside the registry, and the three registry objects
LOOKALIKES = st.builds(
    EdgeFunction,
    st.one_of(st.sampled_from(sorted(EDGE_FUNCTIONS)), HOSTILE),
    st.one_of(st.sampled_from([azi_term, randic_term, abc_term]), HOSTILE),
    st.one_of(st.booleans(), HOSTILE),
)
HOSTILE_FUNCTIONS = st.one_of(
    HOSTILE, LOOKALIKES, st.sampled_from([AZI, RANDIC, ABC, "azi", EDGE_FUNCTIONS]),
)
# traced bytes a call may peak at; a few KB hold every drawn value and sum
PEAK_BOUND = 64 * 1024


def traced_peak(call) -> int:
    """Traced peak of call() above what was allocated before; it returns or raises ValueError."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        try:
            call()
        except ValueError:
            pass
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


class TestHostileInput:
    # Each call returns or raises a ValueError subclass; any other exception
    # fails the test, and so does a traced peak past PEAK_BOUND.
    @given(HOSTILE_PARTITIONS, HOSTILE_FUNCTIONS)
    @example(EdgePartition({(2, 2): 10**6}), EdgeFunction("x", lambda a, b: "no", False))
    @example(EdgePartition({(2, 2): 10**400}), RANDIC)
    @example(EdgePartition({(1, 1): 3}), AZI)
    @settings(max_examples=200, deadline=None)
    def test_index_from_partition(self, partition, f):
        assert traced_peak(lambda: index_from_partition(partition, f)) < PEAK_BOUND

    @given(st.sampled_from([azi_term, randic_term, abc_term]),
           st.one_of(HOSTILE, HOSTILE_DEGREES), st.one_of(HOSTILE, HOSTILE_DEGREES))
    @example(randic_term, 10**400, 1)
    @example(abc_term, 10**400, 10**400)
    @settings(max_examples=200, deadline=None)
    def test_terms(self, term, d_u, d_v):
        assert traced_peak(lambda: term(d_u, d_v)) < PEAK_BOUND
