"""The value classes: immutable, compared and hashed by field, printed like dataclasses."""

from __future__ import annotations

import copy
import math
import pickle
from fractions import Fraction

import pytest

from polyhex import (
    AZI,
    RANDIC,
    ClosedForm,
    DiscrepancyReport,
    EdgePartition,
    FormCheck,
    IndexValue,
    NanotubeKind,
    NanotubeSpec,
    PointCheck,
    Provenance,
    azi_term,
    grid_tubes,
    index_from_partition,
    published_forms,
    tube_edge_partition,
    verify_forms,
)
from polyhex.indices import EdgeFunction

Q = Fraction(3, 4)
FORM_ARGS = (NanotubeKind.ARMCHAIR, "azi", Fraction(2187, 64), -4, Provenance.STATED)
FORM_REPR = (
    "ClosedForm(kind=<NanotubeKind.ARMCHAIR: 'armchair'>, index_name='azi', "
    "a=Fraction(2187, 64), b=Fraction(-4, 1), provenance=<Provenance.STATED: 'stated'>)"
)
POINT_ARGS = (2, 1, Q, Fraction(1), Fraction(-1, 4))
POINT_REPR = (
    "PointCheck(m=2, n=1, claimed=Fraction(3, 4), oracle=Fraction(1, 1), "
    "difference=Fraction(-1, 4))"
)

# Per class: positional arguments, and the repr of the object they make.
CASES = {
    NanotubeSpec: (
        (NanotubeKind.ZIGZAG, 3, 4),
        "NanotubeSpec(kind=<NanotubeKind.ZIGZAG: 'zigzag'>, m=3, n=4)",
    ),
    EdgePartition: (
        ({(3, 3): 7, (2, 3): 4},),
        "EdgePartition(classes=mappingproxy({(2, 3): 4, (3, 3): 7}))",
    ),
    IndexValue: ((Q, 0.75), "IndexValue(exact=Fraction(3, 4), approx=0.75)"),
    EdgeFunction: (
        ("azi", azi_term, True),
        "EdgeFunction(name='azi', term=azi_term, exact=True)",
    ),
    ClosedForm: (FORM_ARGS, FORM_REPR),
    PointCheck: (POINT_ARGS, POINT_REPR),
    FormCheck: (
        (ClosedForm(*FORM_ARGS), (PointCheck(*POINT_ARGS),)),
        f"FormCheck(form={FORM_REPR}, points=({POINT_REPR},))",
    ),
    DiscrepancyReport: (
        ((2, 3), (1, 2), ()),
        "DiscrepancyReport(m_range=(2, 3), n_range=(1, 2), checks=())",
    ),
}
CLASSES = pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)


def make(cls):
    return cls(*CASES[cls][0])


@CLASSES
def test_fields_cannot_be_assigned_or_deleted(cls):
    value = make(cls)
    for name in (*cls.__match_args__, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert make(cls) == value


@CLASSES
def test_equal_fields_make_equal_objects(cls):
    a, b = make(cls), make(cls)
    assert a == b and a is not b
    assert not a != b
    assert a != CASES[cls][0]  # the field tuple is not the object
    if cls is EdgePartition:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_unequal_fields_make_unequal_objects():
    spec = NanotubeSpec(NanotubeKind.ZIGZAG, 3, 4)
    assert spec != NanotubeSpec(NanotubeKind.ZIGZAG, 3, 5)
    assert spec != NanotubeSpec(NanotubeKind.ARMCHAIR, 3, 4)
    assert IndexValue(Q, 0.75) != IndexValue(None, 0.75)


@CLASSES
def test_keyword_construction(cls):
    args = CASES[cls][0]
    assert cls(**dict(zip(cls.__match_args__, args))) == make(cls)


@CLASSES
def test_repr(cls):
    assert repr(make(cls)) == CASES[cls][1]


@CLASSES
def test_copies_equal_the_original(cls):
    # an EdgeFunction copies and pickles as the registry object of its name
    value = AZI if cls is EdgeFunction else make(cls)
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


@CLASSES
def test_only_edge_function_has_an_instance_dict(cls):
    # benchmarks/tracing.py rebinds EdgeFunction.term through the instance __dict__
    assert hasattr(make(cls), "__dict__") is (cls is EdgeFunction)


# Exact fields are held as integer pairs, so they take an int or a Fraction
# only, and read an int back as the equal Fraction.
@pytest.mark.parametrize("cls, args", [
    (IndexValue, (0.75, 0.75)),
    (IndexValue, (True, 1.0)),
    (IndexValue, ("3/4", 0.75)),
    (PointCheck, (2, 1, 0.75, Q, Fraction(0))),
    (PointCheck, (2, 1, Q, None, Fraction(0))),
    (PointCheck, (2, 1, Q, Q, False)),
], ids=["IndexValue float", "IndexValue bool", "IndexValue str",
        "PointCheck float", "PointCheck None", "PointCheck bool"])
def test_exact_fields_refuse_what_is_not_an_int_or_fraction(cls, args):
    with pytest.raises(ValueError, match="must be an int or a Fraction"):
        cls(*args)


# Every other field is checked too, so a bad value is refused when it is
# made, not when a later read trips over it.
FORM = ClosedForm(*FORM_ARGS)
POINT = PointCheck(*POINT_ARGS)


@pytest.mark.parametrize("cls, args, message", [
    (IndexValue, (None, "no"), "approx must be a float"),
    (IndexValue, (Q, 1), "approx must be a float"),
    (PointCheck, ("x", None, 1, 1, 0), "m and n must be ints"),
    (PointCheck, (2, True, 1, 1, 0), "m and n must be ints"),
    (FormCheck, (None, (POINT,)), "form must be a ClosedForm"),
    (FormCheck, (FORM, 5), r"points must be a tuple of PointChecks \(got int\)"),
    (FormCheck, (FORM, [POINT]), r"points must be a tuple of PointChecks \(got list\)"),
    (FormCheck, (FORM, (POINT, None)), r"points must be a tuple of PointChecks \(got NoneType\)"),
    (DiscrepancyReport, ((3, 2), (1, 2), ()), "empty range 3:2 for m"),
    (DiscrepancyReport, ((2, 3), (0, 2), ()), "n must be >= 1"),
    (DiscrepancyReport, ((2, 3), (1, 2), 7), r"checks must be a tuple of FormChecks \(got int\)"),
    (DiscrepancyReport, ((2, 3), (1, 2), (FormCheck(FORM, ()), POINT)),
     r"checks must be a tuple of FormChecks \(got PointCheck\)"),
], ids=["IndexValue str approx", "IndexValue int approx", "PointCheck str m",
        "PointCheck bool n", "FormCheck None form", "FormCheck int points",
        "FormCheck list points", "FormCheck None point", "DiscrepancyReport empty m range",
        "DiscrepancyReport n below 1", "DiscrepancyReport int checks",
        "DiscrepancyReport point as check"])
def test_other_fields_refuse_what_they_do_not_hold(cls, args, message):
    with pytest.raises(ValueError, match=message):
        cls(*args)


def test_int_exact_fields_read_back_as_fractions():
    assert IndexValue(3, 3.0) == IndexValue(Fraction(3), 3.0)
    assert type(IndexValue(3, 3.0).exact) is Fraction
    point = PointCheck(2, 1, 3, -1, 4)
    assert (point.claimed, point.oracle, point.difference) == (3, -1, 4)
    assert {type(q) for q in (point.claimed, point.oracle, point.difference)} == {Fraction}
    assert repr(point) == repr(PointCheck(2, 1, Fraction(3), Fraction(-1), Fraction(4)))


def test_unchecked_partition_equals_checked():
    classes = {(2, 2): 4, (2, 3): 8, (3, 3): 13}
    assert EdgePartition._unchecked(classes) == EdgePartition(classes)


# The count functions make their partitions without EdgePartition's checks.
def test_count_partitions_copy_and_pickle():
    spec = NanotubeSpec(NanotubeKind.ARMCHAIR, 5, 9)
    row = next(grid_tubes(NanotubeKind.ZIGZAG, (3, 3), (4, 4)))
    for value in (tube_edge_partition(spec), row):
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


def lean_and_public():
    """Values made through slot descriptors, each with its public-constructor twin."""
    partition = next(grid_tubes(NanotubeKind.ARMCHAIR, (5, 5), (9, 9)))[4]
    yield pytest.param(partition, EdgePartition(dict(partition.classes)), id="grid_tubes row")
    for f in (AZI, RANDIC):
        value = index_from_partition(partition, f)
        yield pytest.param(value, IndexValue(value.exact, value.approx), id=f.name)
    # AZI sums over 64 that reduce: 8 * 27/8 + 64 * 729/64 = 756, and 0 with no edges
    for name, classes in (("reduced", {(1, 3): 8, (3, 3): 64}), ("zero", {})):
        value = index_from_partition(EdgePartition(classes), AZI)
        yield pytest.param(value, IndexValue(value.exact, value.approx), id=f"exact {name}")
    # verify points of each kind, for a form that matches the oracle and one that does not;
    # n = 1 and 2 are read off the last tube's window, n = 3 off the last tube
    fitted = {NanotubeKind.ARMCHAIR: Fraction(807, 32), NanotubeKind.ZIGZAG: Fraction(295, 32)}
    forms = [form for form in published_forms() if form.provenance is Provenance.STATED]
    forms += [ClosedForm(kind, "azi", Fraction(2187, 64), b, Provenance.FITTED)
              for kind, b in fitted.items()]
    for check in verify_forms(forms, (2, 2), (1, 3)).checks:
        assert check.consistent is (check.form.provenance is Provenance.FITTED)
        for p in check.points:
            yield pytest.param(
                p, PointCheck(p.m, p.n, p.claimed, p.oracle, p.difference),
                id=f"{check.form.kind.value} {check.form.provenance.value} ({p.m}, {p.n})",
            )


# index_from_partition, verify_forms and the count rows skip __init__; what
# they make must not be told apart from what the constructors make, and
# holds its exact values as the constructors do.
@pytest.mark.parametrize("lean, public", lean_and_public())
def test_lean_values_behave_like_constructed_ones(lean, public):
    assert type(lean) is type(public)
    assert lean == public and public == lean and not lean != public
    assert repr(lean) == repr(public)
    if type(lean) is EdgePartition:
        for value in (lean, public):
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)
    else:
        assert hash(lean) == hash(public)
    for twin in (copy.copy(lean), copy.deepcopy(lean), pickle.loads(pickle.dumps(lean))):
        assert type(twin) is type(public) and twin == public and repr(twin) == repr(public)
    for slot in type(lean).__slots__:
        assert getattr(lean, slot) == getattr(public, slot)
    for name in ("exact", "claimed", "oracle", "difference"):
        if (q := getattr(lean, name, None)) is not None:
            assert type(q) is Fraction and q.denominator > 0
            assert math.gcd(q.numerator, q.denominator) == 1
    assert not hasattr(lean, "__dict__")
    for name in (*type(lean).__match_args__, *type(lean).__slots__, "other"):
        with pytest.raises(AttributeError):
            setattr(lean, name, None)
        with pytest.raises(AttributeError):
            delattr(lean, name)
    assert lean == public
