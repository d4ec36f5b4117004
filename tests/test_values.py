"""The value classes: immutable, compared and hashed by field, printed like dataclasses."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from polyhex import (
    ClosedForm,
    DiscrepancyReport,
    EdgeFunction,
    EdgePartition,
    FormCheck,
    IndexValue,
    NanotubeKind,
    NanotubeSpec,
    PointCheck,
    Provenance,
    grid_tubes,
    tube_edge_partition,
)

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
        ("azi", max, True),
        "EdgeFunction(name='azi', term=<built-in function max>, exact=True)",
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
    value = make(cls)
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


@CLASSES
def test_only_edge_function_has_an_instance_dict(cls):
    # benchmarks/tracing.py rebinds EdgeFunction.term through the instance __dict__
    assert hasattr(make(cls), "__dict__") is (cls is EdgeFunction)


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
