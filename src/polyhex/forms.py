"""Closed forms a*mn + b*m for tube indices, and their adjudication.

The published augmented Zagreb formulas for these tube families come in two
variants per kind (the theorem statement and the final line of its
derivation) that disagree with each other, and both turn out to disagree
with brute force. Nothing here guesses which was intended: the published
coefficient pairs are retained verbatim as data, an exact fit solves for
the coefficients the built-graph oracle actually satisfies, and verification
reports every variant against the oracle point by point.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from fractions import Fraction
from itertools import chain, compress
from math import gcd

from .graph import _prefix_partitions, _Value
from .indices import (
    AZI,
    EDGE_FUNCTIONS,
    _exact_ratio,
    azi,
    index_from_partition,
)
from .tubes import (
    InvalidSpecError,
    NanotubeKind,
    NanotubeSpec,
    _as_tuple,
    _check_kind,
    _edge_id_rows,
    build_nanotube,
    grid_edge_count,
    tube_edge_count,
    tube_vertex_count,
    validate_ranges,
)

__all__ = [
    "DEFAULT_FIT_SAMPLES",
    "ClosedForm",
    "DiscrepancyReport",
    "FormCheck",
    "GridTooLargeError",
    "InconsistentSamplesError",
    "MAX_VERIFY_EDGES",
    "PointCheck",
    "Provenance",
    "SingularSystemError",
    "fit_closed_form",
    "fit_from_values",
    "published_forms",
    "verify_forms",
    "verify_published_forms",
]


# Most edges one verification grid, or the samples of one fit, may have,
# summed over its tubes (grid_edge_count, in O(1)), however few of them the
# oracle builds. Every tube of a large grid or a long sample list passes
# build_nanotube's per-tube cap, so only this bound keeps such a call from
# running for hours. The oracle builds one tube per kind and m, at the last
# n, so the slowest grids per edge hold one or two n values, where that tube
# holds all or half of the grid's edges: verify --kind both on 2:80 x 39:40
# (1,574,154 edges) took 0.66 to 0.81 s and on 2:80 x 40:40 (796,794 edges)
# 0.29 to 0.45 s, 1.8 to 2.8 million edges per second, so this allows 7 to
# 11 s. With many n values each n costs about a row's edges: 2:26 x 1:25
# (735,000 edges) took 0.07 to 0.12 s (each the best of 7 runs of cli.main
# in one process, ten processes; 2-CPU Xeon VM, Python 3.11.7).
MAX_VERIFY_EDGES = 20_000_000


class GridTooLargeError(InvalidSpecError):
    """A grid over its size cap.

    A verification grid, or the sample list of one fit, may build at most
    MAX_VERIFY_EDGES edges in total; a sweep grid may have at most
    MAX_SWEEP_ROWS rows (polyhex.cli).
    """


class SingularSystemError(ValueError):
    """The fit samples do not determine the two coefficients."""


class InconsistentSamplesError(ValueError):
    """No exact a*mn + b*m reproduces the sample values; the ansatz fails."""


def _check_index_name(index_name: str) -> None:
    """Refuse, with ValueError, an index_name that is not a key of EDGE_FUNCTIONS."""
    if not isinstance(index_name, str) or index_name not in EDGE_FUNCTIONS:
        raise ValueError(f"unknown index {index_name!r} (choose from {sorted(EDGE_FUNCTIONS)})")


class Provenance(enum.Enum):
    STATED = "stated"    # coefficient pair as printed in the published theorem
    PROOF = "proof"      # final line of the published derivation
    FITTED = "fitted"    # solved exactly from the brute-force oracle


class ClosedForm(_Value):
    """Exact linear form value(m, n) = a*m*n + b*m for one (kind, index).

    Construction raises InvalidSpecError (a ValueError) for a kind that is
    not a NanotubeKind, and ValueError for an index_name not in
    EDGE_FUNCTIONS, an a or b that is not an int or a Fraction (bool and
    float included), or a provenance that is not a Provenance. An int
    coefficient is stored as a Fraction, so evaluate always returns a
    Fraction.
    """

    __slots__ = __match_args__ = ("kind", "index_name", "a", "b", "provenance")

    def __init__(self, kind: NanotubeKind, index_name: str, a: Fraction, b: Fraction,
                 provenance: Provenance) -> None:
        object.__setattr__(self, "kind", _check_kind(kind))
        _check_index_name(index_name)
        object.__setattr__(self, "index_name", index_name)
        for name, value in (("a", a), ("b", b)):
            object.__setattr__(self, name, Fraction(*_exact_ratio(value, f"coefficient {name}")))
        if not isinstance(provenance, Provenance):
            raise ValueError(f"provenance must be a Provenance (got {provenance!r})")
        object.__setattr__(self, "provenance", provenance)

    def evaluate(self, m: int, n: int) -> Fraction:
        NanotubeSpec(self.kind, m, n)  # domain check: m >= 2, n >= 1
        return self.a * m * n + self.b * m


def published_forms() -> tuple[ClosedForm, ...]:
    """The four published augmented Zagreb coefficient pairs, kept verbatim.

    They are data to be adjudicated, not trusted values: the two variants
    per kind contradict each other, and the oracle rejects all four.
    """
    q = Fraction
    return (
        ClosedForm(NanotubeKind.ARMCHAIR, "azi", q(2187, 64), q(-573, 64), Provenance.STATED),
        ClosedForm(NanotubeKind.ARMCHAIR, "azi", q(2187, 64), q(-807, 32), Provenance.PROOF),
        ClosedForm(NanotubeKind.ZIGZAG, "azi", q(2187, 64), q(-597, 64), Provenance.STATED),
        ClosedForm(NanotubeKind.ZIGZAG, "azi", q(2187, 64), q(-434, 64), Provenance.PROOF),
    )


DEFAULT_FIT_SAMPLES: tuple[tuple[int, int], ...] = ((2, 1), (2, 2), (3, 1), (3, 2))


def _check_samples(samples: tuple[tuple[int, int], ...]) -> int:
    """Check the fit samples; return the index of the first whose n differs from the first's.

    Every sample must be a tube's (m, n): a pair that NanotubeSpec of either
    kind accepts (both kinds share one domain: ints, m >= 2, n >= 1), else
    InvalidSpecError. Dividing a*mn + b*m = value by m leaves the line
    a*n + b = value/m, which two samples fix exactly when their n differ.
    Only the samples are read, so fit_closed_form runs this before it builds
    any tube. Raises SingularSystemError when no two n differ.
    """
    for sample in samples:
        if not (isinstance(sample, tuple) and len(sample) == 2):
            raise InvalidSpecError(f"a sample must be an (m, n) pair (got {sample!r})")
        NanotubeSpec(NanotubeKind.ZIGZAG, *sample)
    for j in range(1, len(samples)):
        if samples[j][1] != samples[0][1]:
            return j
    raise SingularSystemError(
        "samples are linearly dependent (need two samples with different n)"
    )


def fit_from_values(
    samples: Iterable[tuple[int, int]], values: Iterable[Fraction]
) -> tuple[Fraction, Fraction]:
    """Solve a*mn + b*m = value exactly over all samples.

    Two samples with distinct n determine (a, b); every further sample is an
    exact consistency check on the ansatz. Raises InvalidSpecError or
    SingularSystemError as _check_samples does, ValueError for a value that
    is not an int or a Fraction, InconsistentSamplesError when the
    over-determined system has no exact solution. Samples and values may be
    any iterables; each is read once.
    """
    samples, values = _as_tuple(samples, "samples"), _as_tuple(values, "values")
    if len(samples) != len(values):
        raise ValueError("samples and values must have equal length")
    j = _check_samples(samples)
    # a*n + b = y, with y = value/m, is a line through the points (n, y)
    ys = [Fraction(*_exact_ratio(value, "value")) / m for (m, _), value in zip(samples, values)]
    n_0, n_j = samples[0][1], samples[j][1]
    a = (ys[j] - ys[0]) / (n_j - n_0)
    b = ys[0] - a * n_0
    for (m, n), y in zip(samples, ys):
        if a * n + b != y:
            raise InconsistentSamplesError(
                f"no exact a*mn + b*m fits the samples: at (m={m}, n={n}) the "
                f"solved form gives {(a * n + b) * m}, the value is {y * m}"
            )
    return a, b


def _check_edge_budget(edges: int, subject: str, caller: str) -> None:
    """Refuse, with GridTooLargeError, a call that would build more than MAX_VERIFY_EDGES."""
    if edges > MAX_VERIFY_EDGES:
        raise GridTooLargeError(
            f"{subject} would build {edges} edges, more than the "
            f"{MAX_VERIFY_EDGES} one {caller} may build"
        )


def fit_closed_form(
    kind: NanotubeKind, index_name: str, samples: Iterable[tuple[int, int]]
) -> ClosedForm:
    """Fit a*mn + b*m to brute-force index values of built graphs at the samples.

    Only the augmented Zagreb index has exact rational values; for randic
    or abc the irrational per-edge terms admit no exact rational (a, b), so
    the fit is refused as inconsistent rather than approximated. Before any
    tube is built, a sample outside the tube domain is refused with
    InvalidSpecError, samples that cannot determine (a, b) with
    SingularSystemError, and samples whose tubes would together have more
    than MAX_VERIFY_EDGES edges with GridTooLargeError. The samples may be
    any iterable; it is read once.
    """
    _check_index_name(index_name)
    if index_name != "azi":
        raise InconsistentSamplesError(
            f"index {index_name!r} has irrational edge terms; no exact rational "
            "a*mn + b*m exists, and approximate fitting is not supported"
        )
    samples = _as_tuple(samples, "samples")
    _check_samples(samples)
    specs = [NanotubeSpec(kind, m, n) for m, n in samples]
    _check_edge_budget(sum(map(tube_edge_count, specs)), "fit samples", "fit")
    a, b = fit_from_values(samples, [azi(build_nanotube(spec)).exact for spec in specs])
    return ClosedForm(kind, index_name, a, b, Provenance.FITTED)


class PointCheck(_Value):
    """One grid point: the form's claim against the built-graph oracle.

    claimed, oracle and difference are held as _ints, six ints: each one's
    numerator and denominator in lowest terms, with positive denominators;
    reading one makes its Fraction. An m or n that is not an int, or a
    value that is not an int or a Fraction, is refused with ValueError, and
    an int value is read back as a Fraction.
    """

    __slots__ = ("m", "n", "_ints")
    __match_args__ = ("m", "n", "claimed", "oracle", "difference")

    def __init__(self, m: int, n: int, claimed: Fraction, oracle: Fraction,
                 difference: Fraction) -> None:
        if type(m) is not int or type(n) is not int:
            raise ValueError(f"a point's m and n must be ints (got {m!r}, {n!r})")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_ints", (*_exact_ratio(claimed, "claimed"),
                                           *_exact_ratio(oracle, "oracle"),
                                           *_exact_ratio(difference, "difference")))

    @property
    def claimed(self) -> Fraction:
        return Fraction(*self._ints[0:2])

    @property
    def oracle(self) -> Fraction:
        return Fraction(*self._ints[2:4])

    @property
    def difference(self) -> Fraction:
        return Fraction(*self._ints[4:6])


def _check_items(items: tuple, cls: type, what: str) -> None:
    """Refuse, with ValueError, items that are not a tuple of cls instances."""
    for item in items if isinstance(items, tuple) else (items,):
        if not isinstance(item, cls):
            raise ValueError(f"{what} must be a tuple of {cls.__name__}s "
                             f"(got {type(item).__name__})")


class FormCheck(_Value):
    """One form's points; ValueError for a form that is not a ClosedForm or
    points that are not a tuple of PointChecks."""

    __slots__ = __match_args__ = ("form", "points")

    def __init__(self, form: ClosedForm, points: tuple[PointCheck, ...]) -> None:
        if not isinstance(form, ClosedForm):
            raise ValueError(f"form must be a ClosedForm (got {form!r})")
        _check_items(points, PointCheck, "points")
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "points", points)

    @property
    def consistent(self) -> bool:
        return not any(p._ints[4] for p in self.points)  # each difference's numerator


class DiscrepancyReport(_Value):
    """Every form's check on one grid; ranges are refused as validate_ranges
    refuses them, and checks that are not a tuple of FormChecks with ValueError."""

    __slots__ = __match_args__ = ("m_range", "n_range", "checks")

    def __init__(self, m_range: tuple[int, int], n_range: tuple[int, int],
                 checks: tuple[FormCheck, ...]) -> None:
        validate_ranges(m_range, n_range)
        _check_items(checks, FormCheck, "checks")
        object.__setattr__(self, "m_range", m_range)
        object.__setattr__(self, "n_range", n_range)
        object.__setattr__(self, "checks", checks)

    def checks_for(self, provenance: Provenance) -> tuple[FormCheck, ...]:
        if not isinstance(provenance, Provenance):
            raise ValueError(f"provenance must be a Provenance (got {type(provenance).__name__})")
        return tuple(c for c in self.checks if c.form.provenance is provenance)


def _check_grid(
    kinds: tuple[NanotubeKind, ...], m_range: tuple[int, int], n_range: tuple[int, int]
) -> tuple[range, range]:
    """Refuse a grid over the edge budget; return its m and n values (validate_ranges)."""
    _check_edge_budget(
        grid_edge_count(kinds, m_range, n_range),
        f"verification grid m={m_range[0]}:{m_range[1]}, n={n_range[0]}:{n_range[1]}",
        "verification",
    )
    return validate_ranges(m_range, n_range)


def _oracle_values(kind: NanotubeKind, m: int, ns: range) -> list[tuple[int, int]]:
    """Brute-force AZI of tube (kind, m, n) for each n in ns, from one build.

    Each value is the (numerator, denominator) pair, in lowest terms, that
    its IndexValue holds (IndexValue._ratio). Only g = tube (m, ns[-1]) is
    built, and azi is called on g alone. Each n adds one row, so g's vertex
    count must be len(ns) - 1 equal steps past the first tube's, and by the
    prefix property (polyhex.tubes) each tube is g's subgraph induced on the
    vertices below its step. Both are checked exactly first: the ids that
    build_nanotube would give the first tube (_edge_id_rows) must be g's
    edges whose larger endpoint is below its vertex count, so they pass
    every check Graph makes. Then each n is read off a one-row window of g
    (_prefix_partitions) at its step; the last cut stores g's partition,
    which azi(g) reads.
    """
    g = build_nanotube(NanotubeSpec(kind, m, ns[-1]))
    if len(ns) == 1:
        return [azi(g)._ratio]
    first = tube_vertex_count(NanotubeSpec(kind, m, ns[0]))
    step, uneven = divmod(g.vertex_count - first, len(ns) - 1)
    ids = g._ids  # flat, u0, v0, u1, v1, ...: an edge is kept when v is below first
    kept = chain.from_iterable(compress(zip(ids[::2], ids[1::2]), map(first.__gt__, ids[1::2])))
    if uneven or step < 1 or [*chain.from_iterable(_edge_id_rows(kind, m, ns[0]))] != [*kept]:
        raise RuntimeError(
            f"{kind.value} tube m={m}, n={ns[0]} is not the subgraph of tube n={ns[-1]} "
            f"on its first {first} vertices, a row per n below its {g.vertex_count}"
        )
    *below, _ = _prefix_partitions(g, range(first, g.vertex_count + 1, step))
    return [*(index_from_partition(p, AZI)._ratio for p in below), azi(g)._ratio]


def verify_forms(
    forms: Iterable[ClosedForm], m_range: tuple[int, int], n_range: tuple[int, int]
) -> DiscrepancyReport:
    """Evaluate each form against the built-graph oracle on the inclusive grid.

    Every grid point appears in the report with its exact difference; a form
    is consistent iff all differences are zero. An item that is not a
    ClosedForm is refused with ValueError, and a grid whose tubes would
    together have more than MAX_VERIFY_EDGES edges with GridTooLargeError,
    both before any tube is built. For each kind and m, only the tube at
    the grid's last n is built, and the values below it are read off a
    one-row window of that tube (_oracle_values).
    """
    forms = _as_tuple(forms, "forms")
    for form in forms:
        if not isinstance(form, ClosedForm):
            raise ValueError(f"can only verify a ClosedForm (got {form!r})")
        if form.index_name != "azi":
            raise ValueError(
                f"verification oracle is exact and covers 'azi' only, not {form.index_name!r}"
            )
    ms, ns = _check_grid(tuple(form.kind for form in forms), m_range, n_range)
    grid = [(m, n) for m in ms for n in ns]
    oracles = {
        kind: [pair for m in ms for pair in _oracle_values(kind, m, ns)]
        for kind in dict.fromkeys(form.kind for form in forms)
    }
    # each PointCheck is filled through its slot descriptors, skipping __init__
    set_m, set_n, set_ints = PointCheck.m.__set__, PointCheck.n.__set__, PointCheck._ints.__set__
    checks = []
    for form in forms:
        # a*m*n + b*m = (ca*n + cb)*m / den, with den the product of the two
        # denominators, so each point needs integer arithmetic only, and one
        # gcd reduces each of claimed and difference; the grid was checked
        # above, so no point is re-validated.
        a, b = form.a, form.b
        den = a.denominator * b.denominator
        ca, cb = a.numerator * b.denominator, b.numerator * a.denominator
        points = []
        for (m, n), (o_num, o_den) in zip(grid, oracles[form.kind]):
            num = (ca * n + cb) * m
            divisor = gcd(num, den)
            c_num, c_den = num // divisor, den // divisor
            d_num, d_den = c_num * o_den - o_num * c_den, c_den * o_den
            divisor = gcd(d_num, d_den)
            points.append(point := object.__new__(PointCheck))
            set_m(point, m)
            set_n(point, n)
            set_ints(point, (c_num, c_den, o_num, o_den, d_num // divisor, d_den // divisor))
        checks.append(FormCheck(form, tuple(points)))
    return DiscrepancyReport(m_range, n_range, tuple(checks))


def verify_published_forms(
    m_range: tuple[int, int],
    n_range: tuple[int, int],
    kinds: Iterable[NanotubeKind] | None = None,
) -> DiscrepancyReport:
    """Adjudicate the published forms plus a freshly fitted form per kind.

    The grid is checked (ranges and MAX_VERIFY_EDGES) before the fits build
    their sample tubes. Each fit builds its own samples, even where the grid
    holds them too: the 8 default sample tubes have at most 30 edges. Then
    verify_forms builds, for each kind and m, the tube at the grid's last n
    only.
    """
    selected = tuple(NanotubeKind) if kinds is None else _as_tuple(kinds, "kinds")
    _check_grid(selected, m_range, n_range)
    forms: list[ClosedForm] = []
    for kind in selected:
        forms.extend(f for f in published_forms() if f.kind is kind)
        forms.append(fit_closed_form(kind, "azi", DEFAULT_FIT_SAMPLES))
    return verify_forms(forms, m_range, n_range)
