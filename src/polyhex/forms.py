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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .indices import EDGE_FUNCTIONS, azi
from .tubes import (
    InvalidSpecError,
    NanotubeKind,
    NanotubeSpec,
    build_nanotube,
    grid_edge_count,
    tube_edge_count,
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


# Most edges the oracle may build for one verification grid, or for the
# samples of one fit, summed over its tubes. Every tube of a large grid or a
# long sample list passes build_nanotube's per-tube cap, so only this bound
# keeps such a call from running for hours. The oracle builds and sums about
# 2.9 million edges per second (verify --kind both on 2:26 x 1:25 builds
# 735,000 edges and prints its report in 0.25 s, best of 7 runs in one
# process; 2-CPU Xeon VM, Python 3.11.7), so this allows about 7 s.
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


def _is_exact_number(value: object) -> bool:
    """True for an int or a Fraction; bool and float are not exact numbers here."""
    return type(value) is int or isinstance(value, Fraction)


class Provenance(enum.Enum):
    STATED = "stated"    # coefficient pair as printed in the published theorem
    PROOF = "proof"      # final line of the published derivation
    FITTED = "fitted"    # solved exactly from the brute-force oracle


@dataclass(frozen=True)
class ClosedForm:
    """Exact linear form value(m, n) = a*m*n + b*m for one (kind, index).

    Construction raises ValueError for a kind that is not a NanotubeKind, an
    index_name not in EDGE_FUNCTIONS, an a or b that is not an int or a
    Fraction (bool and float included), or a provenance that is not a
    Provenance. An int coefficient is stored as a Fraction, so evaluate
    always returns a Fraction.
    """

    kind: NanotubeKind
    index_name: str
    a: Fraction
    b: Fraction
    provenance: Provenance

    def __post_init__(self) -> None:
        if not isinstance(self.kind, NanotubeKind):
            raise ValueError(f"kind must be a NanotubeKind (got {self.kind!r})")
        if not isinstance(self.index_name, str) or self.index_name not in EDGE_FUNCTIONS:
            raise ValueError(
                f"unknown index {self.index_name!r} (choose from {sorted(EDGE_FUNCTIONS)})"
            )
        for name in ("a", "b"):
            value = getattr(self, name)
            if not _is_exact_number(value):
                raise ValueError(f"coefficient {name} must be an int or a Fraction (got {value!r})")
            object.__setattr__(self, name, Fraction(value))
        if not isinstance(self.provenance, Provenance):
            raise ValueError(f"provenance must be a Provenance (got {self.provenance!r})")

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


def _check_samples(samples: tuple[tuple[int, int], ...]) -> tuple[int, int]:
    """Check the fit samples; return the first two whose rows (mn, m) are independent.

    Every sample must be a tube's (m, n): a pair that NanotubeSpec of either
    kind accepts (both kinds share one domain: ints, m >= 2, n >= 1), else
    InvalidSpecError. The rows of (m1, n1) and (m2, n2) have determinant
    m1*m2*(n1 - n2), so with m >= 2 they are independent exactly when their
    n differ. Only the samples are read, so fit_closed_form runs this before
    it builds any tube. Raises SingularSystemError when no pair is.
    """
    for sample in samples:
        if not (isinstance(sample, tuple) and len(sample) == 2):
            raise InvalidSpecError(f"a sample must be an (m, n) pair (got {sample!r})")
        NanotubeSpec(NanotubeKind.ZIGZAG, *sample)
    for j in range(1, len(samples)):
        if samples[j][1] != samples[0][1]:
            return 0, j
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
    samples, values = tuple(samples), tuple(values)
    if len(samples) != len(values):
        raise ValueError("samples and values must have equal length")
    i, j = _check_samples(samples)
    for value in values:
        if not _is_exact_number(value):
            raise ValueError(f"value must be an int or a Fraction (got {value!r})")
    rows = [
        (Fraction(m * n), Fraction(m), Fraction(value))
        for (m, n), value in zip(samples, values)
    ]
    (mn_i, m_i, value_i), (mn_j, m_j, value_j) = rows[i], rows[j]
    det = mn_i * m_j - mn_j * m_i
    a = (value_i * m_j - value_j * m_i) / det
    b = (mn_i * value_j - mn_j * value_i) / det
    for (m, n), (mn_coeff, m_coeff, value) in zip(samples, rows):
        if a * mn_coeff + b * m_coeff != value:
            raise InconsistentSamplesError(
                f"no exact a*mn + b*m fits the samples: at (m={m}, n={n}) the "
                f"solved form gives {a * mn_coeff + b * m_coeff}, the value is {value}"
            )
    return a, b


def _check_edge_budget(edges: int, subject: str, caller: str) -> None:
    """Refuse, with GridTooLargeError, a call that would build more than MAX_VERIFY_EDGES."""
    if edges > MAX_VERIFY_EDGES:
        raise GridTooLargeError(
            f"{subject} would build {edges} edges, more than the "
            f"{MAX_VERIFY_EDGES} one {caller} may build"
        )


# Built-graph AZI values by (kind, m, n). verify_published_forms passes one
# to its fits and its grid check, so a tube both need is built once.
OracleValues = dict[tuple[NanotubeKind, int, int], Fraction]


def _oracle_value(built: OracleValues, kind: NanotubeKind, m: int, n: int) -> Fraction:
    """Exact AZI of the built (kind, m, n) tube, built only if built holds no value for it yet."""
    key = (kind, m, n)
    if key not in built:
        built[key] = azi(build_nanotube(NanotubeSpec(kind, m, n))).exact
    return built[key]


def fit_closed_form(
    kind: NanotubeKind,
    index_name: str,
    samples: Iterable[tuple[int, int]],
    *,
    built: OracleValues | None = None,
) -> ClosedForm:
    """Fit a*mn + b*m to brute-force index values of built graphs at the samples.

    Only the augmented Zagreb index has exact rational values; for randic
    or abc the irrational per-edge terms admit no exact rational (a, b), so
    the fit is refused as inconsistent rather than approximated. Before any
    tube is built, a sample outside the tube domain is refused with
    InvalidSpecError, samples that cannot determine (a, b) with
    SingularSystemError, and samples whose tubes would together have more
    than MAX_VERIFY_EDGES edges with GridTooLargeError. A sample value that
    built lacks is computed from a built tube and added to it. The samples may
    be any iterable; it is read once.
    """
    if index_name not in EDGE_FUNCTIONS:
        raise ValueError(
            f"unknown index {index_name!r} (choose from {sorted(EDGE_FUNCTIONS)})"
        )
    if index_name != "azi":
        raise InconsistentSamplesError(
            f"index {index_name!r} has irrational edge terms; no exact rational "
            "a*mn + b*m exists, and approximate fitting is not supported"
        )
    samples = tuple(samples)
    _check_samples(samples)
    specs = [NanotubeSpec(kind, m, n) for m, n in samples]
    _check_edge_budget(sum(map(tube_edge_count, specs)), "fit samples", "fit")
    built = {} if built is None else built
    values = [_oracle_value(built, kind, m, n) for m, n in samples]
    a, b = fit_from_values(samples, values)
    return ClosedForm(kind, index_name, a, b, Provenance.FITTED)


@dataclass(frozen=True)
class PointCheck:
    """One grid point: the form's claim against the built-graph oracle."""

    m: int
    n: int
    claimed: Fraction
    oracle: Fraction
    difference: Fraction


@dataclass(frozen=True)
class FormCheck:
    form: ClosedForm
    points: tuple[PointCheck, ...]

    @property
    def consistent(self) -> bool:
        return all(p.difference == 0 for p in self.points)


@dataclass(frozen=True)
class DiscrepancyReport:
    m_range: tuple[int, int]
    n_range: tuple[int, int]
    checks: tuple[FormCheck, ...]

    def checks_for(self, provenance: Provenance) -> tuple[FormCheck, ...]:
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


def verify_forms(
    forms: Iterable[ClosedForm],
    m_range: tuple[int, int],
    n_range: tuple[int, int],
    *,
    built: OracleValues | None = None,
) -> DiscrepancyReport:
    """Evaluate each form against the built-graph oracle on the inclusive grid.

    Every grid point appears in the report with its exact difference; a form
    is consistent iff all differences are zero. An item that is not a
    ClosedForm is refused with ValueError, and a grid whose tubes would
    together have more than MAX_VERIFY_EDGES edges with GridTooLargeError,
    both before any tube is built. A grid value that built lacks is computed
    from a built tube and added to it.
    """
    forms = tuple(forms)
    for form in forms:
        if not isinstance(form, ClosedForm):
            raise ValueError(f"can only verify a ClosedForm (got {form!r})")
        if form.index_name != "azi":
            raise ValueError(
                f"verification oracle is exact and covers 'azi' only, not {form.index_name!r}"
            )
    ms, ns = _check_grid(tuple(form.kind for form in forms), m_range, n_range)
    built = {} if built is None else built
    grid = [(m, n) for m in ms for n in ns]
    oracles = {
        kind: [_oracle_value(built, kind, m, n) for m, n in grid]
        for kind in dict.fromkeys(form.kind for form in forms)
    }
    checks = []
    for form in forms:
        # a*m*n + b*m = (ca*n + cb)*m / den, with den the product of the two
        # denominators, so each point needs integer arithmetic only; the grid
        # was checked above, so no point is re-validated.
        a, b = form.a, form.b
        den = a.denominator * b.denominator
        ca, cb = a.numerator * b.denominator, b.numerator * a.denominator
        points = []
        for (m, n), oracle in zip(grid, oracles[form.kind]):
            num = (ca * n + cb) * m
            difference = Fraction(num * oracle.denominator - oracle.numerator * den,
                                  den * oracle.denominator)
            points.append(PointCheck(m, n, Fraction(num, den), oracle, difference))
        checks.append(FormCheck(form, tuple(points)))
    return DiscrepancyReport(m_range, n_range, tuple(checks))


def verify_published_forms(
    m_range: tuple[int, int],
    n_range: tuple[int, int],
    kinds: Iterable[NanotubeKind] | None = None,
) -> DiscrepancyReport:
    """Adjudicate the published forms plus a freshly fitted form per kind.

    The grid is checked (ranges and MAX_VERIFY_EDGES) before the fits build
    their sample tubes. The fits and the grid share their oracle values, so
    each distinct tube is built once per call.
    """
    selected = tuple(kinds) if kinds is not None else tuple(NanotubeKind)
    _check_grid(selected, m_range, n_range)
    built: OracleValues = {}
    forms: list[ClosedForm] = []
    for kind in selected:
        forms.extend(f for f in published_forms() if f.kind is kind)
        forms.append(fit_closed_form(kind, "azi", DEFAULT_FIT_SAMPLES, built=built))
    return verify_forms(forms, m_range, n_range, built=built)
