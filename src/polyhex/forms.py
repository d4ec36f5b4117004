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
from typing import Iterable, Sequence

from .indices import EDGE_FUNCTIONS, azi
from .tubes import NanotubeKind, NanotubeSpec, build_nanotube, validate_ranges

__all__ = [
    "DEFAULT_FIT_SAMPLES",
    "ClosedForm",
    "DiscrepancyReport",
    "FormCheck",
    "InconsistentSamplesError",
    "PointCheck",
    "Provenance",
    "SingularSystemError",
    "fit_closed_form",
    "fit_from_values",
    "published_forms",
    "verify_forms",
    "verify_published_forms",
]


class SingularSystemError(ValueError):
    """The fit samples do not determine the two coefficients."""


class InconsistentSamplesError(ValueError):
    """No exact a*mn + b*m reproduces the sample values; the ansatz fails."""


class Provenance(enum.Enum):
    STATED = "stated"    # coefficient pair as printed in the published theorem
    PROOF = "proof"      # final line of the published derivation
    FITTED = "fitted"    # solved exactly from the brute-force oracle


@dataclass(frozen=True)
class ClosedForm:
    """Exact linear form value(m, n) = a*m*n + b*m for one (kind, index)."""

    kind: NanotubeKind
    index_name: str
    a: Fraction
    b: Fraction
    provenance: Provenance

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


def fit_from_values(
    samples: Sequence[tuple[int, int]], values: Sequence[Fraction]
) -> tuple[Fraction, Fraction]:
    """Solve a*mn + b*m = value exactly over all samples.

    Two samples with distinct n determine (a, b); every further sample is an
    exact consistency check on the ansatz. Raises SingularSystemError when
    no two rows are independent, InconsistentSamplesError when the
    over-determined system has no exact solution.
    """
    if len(samples) != len(values):
        raise ValueError("samples and values must have equal length")
    if len(samples) < 2:
        raise SingularSystemError("need at least two (m, n) samples to fit two coefficients")
    rows = [
        (Fraction(m * n), Fraction(m), Fraction(value))
        for (m, n), value in zip(samples, values)
    ]
    solution: tuple[Fraction, Fraction] | None = None
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            det = rows[i][0] * rows[j][1] - rows[j][0] * rows[i][1]
            if det:
                a = (rows[i][2] * rows[j][1] - rows[j][2] * rows[i][1]) / det
                b = (rows[i][0] * rows[j][2] - rows[j][0] * rows[i][2]) / det
                solution = (a, b)
                break
        if solution:
            break
    if solution is None:
        raise SingularSystemError(
            "samples are linearly dependent (need two samples with different n)"
        )
    a, b = solution
    for (m, n), (mn_coeff, m_coeff, value) in zip(samples, rows):
        if a * mn_coeff + b * m_coeff != value:
            raise InconsistentSamplesError(
                f"no exact a*mn + b*m fits the samples: at (m={m}, n={n}) the "
                f"solved form gives {a * mn_coeff + b * m_coeff}, the value is {value}"
            )
    return a, b


def fit_closed_form(
    kind: NanotubeKind, index_name: str, samples: Sequence[tuple[int, int]]
) -> ClosedForm:
    """Fit a*mn + b*m to brute-force index values of built graphs at the samples.

    Only the augmented Zagreb index has exact rational values; for randic
    or abc the irrational per-edge terms admit no exact rational (a, b), so
    the fit is refused as inconsistent rather than approximated.
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
    values = [azi(build_nanotube(NanotubeSpec(kind, m, n))).exact for (m, n) in samples]
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


def verify_forms(
    forms: Iterable[ClosedForm],
    m_range: tuple[int, int],
    n_range: tuple[int, int],
) -> DiscrepancyReport:
    """Evaluate each form against the built-graph oracle on the inclusive grid.

    Every grid point appears in the report with its exact difference; a form
    is consistent iff all differences are zero.
    """
    validate_ranges(m_range, n_range)
    forms = tuple(forms)
    for form in forms:
        if form.index_name != "azi":
            raise ValueError(
                f"verification oracle is exact and covers 'azi' only, not {form.index_name!r}"
            )
    oracle_cache: dict[tuple[NanotubeKind, int, int], Fraction] = {}
    checks = []
    for form in forms:
        points = []
        for m in range(m_range[0], m_range[1] + 1):
            for n in range(n_range[0], n_range[1] + 1):
                key = (form.kind, m, n)
                oracle_value = oracle_cache.get(key)
                if oracle_value is None:
                    g = build_nanotube(NanotubeSpec(form.kind, m, n))
                    oracle_value = azi(g).exact
                    assert oracle_value is not None
                    oracle_cache[key] = oracle_value
                claimed = form.evaluate(m, n)
                points.append(PointCheck(m, n, claimed, oracle_value, claimed - oracle_value))
        checks.append(FormCheck(form, tuple(points)))
    return DiscrepancyReport(m_range, n_range, tuple(checks))


def verify_published_forms(
    m_range: tuple[int, int],
    n_range: tuple[int, int],
    kinds: Iterable[NanotubeKind] | None = None,
) -> DiscrepancyReport:
    """Adjudicate the published forms plus a freshly fitted form per kind."""
    selected = tuple(kinds) if kinds is not None else (NanotubeKind.ARMCHAIR, NanotubeKind.ZIGZAG)
    forms: list[ClosedForm] = []
    for kind in selected:
        forms.extend(f for f in published_forms() if f.kind is kind)
        forms.append(fit_closed_form(kind, "azi", DEFAULT_FIT_SAMPLES))
    return verify_forms(forms, m_range, n_range)
