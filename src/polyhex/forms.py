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
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable
from fractions import Fraction
from itertools import chain, compress, product, repeat
from math import gcd, lcm
from operator import add, gt, mul, not_

from .graph import Graph, _degree_codes, _partition_from_codes, _Value
from .indices import EDGE_FUNCTIONS, _exact_ratio, azi, azi_term
from .tubes import (
    InvalidSpecError,
    NanotubeKind,
    NanotubeSpec,
    _as_tuple,
    _check_kind,
    _tube_ids,
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


# Most edges one verification grid, or one fit's samples, may have, summed
# over its tubes (grid_edge_count, O(1)) however few the oracle builds: each
# tube passes build_nanotube's cap, so only this bound keeps a large grid
# or sample list from running for hours. The oracle builds one tube per kind
# and m, at the last n, so the slowest grids per edge hold one or two n,
# where that tube holds all or half of the grid's edges: verify --kind both
# on 2:80 x 39:40 (1,574,154 edges) took 0.47 to 0.56 s and on 2:80 x 40:40
# (796,794 edges) 0.26 to 0.35 s, 2.3 to 3.4 million edges per second, so
# this allows 6 to 9 s. Each further n costs about a row's edges: 2:26 x
# 1:25 (735,000 edges) took 0.055 to 0.063 s (each the best of 7 runs of
# cli.main in one process, ten processes; 2-CPU Xeon VM, Python 3.11.7).
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


class _AziTerms(dict):
    """Each _degree_codes code's AZI term as a numerator over den, which each (d_u + d_v - 2)**3
    of degrees below base divides; read once from azi_term, so (1, 1) raises UndefinedTermError."""

    def __init__(self, base: int) -> None:
        self.base, self.den = base, lcm(*range(1, 2 * base - 3)) ** 3

    def __missing__(self, code: int) -> int:
        q = azi_term(*divmod(code, self.base))
        self[code] = term = q.numerator * (self.den // q.denominator)
        return term


def _walk_rows(g: Graph, cuts: range) -> list[tuple[int, int]]:
    """Exact AZI, as IndexValue._ratio, of g's subgraph on vertices 0..c-1 for each cut c.

    The cuts end at g.vertex_count and split the vertices into rows of
    cuts.step, and an edge that ends past the row after its own is refused
    with RuntimeError before any value is read. Each row's edges are a slice
    of g._ids. An edge that ends below a cut's row keeps its code in g
    (_degree_codes) and is counted once; each cut sums again only its band,
    the edges from the row before into its row and its row's edges that stay
    in it, with its row's vertices lowered by their edges to the next row.
    The last count, of every edge, is stored on g as edge_partition stores it.
    """
    lows, highs, step = g._ids[::2], g._ids[1::2], cuts.step
    tops = range(cuts[0] % step, cuts.stop, step)  # each row ends below its top
    starts = [0, *map(bisect_left, repeat(lows), tops)]  # row i's edges: starts[i]..starts[i+1]
    if any(max(highs[a:b], default=t) >= t + step for a, b, t in zip(starts, starts[1:], tops)):
        raise RuntimeError(f"{g!r} has an edge longer than a row of {step} vertices")
    degrees = g._degrees.copy()  # this row's are lowered for each band, then restored
    terms = _AziTerms(base := max(degrees, default=0) + 1)
    scaled = [d * base for d in degrees]
    i = max(cuts[0] // step - 1, 0)  # the row before the first cut's, if there is one
    counts = Counter(_degree_codes(lows[: starts[i]], highs[: starts[i]], scaled, degrees))
    values, reach_us, reach_vs = [], [], []
    for top, start, end in zip(tops[i:], starts[i:], starts[i + 1 :]):
        us, vs = lows[start:end], highs[start:end]
        inside = [*map(gt, repeat(top), vs)]
        band_us, band_vs = reach_us + [*compress(us, inside)], reach_vs + [*compress(vs, inside)]
        reach_us, reach_vs = [*compress(us, map(not_, inside))], [*compress(vs, map(not_, inside))]
        if top >= cuts[0]:
            for u in reach_us:
                degrees[u] -= 1
            num = sum(map(mul, counts.values(), map(terms.__getitem__, counts)))
            u_parts = map(mul, map(degrees.__getitem__, band_us), repeat(base))
            num += sum(map(terms.__getitem__, map(add, u_parts, map(degrees.__getitem__, band_vs))))
            for u in reach_us:
                degrees[u] += 1
            values.append((num // (divisor := gcd(num, terms.den)), terms.den // divisor))
        counts.update(_degree_codes(band_us, band_vs, scaled, degrees))
    g._partition = _partition_from_codes(counts, base)
    return values


def _oracle_values(kind: NanotubeKind, m: int, ns: range) -> list[tuple[int, int]]:
    """Brute-force AZI of tube (kind, m, n), as IndexValue._ratio, for each n in ns.

    Only g = tube (m, ns[-1]) is built. Each tube is g's subgraph on its first
    vertices, a row more per n (the prefix property, polyhex.tubes), so g's
    vertex count must be len(ns) - 1 equal steps past the first tube's, and
    g's edges below that are the first tube's ids, read with its vertex count
    from the one id stream that builds g (_tube_ids), so they pass every check
    Graph makes. _walk_rows reads each n off g, storing the partition that
    azi(g) reads.
    """
    g = build_nanotube(NanotubeSpec(kind, m, ns[-1]))
    if len(ns) == 1:
        return [azi(g)._ratio]
    first, _, first_ids = _tube_ids(NanotubeSpec(kind, m, ns[0]))
    step, uneven = divmod(g.vertex_count - first, len(ns) - 1)
    ids = g._ids[: 2 * bisect_left(g._ids[::2], first)]  # u0, v0, ... of the edges from below first
    kept = chain.from_iterable(compress(zip(ids[::2], ids[1::2]), map(first.__gt__, ids[1::2])))
    if uneven or step < 1 or [*first_ids] != [*kept]:
        raise RuntimeError(
            f"{kind.value} tube m={m}, n={ns[0]} is not the subgraph of tube n={ns[-1]} "
            f"on its first {first} vertices, a row per n below its {g.vertex_count}"
        )
    return [*_walk_rows(g, range(first, g.vertex_count + 1, step))[:-1], azi(g)._ratio]


def verify_forms(
    forms: Iterable[ClosedForm], m_range: tuple[int, int], n_range: tuple[int, int]
) -> DiscrepancyReport:
    """Evaluate each form against the built-graph oracle on the inclusive grid.

    Every grid point appears in the report with its exact difference; a form
    is consistent iff all differences are zero. An item that is not a
    ClosedForm is refused with ValueError, and a grid whose tubes would
    together have more than MAX_VERIFY_EDGES edges with GridTooLargeError,
    both before any tube is built. For each kind and m, only the tube at
    the grid's last n is built, and the values below it are read off its
    rows, one row per n (_oracle_values). The grid's points are made a form
    at a time, so with no form, which the budget does not bound, none is.
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
        for (m, n), (o_num, o_den) in zip(product(ms, ns), oracles[form.kind]):
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
    only, and walks its rows for the n below.
    """
    selected = tuple(NanotubeKind) if kinds is None else _as_tuple(kinds, "kinds")
    _check_grid(selected, m_range, n_range)
    forms: list[ClosedForm] = []
    for kind in dict.fromkeys(selected):  # each kind once, as in the grid's edge budget
        forms.extend(f for f in published_forms() if f.kind is kind)
        forms.append(fit_closed_form(kind, "azi", DEFAULT_FIT_SAMPLES))
    return verify_forms(forms, m_range, n_range)
