"""Builders for armchair (TUAC6) and zigzag (TUZC6) polyhex nanotube graphs.

Both families are parametrized by (m, n): m hexagons around the circumference
and n rows (armchair) or n repetitions (zigzag). Both are laid out on rows of
2m vertices indexed (r, c) with c in 0..2m-1 and vertex id r*2m + c, and one
rule, with a row count and a ring and a rung stride per kind, builds both:
  * row r carries the ring edges (r, c)-(r, (c+1) mod 2m) for c = r (mod ring);
  * rows r and r+1 are joined by the rungs (r, c)-(r+1, c) for c = r (mod rung).

Zigzag TUZC6[m, n] has rows 0..n and strides ring 1, rung 2: 2m-cycle rows,
each joined to the next by m rungs. Armchair TUAC6[m, n] has rows 0..n+1 and
strides ring 2, rung 1: rows that are perfect matchings around the
circumference, (r, 2i)-(r, 2i+1) in even rows and (r, 2i+1)-(r, (2i+2) mod 2m)
in odd ones, joined to the next row at every column.

With open tube ends (no caps), every count of either family, vertices and
the edges of each degree class, is c_mn*m*n + c_m*m for integer
coefficients that depend on the kind alone. _KINDS below holds every fact
about a kind: its rows beyond n, its two strides and its class counts. One
function, _tube_rows, evaluates a kind's entry: at one m it turns every
count into a*n + b, with the vertex count 2m times the row count and the
edge count the sum of the class counts, then gives the row of each n asked
for. grid_tubes calls it once per m; the per-tube count functions read the
row of their one tube off it, through _tube_counts. Any construction with
these counts is equivalent for every degree-based index.

Prefix property: for n <= N, tube (m, n) is the subgraph of tube (m, N)
induced on its first tube_vertex_count vertices, ids included. It holds for
both kinds because ids are row-major, a larger n only appends rows at the
high end, and each run of the rule depends on r only through r mod its
stride: whether two vertices of rows present in both tubes are joined
depends on their rows, columns and m alone, never on n. The verify
oracle (polyhex.forms) relies on it to build two tubes per m, not one per
grid point. As no edge joins ids more than one row (2m) apart, it reads
every n between off a one-row window moving up the larger tube a row per n,
after checking that the two vertex counts are whole rows apart and that
the smaller tube's edges are the larger tube's edges below its count.

Domain: m >= 2 and n >= 1 for both kinds. Zigzag m = 2 is accepted although
it is not hexagonal: its rows are 4-cycles, so its girth is 4 (every other
tube here has girth 6). Its degree classes still follow the counts in _KINDS,
so every degree-based index, and every closed form in m and n, holds there
as it does for m >= 3.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator
from itertools import chain

from .graph import DegreePair, Edge, EdgePartition, Graph, _Value

__all__ = [
    "MAX_BUILD_EDGES",
    "InvalidSpecError",
    "NanotubeKind",
    "NanotubeSpec",
    "TubeTooLargeError",
    "build_nanotube",
    "grid_edge_count",
    "grid_tubes",
    "tube_edge_count",
    "tube_edge_partition",
    "tube_vertex_count",
    "validate_ranges",
]


# Largest tube build_nanotube builds and `build` prints. A build peaks near 50
# traced bytes per edge and keeps 44 (13.4 and 11.9 MB for the 271,200-edge
# armchair [300, 300], Python 3.11.7), so this caps it near 0.25 GB. For `build`,
# which holds no graph, it bounds time and output: 0.9 s and 78 MB of JSON at
# 4,504,000 edges. Larger tubes' counts and indices come from tube_edge_partition.
MAX_BUILD_EDGES = 5_000_000


class InvalidSpecError(ValueError):
    """Nanotube parameters outside the valid domain."""


class TubeTooLargeError(InvalidSpecError):
    """A tube whose graph would exceed MAX_BUILD_EDGES edges."""


class NanotubeKind(enum.Enum):
    ARMCHAIR = "armchair"
    ZIGZAG = "zigzag"

    @classmethod
    def parse(cls, name: str) -> "NanotubeKind":
        try:
            return cls(name.lower())
        except (AttributeError, ValueError):
            raise InvalidSpecError(
                f"unknown nanotube kind {name!r} (expected 'armchair' or 'zigzag')"
            ) from None


def _check_kind(kind: NanotubeKind) -> NanotubeKind:
    """Return kind; refuse anything that is not a NanotubeKind with InvalidSpecError."""
    if not isinstance(kind, NanotubeKind):
        raise InvalidSpecError(f"kind must be a NanotubeKind (got {kind!r})")
    return kind


class NanotubeSpec(_Value):
    """Tube parameters: kind plus circumference m and row count n.

    m = 1 would duplicate circumference edges (a multigraph), n = 0 would
    make the (3,3) degree class negative, so both are rejected.
    """

    __slots__ = __match_args__ = ("kind", "m", "n")

    def __init__(self, kind: NanotubeKind, m: int, n: int) -> None:
        _check_kind(kind)
        if not isinstance(m, int) or isinstance(m, bool):
            raise InvalidSpecError(f"m must be an int (got {m!r})")
        if not isinstance(n, int) or isinstance(n, bool):
            raise InvalidSpecError(f"n must be an int (got {n!r})")
        if m < 2:
            raise InvalidSpecError(f"m must be >= 2 (got {m})")
        if n < 1:
            raise InvalidSpecError(f"n must be >= 1 (got {n})")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)


def _spec_kind(spec: NanotubeSpec) -> NanotubeKind:
    if not isinstance(spec, NanotubeSpec):
        raise InvalidSpecError(f"spec must be a NanotubeSpec (got {type(spec).__name__})")
    return spec.kind


def _as_tuple(items: Iterable, what: str) -> tuple:
    try:
        iterator = iter(items)
    except TypeError:
        raise InvalidSpecError(f"{what} must be an iterable (got {type(items).__name__})") from None
    return tuple(iterator)


# Per kind: the rows beyond n, the ring and rung strides (_edge_id_rows), then
# each degree class's edge count (c_mn, c_m) in sorted class order. A tube
# has n + extra rows of 2m vertices, and a class count is (c_mn*n + c_m)*m.
_KINDS: dict[NanotubeKind, tuple[int, int, int, dict[DegreePair, tuple[int, int]]]] = {
    NanotubeKind.ARMCHAIR: (2, 2, 1, {(2, 2): (0, 2), (2, 3): (0, 4), (3, 3): (3, -2)}),
    NanotubeKind.ZIGZAG: (1, 1, 2, {(2, 3): (0, 4), (3, 3): (3, -2)}),
}


def _tube_rows(
    entry: tuple[int, int, int, dict[DegreePair, tuple[int, int]]], m: int, ns: Iterable[int]
) -> Iterator[tuple[int, int, int, int, EdgePartition]]:
    """The grid_tubes row (m, n, vertex count, edge count, edge partition) of each n in ns.

    entry is the _KINDS entry of the tubes' kind. Every count is a*n + b,
    with a and b evaluated here once for the m: (c_mn*m, c_m*m) per class,
    their sums for the edges, and 2m times (1, extra) for the vertices. Every
    class count is positive for m >= 2 and n >= 1, as c_mn >= 0 and
    c_mn + c_m >= 1 (both checked by the tests), so the partition needs no
    check of its own.
    """
    extra, _, _, classes = entry
    coefficients = [(pair, c_mn * m, c_m * m) for pair, (c_mn, c_m) in classes.items()]
    vertex_a, vertex_b = 2 * m, 2 * m * extra
    edge_a, edge_b = sum(a for _, a, _ in coefficients), sum(b for _, _, b in coefficients)
    unchecked = EdgePartition._unchecked
    for n in ns:
        yield (m, n, vertex_a * n + vertex_b, edge_a * n + edge_b,
               unchecked({pair: a * n + b for pair, a, b in coefficients}))


def _tube_counts(spec: NanotubeSpec) -> tuple[int, int, int, int, EdgePartition]:
    """The grid_tubes row of the one tube spec, from _tube_rows; spec is checked first."""
    return next(_tube_rows(_KINDS[_spec_kind(spec)], spec.m, (spec.n,)))


def tube_vertex_count(spec: NanotubeSpec) -> int:
    return _tube_counts(spec)[2]


def tube_edge_count(spec: NanotubeSpec) -> int:
    return _tube_counts(spec)[3]


def tube_edge_partition(spec: NanotubeSpec) -> EdgePartition:
    """Degree-class edge counts from _KINDS, no graph built.

    This is the O(1) fast path for index computation on large tubes; it is
    held equal to edge_partition(build_nanotube(spec)) by the test grid.
    """
    return _tube_counts(spec)[4]


def grid_edge_count(
    kinds: Iterable[NanotubeKind], m_range: tuple[int, int], n_range: tuple[int, int]
) -> int:
    """Total edges of the tubes of each distinct kind over an inclusive (m, n) grid.

    Computed in O(1): summing c_mn*m*n + c_m*m over the grid gives
    sum(m) * (c_mn*sum(n) + c_m*len(n-range)) per degree class, and each sum
    is its range's length times the mean of its endpoints. The ranges are
    checked with validate_ranges first; a kind that is not a NanotubeKind is
    refused with InvalidSpecError.
    """
    ms, ns = validate_ranges(m_range, n_range)
    distinct = {_check_kind(kind) for kind in _as_tuple(kinds, "kinds")}
    # stop - start rather than len(), which overflows past sys.maxsize items
    m_count, n_count = ms.stop - ms.start, ns.stop - ns.start
    m_sum = (ms[0] + ms[-1]) * m_count // 2
    n_sum = (ns[0] + ns[-1]) * n_count // 2
    return sum(
        m_sum * (c_mn * n_sum + c_m * n_count)
        for kind in distinct
        for c_mn, c_m in _KINDS[kind][3].values()
    )


def grid_tubes(
    kind: NanotubeKind, m_range: tuple[int, int], n_range: tuple[int, int]
) -> Iterator[tuple[int, int, int, int, EdgePartition]]:
    """(m, n, vertex count, edge count, edge partition) of each tube of kind over a grid.

    Tubes come in m-major order over the inclusive ranges, each row the one
    tube_vertex_count, tube_edge_count and tube_edge_partition read their
    field from for NanotubeSpec(kind, m, n). The ranges are checked with
    validate_ranges, and a kind that is not a NanotubeKind is refused with
    InvalidSpecError, when this is called rather than at the first next();
    the kind's counts are looked up once and evaluated once per m, by
    _tube_rows, and no NanotubeSpec is made.
    """
    ms, ns = validate_ranges(m_range, n_range)
    entry = _KINDS[_check_kind(kind)]
    return chain.from_iterable(_tube_rows(entry, m, ns) for m in ms)


# The tube's edge ids in sorted canonical order, u0, v0, u1, v1, ... with
# u < v, one flat list per row. A row is m blocks of 2 columns; each edge of a
# block is one lane (column offset, id step), ring +1 or rung +2m, and a row's
# lanes depend only on r mod 2 and on whether it is the last row. Each lane is
# a slice assignment from one ids list, made first (ids made a row at a time
# raised a pass's peak RSS), so the per-edge work runs in C and edges share
# one int object per vertex. The wrap, the ring edge at column 2m - 1, is
# (r*2m, r*2m + 2m - 1), so it moves to column 0.
def _edge_id_rows(kind: NanotubeKind, m: int, n: int) -> Iterator[list[int]]:
    extra, ring, rung, _ = _KINDS[kind]
    width, rows = 2 * m, n + extra
    ids = list(range(rows * width))
    for r in range(rows):
        pair = ids[r * width : (r + 2) * width]  # rows r and r + 1
        lanes = [(c, step) for c in (0, 1) for step, stride in ((1, ring), (width, rung))
                 if (c - r) % stride == 0 and (step == 1 or r < rows - 1)]
        size = 2 * len(lanes)
        row = [0] * (size * m)
        for j, (c, step) in enumerate(lanes):
            count = m - ((c, step) == (1, 1))  # the wrap is placed after the loop
            row[2 * j : size * count : size] = pair[c : c + 2 * count : 2]
            row[2 * j + 1 : size * count : size] = pair[c + step : c + step + 2 * count : 2]
        if (1, 1) in lanes:  # drop the last block's empty wrap slot, then fill column 0's
            at = size * (m - 1) + 2 * lanes.index((1, 1))
            del row[at : at + 2]
            at = 2 * (lanes[0] == (0, 1))
            row[at:at] = pair[0], pair[width - 1]
        yield row


def _tube_edges(kind: NanotubeKind, m: int, n: int) -> Iterator[Edge]:
    ids = chain.from_iterable(_edge_id_rows(kind, m, n))
    return zip(ids, ids)


def _build_counts(spec: NanotubeSpec) -> tuple[int, int]:
    """The vertex and edge counts of spec's tube, refused past MAX_BUILD_EDGES edges."""
    _, _, vertex_count, edge_count, _ = _tube_counts(spec)
    if edge_count > MAX_BUILD_EDGES:
        raise TubeTooLargeError(
            f"{spec.kind.value} tube m={spec.m}, n={spec.n} has {edge_count} edges, "
            f"more than the {MAX_BUILD_EDGES} a built graph may have"
        )
    return vertex_count, edge_count


def build_nanotube(spec: NanotubeSpec) -> Graph:
    """Construct the tube graph for spec; connected, all degrees in {2, 3}.

    Refuses, before generating any edge, a tube with more than
    MAX_BUILD_EDGES edges. Like each count function here, it refuses a spec
    that is not a NanotubeSpec with InvalidSpecError.
    """
    return Graph(_build_counts(spec)[0], _tube_edges(spec.kind, spec.m, spec.n))


def validate_ranges(m_range: tuple[int, int], n_range: tuple[int, int]) -> tuple[range, range]:
    """Check inclusive (lo, hi) grid ranges against the tube parameter domain.

    Each range must be a pair of ints; a float, bool or str bound is refused
    with InvalidSpecError, as NanotubeSpec refuses such an m or n, and so is
    an empty range (lo > hi). Returns the grid's m values and n values, each
    as the range from lo through hi.
    """
    for name, bounds in (("m", m_range), ("n", n_range)):
        if not (isinstance(bounds, tuple) and len(bounds) == 2
                and type(bounds[0]) is int and type(bounds[1]) is int):
            raise InvalidSpecError(f"{name} range must be a pair of ints (got {bounds!r})")
        lo, hi = bounds
        if lo > hi:
            raise InvalidSpecError(
                f"empty range {lo}:{hi} for {name} (lower bound must not exceed upper bound)"
            )
    if m_range[0] < 2:
        raise InvalidSpecError(f"m must be >= 2 (range starts at {m_range[0]})")
    if n_range[0] < 1:
        raise InvalidSpecError(f"n must be >= 1 (range starts at {n_range[0]})")
    return range(m_range[0], m_range[1] + 1), range(n_range[0], n_range[1] + 1)
