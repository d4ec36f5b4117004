"""Builders for armchair (TUAC6) and zigzag (TUZC6) polyhex nanotube graphs.

Both families are parametrized by (m, n): m hexagons around the circumference
and n rows (armchair) or n repetitions (zigzag). Both are laid out on rows of
2m vertices indexed (r, c) with c in 0..2m-1 and vertex id r*2m + c.

Zigzag TUZC6[m, n], rows r = 0..n:
  * each row is a 2m-cycle: (r, c)-(r, (c+1) mod 2m) for every c;
  * between rows r and r+1, vertical edges (r, c)-(r+1, c) for exactly the
    c with c = r (mod 2), i.e. m edges per gap.

Armchair TUAC6[m, n], rows r = 0..n+1:
  * vertical edges (r, c)-(r+1, c) for every c and r = 0..n;
  * each row carries a perfect matching around the circumference: even rows
    pair (r, 2i)-(r, 2i+1), odd rows pair (r, 2i+1)-(r, (2i+2) mod 2m).

With open tube ends (no caps), every count of either family, vertices and
the edges of each degree class, is c_mn*m*n + c_m*m for integer
coefficients that depend on the kind alone. _COUNTS below holds them, and
one function, _tube_counts, evaluates a kind's entry at (m, n): the
per-tube count functions and grid_tubes all read their counts off it, and
the edge count is the sum of the class counts. Any construction with these
counts is equivalent for every degree-based index.

Prefix property: for n <= N, tube (m, n) is the subgraph of tube (m, N)
induced on its first tube_vertex_count vertices, ids included. It holds for
both kinds because ids are row-major, a larger n only appends rows at the
high end, and whether two vertices of rows present in both tubes are
joined depends on their rows, columns and m alone, never on n. The verify
oracle (polyhex.forms) relies on it to build two tubes per m, not one per
grid point, and checks it on every call.

Domain: m >= 2 and n >= 1 for both kinds. Zigzag m = 2 is accepted although
it is not hexagonal: its rows are 4-cycles, so its girth is 4 (every other
tube here has girth 6). Its degree classes still follow the counts in _COUNTS,
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


# Largest tube build_nanotube constructs. Building peaks near 99 traced bytes
# per edge and keeps 90 (26.8 and 24.5 MB for the 271,200-edge armchair
# [300, 300]: tracemalloc peak and current after the call, less current before
# it, Python 3.11.7), so this caps a build near 0.5 GB. Counts and indices of
# larger tubes come from tube_edge_partition, which builds no graph.
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


# Per kind: the vertex count's (c_mn, c_m), then each degree class's edge
# count (c_mn, c_m) in sorted class order. A count is (c_mn*n + c_m)*m.
_COUNTS: dict[NanotubeKind, tuple[tuple[int, int], dict[DegreePair, tuple[int, int]]]] = {
    NanotubeKind.ARMCHAIR: ((2, 4), {(2, 2): (0, 2), (2, 3): (0, 4), (3, 3): (3, -2)}),
    NanotubeKind.ZIGZAG: ((2, 2), {(2, 3): (0, 4), (3, 3): (3, -2)}),
}


def _tube_counts(
    counts: tuple[tuple[int, int], dict[DegreePair, tuple[int, int]]], m: int, n: int
) -> tuple[int, int, int, int, EdgePartition]:
    """The grid_tubes row (m, n, vertex count, edge count, edge partition) of one tube.

    counts is the _COUNTS entry of the tube's kind. Every class count is
    positive for m >= 2 and n >= 1, as c_mn >= 0 and c_mn + c_m >= 1 (both
    checked by the tests), so the partition needs no check of its own.
    """
    (v_mn, v_m), classes = counts
    partition = {pair: (c_mn * n + c_m) * m for pair, (c_mn, c_m) in classes.items()}
    vertices = (v_mn * n + v_m) * m
    return m, n, vertices, sum(partition.values()), EdgePartition._unchecked(partition)


def tube_vertex_count(spec: NanotubeSpec) -> int:
    return _tube_counts(_COUNTS[_spec_kind(spec)], spec.m, spec.n)[2]


def tube_edge_count(spec: NanotubeSpec) -> int:
    return _tube_counts(_COUNTS[_spec_kind(spec)], spec.m, spec.n)[3]


def tube_edge_partition(spec: NanotubeSpec) -> EdgePartition:
    """Degree-class edge counts from _COUNTS, no graph built.

    This is the O(1) fast path for index computation on large tubes; it is
    held equal to edge_partition(build_nanotube(spec)) by the test grid.
    """
    return _tube_counts(_COUNTS[_spec_kind(spec)], spec.m, spec.n)[4]


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
        for c_mn, c_m in _COUNTS[kind][1].values()
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
    the kind's counts are looked up once, and no NanotubeSpec is made.
    """
    ms, ns = validate_ranges(m_range, n_range)
    counts = _COUNTS[_check_kind(kind)]
    return (_tube_counts(counts, m, n) for m in ms for n in ns)


# The generators chain runs of zip(ids slice, ids slice) per row, so the
# per-edge work runs in C and no edge list is built: Graph reads each pair
# and drops it, and zip reuses its result tuple. Each row's wrap-around edge
# is a one-element run. Slicing one ids list, not two ranges, makes the
# edges Graph keeps share one int object per vertex. The loop versions, one
# iteration per edge, are kept in the tests as the reference.
def _zigzag_edges(m: int, n: int) -> Iterator[Edge]:
    width = 2 * m
    ids = list(range((n + 1) * width))

    def runs() -> Iterator[Iterable[Edge]]:
        for r in range(n + 1):
            base, end = r * width, (r + 1) * width
            yield zip(ids[base : end - 1], ids[base + 1 : end])
            yield ((ids[end - 1], ids[base]),)
        for r in range(n):
            low = r * width + r % 2
            high = low + width
            yield zip(ids[low:high:2], ids[high : high + width : 2])

    return chain.from_iterable(runs())


def _armchair_edges(m: int, n: int) -> Iterator[Edge]:
    width = 2 * m
    ids = list(range((n + 2) * width))

    def runs() -> Iterator[Iterable[Edge]]:
        yield zip(ids[: (n + 1) * width], ids[width:])
        for r in range(n + 2):
            base, end = r * width, (r + 1) * width
            if r % 2 == 0:
                yield zip(ids[base:end:2], ids[base + 1 : end : 2])
            else:
                yield zip(ids[base + 1 : end - 1 : 2], ids[base + 2 : end : 2])
                yield ((ids[end - 1], ids[base]),)

    return chain.from_iterable(runs())


def build_nanotube(spec: NanotubeSpec) -> Graph:
    """Construct the tube graph for spec; connected, all degrees in {2, 3}.

    Refuses, before generating any edge, a tube with more than
    MAX_BUILD_EDGES edges. Like each count function here, it refuses a spec
    that is not a NanotubeSpec with InvalidSpecError.
    """
    edge_count = tube_edge_count(spec)
    if edge_count > MAX_BUILD_EDGES:
        raise TubeTooLargeError(
            f"{spec.kind.value} tube m={spec.m}, n={spec.n} has {edge_count} edges, "
            f"more than the {MAX_BUILD_EDGES} a built graph may have"
        )
    if spec.kind is NanotubeKind.ARMCHAIR:
        edges = _armchair_edges(spec.m, spec.n)
    else:
        edges = _zigzag_edges(spec.m, spec.n)
    return Graph(tube_vertex_count(spec), edges)


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
