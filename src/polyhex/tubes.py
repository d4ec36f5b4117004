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

With open tube ends (no caps) this yields exactly the known degree-class
structure: armchair {(2,2): 2m, (2,3): 4m, (3,3): 3mn-2m} with 2m(n+2)
vertices and 3mn+4m edges; zigzag {(2,3): 4m, (3,3): 3mn-2m} with 2mn+2m
vertices and 3mn+2m edges. Any construction with these counts is equivalent
for every degree-based index.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .graph import Edge, EdgePartition, Graph

__all__ = [
    "MAX_BUILD_EDGES",
    "InvalidSpecError",
    "NanotubeKind",
    "NanotubeSpec",
    "TubeTooLargeError",
    "build_nanotube",
    "tube_edge_count",
    "tube_edge_partition",
    "tube_vertex_count",
    "validate_ranges",
]


# Largest tube build_nanotube constructs. Building peaks near 240 traced bytes
# per edge (65.8 MB for the 271,200-edge armchair [300, 300]), so this caps a
# build near 1.2 GB. Counts and indices of larger tubes come from
# tube_edge_partition, which builds no graph.
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
        except ValueError:
            raise InvalidSpecError(
                f"unknown nanotube kind {name!r} (expected 'armchair' or 'zigzag')"
            ) from None


@dataclass(frozen=True)
class NanotubeSpec:
    """Tube parameters: kind plus circumference m and row count n.

    m = 1 would duplicate circumference edges (a multigraph), n = 0 would
    make the (3,3) degree class negative, so both are rejected.
    """

    kind: NanotubeKind
    m: int
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.kind, NanotubeKind):
            raise InvalidSpecError(f"kind must be a NanotubeKind (got {self.kind!r})")
        for name, value in (("m", self.m), ("n", self.n)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidSpecError(f"{name} must be an int (got {value!r})")
        if self.m < 2:
            raise InvalidSpecError(f"m must be >= 2 (got {self.m})")
        if self.n < 1:
            raise InvalidSpecError(f"n must be >= 1 (got {self.n})")


def tube_vertex_count(spec: NanotubeSpec) -> int:
    if spec.kind is NanotubeKind.ARMCHAIR:
        return 2 * spec.m * (spec.n + 2)
    return 2 * spec.m * spec.n + 2 * spec.m


def tube_edge_count(spec: NanotubeSpec) -> int:
    if spec.kind is NanotubeKind.ARMCHAIR:
        return 3 * spec.m * spec.n + 4 * spec.m
    return 3 * spec.m * spec.n + 2 * spec.m


def tube_edge_partition(spec: NanotubeSpec) -> EdgePartition:
    """Degree-class edge counts from closed count formulas, no graph built.

    This is the O(1) fast path for index computation on large tubes; it is
    held equal to edge_partition(build_nanotube(spec)) by the test grid.
    """
    m, n = spec.m, spec.n
    classes = {(2, 3): 4 * m, (3, 3): 3 * m * n - 2 * m}
    if spec.kind is NanotubeKind.ARMCHAIR:
        classes[2, 2] = 2 * m
    return EdgePartition(classes)


def _zigzag_edges(m: int, n: int) -> list[Edge]:
    width = 2 * m
    edges: list[Edge] = []
    for r in range(n + 1):
        base = r * width
        for c in range(width):
            edges.append((base + c, base + (c + 1) % width))
    for r in range(n):
        base = r * width
        for c in range(r % 2, width, 2):
            edges.append((base + c, base + width + c))
    return edges


def _armchair_edges(m: int, n: int) -> list[Edge]:
    width = 2 * m
    edges: list[Edge] = []
    for r in range(n + 1):
        base = r * width
        for c in range(width):
            edges.append((base + c, base + width + c))
    for r in range(n + 2):
        base = r * width
        if r % 2 == 0:
            for i in range(m):
                edges.append((base + 2 * i, base + 2 * i + 1))
        else:
            for i in range(m):
                edges.append((base + 2 * i + 1, base + (2 * i + 2) % width))
    return edges


def build_nanotube(spec: NanotubeSpec) -> Graph:
    """Construct the tube graph for spec; connected, all degrees in {2, 3}.

    Refuses, before generating any edge, a tube with more than
    MAX_BUILD_EDGES edges.
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


def validate_ranges(m_range: tuple[int, int], n_range: tuple[int, int]) -> None:
    """Check inclusive (lo, hi) grid ranges against the tube parameter domain."""
    for name, (lo, hi) in (("m", m_range), ("n", n_range)):
        if lo > hi:
            raise ValueError(
                f"empty range {lo}:{hi} for {name} (lower bound must not exceed upper bound)"
            )
    if m_range[0] < 2:
        raise InvalidSpecError(f"m must be >= 2 (range starts at {m_range[0]})")
    if n_range[0] < 1:
        raise InvalidSpecError(f"n must be >= 1 (range starts at {n_range[0]})")
