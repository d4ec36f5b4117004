"""Immutable undirected simple graphs with degree queries and edge partitions.

Vertices are dense integer ids 0..vertex_count-1. Edges are stored once in
canonical (low, high) order and iterated in sorted lexicographic order, so
everything downstream (index sums, serialized output) is deterministic.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

Edge = tuple[int, int]
DegreePair = tuple[int, int]

__all__ = [
    "DegreePair",
    "DuplicateEdgeError",
    "Edge",
    "EdgePartition",
    "Graph",
    "GraphError",
    "SelfLoopError",
    "VertexOutOfRangeError",
    "edge_partition",
    "is_connected",
]


class GraphError(ValueError):
    """Base class for invalid graph construction or queries."""


class SelfLoopError(GraphError):
    def __init__(self, edge: Edge):
        self.edge = edge
        super().__init__(f"self-loop edge {edge} is not allowed")


class DuplicateEdgeError(GraphError):
    def __init__(self, edge: Edge):
        self.edge = edge
        super().__init__(f"duplicate edge {edge}")


class VertexOutOfRangeError(GraphError):
    def __init__(self, offender: Edge | int, vertex_count: int):
        self.offender = offender
        what = f"edge {offender}" if isinstance(offender, tuple) else f"vertex {offender}"
        super().__init__(
            f"{what} is out of range for a graph on vertices 0..{vertex_count - 1}"
        )


class Graph:
    """Undirected simple graph, immutable after construction.

    Stores the sorted canonical edges and the degree of every vertex, which
    is all that degree partitions and edge-function sums read.
    """

    __slots__ = ("_vertex_count", "_edges", "_degrees")

    def __init__(self, vertex_count: int, edges: Iterable[Edge]):
        if vertex_count < 0:
            raise GraphError(f"vertex_count must be non-negative (got {vertex_count})")
        canonical: list[Edge] = []
        seen: set[Edge] = set()
        for edge in edges:
            u, v = edge
            if u == v:
                raise SelfLoopError((u, v))
            if u > v:
                u, v = v, u
            if u < 0 or v >= vertex_count:
                raise VertexOutOfRangeError((edge[0], edge[1]), vertex_count)
            e = (u, v)
            if e in seen:
                raise DuplicateEdgeError(e)
            seen.add(e)
            canonical.append(e)
        canonical.sort()
        degrees = [0] * vertex_count
        for u, v in canonical:
            degrees[u] += 1
            degrees[v] += 1
        self._vertex_count = vertex_count
        self._edges = tuple(canonical)
        self._degrees = tuple(degrees)

    @property
    def vertex_count(self) -> int:
        return self._vertex_count

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """All edges, canonical (low, high), sorted lexicographically."""
        return self._edges

    @property
    def degrees(self) -> tuple[int, ...]:
        """Degree of every vertex, indexed by vertex id."""
        return self._degrees

    def degree(self, v: int) -> int:
        if not 0 <= v < self._vertex_count:
            raise VertexOutOfRangeError(v, self._vertex_count)
        return self._degrees[v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertex_count == other._vertex_count and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._vertex_count, self._edges))

    def __repr__(self) -> str:
        return f"Graph(vertex_count={self._vertex_count}, edge_count={self.edge_count})"


@dataclass(frozen=True)
class EdgePartition:
    """Edges of a graph grouped by the unordered degree pair of their endpoints.

    Keys are (d_min, d_max) with 1 <= d_min <= d_max; counts are positive.
    Iteration order is sorted by degree pair.
    """

    classes: Mapping[DegreePair, int]

    def __post_init__(self) -> None:
        cleaned: dict[DegreePair, int] = {}
        for pair in sorted(self.classes):
            count = self.classes[pair]
            lo, hi = pair
            if not 1 <= lo <= hi:
                raise ValueError(f"degree class {pair} must satisfy 1 <= d_min <= d_max")
            if count < 0:
                raise ValueError(f"degree class {pair} has negative count {count}")
            if count:
                cleaned[lo, hi] = count
        object.__setattr__(self, "classes", MappingProxyType(cleaned))

    @property
    def total(self) -> int:
        """Number of edges covered; equals the source graph's edge count."""
        return sum(self.classes.values())


def edge_partition(g: Graph) -> EdgePartition:
    """Count g's edges per unordered endpoint-degree pair."""
    degrees = g.degrees
    counts: Counter[DegreePair] = Counter()
    for u, v in g.edges:
        du, dv = degrees[u], degrees[v]
        counts[(du, dv) if du <= dv else (dv, du)] += 1
    return EdgePartition(counts)


def is_connected(g: Graph) -> bool:
    """True iff g has a single connected component (vacuously true when empty)."""
    if g.vertex_count == 0:
        return True
    adjacency: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = bytearray(g.vertex_count)
    seen[0] = 1
    reached = 1
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y in adjacency[x]:
            if not seen[y]:
                seen[y] = 1
                reached += 1
                queue.append(y)
    return reached == g.vertex_count
