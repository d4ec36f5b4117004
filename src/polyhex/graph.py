"""Immutable undirected simple graphs with degree queries and edge partitions.

Vertices are dense integer ids 0..vertex_count-1. Edges are stored once in
canonical (low, high) order, as one flat list of ids u0, v0, u1, v1, ...
sorted lexicographically by pair, so everything downstream (index sums,
serialized output) is deterministic.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import chain, islice
from operator import add
from types import MappingProxyType

Edge = tuple[int, int]
DegreePair = tuple[int, int]

__all__ = [
    "DuplicateEdgeError",
    "EdgePartition",
    "Graph",
    "GraphError",
    "SelfLoopError",
    "VertexOutOfRangeError",
    "edge_partition",
]


# Most vertices a Graph holds. Its degree list takes 8 bytes a vertex: 240 MB
# traced for an edgeless Graph at the cap, near the 250 MB peak of a tube of
# tubes.MAX_BUILD_EDGES edges, and such a tube has fewer vertices than edges.
_MAX_VERTICES = 30_000_000


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
    def __init__(self, edge: Edge, vertex_count: int):
        self.edge = edge
        super().__init__(
            f"edge {edge} is out of range for a graph on vertices 0..{vertex_count - 1}"
        )


class Graph:
    """Undirected simple graph, immutable after construction.

    Stores the sorted canonical edges as one flat list of vertex ids, u0,
    v0, u1, v1, ..., and the degree of every vertex as a list; .edges and
    .degrees build a tuple of either on each call. The loop that checks each
    edge also checks that the canonical pairs strictly rise (a tube's do);
    only other input is sorted and scanned for duplicates. The partition is
    kept from the first edge_partition call, so azi, randic and abc on one
    graph count its edges once.

    Construction raises a GraphError (a ValueError) for bad input, in this
    order of precedence:

    * a vertex_count that is not an int, or is outside 0..30,000,000
      (_MAX_VERTICES, refused before anything is allocated);
    * the first faulty edge in input order: one that is a self-loop
      (SelfLoopError), has an endpoint outside 0..vertex_count-1
      (VertexOutOfRangeError; an out-of-range self-loop counts as a
      self-loop), or is not a pair of ints (a plain GraphError);
    * only when every edge passed those checks, a duplicate edge, in
      either orientation (DuplicateEdgeError for the smallest duplicated
      canonical edge).

    Endpoints are not type-checked one by one: an int subclass is accepted
    as its value, so bool ids are read as 0 and 1.
    """

    __slots__ = ("_vertex_count", "_ids", "_degrees", "_partition")

    def __init__(self, vertex_count: int, edges: Iterable[Edge]):
        if type(vertex_count) is not int:
            raise GraphError(f"vertex_count must be an int (got {vertex_count!r})")
        if not 0 <= vertex_count <= _MAX_VERTICES:
            raise GraphError(f"vertex_count must be in 0..{_MAX_VERTICES} (got {vertex_count})")
        ids: list[int] = []
        extend = ids.extend
        degrees = [0] * vertex_count
        ordered, low, high = True, -1, -1  # (low, high): the canonical pair before
        try:
            for u, v in edges:
                if u < v:
                    lo, hi = u, v
                elif v < u:
                    lo, hi = v, u
                else:
                    raise SelfLoopError((u, v))
                if lo < 0 or hi >= vertex_count:
                    raise VertexOutOfRangeError((u, v), vertex_count)
                if lo <= low and (lo < low or hi <= high):
                    ordered = False
                low, high = lo, hi
                extend((lo, hi))
                degrees[u] += 1
                degrees[v] += 1
        except GraphError:
            raise
        except (TypeError, ValueError) as exc:
            # a non-pair edge fails to unpack, a non-int endpoint fails to
            # compare or to index the degree list
            raise GraphError(f"edges must be pairs of int vertex ids ({exc})") from exc
        if not ordered:
            canonical = sorted(zip(ids[::2], ids[1::2]))
            for a, b in zip(canonical, islice(canonical, 1, None)):
                if a == b:
                    raise DuplicateEdgeError(a)
            ids = list(chain.from_iterable(canonical))
        self._vertex_count = vertex_count
        self._ids = ids
        self._degrees = degrees
        self._partition: EdgePartition | None = None

    @property
    def vertex_count(self) -> int:
        return self._vertex_count

    @property
    def edge_count(self) -> int:
        return len(self._ids) // 2

    @property
    def edges(self) -> tuple[Edge, ...]:
        """All edges, canonical (low, high), sorted lexicographically; built per call, O(E)."""
        ids = iter(self._ids)
        return tuple(zip(ids, ids))

    @property
    def degrees(self) -> tuple[int, ...]:
        """Degree of every vertex, indexed by vertex id; built per call, O(V)."""
        return tuple(self._degrees)

    def __repr__(self) -> str:
        return f"Graph(vertex_count={self._vertex_count}, edge_count={self.edge_count})"


class _Value:
    """Base of the immutable value classes, compared, hashed and printed by field.

    A subclass's __match_args__ names its fields in argument order, and its
    __init__ sets each one with object.__setattr__.
    """

    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __reduce__(self) -> tuple:  # pickle and copy rebuild through __init__
        return type(self), self._astuple()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class EdgePartition(_Value):
    """Edges of a graph grouped by the unordered degree pair of their endpoints.

    Keys are (d_min, d_max) with 1 <= d_min <= d_max; counts are positive.
    Iteration order is sorted by degree pair.
    """

    __slots__ = __match_args__ = ("classes",)

    def __init__(self, classes: Mapping[DegreePair, int]) -> None:
        if not isinstance(classes, Mapping):
            raise ValueError(
                f"classes must map degree pairs to counts (got {type(classes).__name__})"
            )
        # Exact type checks, before sorting compares the keys: bool is an int
        # subclass, and index sums accumulate counts as exact integers.
        for pair, count in classes.items():
            if not (isinstance(pair, tuple) and len(pair) == 2
                    and type(pair[0]) is int and type(pair[1]) is int):
                raise ValueError(f"degree class {pair!r} must be a pair of ints")
            if type(count) is not int:
                raise ValueError(f"degree class {pair} has non-int count {count!r}")
        cleaned: dict[DegreePair, int] = {}
        for pair, count in sorted(classes.items()):
            lo, hi = pair
            if not 1 <= lo <= hi:
                raise ValueError(f"degree class {pair} must satisfy 1 <= d_min <= d_max")
            if count < 0:
                raise ValueError(f"degree class {pair} has negative count {count}")
            if count:
                cleaned[lo, hi] = count
        object.__setattr__(self, "classes", MappingProxyType(cleaned))

    def __reduce__(self) -> tuple:  # a mappingproxy cannot be copied or pickled
        return type(self), (dict(self.classes),)


# Sets the classes of a partition made by object.__new__, as tubes._tube_rows does
_set_classes = EdgePartition.classes.__set__


def _degree_codes(
    us: Iterable[int], vs: Iterable[int], scaled: Sequence[int], degrees: Sequence[int]
) -> Iterator[int]:
    """The int scaled[u] + degrees[v] of each edge u-v, u and v read in step from us and vs.

    scaled[v] is degrees[v] * base for a base above every degree, so
    _partition_from_codes can decode each count to its degree pair. No
    tuple is made per edge.
    """
    return map(add, map(scaled.__getitem__, us), map(degrees.__getitem__, vs))


def _partition_from_codes(codes: Mapping[int, int], base: int) -> EdgePartition:
    """Sum counts of _degree_codes codes, in either endpoint order, per unordered pair."""
    classes: Counter[DegreePair] = Counter()
    for code, count in codes.items():
        du, dv = divmod(code, base)
        classes[(du, dv) if du <= dv else (dv, du)] += count
    return EdgePartition(classes)


def edge_partition(g: Graph) -> EdgePartition:
    """Count g's edges per unordered endpoint-degree pair.

    The first call on g counts its edges and stores the partition on g;
    later calls return that same object. A g that is not a Graph raises
    GraphError.
    """
    if not isinstance(g, Graph):
        raise GraphError(f"can only partition a Graph (got {type(g).__name__})")
    if g._partition is None:
        degrees = g._degrees
        base = max(degrees, default=0) + 1
        scaled = [d * base for d in degrees]
        us, vs = islice(g._ids, 0, None, 2), islice(g._ids, 1, None, 2)
        g._partition = _partition_from_codes(Counter(_degree_codes(us, vs, scaled, degrees)), base)
    return g._partition
