"""Independent brute-force oracles and small graph builders for the tests.

Everything here works from a raw edge list, on purpose: degrees, components
and girth are recomputed from scratch rather than read off the Graph object
under test. Extended-precision references use mpmath at 50 digits.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction

import mpmath

from polyhex import Graph

mpmath.mp.dps = 50

Edge = tuple[int, int]


def degrees_from_edges(vertex_count: int, edges: list[Edge]) -> list[int]:
    degs = [0] * vertex_count
    for u, v in edges:
        degs[u] += 1
        degs[v] += 1
    return degs


def partition_from_edges(vertex_count: int, edges: list[Edge]) -> dict[Edge, int]:
    degs = degrees_from_edges(vertex_count, edges)
    return dict(
        Counter((min(degs[u], degs[v]), max(degs[u], degs[v])) for u, v in edges)
    )


def component_count(vertex_count: int, edges: list[Edge]) -> int:
    adjacency: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = [False] * vertex_count
    components = 0
    for start in range(vertex_count):
        if seen[start]:
            continue
        components += 1
        seen[start] = True
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in adjacency[x]:
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
    return components


def girth(vertex_count: int, edges: list[Edge]) -> int | None:
    """Length of a shortest cycle via BFS from every vertex; None if acyclic."""
    adjacency: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    best: int | None = None
    for start in range(vertex_count):
        dist = {start: 0}
        parent = {start: -1}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in adjacency[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
                elif parent[x] != y:
                    cycle = dist[x] + dist[y] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def azi_reference(vertex_count: int, edges: list[Edge]) -> Fraction:
    degs = degrees_from_edges(vertex_count, edges)
    total = Fraction(0)
    for u, v in edges:
        total += Fraction(degs[u] * degs[v], degs[u] + degs[v] - 2) ** 3
    return total


def randic_reference(vertex_count: int, edges: list[Edge]) -> mpmath.mpf:
    degs = degrees_from_edges(vertex_count, edges)
    return mpmath.fsum(1 / mpmath.sqrt(degs[u] * degs[v]) for u, v in edges)


def abc_reference(vertex_count: int, edges: list[Edge]) -> mpmath.mpf:
    degs = degrees_from_edges(vertex_count, edges)
    return mpmath.fsum(
        mpmath.sqrt(mpmath.mpf(degs[u] + degs[v] - 2) / (degs[u] * degs[v]))
        for u, v in edges
    )


def rel_close(value: float, reference, rel: float = 1e-12) -> bool:
    reference = mpmath.mpf(reference)
    if reference == 0:
        return value == 0
    return abs(mpmath.mpf(value) - reference) / abs(reference) <= rel


def cycle_graph(length: int) -> Graph:
    return Graph(length, [(i, (i + 1) % length) for i in range(length)])


def path_graph(length: int) -> Graph:
    return Graph(length, [(i, i + 1) for i in range(length - 1)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    shift = g.vertex_count
    edges = list(g.edges) + [(u + shift, v + shift) for u, v in h.edges]
    return Graph(g.vertex_count + h.vertex_count, edges)
