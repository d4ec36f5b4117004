"""Independent brute-force oracles and small graph builders for the tests.

Everything here works from a raw edge list, on purpose: degrees,
connectivity, components and girth are recomputed from scratch rather than
read off the Graph object under test. Extended-precision references use
the decimal module at 50 digits, as do the checks of the CLI's decimal
strings. The reference sweep CSV is rendered by csv.writer, one
NanotubeSpec and tube_edge_partition per row, with cells formatted here.
"""

from __future__ import annotations

import csv
import decimal
import io
from collections import Counter, deque
from fractions import Fraction

from polyhex import (
    EDGE_FUNCTIONS,
    Graph,
    NanotubeKind,
    NanotubeSpec,
    index_from_partition,
    tube_edge_count,
    tube_edge_partition,
    tube_vertex_count,
)

# Every reference operation runs in this context: sum() and + use the
# current context, whose default precision is 28 digits.
REFERENCE_CONTEXT = decimal.Context(prec=50)

Edge = tuple[int, int]

# Each kind's edge count per degree class, written by hand rather than read off
# a built tube: (c_mn, c_m) for a count of (c_mn*n + c_m)*m. Armchair has
# (2,2) 2m, (2,3) 4m and (3,3) 3mn - 2m edges; zigzag (2,3) 4m and (3,3) 3mn - 2m.
CLASS_COUNTS = {
    NanotubeKind.ARMCHAIR: {(2, 2): (0, 2), (2, 3): (0, 4), (3, 3): (3, -2)},
    NanotubeKind.ZIGZAG: {(2, 3): (0, 4), (3, 3): (3, -2)},
}


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


def randic_reference(vertex_count: int, edges: list[Edge]) -> decimal.Decimal:
    degs = degrees_from_edges(vertex_count, edges)
    with decimal.localcontext(REFERENCE_CONTEXT):
        return sum(1 / decimal.Decimal(degs[u] * degs[v]).sqrt() for u, v in edges)


def abc_reference(vertex_count: int, edges: list[Edge]) -> decimal.Decimal:
    degs = degrees_from_edges(vertex_count, edges)
    with decimal.localcontext(REFERENCE_CONTEXT):
        return sum(
            (decimal.Decimal(degs[u] + degs[v] - 2) / (degs[u] * degs[v])).sqrt()
            for u, v in edges
        )


def exact_decimal_reference(q: Fraction) -> str:
    """q in decimal via the decimal module: every digit, trailing zeros dropped,
    when the expansion terminates; otherwise the float to 15 significant digits."""
    num, den = q.numerator, q.denominator
    # a terminating expansion of num / (2**a * 5**b) has at most
    # len(num) + max(a, b) significant digits, and max(a, b) < den.bit_length()
    context = decimal.Context(
        prec=len(str(abs(num))) + den.bit_length() + 1, traps=[decimal.Inexact]
    )
    try:
        value = context.divide(decimal.Decimal(num), decimal.Decimal(den))
    except decimal.Inexact:
        return f"{float(q):.15g}"
    return format(value.normalize(context), "f")


def verify_report_dict(report) -> dict:
    """A DiscrepancyReport as the dict whose json.dumps(indent=2) verify prints,
    built field by field with a dict for every point."""

    def fraction(q: Fraction) -> dict[str, int]:
        return {"num": q.numerator, "den": q.denominator}

    forms = []
    for check in report.checks:
        mismatches = sum(1 for p in check.points if p.difference != 0)
        forms.append({
            "kind": check.form.kind.value,
            "index": check.form.index_name,
            "provenance": check.form.provenance.value,
            "a": fraction(check.form.a),
            "b": fraction(check.form.b),
            "verdict": "inconsistent" if mismatches else "consistent",
            "mismatches": mismatches,
            "points": [
                {
                    "m": p.m,
                    "n": p.n,
                    "claimed": fraction(p.claimed),
                    "oracle": fraction(p.oracle),
                    "difference": fraction(p.difference),
                }
                for p in check.points
            ],
        })
    return {
        "index": "azi",
        "m_range": list(report.m_range),
        "n_range": list(report.n_range),
        "forms": forms,
    }


def sweep_csv_reference(
    kind: str, m_range: tuple[int, int], n_range: tuple[int, int], indices: list[str]
) -> bytes:
    """The CSV that `sweep --kind kind --indices <indices>` writes, from csv.writer
    over a NanotubeSpec and tube_edge_partition per row. An exact index takes
    three cells, num, den and exact_decimal_reference; any other one cell, its
    float to 15 significant digits."""
    kinds = list(NanotubeKind) if kind == "both" else [NanotubeKind(kind)]
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    header = ["kind", "m", "n", "vertices", "edges"]
    for f in EDGE_FUNCTIONS.values():
        header += [f"{f.name}_num", f"{f.name}_den", f.name] if f.exact else [f.name]
    writer.writerow(header)
    for k in sorted(kinds, key=lambda k: k.value):
        for m in range(m_range[0], m_range[1] + 1):
            for n in range(n_range[0], n_range[1] + 1):
                spec = NanotubeSpec(k, m, n)
                partition = tube_edge_partition(spec)
                row = [k.value, m, n, tube_vertex_count(spec), tube_edge_count(spec)]
                for f in EDGE_FUNCTIONS.values():
                    if f.name not in indices:
                        row.extend([""] * (3 if f.exact else 1))
                    elif f.exact:
                        q = index_from_partition(partition, f).exact
                        row.extend([q.numerator, q.denominator, exact_decimal_reference(q)])
                    else:
                        row.append(f"{index_from_partition(partition, f).approx:.15g}")
                writer.writerow(row)
    return out.getvalue().encode()


def rel_close(value: float, reference, rel: float = 1e-12) -> bool:
    with decimal.localcontext(REFERENCE_CONTEXT):
        reference = decimal.Decimal(reference)
        if reference == 0:
            return value == 0
        return abs(decimal.Decimal(value) - reference) / abs(reference) <= decimal.Decimal(rel)


def zigzag_edges_reference(m: int, n: int) -> list[Edge]:
    """Zigzag tube edges, one loop iteration per edge: 2m-cycle rows joined by m rungs.

    Written per kind, apart from the one rule tubes builds both kinds with,
    so that it stays an independent reference."""
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


def armchair_edges_reference(m: int, n: int) -> list[Edge]:
    """Armchair tube edges, one loop iteration per edge: perfect-matching rows
    joined at every column; written per kind, as for zigzag."""
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


def cycle_graph(length: int) -> Graph:
    return Graph(length, [(i, (i + 1) % length) for i in range(length)])


def path_graph(length: int) -> Graph:
    return Graph(length, [(i, i + 1) for i in range(length - 1)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    shift = g.vertex_count
    edges = list(g.edges) + [(u + shift, v + shift) for u, v in h.edges]
    return Graph(g.vertex_count + h.vertex_count, edges)
