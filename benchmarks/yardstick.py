"""A fixed reference task that measures how fast the machine is right now.

Shared machines change speed by tens of percent over minutes, as other
tenants load the host, so raw pass times of runs made minutes apart are not
comparable. Each timed pass is therefore bracketed by two runs of this task,
each in its own fresh interpreter, and the pass time is divided by their
mean. The task never calls polyhex, so it is the same on every commit. Its
three parts mimic the three workloads, because contention slows large and
small working sets differently: one large tube-like graph (sorting, sets,
adjacency lists, exact sums, JSON), many small ones with a per-point JSON
report, and CSV rows of exact and float index values.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

# Time of one `run()` on an otherwise idle core of the 2.1 GHz Xeon the
# benchmark was calibrated on; normalized times are reported in its seconds.
# Changing it, or the task below, rescales every reported time.
REFERENCE_S = 0.4


def _lattice(m: int, n: int) -> tuple[list[tuple[int, int]], Fraction]:
    """Edges of a zigzag-like lattice, canonical and sorted, and their exact term sum."""
    width = 2 * m
    edges = []
    for r in range(n + 1):
        base = r * width
        for c in range(width):
            edges.append((base + c, base + (c + 1) % width))
    for r in range(n):
        base = r * width
        for c in range(r % 2, width, 2):
            edges.append((base + width + c, base + c))
    seen: set[tuple[int, int]] = set()
    canonical = []
    for u, v in edges:
        edge = (u, v) if u < v else (v, u)
        if edge in seen:
            raise ValueError(f"duplicate edge {edge}")
        seen.add(edge)
        canonical.append(edge)
    canonical.sort()
    adjacency: list[list[int]] = [[] for _ in range(width * (n + 1))]
    for u, v in canonical:
        adjacency[u].append(v)
        adjacency[v].append(u)
    degree = [len(nbrs) for nbrs in adjacency]
    terms: dict[tuple[int, int], Fraction] = {}
    total = Fraction(0)
    for u, v in canonical:
        pair = (degree[u], degree[v])
        if pair not in terms:
            terms[pair] = Fraction(pair[0] * pair[1], pair[0] + pair[1] - 2) ** 3
        total += terms[pair]
    return canonical, total


def _large() -> int:
    edges, total = _lattice(40, 90)
    return len(json.dumps([[u, v] for u, v in edges], separators=(",", ":"))) + total.denominator


def _small() -> int:
    points = []
    for m in range(2, 16):
        for n in range(1, 15):
            _, total = _lattice(m, n)
            for k in range(6):
                claimed = Fraction(2187, 64) * m * n + Fraction(k - 573, 64) * m
                points.append({"m": m, "n": n, "difference": {
                    "num": (claimed - total).numerator, "den": (claimed - total).denominator}})
    return len(json.dumps({"points": points}, indent=2))


def _rows() -> int:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for k in range(2, 5000):
        classes = {(2, 2): 2 * k, (2, 3): 4 * k, (3, 3): 148 * k}
        exact = sum((c * Fraction(a * b, a + b - 2) ** 3 for (a, b), c in classes.items()), Fraction(0))
        randic = math.fsum(c / math.sqrt(a * b) for (a, b), c in classes.items())
        abc = math.fsum(c * math.sqrt((a + b - 2) / (a * b)) for (a, b), c in classes.items())
        writer.writerow([k, exact.numerator, exact.denominator, f"{float(exact):.15g}", f"{randic:.15g}", f"{abc:.15g}"])
    return len(buffer.getvalue())


def run() -> int:
    """The reference task; returns a checksum so no step can be skipped."""
    return _large() + _large() + _small() + _rows()
