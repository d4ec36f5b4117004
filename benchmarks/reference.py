"""Expected values computed independently of polyhex.

Everything here follows from the documented degree-class edge counts of
the two tube families, with `fractions` and `math` only:

    armchair  {(2,2): 2m, (2,3): 4m, (3,3): 3mn - 2m}
    zigzag    {(2,3): 4m, (3,3): 3mn - 2m}

Vertex counts follow from the handshake lemma over those classes.
"""

from __future__ import annotations

import math
from fractions import Fraction

# AZI closed forms a*m*n + b*m as published (stated theorem, final proof line)
# and as the edgewise oracle actually satisfies them (fitted).
A = Fraction(2187, 64)
PUBLISHED_B = {
    ("armchair", "stated"): Fraction(-573, 64),
    ("armchair", "proof"): Fraction(-807, 32),
    ("zigzag", "stated"): Fraction(-597, 64),
    ("zigzag", "proof"): Fraction(-434, 64),
}
FITTED_B = {"armchair": Fraction(807, 32), "zigzag": Fraction(295, 32)}

REL_TOL = 1e-12


def classes(kind: str, m: int, n: int) -> dict[tuple[int, int], int]:
    out = {(2, 3): 4 * m, (3, 3): 3 * m * n - 2 * m}
    if kind == "armchair":
        out[2, 2] = 2 * m
    return dict(sorted(out.items()))


def edge_count(kind: str, m: int, n: int) -> int:
    return sum(classes(kind, m, n).values())


def vertex_count(kind: str, m: int, n: int) -> int:
    """Vertices of degree d number (sum of edge ends of degree d) / d."""
    ends = {2: 0, 3: 0}
    for (du, dv), count in classes(kind, m, n).items():
        ends[du] += count
        ends[dv] += count
    return sum(total // degree for degree, total in ends.items())


def azi(kind: str, m: int, n: int) -> Fraction:
    return sum(
        (count * Fraction(du * dv, du + dv - 2) ** 3 for (du, dv), count in classes(kind, m, n).items()),
        Fraction(0),
    )


def randic(kind: str, m: int, n: int) -> float:
    return math.fsum(count / math.sqrt(du * dv) for (du, dv), count in classes(kind, m, n).items())


def abc(kind: str, m: int, n: int) -> float:
    return math.fsum(
        count * math.sqrt((du + dv - 2) / (du * dv)) for (du, dv), count in classes(kind, m, n).items()
    )


def close(value: float, expected: float) -> bool:
    return abs(value - expected) <= REL_TOL * abs(expected)
