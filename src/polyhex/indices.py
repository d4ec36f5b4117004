"""Degree-based topological indices as edge-function sums.

Every index here has the shape sum over edges uv of f(d_u, d_v), and f
depends only on the endpoint degree pair, so every index is summed one way:
count * f(class) over the degree classes of an EdgePartition, whether the
partition was read off a built graph or came from the tube count formulas.
The augmented Zagreb index uses exact rational arithmetic end to end (its
terms are rational, and exactness is what makes closed-form adjudication
unambiguous); the Randic and atom-bond connectivity indices sum irrational
terms with math.fsum in sorted degree-class order, so results are
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .graph import EdgePartition, Graph, edge_partition

__all__ = [
    "ABC",
    "AZI",
    "EDGE_FUNCTIONS",
    "EdgeFunction",
    "IndexValue",
    "RANDIC",
    "UndefinedTermError",
    "abc",
    "abc_term",
    "azi",
    "azi_term",
    "index_from_partition",
    "randic",
    "randic_term",
]


class UndefinedTermError(ValueError):
    """An edge function was evaluated where its denominator vanishes."""


def _check_degrees(d_u: int, d_v: int) -> None:
    if d_u < 1 or d_v < 1:
        raise ValueError(f"edge endpoint degrees must be >= 1 (got ({d_u}, {d_v}))")


def azi_term(d_u: int, d_v: int) -> Fraction:
    """Exact augmented Zagreb term (d_u*d_v / (d_u+d_v-2))**3.

    Undefined when both endpoints have degree 1 (zero denominator).
    """
    _check_degrees(d_u, d_v)
    if d_u + d_v == 2:
        raise UndefinedTermError(
            "augmented Zagreb term is undefined for degree pair (1, 1)"
        )
    return Fraction(d_u * d_v, d_u + d_v - 2) ** 3


def randic_term(d_u: int, d_v: int) -> float:
    """Randic term 1/sqrt(d_u*d_v)."""
    _check_degrees(d_u, d_v)
    return 1.0 / math.sqrt(d_u * d_v)


def abc_term(d_u: int, d_v: int) -> float:
    """Atom-bond connectivity term sqrt((d_u+d_v-2) / (d_u*d_v)); 0 at (1, 1)."""
    _check_degrees(d_u, d_v)
    return math.sqrt((d_u + d_v - 2) / (d_u * d_v))


@dataclass(frozen=True)
class IndexValue:
    """An index result: float always, exact rational when the index has one."""

    exact: Fraction | None
    approx: float

    @classmethod
    def from_exact(cls, value: Fraction) -> "IndexValue":
        return cls(exact=value, approx=float(value))

    @classmethod
    def from_float(cls, value: float) -> "IndexValue":
        return cls(exact=None, approx=value)


@dataclass(frozen=True)
class EdgeFunction:
    """A symmetric per-edge term f(d_u, d_v) plus how to accumulate it."""

    name: str
    term: Callable[[int, int], Fraction | float]
    exact: bool


AZI = EdgeFunction("azi", azi_term, exact=True)
RANDIC = EdgeFunction("randic", randic_term, exact=False)
ABC = EdgeFunction("abc", abc_term, exact=False)

EDGE_FUNCTIONS: dict[str, EdgeFunction] = {f.name: f for f in (AZI, RANDIC, ABC)}


def azi(g: Graph) -> IndexValue:
    """Exact augmented Zagreb index of g, summed over its degree classes."""
    return index_from_partition(edge_partition(g), AZI)


def randic(g: Graph) -> IndexValue:
    """Randic index of g, summed over its degree classes."""
    return index_from_partition(edge_partition(g), RANDIC)


def abc(g: Graph) -> IndexValue:
    """Atom-bond connectivity index of g, summed over its degree classes."""
    return index_from_partition(edge_partition(g), ABC)


def index_from_partition(partition: EdgePartition, f: EdgeFunction) -> IndexValue:
    """Sum count * f(d_min, d_max) over the partition's degree classes.

    Exact edge functions sum Fractions exactly; the others sum with
    math.fsum in sorted degree-class order, so the result is deterministic.
    """
    terms = (count * f.term(*pair) for pair, count in partition.classes.items())
    if f.exact:
        return IndexValue.from_exact(sum(terms, Fraction(0)))
    return IndexValue.from_float(math.fsum(terms))
