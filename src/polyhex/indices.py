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

Each term function caches its value per degree pair (a tube has at most
three pairs), and edge_partition caches the partition on its Graph, so
azi, randic and abc on one graph partition it once.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from fractions import Fraction
from itertools import starmap
from operator import mul

from .graph import EdgePartition, Graph, _Value, edge_partition

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


# Bound on cached degree pairs per term function (tubes use three). Typed,
# so a float or bool degree is never answered from an int pair's entry.
_TERM_CACHE_SIZE = 1024


class UndefinedTermError(ValueError):
    """An edge function was evaluated where its denominator vanishes."""


def _check_degrees(d_u: int, d_v: int) -> None:
    if type(d_u) is not int or type(d_v) is not int:
        raise ValueError(f"edge endpoint degrees must be ints (got ({d_u!r}, {d_v!r}))")
    if d_u < 1 or d_v < 1:
        raise ValueError(f"edge endpoint degrees must be >= 1 (got ({d_u}, {d_v}))")


@functools.lru_cache(maxsize=_TERM_CACHE_SIZE, typed=True)
def azi_term(d_u: int, d_v: int) -> Fraction:
    """Exact augmented Zagreb term (d_u*d_v / (d_u+d_v-2))**3.

    Each term function takes int degrees >= 1, else ValueError; an
    unhashable degree raises TypeError from the cache before that check.
    Undefined when both endpoints have degree 1 (zero denominator).
    """
    _check_degrees(d_u, d_v)
    if d_u + d_v == 2:
        raise UndefinedTermError(
            "augmented Zagreb term is undefined for degree pair (1, 1)"
        )
    return Fraction(d_u * d_v, d_u + d_v - 2) ** 3


@functools.lru_cache(maxsize=_TERM_CACHE_SIZE, typed=True)
def randic_term(d_u: int, d_v: int) -> float:
    """Randic term 1/sqrt(d_u*d_v); degrees checked as in azi_term."""
    _check_degrees(d_u, d_v)
    return 1.0 / math.sqrt(d_u * d_v)


@functools.lru_cache(maxsize=_TERM_CACHE_SIZE, typed=True)
def abc_term(d_u: int, d_v: int) -> float:
    """ABC term sqrt((d_u+d_v-2) / (d_u*d_v)), 0 at (1, 1); degrees checked as in azi_term."""
    _check_degrees(d_u, d_v)
    return math.sqrt((d_u + d_v - 2) / (d_u * d_v))


class IndexValue(_Value):
    """An index result: float always, exact rational when the index has one."""

    __slots__ = __match_args__ = ("exact", "approx")

    def __init__(self, exact: Fraction | None, approx: float) -> None:
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "approx", approx)


# index_from_partition fills an IndexValue through these, skipping __init__
_set_exact, _set_approx = IndexValue.exact.__set__, IndexValue.approx.__set__


class EdgeFunction(_Value):
    """A symmetric per-edge term f(d_u, d_v) plus how to accumulate it.

    An exact term returns values with numerator and denominator (Fraction or int).
    """

    # No __slots__: benchmarks/tracing.py finds .term in the instance __dict__.
    __match_args__ = ("name", "term", "exact")

    def __init__(self, name: str, term: Callable[[int, int], Fraction | float],
                 exact: bool) -> None:
        if not (isinstance(name, str) and callable(term) and isinstance(exact, bool)):
            raise ValueError("an EdgeFunction needs a str name, a callable term and a bool "
                             f"exact (got {name!r}, {term!r}, {exact!r})")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "term", term)
        object.__setattr__(self, "exact", exact)


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

    Exact edge functions accumulate one integer numerator over the running
    lcm of the term denominators and reduce once; the float approximation
    is num / den, which int true division rounds correctly. The others sum
    with math.fsum in sorted degree-class order, so the result is
    deterministic. A partition that is not an EdgePartition, or an f that is
    not an EdgeFunction, raises ValueError, and so does an exact f whose
    term has no numerator and denominator.
    """
    if not isinstance(partition, EdgePartition):
        raise ValueError(f"partition must be an EdgePartition (got {type(partition).__name__})")
    if not isinstance(f, EdgeFunction):
        raise ValueError(f"f must be an EdgeFunction such as AZI (got {f!r})")
    classes, term = partition.classes, f.term
    if f.exact:
        num, den = 0, 1
        for pair, count in classes.items():
            q = term(*pair)
            try:
                term_num, term_den = q.numerator, q.denominator
            except AttributeError:
                raise ValueError(f"exact edge function {f.name!r} gave {q!r} at {pair}, "
                                 "which has no numerator and denominator") from None
            if den % term_den:  # else den is already a common multiple
                lcm = math.lcm(den, term_den)
                num, den = num * (lcm // den), lcm
            num += count * term_num * (den // term_den)
        exact, approx = Fraction(num, den), num / den
    else:  # count * f(class) for each class, in the partition's sorted order
        exact, approx = None, math.fsum(map(mul, classes.values(), starmap(term, classes)))
    value = object.__new__(IndexValue)
    _set_exact(value, exact)
    _set_approx(value, approx)
    return value
