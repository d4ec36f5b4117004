"""Degree-based topological indices as edge-function sums.

The index set is closed: AZI, RANDIC and ABC, registered by name in
EDGE_FUNCTIONS, are the only edge functions, and no other can be passed in.
Each has the shape sum over edges uv of f(d_u, d_v), and f depends only on
the endpoint degree pair, so every index is summed one way: count * f(class)
over the degree classes of an EdgePartition, whether the partition was read
off a built graph or came from the tube count formulas.
The augmented Zagreb index uses exact rational arithmetic end to end (its
terms are rational, and exactness is what makes closed-form adjudication
unambiguous): the sum is one integer numerator over one denominator, reduced
once, and its IndexValue holds that pair, making a Fraction only when exact
is read. The Randic and atom-bond connectivity indices sum irrational terms
with math.fsum in sorted degree-class order, so results are deterministic.

Each term function caches its value per degree pair (a tube has at most
three pairs), and edge_partition caches the partition on its Graph, so
azi, randic and abc on one graph partition it once.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Callable
from fractions import Fraction
from itertools import starmap
from operator import mul

from .graph import EdgePartition, Graph, _Value, edge_partition

__all__ = [
    "ABC",
    "AZI",
    "EDGE_FUNCTIONS",
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
    try:
        return 1.0 / math.sqrt(d_u * d_v)
    except OverflowError:
        raise ValueError("randic term needs d_u*d_v as a float, and it is past 1.8e308") from None


@functools.lru_cache(maxsize=_TERM_CACHE_SIZE, typed=True)
def abc_term(d_u: int, d_v: int) -> float:
    """ABC term sqrt((d_u+d_v-2) / (d_u*d_v)), 0 at (1, 1); degrees checked as in azi_term."""
    _check_degrees(d_u, d_v)
    num, den = d_u + d_v - 2, d_u * d_v
    q = num / den
    if q >= sys.float_info.min or not num:
        return math.sqrt(q)
    # q lost digits to underflow (both degrees past about 10**154): take the
    # root of num/den scaled by 4**k into the normal range, then scale it
    # back by 2**-k; both int quotient and sqrt round correctly
    k = (den.bit_length() - num.bit_length()) // 2 + 1
    return math.ldexp(math.sqrt((num << 2 * k) / den), -k)


def _exact_ratio(value: object, what: str) -> tuple[int, int]:
    """(numerator, denominator) of an exact number, else ValueError.

    The one rule for an exact number: an int (no bool or other subclass) or a Fraction.
    """
    if not (type(value) is int or isinstance(value, Fraction)):
        raise ValueError(f"{what} must be an int or a Fraction (got {value!r})")
    return value.numerator, value.denominator


class IndexValue(_Value):
    """An index result: float always, exact rational when the index has one.

    The exact value is held as _ratio, its (numerator, denominator) in lowest
    terms with a positive denominator, or None when the index has no exact
    value; reading exact makes the Fraction. An exact that is not None, an
    int or a Fraction, or an approx that is not a float, is refused with
    ValueError, and an int is read back as a Fraction.
    """

    __slots__ = ("_ratio", "approx")
    __match_args__ = ("exact", "approx")

    def __init__(self, exact: Fraction | None, approx: float) -> None:
        ratio = None if exact is None else _exact_ratio(exact, "an exact index value")
        if not isinstance(approx, float):
            raise ValueError(f"approx must be a float (got {approx!r})")
        object.__setattr__(self, "_ratio", ratio)
        object.__setattr__(self, "approx", approx)

    @property
    def exact(self) -> Fraction | None:
        return None if self._ratio is None else Fraction(*self._ratio)


# index_from_partition fills an IndexValue through these, skipping __init__
_set_ratio, _set_approx = IndexValue._ratio.__set__, IndexValue.approx.__set__


class EdgeFunction(_Value):
    """A symmetric per-edge term f(d_u, d_v) plus how to accumulate it.

    Module-internal: its only instances are AZI, RANDIC and ABC, and copy,
    deepcopy and pickle give back the same one.
    """

    # No __slots__: benchmarks/tracing.py finds .term in the instance __dict__.
    __match_args__ = ("name", "term", "exact")

    def __init__(self, name: str, term: Callable[[int, int], Fraction | float],
                 exact: bool) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "term", term)
        object.__setattr__(self, "exact", exact)

    def __reduce__(self) -> str:  # the module global of that name
        return self.name.upper()

    def __repr__(self) -> str:  # the term by name: a function's repr holds its address
        term = getattr(self.term, "__qualname__", None)
        if type(term) is not str:
            term = repr(self.term)
        return f"EdgeFunction(name={self.name!r}, term={term}, exact={self.exact!r})"


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

    f must be AZI, RANDIC or ABC itself (a copy or a pickle of one is the
    same object), told by identity; anything else, and a partition that is
    not an EdgePartition, raises ValueError, as does a value too large for a
    float. AZI reads each term's integer pair with one as_integer_ratio()
    call and accumulates one integer numerator over the running lcm of the
    denominators; the float approximation is num / den, which int true
    division rounds correctly, and one gcd then reduces the pair the
    IndexValue holds. RANDIC and ABC sum with math.fsum in sorted
    degree-class order, so the result is deterministic.
    """
    if not isinstance(partition, EdgePartition):
        raise ValueError(f"partition must be an EdgePartition (got {type(partition).__name__})")
    classes = partition.classes
    try:  # zero-cost until it raises on 3.11+
        # by identity: a membership test would compare fields through _Value.__eq__
        if f is AZI:
            num, den, term = 0, 1, f.term
            for pair, count in classes.items():
                term_num, term_den = term(*pair).as_integer_ratio()
                if den % term_den:  # else den is already a common multiple
                    lcm = math.lcm(den, term_den)
                    num, den = num * (lcm // den), lcm
                num += count * term_num * (den // term_den)
            divisor = math.gcd(num, den)
            ratio, approx = (num // divisor, den // divisor), num / den
        elif f is RANDIC or f is ABC:  # count * f(class) for each class, in sorted class order
            ratio, approx = None, math.fsum(map(mul, classes.values(), starmap(f.term, classes)))
        else:
            raise ValueError(f"f must be AZI, RANDIC or ABC (got {f!r})")
    except OverflowError:
        raise ValueError(f"the {f.name} index is too large for a float") from None
    value = object.__new__(IndexValue)
    _set_ratio(value, ratio)
    _set_approx(value, approx)
    return value
