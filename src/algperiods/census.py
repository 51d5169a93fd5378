"""Integer partitions and the census of Morse-Smale mapping classes.

Distinct partitions of the genus g map to distinct Dold classes realized
by homeomorphisms of the genus-g surface, so the partition count P(g) is
a lower bound for the number of conjugacy classes of mapping classes
containing Morse-Smale diffeomorphisms.  The correspondences:

    orientable:       a_n = -2 p_n (n != 1),   a_1 = -2 (p_1 - 1)
    non-orientable:   a_n = -p_n  (n != 1),    a_1 = 2 - p_1

where p_n is the multiplicity of the part n.  Exact counting uses Euler's
pentagonal-number recurrence, O(n^(3/2)) big-integer additions for P(n);
the Hardy-Ramanujan asymptotic is a float-valued diagnostic and never
feeds exact outputs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping

from .arith import DoldClass

__all__ = [
    "Partition",
    "CensusReport",
    "partition_count",
    "enumerate_partitions",
    "hardy_ramanujan_estimate",
    "partition_to_dold_orientable",
    "partition_to_dold_nonorientable",
    "census",
]


class Partition:
    """An unordered partition, stored as multiplicities part -> count."""

    __slots__ = ("_parts",)

    def __init__(self, parts: Mapping[int, int]):
        cleaned: Dict[int, int] = {}
        for k, p in parts.items():
            k, p = operator.index(k), operator.index(p)
            if k < 1 or p < 0:
                raise ValueError("parts must be positive with nonnegative multiplicity")
            if p:
                cleaned[k] = p
        self._parts = dict(sorted(cleaned.items()))

    @classmethod
    def from_parts(cls, parts: list[int]) -> "Partition":
        counts: Dict[int, int] = {}
        for k in parts:
            counts[k] = counts.get(k, 0) + 1
        return cls(counts)

    @property
    def number(self) -> int:
        """The integer being partitioned."""
        return sum(k * p for k, p in self._parts.items())

    def multiplicity(self, k: int) -> int:
        return self._parts.get(k, 0)

    def parts(self) -> Dict[int, int]:
        return dict(self._parts)

    def as_list(self) -> list[int]:
        """Parts in decreasing order, e.g. [3, 1, 1]."""
        out = []
        for k in reversed(self._parts):  # the keys are kept ascending
            out.extend([k] * self._parts[k])
        return out

    def __eq__(self, other: object):
        if isinstance(other, Partition):
            return self._parts == other._parts
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self._parts.items()))

    def __repr__(self) -> str:
        return f"Partition({self.as_list()!r})"


def partition_count(n: int) -> int:
    """Exact P(n) by Euler's pentagonal-number recurrence; P(0) = 1.

    P(m) = sum_{k >= 1} (-1)^(k+1) [P(m - k(3k-1)/2) + P(m - k(3k+1)/2)],
    with P of a negative argument zero (Andrews, The Theory of Partitions,
    Cor. 1.8).  Each P(m) sums the O(sqrt(m)) generalized pentagonal numbers
    up to m, so P(n) costs O(n^(3/2)) big-integer additions and O(n) memory.
    """
    if n < 0:
        raise ValueError("partition counts are defined for nonnegative integers")
    ways = [1]
    get = ways.__getitem__
    # -g for each generalized pentagonal number g <= m, one list per sign of its
    # terms; while P(m) is summed, len(ways) == m, so ways[-g] is P(m - g).
    plus, minus = [], []
    k = 1
    for m in range(1, n + 1):
        if m == k * (3 * k - 1) // 2:
            (plus if k % 2 else minus).append(-m)
        elif m == k * (3 * k + 1) // 2:
            (plus if k % 2 else minus).append(-m)
            k += 1
        ways.append(sum(map(get, plus)) - sum(map(get, minus)))
    return ways[n]


def _walk(n: int) -> Iterator[list[tuple[int, int]]]:
    """The partitions of n, each exactly once, in decreasing lexicographic order,
    from one loop over a stack of (part, multiplicity) levels, largest part first.

    Yields the live stack, which the next step changes in place.  Only the last
    level can have part 1.
    """
    if n < 1:
        raise ValueError("enumeration needs a positive integer")
    stack = [(n, 1)]
    while True:
        yield stack
        freed = stack.pop()[1] if stack[-1][0] == 1 else 0
        if not stack:
            return
        part, count = stack[-1]
        stack[-1:] = [(part, count - 1)] if count > 1 else []
        # give back the ones and one part p as parts p - 1 and one remainder
        copies, rest = divmod(freed + part, part - 1)
        stack.append((part - 1, copies))
        if rest:
            stack.append((rest, 1))


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, each exactly once, in decreasing lexicographic order."""
    for stack in _walk(n):
        p = Partition.__new__(Partition)  # the stack is valid and its parts decrease
        p._parts = dict(reversed(stack))
        yield p


def hardy_ramanujan_estimate(n: int) -> float:
    """The asymptotic exp(pi sqrt(2n/3)) / (4 n sqrt(3)); ValueError for n > 76,567."""
    if n < 1:
        raise ValueError("the estimate needs a positive integer")
    try:
        return math.exp(math.pi * math.sqrt(2 * n / 3)) / (4 * n * math.sqrt(3))
    except OverflowError:
        raise ValueError(f"the estimate at {n} is beyond the float range (n <= 76,567)") from None


# The correspondences: a_n = scale * p_n for n != 1 and a_1 = 2 + scale * p_1.
# _partition_to_dold and the CLI's listing writer both read them here.
_SCALES = {"orientable": -2, "nonorientable": -1}
_A1_SHIFT = 2


def _partition_to_dold(p: Partition, scale: int) -> DoldClass:
    """The Dold class of p under the correspondence with this scale.  Built
    unchecked: the parts of a Partition are positive and ascending, each p_n is
    positive, and a zero a_1 is dropped, so the coefficients are what
    DoldClass(...) would keep."""
    a1 = _A1_SHIFT + scale * p._parts.get(1, 0)
    rest = {n: scale * m for n, m in p._parts.items() if n != 1}
    d = DoldClass.__new__(DoldClass)
    d._coeffs = {1: a1, **rest} if a1 else rest
    return d


def partition_to_dold_orientable(p: Partition) -> DoldClass:
    """Dold class of the orientation-preserving model built from p_n copies."""
    return _partition_to_dold(p, _SCALES["orientable"])


def partition_to_dold_nonorientable(p: Partition) -> DoldClass:
    """Dold class of the non-orientable model built from p_n copies."""
    return _partition_to_dold(p, _SCALES["nonorientable"])


@dataclass(frozen=True)
class CensusReport:
    """P(genus) with its asymptotic diagnostic."""

    genus: int
    exact_count: int
    hr_estimate: float
    ratio: float
    statement: str


def census(genus: int) -> CensusReport:
    """The partition census at a given genus: P(genus), its Hardy-Ramanujan
    estimate and their ratio.  A genus above 76,567 is refused with ValueError
    before P(genus) is counted.  The partitions themselves, with their Dold
    classes, are ``enumerate_partitions`` with ``partition_to_dold_orientable``
    or ``partition_to_dold_nonorientable``.
    """
    if genus < 1:
        raise ValueError("the census needs genus at least 1")
    estimate = hardy_ramanujan_estimate(genus)
    exact = partition_count(genus)
    return CensusReport(
        genus=genus,
        exact_count=exact,
        hr_estimate=estimate,
        ratio=estimate / exact,
        statement=(
            f"P({genus}) = {exact} is a lower bound for the number of conjugacy"
            " classes of mapping classes (orientable and non-orientable alike)"
            " containing Morse-Smale diffeomorphisms"
        ),
    )
