"""Integer partitions and the census of Morse-Smale mapping classes.

Distinct partitions of the genus g map to distinct Dold classes realized
by homeomorphisms of the genus-g surface, so the partition count P(g) is
a lower bound for the number of conjugacy classes of mapping classes
containing Morse-Smale diffeomorphisms.  The correspondences:

    orientable:       a_n = -2 p_n (n != 1),   a_1 = -2 (p_1 - 1)
    non-orientable:   a_n = -p_n  (n != 1),    a_1 = 2 - p_1

where p_n is the multiplicity of the part n.  Exact counting uses Euler's
pentagonal-number recurrence into one table of P(0), P(1), ... kept for
the process: the first count to n costs O(n^(3/2)) big-integer additions,
any n already reached is a list index, and a larger n costs only the new
entries.  The table grows under a lock and is only appended to, each entry
once final, so a count cut short leaves a shorter table that is still
right.  The Hardy-Ramanujan asymptotic is a float-valued diagnostic and
never feeds exact outputs.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
from collections import Counter, namedtuple
from collections.abc import Iterator, Mapping

from .arith import DoldClass, _Value

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


class Partition(_Value):
    """An unordered partition, stored as multiplicities part -> count."""

    __slots__ = ("_parts",)

    def __init__(self, parts: Mapping[int, int]):
        cleaned: dict[int, int] = {}
        for k, p in parts.items():
            k, p = operator.index(k), operator.index(p)
            if k < 1 or p < 0:
                raise ValueError("parts must be positive with nonnegative multiplicity")
            if p:
                cleaned[k] = p
        self._parts = dict(sorted(cleaned.items()))

    @classmethod
    def from_parts(cls, parts: list[int]) -> "Partition":
        return cls(Counter(parts))

    @property
    def number(self) -> int:
        """The integer being partitioned."""
        return sum(k * p for k, p in self._parts.items())

    def multiplicity(self, k: int) -> int:
        return self._parts.get(k, 0)

    def parts(self) -> dict[int, int]:
        return dict(self._parts)

    def as_list(self) -> list[int]:
        """Parts in decreasing order, e.g. [3, 1, 1]."""
        out = []
        for k in reversed(self._parts):  # the keys are kept ascending
            out.extend([k] * self._parts[k])
        return out

    def _key(self) -> tuple[tuple[int, int], ...]:
        return tuple(self._parts.items())

    def __repr__(self) -> str:
        return f"Partition({self.as_list()!r})"


# P(0), P(1), ... up to the largest n counted in this process, appended to
# only under _GROWING.
_WAYS = [1]
_GROWING = threading.Lock()


def partition_count(n: int) -> int:
    """Exact P(n) by Euler's pentagonal-number recurrence; P(0) = 1.

    P(m) = sum_{k >= 1} (-1)^(k+1) [P(m - k(3k-1)/2) + P(m - k(3k+1)/2)],
    with P of a negative argument zero (Andrews, The Theory of Partitions,
    Cor. 1.8).  Each P(m) sums the O(sqrt(m)) generalized pentagonal numbers
    up to m.  The values are kept for the process: the first count to n costs
    O(n^(3/2)) big-integer additions and O(n) memory, any n already reached
    is a list index, and a larger n costs only the entries it adds.
    """
    if n < 0:
        raise ValueError("partition counts are defined for nonnegative integers")
    ways = _WAYS
    if n < len(ways):
        return ways[n]
    with _GROWING:
        get = ways.__getitem__
        # The generalized pentagonal numbers k(3k-1)/2, k(3k+1)/2 in order, each
        # with the list for the sign (-1)^(k+1) of its terms.
        plus, minus = [], []
        offsets = zip((k * (3 * k + s) // 2 for k in itertools.count(1) for s in (-1, 1)),
                      itertools.cycle((plus, plus, minus, minus)))
        g, signed = next(offsets)
        # -g for each g <= m; the first m rebuilds those below len(ways) in
        # O(sqrt(len(ways))).  While P(m) is summed, len(ways) == m, so
        # ways[-g] is P(m - g), and P(m) is appended only once it is summed.
        for m in range(len(ways), n + 1):
            while g <= m:
                signed.append(-g)
                g, signed = next(offsets)
            ways.append(sum(map(get, plus)) - sum(map(get, minus)))
    return ways[n]


def _walk(n: int, cut: int = 2, top: int | None = None) -> Iterator[tuple[list, int]]:
    """The partitions of n into parts of at most top (default n), in decreasing
    lexicographic order, from one loop over a stack of (part, multiplicity)
    levels, largest part first.

    Only the parts of at least cut (>= 2) are stacked.  Each step yields the
    live stack, which the next step changes in place, and the rest: n less the
    stacked parts, to be made of parts below cut.  With cut 2 the rest is the
    number of ones and each partition comes once; with a larger cut each stack
    comes once, and the partitions it starts are those of its rest into parts
    below cut, which follow one another in the order above.
    """
    # start as if one part top + 1 had just been given back
    stack, rest, part = [], n, min(n, n if top is None else top) + 1
    while True:
        if part > cut:  # the rest as parts part - 1, and what is left as one part
            copies, rest = divmod(rest, part - 1)
            stack.append((part - 1, copies))
            if rest >= cut:
                stack.append((rest, 1))
                rest = 0
        yield stack, rest
        if not stack:
            return
        part, count = stack[-1]
        stack[-1:] = [(part, count - 1)] if count > 1 else []
        rest += part


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, each exactly once, in decreasing lexicographic order."""
    if n < 1:
        raise ValueError("enumeration needs a positive integer")
    for stack, ones in _walk(n):
        yield Partition(dict([(1, ones), *stack]))


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
    """The Dold class of p under the correspondence with this scale."""
    coeffs = {n: scale * m for n, m in p._parts.items()}
    coeffs[1] = _A1_SHIFT + scale * p._parts.get(1, 0)
    return DoldClass(coeffs)


def partition_to_dold_orientable(p: Partition) -> DoldClass:
    """Dold class of the orientation-preserving model built from p_n copies."""
    return _partition_to_dold(p, _SCALES["orientable"])


def partition_to_dold_nonorientable(p: Partition) -> DoldClass:
    """Dold class of the non-orientable model built from p_n copies."""
    return _partition_to_dold(p, _SCALES["nonorientable"])


# P(genus) with its asymptotic diagnostic: the genus, the exact count P(genus),
# the Hardy-Ramanujan estimate, the ratio estimate / P(genus), and the statement.
CensusReport = namedtuple(
    "CensusReport", ["genus", "exact_count", "hr_estimate", "ratio", "statement"])


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
