"""Number-theoretic kernel for periodic expansions of integer sequences.

A sequence (L_n), indexed by a finite divisor-closed set of positive
integers, has a unique expansion L_n = sum_k a_k * reg_k(n) over the
elementary periodic functions reg_k.  Moebius inversion recovers the
coefficients:

    a_n = (1/n) * sum_{k | n} mu(n/k) * L_k

For sequences of Lefschetz numbers of iterations the a_n are integers
(Dold's congruences), so a non-integral coefficient is diagnostic: the
input cannot be a Lefschetz sequence.  ``dold_coefficients`` enforces
this and raises ``DoldViolation``.

Everything here is exact integer arithmetic; rationals never escape.
All values are immutable after construction and every operation is a
pure function.
"""

from __future__ import annotations

import operator
from typing import Dict, Iterator, Mapping

__all__ = [
    "DoldViolation",
    "DoldClass",
    "LefschetzSequence",
    "moebius",
    "divisors",
    "dold_coefficients",
    "dold_congruence_check",
]


class DoldViolation(Exception):
    """Moebius inversion produced a non-integer coefficient."""


def _prime_exponents(n: int) -> Dict[int, int]:
    """The factorization of n >= 1 by trial division, prime -> exponent, in O(sqrt(n)) steps."""
    exponents = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            exponents[p] = exponents.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        exponents[n] = 1
    return exponents


def moebius(n: int) -> int:
    """Moebius function: 0 if a square divides n, else (-1)^(number of prime factors)."""
    if n < 1:
        raise ValueError("moebius is defined for positive integers")
    exponents = _prime_exponents(n).values()
    return 0 if max(exponents, default=1) > 1 else (-1) ** len(exponents)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted increasingly."""
    if n < 1:
        raise ValueError("divisors are defined for positive integers")
    small = []
    large = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


class LefschetzSequence:
    """Integer sequence on a finite, divisor-closed index set.

    Divisor closure (every divisor of an index is itself an index) is
    what makes Moebius inversion well defined on the whole domain; it is
    validated eagerly so that malformed inputs fail at construction, not
    at query time.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[int, int]):
        if not values:
            raise ValueError("domain must be nonempty")
        items: Dict[int, int] = {}
        for n, v in values.items():
            n = operator.index(n)
            if n < 1:
                raise ValueError(f"index {n} is not a positive integer")
            items[n] = operator.index(v)
        for n in items:
            for d in divisors(n):
                if d not in items:
                    raise ValueError(
                        f"domain is not divisor-closed: {d} divides {n} but is missing"
                    )
        self._values = dict(sorted(items.items()))

    def __getitem__(self, n: int) -> int:
        return self._values[n]

    def __contains__(self, n: int) -> bool:
        return n in self._values

    def __iter__(self) -> Iterator[int]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object):
        if isinstance(other, LefschetzSequence):
            return self._values == other._values
        return NotImplemented

    def __repr__(self) -> str:
        return f"LefschetzSequence({self._values!r})"

    def domain(self) -> tuple[int, ...]:
        return tuple(self._values)

    def items(self):
        return self._values.items()


class DoldClass:
    """Finitely supported integer map n -> a_n; zero outside the support."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Mapping[int, int] | None = None):
        coeffs: Dict[int, int] = {}
        if coefficients:
            for n, a in coefficients.items():
                n, a = operator.index(n), operator.index(a)
                if n < 1:
                    raise ValueError(f"index {n} is not a positive integer")
                if a:
                    coeffs[n] = a
        self._coeffs = dict(sorted(coeffs.items()))

    def __getitem__(self, n: int) -> int:
        return self._coeffs.get(n, 0)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object):
        if isinstance(other, DoldClass):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self._coeffs.items()))

    def __repr__(self) -> str:
        return f"DoldClass({self._coeffs!r})"

    def support(self) -> tuple[int, ...]:
        return tuple(self._coeffs)

    def items(self):
        return self._coeffs.items()

    def as_dict(self) -> Dict[int, int]:
        return dict(self._coeffs)


def dold_coefficients(seq: LefschetzSequence) -> DoldClass:
    """Moebius-invert a Lefschetz sequence into periodic-expansion coefficients.

    Raises DoldViolation if any coefficient fails to be an integer; the
    rational intermediate never leaves this function.
    """
    coeffs = {}
    for n in seq:
        total = sum(moebius(n // k) * seq[k] for k in divisors(n))
        a, rem = divmod(total, n)
        if rem:
            raise DoldViolation(
                f"divisor sum at {n} equals {total}, which {n} does not divide"
            )
        coeffs[n] = a
    return DoldClass(coeffs)


def dold_congruence_check(seq: LefschetzSequence, n: int) -> bool:
    """Whether n divides sum_{k | n} mu(n/k) * L_k."""
    divs = divisors(n)
    for k in divs:
        if k not in seq:
            raise ValueError(f"divisor {k} of {n} is outside the sequence domain")
    total = sum(moebius(n // k) * seq[k] for k in divs)
    return total % n == 0
