"""Exact integer polynomial arithmetic and cyclotomic machinery.

A polynomial is a dense tuple of integer coefficients indexed by degree,
with trailing zeros trimmed, so ``IntPolynomial((-1, 0, 1))`` is x^2 - 1
and the zero polynomial has an empty tuple and degree -1.

Quasi-unipotence (all complex roots are roots of unity; equivalently the
polynomial is a product of cyclotomics) is decided exactly by trial
division by cyclotomic polynomials.  No floating point is involved.  The
candidate orders d are bounded using phi(d) >= sqrt(d/2), so a residual
of degree R can only have cyclotomic factors of order d <= 2*R^2.

The cyclotomic memo table is an ``lru_cache``, which is safe under
concurrent reads and whose fill is idempotent.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import prod
from typing import Dict, Iterable

from .arith import _prime_exponents, divisors

__all__ = [
    "NonMonicInput",
    "NotQuasiUnipotent",
    "IntPolynomial",
    "x_pow_minus_one",
    "poly_divmod",
    "cyclotomic",
    "cyclotomic_factorization",
    "trace_sequence_from_charpoly",
]


class NonMonicInput(Exception):
    """The operation requires a monic polynomial."""


class NotQuasiUnipotent(Exception):
    """A factor with roots off the unit roots remains after trial division."""

    def __init__(self, residual: "IntPolynomial"):
        self.residual = residual
        super().__init__(f"non-cyclotomic residual factor {residual}")


class IntPolynomial:
    """Dense integer polynomial; ``coeffs[i]`` is the x^i coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        # Built from a list: tuple(map(...)) is resized after it is filled, which
        # strands one block per call in CPython's tuple free lists.
        coeffs = list(map(operator.index, coeffs))
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object):
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        # The outer loop skips zero coefficients, so it runs over the factor
        # with fewer nonzero ones: x^n - 1 times anything is two passes.
        if len(a) - a.count(0) > len(b) - b.count(0):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                for j, d in enumerate(b):
                    out[i + j] += c * d
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPolynomial":
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = IntPolynomial((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __repr__(self) -> str:
        return f"IntPolynomial('{self}')"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "x" if i == 1 else f"x^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
        return " ".join(parts)


def x_pow_minus_one(n: int) -> IntPolynomial:
    """x^n - 1."""
    if n < 1:
        raise ValueError("exponent must be positive")
    return IntPolynomial((-1,) + (0,) * (n - 1) + (1,))


def poly_divmod(p: IntPolynomial, q: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    """Quotient and remainder of p by q, whose leading coefficient must be +-1.

    Such a divisor keeps the division in the integers; any other raises
    NonMonicInput (the library only ever divides by cyclotomics).
    """
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    lead = q.coeffs[-1]
    if lead not in (1, -1):
        raise NonMonicInput(f"divisor {q} does not have leading coefficient +-1")
    dq = q.degree
    if p.degree < dq:
        return IntPolynomial(), p
    rem = list(p.coeffs)
    quo = [0] * (len(rem) - dq)
    for i in range(len(rem) - 1, dq - 1, -1):
        c = rem[i]
        if c:
            c = c * lead  # lead is +-1, so c/lead == c*lead
            quo[i - dq] = c
            for j in range(dq + 1):
                rem[i - dq + j] -= c * q.coeffs[j]
    return IntPolynomial(quo), IntPolynomial(rem[:dq])


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> IntPolynomial:
    """The d-th cyclotomic polynomial.

    Computed by dividing x^d - 1 by all lower-order cyclotomics, which is
    exact and keeps everything in the integers.
    """
    if d < 1:
        raise ValueError("cyclotomic order must be positive")
    quo = x_pow_minus_one(d)
    for e in divisors(d)[:-1]:
        quo, _ = poly_divmod(quo, cyclotomic(e))
    return quo


@lru_cache(maxsize=None)
def _totient(n: int) -> int:
    return prod((p - 1) * p ** (e - 1) for p, e in _prime_exponents(n).items())


def cyclotomic_factorization(p: IntPolynomial) -> Dict[int, int]:
    """Factor a monic polynomial into cyclotomics, order -> multiplicity.

    Succeeds exactly when every complex root of p is a root of unity;
    otherwise raises NotQuasiUnipotent carrying the residual factor.
    """
    if p.is_zero() or not p.is_monic():
        raise NonMonicInput("cyclotomic factorization requires a monic polynomial")
    residual = p
    mults: Dict[int, int] = {}
    d = 0
    while residual.degree > 0:
        d += 1
        if d > 2 * residual.degree * residual.degree:
            raise NotQuasiUnipotent(residual)
        if _totient(d) > residual.degree:
            continue
        phi = cyclotomic(d)
        while True:
            quo, rem = poly_divmod(residual, phi)
            if not rem.is_zero():
                break
            residual = quo
            mults[d] = mults.get(d, 0) + 1
            if residual.degree == 0:
                break
    return mults


def trace_sequence_from_charpoly(p: IntPolynomial, n_max: int) -> list[int]:
    """Power sums s_1..s_{n_max} of the roots of a monic p (Newton's identities).

    With p = x^d + a_1 x^(d-1) + ... + a_d:

        s_k = -k a_k - sum_{i<k} a_i s_{k-i}   for k <= d,
        s_k = -sum_{i<=d} a_i s_{k-i}          for k > d.

    Exact integers throughout.  The degree-zero polynomial 1 (empty
    matrix) yields all zeros.
    """
    if p.is_zero() or not p.is_monic():
        raise NonMonicInput("power sums require a monic polynomial")
    if n_max < 1:
        raise ValueError("n_max must be positive")
    deg = p.degree
    a = [0] * (deg + 1)
    for i in range(1, deg + 1):
        a[i] = p.coeffs[deg - i]
    sums: list[int] = []
    for k in range(1, n_max + 1):
        acc = -k * a[k] if k <= deg else 0
        for i in range(1, min(k - 1, deg) + 1):
            acc -= a[i] * sums[k - i - 1]
        sums.append(acc)
    return sums
