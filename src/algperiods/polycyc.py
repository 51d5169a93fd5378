"""Exact integer polynomial arithmetic and cyclotomic machinery.

A polynomial is a dense tuple of integer coefficients indexed by degree,
with trailing zeros trimmed, so ``IntPolynomial((-1, 0, 1))`` is x^2 - 1
and the zero polynomial has an empty tuple and degree -1.

Quasi-unipotence (all complex roots are roots of unity; equivalently the
polynomial is a product of cyclotomics) is decided exactly.  A binomial
x^k - 1 or x^k + 1 is read off the divisors of 2k: x^k - 1 is the product
of Phi_d over d | k, and x^k + 1, whose roots are the 2k-th roots of unity
that are not k-th roots, the product over the d | 2k that do not divide k.
Any other polynomial is decided by trial division by cyclotomic
polynomials.  No floating point is involved.  The candidate orders d are
bounded using phi(d) >= sqrt(d), which holds for every d but 2 and 6: a
single factor 2 costs sqrt(2), and any other prime factor makes up for it.
So a residual of degree R can only have cyclotomic factors of order
d <= max(6, R^2).  Each Phi_d is prod_{k | d} (x^k - 1)^mu(d/k), read off
the Moebius table of ``arith``, which also gives the totient.

Polynomials are multiplied in one place, the private ``_product``, which
``*`` and the characteristic polynomial and residual products of the
analysis call.  It multiplies any number of factors by one Kronecker
substitution: each factor is evaluated at N = 2^b, with 2^(b-1) above the
product of the factors' l1 norms, which bounds every coefficient of the
result; the integers are multiplied pairwise by CPython's big-integer
product; and the coefficients are read back as the base-N digits of the
result, each shifted by 2^(b-1) so that it is nonnegative.  A binomial costs
two terms, and apart from the big-integer products the work is linear in the
factors' nonzero coefficients and the result's size times b.

The cyclotomic memo table is an ``lru_cache``, which is safe under
concurrent reads and whose fill is idempotent.
"""

from __future__ import annotations

import operator
import sys
from collections.abc import Iterable
from functools import lru_cache
from itertools import compress, repeat
from math import prod

from .arith import _moebius_terms, _Value, divisors

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


class IntPolynomial(_Value):
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

    def _key(self) -> tuple[int, ...]:
        return self.coeffs

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
        return _product((self, other)) if isinstance(other, IntPolynomial) else NotImplemented

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


def _product(polys: Iterable[IntPolynomial]) -> IntPolynomial:
    """The product of the polynomials, 1 for none, by one Kronecker substitution.

    No coefficient of the product exceeds B, the product of the factors' l1
    norms.  Digits have w bytes, the least w with 2^(b-1) > B for b = 8w (a w
    of 3 becomes 4), and each factor f becomes the integer f(2^b): a factor
    with one or two nonzero coefficients, such as a binomial x^k -+ c, as the
    sum of its shifted terms, and any other packed whole, one w-byte digit
    f_i + 2^(b-1) per coefficient, less the packed offset.  The values are
    multiplied pairwise, a balanced tree of big-integer products, so that no
    product pays again for a long partial result.  Adding the offset
    sum_i 2^(b-1) 2^(bi) makes every base-2^b digit of the product
    c_i + 2^(b-1), which lies in [1, 2^b), and ``int.to_bytes`` lays the
    digits out: one of 1, 2, 4 or 8 bytes is read as a machine word on a
    little-endian host, any other by ``int.from_bytes``.

    Outside the big-integer products the cost is O(sum nnz + size) Python
    steps and O(size * b) word operations, for size = 1 + sum deg f, and no
    byte string is longer than size * w bytes.  A zero factor gives 0.
    """
    factors = [p.coeffs for p in polys]
    bound = prod(sum(map(abs, f)) for f in factors)
    if not bound:
        return IntPolynomial()
    w = bound.bit_length() // 8 + 1
    w += w == 3  # three bytes take a four-byte word
    half, pad = 1 << 8 * w - 1, bytes(w - 1) + b"\x80"  # 2^(b-1), and its w bytes
    values = []
    for f in factors:
        if len(f) - f.count(0) <= 2:
            values.append(sum(f[i] << 8 * w * i for i in compress(range(len(f)), f)))
        else:
            packed = b"".join(map(int.to_bytes, map(half.__add__, f), repeat(w), repeat("little")))
            values.append(int.from_bytes(packed, "little") - int.from_bytes(pad * len(f), "little"))
    while len(values) > 2:  # a balanced tree of products: each pays for its operands alone
        values = [prod(values[i : i + 2]) for i in range(0, len(values), 2)]
    size = sum(map(len, factors)) - len(factors) + 1
    raw = (prod(values) + int.from_bytes(pad * size, "little")).to_bytes(size * w, "little")
    word = w in (1, 2, 4, 8) and sys.byteorder == "little"
    digits = memoryview(raw).cast("BHIQ"[w.bit_length() - 1]) if word else [
        int.from_bytes(raw[i : i + w], "little") for i in range(0, size * w, w)]
    return IntPolynomial([d - half for d in digits])


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
    """The d-th cyclotomic polynomial, prod_{k | d} (x^k - 1)^mu(d/k).

    The binomials with mu(d/k) = 1 and those with mu(d/k) = -1 are each
    multiplied by one ``_product``, and the first product is divided by the
    second, which divides it exactly; everything stays in the integers.
    """
    if d < 1:
        raise ValueError("cyclotomic order must be positive")
    terms = _moebius_terms(d).items()
    num, den = (_product(x_pow_minus_one(k) for k, mu in terms if mu == sign) for sign in (1, -1))
    return poly_divmod(num, den)[0]


@lru_cache(maxsize=None)
def _totient(n: int) -> int:
    """Euler's phi(n), by Gauss's identity phi(n) = sum_{k | n} k mu(n/k)."""
    return sum(k * mu for k, mu in _moebius_terms(n).items())


def cyclotomic_factorization(p: IntPolynomial) -> dict[int, int]:
    """Factor a monic polynomial into cyclotomics, order -> multiplicity.

    Succeeds exactly when every complex root of p is a root of unity;
    otherwise raises NotQuasiUnipotent carrying the residual factor.  The
    orders come in ascending order; x^k -+ 1 takes no trial division.  Any
    other residual of degree R is divided by Phi_d for the d <= max(6, R^2)
    with phi(d) <= R, since phi(d) >= sqrt(d) for every d but 2 and 6.
    """
    if p.is_zero() or not p.is_monic():
        raise NonMonicInput("cyclotomic factorization requires a monic polynomial")
    k, c = p.degree, p.coeffs[0]
    if c in (1, -1) and p.coeffs.count(0) == k - 1:  # x^k - 1 or x^k + 1
        return {d: 1 for d in divisors(2 * k) if (k % d == 0) == (c == -1)}
    residual = p
    mults: dict[int, int] = {}
    d = 0
    while residual.degree > 0:
        d += 1
        if d > max(6, residual.degree * residual.degree):
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
    a = p.coeffs[::-1]
    sums: list[int] = []
    for k in range(1, n_max + 1):
        acc = -k * a[k] if k <= deg else 0
        for i in range(1, min(k - 1, deg) + 1):
            acc -= a[i] * sums[k - i - 1]
        sums.append(acc)
    return sums
