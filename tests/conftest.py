"""Shared generators, helpers and independent oracles for the test suite.

Every randomized test owns a seeded ``random.Random`` so runs are
reproducible; nothing here depends on the code paths it is used to
check (the cofactor determinant and the Faddeev-LeVerrier recurrence
below are the independent oracles for the multi-modular Hessenberg
characteristic polynomial, the schoolbook double loop is the oracle for the
Kronecker-substitution polynomial product, one Moebius value per divisor of
each cyclotomic order is the oracle for the Dold class read off the squarefree
divisors, the division of x^d - 1 by every lower-order cyclotomic is the
oracle for Phi_d as a quotient of binomial products, trial factoring is the
oracle for the Moebius table and counting the k <= n prime to n the oracle for
the totient read off it, the matrix-power
Lefschetz loop below is the oracle for the Newton-trace route, the Newton
window with Moebius inversion on the divisor-closed candidate set is the
oracle for the Dold class read off the cyclotomic factorization, the
dynamic programme over parts is the oracle for the pentagonal-number
partition count, the dense binomial product is the oracle for the zeta
series passes, the recursive descent is the oracle for the partition
enumeration loop, and ``json.dumps`` with indent over a converted copy is
the oracle for the one-pass JSON writer of the CLI, the dense product
A^T Omega A is the oracle for the form check read off the nonzero pairs,
and the library's partitions from ``enumerate_partitions`` with their Dold
classes from ``partition_to_dold_*``, as payload dicts through the generic
writers, are the oracle for the census listing written from the partition
walk).
The small matrix, sequence and polynomial helpers here (trace, transpose,
products, powers, transvections, reg_k) serve the tests only; the library
has no use for them.
"""

from __future__ import annotations

import json
import operator
import random
from functools import lru_cache
from itertools import compress, islice
from math import comb, gcd
from typing import Sequence

from algperiods import (
    DimensionMismatch,
    DoldClass,
    HomologyModel,
    IntMatrix,
    IntPolynomial,
    LefschetzSequence,
    Mode,
    OddDimension,
    Partition,
    SurfaceKind,
    ZetaFactorization,
    block_diag,
    charpoly,
    cyclic_permutation,
    cyclotomic,
    cyclotomic_factorization,
    divisors,
    dold_coefficients,
    enumerate_partitions,
    moebius,
    partition_to_dold_nonorientable,
    partition_to_dold_orientable,
    poly_divmod,
    realize_target,
    trace_sequence_from_charpoly,
    x_pow_minus_one,
)
from algperiods.cli import _text_lines
from algperiods.exactmat import _prime


def trace(a: IntMatrix) -> int:
    return sum(row[i] for i, row in enumerate(a.rows))


def transpose(a: IntMatrix) -> IntMatrix:
    return IntMatrix(zip(*a.rows))


def negated(a: IntMatrix) -> IntMatrix:
    return IntMatrix([[-x for x in row] for row in a.rows])


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.dim != b.dim:
        raise DimensionMismatch(f"cannot multiply {a.dim}x{a.dim} by {b.dim}x{b.dim}")
    n = a.dim
    brows = b.rows
    out = []
    for arow in a.rows:
        acc = None
        # compress() skips the zero entries of the row at C speed.
        for j in compress(range(n), arow):
            v = arow[j]
            brow = brows[j]
            if acc is None:
                if v == 1:
                    acc = list(brow)
                elif v == -1:
                    acc = [-y for y in brow]
                else:
                    acc = [v * y for y in brow]
            elif v == 1:
                acc = [x + y for x, y in zip(acc, brow)]
            elif v == -1:
                acc = [x - y for x, y in zip(acc, brow)]
            else:
                acc = [x + v * y for x, y in zip(acc, brow)]
        out.append([0] * n if acc is None else acc)
    return IntMatrix(out)


def standard_symplectic_form(g: int) -> IntMatrix:
    """Omega = [[0, I_g], [-I_g, 0]] in the (a_1..a_g, b_1..b_g) basis."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    n = 2 * g
    rows = [[0] * n for _ in range(n)]
    for i in range(g):
        rows[i][g + i] = 1
        rows[g + i][i] = -1
    return IntMatrix(rows)


def form_predicates_by_product(a: IntMatrix) -> tuple[bool, bool]:
    """(A^T Omega A == Omega, A^T Omega A == -Omega) from the dense products."""
    omega = standard_symplectic_form(a.dim // 2)
    product = mat_mul(mat_mul(transpose(a), omega), a)
    return product == omega, product == negated(omega)


def mat_pow(a: IntMatrix, l: int) -> IntMatrix:
    """a^l by binary exponentiation; a^0 is the identity."""
    if l < 0:
        raise ValueError("negative matrix powers are not defined")
    result = IntMatrix.identity(a.dim)
    base = a
    while l:
        if l & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        l >>= 1
    return result


def symplectic_transvection(v: Sequence[int], multiplier: int = 1) -> IntMatrix:
    """The transvection x -> x + multiplier * <x, v> v, as a matrix.

    <.,.> is the standard symplectic form, so the result I + m * v (Omega v)^T
    is symplectic for every integer vector v and multiplier.  Products of
    these conjugate the library's antisymplectic blocks into dense test
    instances while preserving antisymplecticity and the characteristic
    polynomial.  A non-integer entry of v or multiplier raises TypeError.
    """
    n = len(v)
    if n % 2:
        raise OddDimension("transvections live in even dimension")
    v = [operator.index(x) for x in v]
    multiplier = operator.index(multiplier)
    omega = standard_symplectic_form(n // 2)
    w = [sum(map(operator.mul, row, v)) for row in omega.rows]
    rows = [
        [(1 if i == j else 0) + multiplier * v[i] * w[j] for j in range(n)]
        for i in range(n)
    ]
    return IntMatrix(rows)


def reg(k: int, n: int) -> int:
    """Elementary periodic function: k if k divides n, else 0.

    This is the sum of n-th powers of all k-th roots of unity.
    """
    if k < 1 or n < 1:
        raise ValueError("reg requires positive arguments")
    return k if n % k == 0 else 0


def lefschetz_from_dold(d: DoldClass, n: int) -> int:
    """L_n = sum_{k | n} k * a_k, the exact inverse of dold_coefficients."""
    if n < 1:
        raise ValueError("index must be a positive integer")
    return sum(k * a for k, a in d.items() if n % k == 0)


def cyclotomic_root_sum(m: int) -> int:
    """Sum of the roots of the m-th cyclotomic polynomial, read off as the negated
    second-highest coefficient; by a classical identity it equals moebius(m)."""
    phi = cyclotomic(m)
    return -phi.coeffs[phi.degree - 1]


def euler_characteristic(m: HomologyModel) -> int:
    """2 - 2*genus for orientable kinds, 2 - genus for non-orientable."""
    if m.kind is SurfaceKind.NONORIENTABLE:
        return 2 - m.genus
    return 2 - 2 * m.genus


def degree_two_term(kind: SurfaceKind, l: int) -> int:
    """The eps^l term of L_l: 1 preserving, (-1)^l reversing, none non-orientable."""
    if kind is SurfaceKind.PRESERVING:
        return 1
    if kind is SurfaceKind.REVERSING:
        return -1 if l % 2 else 1
    return 0


def lefschetz_by_newton(kind: SurfaceKind, cp: IntPolynomial, n_max: int) -> list[int]:
    """[L_1, ..., L_{n_max}] with the traces taken as Newton power sums of cp."""
    traces = trace_sequence_from_charpoly(cp, n_max)
    return [1 - traces[l - 1] + degree_two_term(kind, l) for l in range(1, n_max + 1)]


def dold_by_newton_window(m: HomologyModel) -> DoldClass:
    """The Dold class of a quasi-unipotent model by Moebius inversion of its Newton
    window on {1, 2} and the divisors of its cyclotomic orders.

    That divisor-closed set holds the whole support: the traces contribute
    reg_e terms only for e dividing an order, and the degree-0 and degree-2
    terms only reg_1 and reg_2.
    """
    cp = charpoly(m.matrix)
    candidates = {1, 2}
    for d in cyclotomic_factorization(cp):
        candidates.update(divisors(d))
    window = lefschetz_by_newton(m.kind, cp, max(candidates))
    return dold_coefficients(LefschetzSequence({l: window[l - 1] for l in candidates}))


def dold_by_moebius_per_divisor(kind_terms: dict, mults: dict) -> DoldClass:
    """The Dold class a_e = K_e - sum_{d : e | d} m_d mu(d/e) of a cyclotomic factorization
    {d: m_d} and the kind's class K, with one Moebius value per divisor e of each order d."""
    coeffs = dict(kind_terms)
    for d, mult in mults.items():
        for e in divisors(d):
            coeffs[e] = coeffs.get(e, 0) - mult * moebius(d // e)
    return DoldClass(coeffs)


@lru_cache(maxsize=None)
def cyclotomic_by_division(d: int) -> IntPolynomial:
    """The d-th cyclotomic polynomial: x^d - 1 divided by the cyclotomic of every
    proper divisor of d, each computed the same way."""
    quo = x_pow_minus_one(d)
    for e in divisors(d)[:-1]:
        quo, _ = poly_divmod(quo, cyclotomic_by_division(e))
    return quo


def moebius_by_trial_factoring(n: int) -> int:
    """mu(n) for n >= 1: 0 if some p^2 divides n, else (-1)^(number of primes),
    from dividing out each trial divisor p = 2, 3, 4, ... in turn."""
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def totient_by_gcd_count(n: int) -> int:
    """phi(n) for n >= 1: the number of 1 <= k <= n with gcd(k, n) = 1."""
    return sum(gcd(k, n) == 1 for k in range(1, n + 1))


def poly_mul_by_schoolbook(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """p * q by the schoolbook double loop over the coefficient tuples."""
    a, b = p.coeffs, q.coeffs
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


def poly_product_by_schoolbook(polys) -> IntPolynomial:
    """The product of the polynomials, 1 for none, one schoolbook multiply per factor."""
    result = IntPolynomial([1])
    for p in polys:
        result = poly_mul_by_schoolbook(result, p)
    return result


def random_matrix(rng: random.Random, dim: int, lo: int = -3, hi: int = 3) -> IntMatrix:
    return IntMatrix([[rng.randint(lo, hi) for _ in range(dim)] for _ in range(dim)])


def charpoly_cofactor(a: IntMatrix) -> IntPolynomial:
    """det(xI - A) by recursive cofactor expansion over polynomial entries."""
    n, rows = a.dim, a.rows
    entries = [
        [
            IntPolynomial([-rows[i][j], 1]) if i == j else IntPolynomial([-rows[i][j]])
            for j in range(n)
        ]
        for i in range(n)
    ]

    def det(m):
        k = len(m)
        if k == 0:
            return IntPolynomial([1])
        if k == 1:
            return m[0][0]
        total = IntPolynomial()
        for j in range(k):
            c = m[0][j]
            if c.is_zero():
                continue
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            term = poly_mul_by_schoolbook(c, det(minor))
            total = total + term if j % 2 == 0 else total - term
        return total

    return det(entries)


def charpoly_by_faddeev_leverrier(a: IntMatrix) -> IntPolynomial:
    """det(xI - A) by the Faddeev-LeVerrier recurrence, O(k^4) integer operations.

    M_1 = I, c_(n-k) = -tr(A M_k) / k, M_(k+1) = A M_k + c_(n-k) I.  The
    division is provably exact for integer input; the check guards the
    oracle itself.
    """
    n = a.dim
    coeffs = [0] * n + [1]
    m = IntMatrix.identity(n)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        c, rem = divmod(-trace(am), k)
        if rem:
            raise ArithmeticError("Faddeev-LeVerrier division was not exact")
        coeffs[n - k] = c
        rows = [list(row) for row in am.rows]
        for i in range(n):
            rows[i][i] += c
        m = IntMatrix(rows)
    return IntPolynomial(coeffs)


def lefschetz_by_powers(m: HomologyModel, n_max: int) -> list[int]:
    """[L_1, ..., L_{n_max}] of the model from successive matrix powers."""
    out = []
    power = IntMatrix.identity(m.matrix.dim)
    for l in range(1, n_max + 1):
        power = mat_mul(power, m.matrix)
        out.append(1 - trace(power) + degree_two_term(m.kind, l))
    return out


def odd_lefschetz_vanish_by_powers(m: HomologyModel, bound: int) -> bool:
    """Whether a reversing model has L_l = 1 - tr(A^l) - 1 = 0 at every odd l <= bound.

    Steps through the odd powers by multiplying with A^2.
    """
    square = mat_mul(m.matrix, m.matrix)
    power = m.matrix
    for l in range(1, bound + 1, 2):
        if l > 1:
            power = mat_mul(power, square)
        if trace(power) != 0:
            return False
    return True


def plus_minus_identity(g: int) -> IntMatrix:
    """diag(I_g, -I_g), the basic antisymplectic block."""
    return block_diag([IntMatrix.identity(g), negated(IntMatrix.identity(g))])


def preserving_model_from_multiplicities(multiplicities) -> HomologyModel:
    """Orientation-preserving model with ``copies`` pieces per label.

    The matrix is diag(M, M) with M the direct sum of copies[n] cycle
    permutations of length n; the genus is sum(n * copies).  The tests of
    the partition census correspondence build their models with it.
    """
    cycles = []
    for n in sorted(multiplicities):
        copies = multiplicities[n]
        if n < 1 or copies < 0:
            raise ValueError("labels must be positive and multiplicities nonnegative")
        cycles.extend(cyclic_permutation(n) for _ in range(copies))
    half = block_diag(cycles)
    return HomologyModel(SurfaceKind.PRESERVING, block_diag([half, half]), half.dim, strict=True)


def random_symplectic_pair(rng: random.Random, g: int, count: int = 3):
    """A random product of symplectic transvections together with its inverse."""
    n = 2 * g
    s = IntMatrix.identity(n)
    s_inv = IntMatrix.identity(n)
    for _ in range(count):
        v = [0] * n
        for idx in rng.sample(range(n), k=min(n, rng.randint(1, 3))):
            v[idx] = rng.choice([-1, 1])
        lam = rng.choice([-1, 1])
        s = mat_mul(s, symplectic_transvection(v, lam))
        s_inv = mat_mul(symplectic_transvection(v, -lam), s_inv)
    return s, s_inv


def sparse_transvection_conjugate(rng: random.Random, g: int) -> IntMatrix:
    """S^-1 diag(M, M) S for a signed g x g permutation M and a product S of a few
    symplectic transvections: a sparse matrix with a few dense rows and columns."""
    perm = rng.sample(range(g), g)
    signs = [rng.choice([-1, 1]) for _ in range(g)]
    m = IntMatrix([[signs[i] if j == perm[i] else 0 for j in range(g)] for i in range(g)])
    s, s_inv = random_symplectic_pair(rng, g, count=rng.randint(2, 6))
    return mat_mul(mat_mul(s_inv, block_diag([m, m])), s)


# A large Proth prime, and small primes that make entries vanish mid-reduction.
KERNEL_PRIMES = (_prime(64, 0), 2, 3, 7, 101)


def random_antisymplectic_quasiunipotent(rng: random.Random) -> IntMatrix:
    """An antisymplectic quasi-unipotent matrix, usually dense.

    Built from a library antisymplectic block (either diag(I, -I) or a
    reversing realization matrix) conjugated by a random symplectic
    transvection product, which preserves both properties.
    """
    if rng.random() < 0.4:
        base = plus_minus_identity(rng.randint(1, 5))
    else:
        targets = sorted(rng.sample([2, 4, 6, 8], k=rng.randint(1, 2)))
        mode = rng.choice([Mode.FAITHFUL, Mode.CORRECTED])
        base = realize_target(set(targets), SurfaceKind.REVERSING, mode).model.matrix
        if base.dim == 0:
            base = plus_minus_identity(rng.randint(1, 3))
    s, s_inv = random_symplectic_pair(rng, base.dim // 2, count=rng.randint(2, 4))
    return mat_mul(mat_mul(s_inv, base), s)


def partition_counts_by_dp(n_max: int) -> list[int]:
    """[P(0), ..., P(n_max)] by dynamic programming over parts, O(n_max^2) additions."""
    ways = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for total in range(part, n_max + 1):
            ways[total] += ways[total - part]
    return ways


def series_by_dense_product(f: ZetaFactorization, n_max: int) -> list[int]:
    """Series of the product through degree n_max, multiplying out each factor's
    dense truncated binomial series sum_t C(m, t) delta^t z^(tr)."""

    def binomial(m: int, j: int) -> int:
        if m >= 0:
            return comb(m, j)
        return (-1) ** j * comb(-m + j - 1, j)

    series = [1] + [0] * n_max
    for delta, r, m in f.factors:
        factor = [0] * (n_max + 1)
        for t in range(n_max // r + 1):
            factor[t * r] = binomial(m, t) * delta**t
        out = [0] * (n_max + 1)
        for i, c in enumerate(series):
            if c:
                for j, d in enumerate(factor[: n_max - i + 1]):
                    if d:
                        out[i + j] += c * d
        series = out
    return series


def partitions_by_recursion(n: int) -> list[Partition]:
    """All partitions of n in decreasing lexicographic order, one generator frame per part."""

    def descend(remaining: int, cap: int, prefix: list[int]):
        if remaining == 0:
            yield Partition.from_parts(prefix)
            return
        for part in range(min(remaining, cap), 0, -1):
            prefix.append(part)
            yield from descend(remaining - part, part, prefix)
            prefix.pop()

    return list(descend(n, n, []))


JSON_INT_LIMIT = 2**53


def jsonable(value):
    """A copy of a report with string keys and integers beyond 2^53 as decimal strings."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value if -JSON_INT_LIMIT <= value <= JSON_INT_LIMIT else str(value)
    if isinstance(value, float):
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(x) for x in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return value


def json_by_dumps(report) -> str:
    """The report as sorted, two-space indented JSON through the standard encoder."""
    return json.dumps(jsonable(report), sort_keys=True, indent=2)


def census_listing_by_objects(genus: int, correspondence: str, limit=None) -> list[dict]:
    """The "partitions" of a census listing, from the first ``limit`` partitions of
    enumerate_partitions and their Dold classes under the correspondence."""
    to_dold = {"orientable": partition_to_dold_orientable,
               "nonorientable": partition_to_dold_nonorientable}[correspondence]
    return [
        {"dold": {str(n): a for n, a in to_dold(p).as_dict().items()}, "partition": p.as_list()}
        for p in islice(enumerate_partitions(genus), limit)
    ]


def text_by_writer(report: dict) -> str:
    """The report's text output, written by the generic per-value text writer."""
    return "\n".join(line for key in sorted(report) for line in _text_lines(key, report[key], 0)) + "\n"
