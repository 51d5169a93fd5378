"""Arbitrary-precision integer matrices and the standard symplectic form.

Matrices are immutable tuples of tuples of Python integers, so traces of
high powers never overflow.  Dimension 0 is a first-class citizen (trace
0, characteristic polynomial 1); the genus-0 models need it.

Multiplication walks the nonzero entries of the left factor row by row,
which makes powers of the permutation-like matrices built by the
realization constructions cheap without a separate sparse type.

The characteristic polynomial splits the index set into the strongly
connected components of the directed nonzero pattern (i -> j when
A[i][j] != 0).  Ordered as Tarjan's algorithm emits them, the components
put A in block-triangular form, so det(xI - A) is the product of the
components' characteristic polynomials.  The cost is one O(n^2) scan of
the pattern plus Faddeev-LeVerrier (O(k^4) integer operations) on each
k-dimensional block.  The realization matrices are direct sums of cycles,
swap-shift and companion blocks, so their blocks stay small.

Matrices built here from validated matrices or literal integers go
through the trusted ``IntMatrix._raw``; ``IntMatrix(...)`` validates every
entry of a caller-supplied matrix.

Basis convention for the symplectic machinery: a genus-g surface carries
coordinates (a_1..a_g, b_1..b_g) and the intersection form

    Omega = [[0, I_g], [-I_g, 0]].

Every predicate below is relative to this one convention.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

from .polycyc import IntPolynomial

__all__ = [
    "DimensionMismatch",
    "OddDimension",
    "NotAntisymplectic",
    "IntMatrix",
    "SymplecticForm",
    "transpose",
    "mat_scale",
    "mat_mul",
    "mat_pow",
    "trace",
    "charpoly",
    "cyclic_permutation",
    "companion_cycle_quotient",
    "block_diag",
    "standard_symplectic_form",
    "is_symplectic",
    "is_antisymplectic",
    "antisymplectic_charpoly_identity_check",
    "symplectic_transvection",
]


class DimensionMismatch(Exception):
    """Operands do not have compatible dimensions."""


class OddDimension(Exception):
    """Symplectic predicates require an even dimension."""


class NotAntisymplectic(Exception):
    """The operation requires an antisymplectic matrix."""


class IntMatrix:
    """Square matrix of arbitrary-precision integers."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        """Validate a caller-supplied matrix; a non-integer entry raises TypeError."""
        rows = tuple(tuple(map(operator.index, row)) for row in rows)
        for row in rows:
            if len(row) != len(rows):
                raise DimensionMismatch("matrix must be square")
        self.rows = rows

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._raw([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def _raw(cls, rows) -> "IntMatrix":
        # Trusted internal constructor: rows are already square lists of ints.
        m = object.__new__(cls)
        m.rows = tuple(map(tuple, rows))
        return m

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object):
        if isinstance(other, IntMatrix):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]!r})"


def transpose(a: IntMatrix) -> IntMatrix:
    return IntMatrix._raw(zip(*a.rows))


def mat_scale(a: IntMatrix, c: int) -> IntMatrix:
    """c * A for an integer scalar c; a non-integer c raises TypeError."""
    c = operator.index(c)
    return IntMatrix._raw([[c * x for x in row] for row in a.rows])


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
    return IntMatrix._raw(out)


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


def trace(a: IntMatrix) -> int:
    return sum(a.rows[i][i] for i in range(a.dim))


def _plus_diagonal(a: IntMatrix, c: int) -> IntMatrix:
    rows = [list(row) for row in a.rows]
    for i in range(len(rows)):
        rows[i][i] += c
    return IntMatrix._raw(rows)


def _strong_components(rows) -> list[list[int]]:
    """Strongly connected components of the graph i -> j for rows[i][j] != 0.

    Iterative Tarjan, so a long chain cannot exhaust the recursion limit.
    Components come out in reverse topological order, each as a sorted
    index list.
    """
    n = len(rows)
    succ = [[j for j in compress(range(n), row) if j != i] for i, row in enumerate(rows)]
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                        if w == v:
                            break
                    component.sort()
                    components.append(component)
    return components


def _faddeev_leverrier(a: IntMatrix) -> IntPolynomial:
    """det(xI - A) of a nonempty matrix by the Faddeev-LeVerrier recurrence.

    The scalar division in each step is provably exact for integer input;
    the check below guards against implementation bugs, not bad data.
    """
    n = a.dim
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = IntMatrix.identity(n)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        c, rem = divmod(-trace(am), k)
        if rem:
            raise ArithmeticError("Faddeev-LeVerrier division was not exact")
        coeffs[n - k] = c
        if k < n:
            m = _plus_diagonal(am, c)
    return IntPolynomial(coeffs)


def charpoly(a: IntMatrix) -> IntPolynomial:
    """det(xI - A), monic of degree dim; the empty matrix gives 1.

    The strongly connected components of the nonzero pattern of A put it
    in block-triangular form, and det(xI - A) is the product of the
    diagonal blocks' characteristic polynomials.  Each block's principal
    submatrix runs the Faddeev-LeVerrier recurrence, so the cost is one
    O(n^2) pattern scan plus O(k^4) integer operations per k-dim block.
    An irreducible matrix is a single block.
    """
    rows = a.rows
    result = IntPolynomial((1,))
    for component in _strong_components(rows):
        block = IntMatrix._raw([[rows[i][j] for j in component] for i in component])
        # Outer loop over the block's few coefficients, not the product's.
        result = _faddeev_leverrier(block) * result
    return result


def cyclic_permutation(n: int) -> IntMatrix:
    """Permutation matrix of the n-cycle e_i -> e_(i+1 mod n); charpoly x^n - 1."""
    if n < 1:
        raise ValueError("cycle length must be positive")
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[(i + 1) % n][i] = 1
    return IntMatrix._raw(rows)


def companion_cycle_quotient(n: int) -> IntMatrix:
    """Companion matrix of x^(n-1) + ... + x + 1 = (x^n - 1)/(x - 1).

    Shape (n-1)x(n-1): ones on the subdiagonal, last column all -1.  The
    trace of its l-th power is reg(n, l) - reg(1, l).
    """
    if n < 2:
        raise ValueError("quotient companion matrix needs n >= 2")
    size = n - 1
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        rows[i][size - 1] = -1
    for i in range(size - 1):
        rows[i + 1][i] = 1
    return IntMatrix._raw(rows)


def block_diag(blocks: Sequence[IntMatrix]) -> IntMatrix:
    """Direct sum of square blocks; the empty list gives the empty matrix."""
    total = sum(b.dim for b in blocks)
    rows = [[0] * total for _ in range(total)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b.rows):
            rows[offset + i][offset : offset + b.dim] = row
        offset += b.dim
    return IntMatrix._raw(rows)


@dataclass(frozen=True)
class SymplecticForm:
    """The standard intersection form of a genus-g surface."""

    g: int
    matrix: IntMatrix


def standard_symplectic_form(g: int) -> SymplecticForm:
    """Omega = [[0, I_g], [-I_g, 0]] in the (a_1..a_g, b_1..b_g) basis."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    n = 2 * g
    rows = [[0] * n for _ in range(n)]
    for i in range(g):
        rows[i][g + i] = 1
        rows[g + i][i] = -1
    return SymplecticForm(g, IntMatrix._raw(rows))


def _form_transform(a: IntMatrix, omega: IntMatrix) -> IntMatrix:
    return mat_mul(mat_mul(transpose(a), omega), a)


def is_symplectic(a: IntMatrix) -> bool:
    """A^T Omega A == Omega; the empty matrix counts as symplectic."""
    if a.dim % 2:
        raise OddDimension("symplectic predicates need an even dimension")
    if a.dim == 0:
        return True
    omega = standard_symplectic_form(a.dim // 2).matrix
    return _form_transform(a, omega) == omega


def is_antisymplectic(a: IntMatrix) -> bool:
    """A^T Omega A == -Omega; the empty matrix counts as antisymplectic."""
    if a.dim % 2:
        raise OddDimension("symplectic predicates need an even dimension")
    if a.dim == 0:
        return True
    omega = standard_symplectic_form(a.dim // 2).matrix
    return _form_transform(a, omega) == mat_scale(omega, -1)


def antisymplectic_charpoly_identity_check(a: IntMatrix) -> bool:
    """Check the palindromic identity of antisymplectic characteristic polynomials.

    For antisymplectic A of dimension 2g, chi_A(x) = (-1)^g x^(2g) chi_A(-1/x),
    i.e. the coefficients satisfy c_i = (-1)^(g+i) c_(2g-i).
    """
    if not is_antisymplectic(a):
        raise NotAntisymplectic("the identity only applies to antisymplectic matrices")
    g = a.dim // 2
    p = charpoly(a)
    c = list(p.coeffs) + [0] * (a.dim + 1 - len(p.coeffs))
    return all(c[i] == (-1) ** (g + i) * c[a.dim - i] for i in range(a.dim + 1))


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
    omega = standard_symplectic_form(n // 2).matrix
    w = [sum(omega.rows[i][j] * v[j] for j in range(n)) for i in range(n)]
    rows = [
        [(1 if i == j else 0) + multiplier * v[i] * w[j] for j in range(n)]
        for i in range(n)
    ]
    return IntMatrix(rows)
