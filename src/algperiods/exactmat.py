"""Arbitrary-precision integer matrices.

Matrices are immutable tuples of tuples of Python integers, so traces of
high powers never overflow.  Dimension 0 is a first-class citizen (trace
0, characteristic polynomial 1); the genus-0 models need it.  One O(n^2)
scan on first use builds ``IntMatrix.nonzero``, the nonzero column indices
of each row; the form check, the Tarjan scan and the report writer read it.

The form check builds neither A^T Omega A nor Omega.  It reads the
product's entries above the diagonal off the pairs of nonzeros in rows k
and k + g, so it costs O(sum_k nnz(row k) * nnz(row k + g)) products on
top of the index.  The realization matrices are direct sums with about
one nonzero per row, so they take O(dim) products.

The characteristic polynomial splits the index set into the strongly
connected components of the directed nonzero pattern (i -> j when
A[i][j] != 0).  Ordered as Tarjan's algorithm emits them, the components
put A in block-triangular form, so det(xI - A) is the product of the
components' characteristic polynomials; ``charpoly_blocks`` returns them
one by one, so that the analysis can factor each distinct block on its
own, and ``charpoly`` multiplies them.  Each k-dimensional block is
reduced to upper Hessenberg form by similarity modulo a prime p, and its
characteristic polynomial mod p is read off the Hessenberg recurrence.
Each reduction step pivots on the candidate row with the fewest nonzeros,
the lowest on a tie, and touches only the pivot row's nonzeros and the
columns with a nonzero multiplier u: O(nnz(pivot row) * #u + k * #u)
products mod p, so O(k^3) operations mod p at worst.  Let B be the
block's Hadamard bound on the coefficients and t the bit length of 2B.
For t <= 511 one prime larger than 2B is used, so the block costs one
pass; a larger bound combines ceil(t/511) or fewer primes above 2^511 by
the Chinese remainder theorem.  Either way the modulus exceeds 2B and the
symmetric lift is exact by proof.  The total cost is O(n + nnz) for
Tarjan on that index plus O(k^3) per prime on each block.  The
realization matrices are direct sums of cycles, swap-shift and companion
blocks, so their blocks stay small.

The primes are p = h * 2^s + 1 for odd h descending from 2^s - 1 to above
2^(s-1), so p > 2^(2s-1), with one sequence for each shift s in 32, 64,
..., 256; a block takes its primes from the smallest s with 2s - 1 >= t.
Each prime is proven by Proth's theorem: a^((p-1)/2) = -1 (mod p) for some
small a.  One cached function finds the i-th prime of a shift on first use
and keeps it for the process; nothing else is shared, so there is no lock.
As a cheap exact check of the whole route, the x^(k-1) coefficient of every
block must equal minus its trace; a mismatch raises ArithmeticError.

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
from functools import cache
from itertools import compress
from math import comb, gcd, isqrt, prod
from typing import Iterable, Sequence

from .polycyc import IntPolynomial

__all__ = [
    "DimensionMismatch",
    "OddDimension",
    "NotAntisymplectic",
    "IntMatrix",
    "charpoly",
    "charpoly_blocks",
    "cyclic_permutation",
    "companion_cycle_quotient",
    "block_diag",
    "form_predicates",
    "antisymplectic_charpoly_identity_check",
]


class DimensionMismatch(Exception):
    """Operands do not have compatible dimensions."""


class OddDimension(Exception):
    """Symplectic predicates require an even dimension."""


class NotAntisymplectic(Exception):
    """The operation requires an antisymplectic matrix."""


class IntMatrix:
    """Square matrix of arbitrary-precision integers."""

    __slots__ = ("rows", "_nonzero")

    def __init__(self, rows: Iterable[Iterable[int]]):
        """Validate a caller-supplied matrix; a non-integer entry raises TypeError."""
        rows = tuple([tuple(map(operator.index, row)) for row in rows])
        if any(len(row) != len(rows) for row in rows):
            raise DimensionMismatch("matrix must be square")
        self.rows = rows

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._raw([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def _raw(cls, rows) -> "IntMatrix":
        # Trusted internal constructor: rows are already square lists of ints.
        m = object.__new__(cls)
        m.rows = tuple([tuple(row) for row in rows])
        return m

    @property
    def nonzero(self) -> tuple[list[int], ...]:
        """Each row's nonzero column indices, ascending, built once; read it only.
        Lists, not tuples: short tuples pile up in CPython's free lists and grow RSS."""
        if not hasattr(self, "_nonzero"):
            cols = range(len(self.rows))
            self._nonzero = tuple([list(compress(cols, row)) for row in self.rows])
        return self._nonzero

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


def _strong_components(succ) -> list[list[int]]:
    """Strongly connected components of the graph i -> j for j in succ[i].

    Iterative Tarjan, so a long chain cannot exhaust the recursion limit.  A
    self-loop i -> i changes nothing, since low[i] <= index[i] already.
    Components come out in reverse topological order, each as a sorted list.
    """
    n = len(succ)
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


# Shifts s of the Proth sequences: their primes exceed 2^(2s - 1), so one
# prime covers a bound of up to 511 bits.  Past 512 bits a pass costs no less
# per modulus bit, and the primes take much longer to find.
_PROTH_SHIFTS = (32, 64, 96, 128, 160, 192, 224, 256)
_PROTH_WITNESSES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


_SMALL_ODD = prod(range(3, 256, 2))


@cache
def _prime(shift: int, i: int) -> int:
    """The i-th prime p = h * 2^shift + 1 for ``shift``, searched over odd h from
    below the h of prime i - 1 (from 2^shift - 1 for i = 0) down to 2^(shift-1) + 1,
    so that every p exceeds 2^(2 shift - 1).

    By Proth's theorem (h odd, h < 2^shift) p is prime as soon as some a has
    a^((p-1)/2) = -1 (mod p).  A prime p gives +-1 for every a, so any other
    value proves p composite.  A candidate that no listed a certifies is
    skipped, which keeps the sequence deterministic.  One gcd first skips the
    candidates with an odd factor below 256, which saves most of the modular
    powers.  Each prime is found once per process and cached.  There is no
    other state and no lock: two threads that miss the cache at once search
    the same candidates and find the same prime.
    """
    top = _prime(shift, i - 1) >> shift if i else (1 << shift) + 1
    for h in range(top - 2, 1 << (shift - 1), -2):
        p = (h << shift) + 1
        if gcd(p, _SMALL_ODD) != 1:
            continue
        for a in _PROTH_WITNESSES:
            r = pow(a, p >> 1, p)
            if r == p - 1:
                return p
            if r != 1:
                break
    raise ArithmeticError(f"no Proth prime left for shift {shift}")


def _hadamard_bound(rows) -> int:
    """An integer B >= |c_j| for every coefficient c_j of det(xI - A).

    The x^(k-j) coefficient is a signed sum of C(k, j) principal j x j
    minors, and Hadamard bounds each minor by the product of its column
    norms, at most the product of the j largest column norms of A.  The
    square root is an integer ceiling, so no float is involved.
    """
    k = len(rows)
    squares = sorted((sum(map(operator.mul, col, col)) for col in zip(*rows)), reverse=True)
    bound = product = 1
    for j, s in enumerate(squares, 1):
        product *= s
        if not product:
            break
        root = isqrt(product)
        if root * root < product:
            root += 1
        bound = max(bound, comb(k, j) * root)
    return bound


def _charpoly_mod(rows, p: int) -> list[int]:
    """det(xI - A) mod p, coefficients low to high, in O(k^3) operations mod p.

    A similarity transform mod p brings A to upper Hessenberg form H
    (Cohen, A Course in Computational Algebraic Number Theory, 2.2.9), and
    the characteristic polynomials p_m of H's leading m x m submatrices obey
    p_m = (x - h_mm) p_(m-1) - sum_(i<m) h_im (h_(i+1,i) ... h_(m,m-1)) p_(i-1).

    Step j pivots on the row i > j with h_ij != 0 and the fewest nonzeros,
    the lowest such i on a tie, to keep the fill-in low (Markowitz's rule).
    Only the pivot row's nonzeros and the nonzero multipliers u_i enter the
    updates, so a step costs O(nnz(pivot row) * #u + k * #u) products mod p,
    at most O(k^2) on a dense block.
    """
    n = len(rows)
    h = [[x % p for x in row] for row in rows]
    for j in range(n - 2):
        col = j + 1
        candidates = list(compress(range(col, n), map(operator.itemgetter(j), h[col:])))
        if not candidates:
            continue
        # Rows below j are zero left of column j, so the most zeros is the
        # fewest nonzeros; max keeps the first, lowest, row of a tie.
        pivot = max(candidates, key=lambda i: h[i].count(0))
        if pivot != col:
            h[pivot], h[col] = h[col], h[pivot]
            for row in h:
                row[pivot], row[col] = row[col], row[pivot]
        if len(candidates) == 1:  # column j is already reduced
            continue
        top = h[col]
        tail = list(compress(range(col, n), top[col:]))
        inverse = pow(top[j], -1, p)
        # Row i -= u_i * row col clears column j below the subdiagonal; the
        # inverse similarity then adds sum_i u_i * column i to column col.
        cleared, us = [], []
        for i in candidates:
            row = h[i]
            if i == col or not row[j]:  # the swap may have put a zero at the pivot's index
                continue
            u = row[j] * inverse % p
            for c in tail:
                row[c] = (row[c] - u * top[c]) % p
            row[j] = 0
            cleared.append(i)
            us.append(u)
        if len(us) == 1:  # itemgetter of one index returns the bare entry
            i, u = cleared[0], us[0]
            for row in h:
                x = row[i]
                if x:
                    row[col] = (row[col] + u * x) % p
        elif us:
            gather = operator.itemgetter(*cleared)
            for row in h:
                s = sum(map(operator.mul, us, gather(row)))
                if s:
                    row[col] = (row[col] + s) % p
    polys = [[1]]
    for m in range(1, n + 1):
        prev = polys[-1]
        d = h[m - 1][m - 1]
        new = [0, *prev]
        new[:m] = [x - d * y for x, y in zip(new, prev)]
        t = 1
        for i in range(m - 1, 0, -1):
            t = t * h[i][i - 1] % p
            if not t:
                break
            c = h[i - 1][m - 1]
            if c:
                c = c * t % p
                new[:i] = [x - c * y for x, y in zip(new, polys[i - 1])]
        polys.append([x % p for x in new])
    return polys[n]


def _block_charpoly(rows) -> IntPolynomial:
    """det(xI - A) of a nonempty block, exact by the Chinese remainder theorem.

    Residues mod primes of ``_prime`` are combined until their product M
    exceeds 2B for the Hadamard bound B; every coefficient lies in [-B, B],
    so its symmetric residue mod M is the coefficient itself.  For 2B of t
    bits the primes come from the smallest shift s with 2s - 1 >= t, so a
    single prime exceeds 2B when t <= 511; a larger bound combines
    ceil(t/511) or fewer primes of the largest shift.
    """
    k = len(rows)
    twice_bound = 2 * _hadamard_bound(rows)
    bits = twice_bound.bit_length()
    shift = next((s for s in _PROTH_SHIFTS if 2 * s - 1 >= bits), _PROTH_SHIFTS[-1])
    coeffs = [0] * (k + 1)
    modulus = 1
    i = 0
    while modulus <= twice_bound:
        p = _prime(shift, i)
        inverse = pow(modulus, -1, p)
        coeffs = [
            c + modulus * ((r - c) * inverse % p)
            for c, r in zip(coeffs, _charpoly_mod(rows, p))
        ]
        modulus *= p
        i += 1
    half = modulus >> 1
    coeffs = [c - modulus if c > half else c for c in coeffs]
    # The x^(k-1) coefficient is -trace(A): a cheap exact check of the whole route.
    if coeffs[k - 1] != -sum(rows[j][j] for j in range(k)):
        raise ArithmeticError("characteristic polynomial disagrees with the trace")
    return IntPolynomial(coeffs)


def charpoly_blocks(a: IntMatrix) -> list[IntPolynomial]:
    """det(xI - B) for each diagonal block B of A's block-triangular form.

    The strongly connected components of the nonzero pattern of A put it
    in block-triangular form, so det(xI - A) is the product of the listed
    polynomials, one per component in Tarjan's order; the empty matrix has
    none.  Each block's principal submatrix is reduced to Hessenberg form
    modulo proven primes whose product exceeds 2B for the block's Hadamard
    bound B, so the cost is O(n + nnz) for Tarjan on ``a.nonzero`` plus
    O(k^3) operations per prime on each k-dim block: one prime while 2B
    has at most 511 bits, ceil(log2(2B)/511) or fewer above.  An
    irreducible matrix is a single block.
    """
    rows = a.rows
    return [
        _block_charpoly([[rows[i][j] for j in component] for i in component])
        for component in _strong_components(a.nonzero)
    ]


def charpoly(a: IntMatrix) -> IntPolynomial:
    """det(xI - A), monic of degree dim: the product of ``charpoly_blocks(a)``;
    the empty matrix gives 1."""
    return prod(charpoly_blocks(a), start=IntPolynomial((1,)))


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
    """Direct sum of square blocks; the empty list gives the empty matrix.  Its
    nonzero index is the blocks' indices, each shifted by the block's offset."""
    total = sum(b.dim for b in blocks)
    rows, nonzero = [], []
    offset = 0
    for b in blocks:
        left, right = (0,) * offset, (0,) * (total - offset - b.dim)
        for row, cols in zip(b.rows, b.nonzero):
            rows.append(left + row + right)
            nonzero.append([j + offset for j in cols])
        offset += b.dim
    m = IntMatrix._raw(rows)
    m._nonzero = tuple(nonzero)
    return m


def form_predicates(a: IntMatrix) -> tuple[bool, bool]:
    """(A^T Omega A == Omega, A^T Omega A == -Omega), read off the nonzero entries.

    (A^T Omega A)_ij = sum_(k<g) (a_(k,i) a_(k+g,j) - a_(k+g,i) a_(k,j)) is
    antisymmetric, so only the entries i < j are summed, each over the pairs
    of nonzeros of rows k and k + g; a pair with i = j adds nothing.  The
    product is s * Omega for a sign s exactly when its nonzero entries above
    the diagonal are the g entries (i, i + g), all equal to s.  For dim > 0
    at most one predicate holds; the empty matrix counts as both.
    """
    n = a.dim
    if n % 2:
        raise OddDimension("symplectic predicates need an even dimension")
    if n == 0:
        return True, True
    g = n // 2
    rows = a.rows
    upper: dict[tuple[int, int], int] = {}
    for top, bottom, top_nz, bottom_nz in zip(rows[:g], rows[g:], a.nonzero[:g], a.nonzero[g:]):
        pairs = [(j, bottom[j]) for j in bottom_nz]
        for i in top_nz:
            x = top[i]
            for j, y in pairs:
                if i < j:
                    upper[i, j] = upper.get((i, j), 0) + x * y
                elif j < i:
                    upper[j, i] = upper.get((j, i), 0) - x * y
    entries = {ij: v for ij, v in upper.items() if v}
    if len(entries) != g or any(j - i != g for i, j in entries):
        return False, False
    signs = set(entries.values())
    return signs == {1}, signs == {-1}


def antisymplectic_charpoly_identity_check(a: IntMatrix) -> bool:
    """Check the palindromic identity of antisymplectic characteristic polynomials.

    For antisymplectic A of dimension 2g, chi_A(x) = (-1)^g x^(2g) chi_A(-1/x),
    i.e. the coefficients satisfy c_i = (-1)^(g+i) c_(2g-i).
    """
    if not form_predicates(a)[1]:
        raise NotAntisymplectic("the identity only applies to antisymplectic matrices")
    g = a.dim // 2
    p = charpoly(a)
    c = list(p.coeffs) + [0] * (a.dim + 1 - len(p.coeffs))
    return all(c[i] == (-1) ** (g + i) * c[a.dim - i] for i in range(a.dim + 1))

