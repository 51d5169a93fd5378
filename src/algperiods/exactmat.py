"""Arbitrary-precision integer matrices.

Matrices are immutable and hold Python integers, so traces of high powers
never overflow.  Dimension 0 is a first-class citizen (trace 0,
characteristic polynomial 1); the genus-0 models need it.  A matrix stores
one form, its nonzero index ``IntMatrix.nonzero``: one {column: entry} dict
per row in ascending column order, with no zero entry.  The form check, the
cycle walk, the block search, the block polynomials and the report writer
read only the index.  ``IntMatrix(rows)`` pays one O(n^2) scan of the dense
rows it is given; the realization blocks, their direct sums and a loaded
matrix file are built straight into the index, in O(n + nnz).  The dense
rows, the property ``rows``, are built from the index on each read and not
kept; only ``repr`` reads them.  Equality and hashing read the index, in
O(n + nnz).

The form check builds neither A^T Omega A nor Omega.  It reads the
product's entries above the diagonal off the pairs of nonzeros in rows k
and k + g, so it costs O(sum_k nnz(row k) * nnz(row k + g)) products on
top of the index.  The realization matrices are direct sums with about
one nonzero per row, so they take O(dim) products.

The characteristic polynomial splits the index set into the strongly
connected components of the directed nonzero pattern (i -> j when
A[i][j] != 0).  A row with exactly one nonzero gives its vertex one edge
out, so a chain of such vertices that closes on itself is a whole
component, and a sink; its polynomial is x^k - c for the product c of the
chain's k entries.  One walk over ``a.nonzero`` peels all of them: from
each vertex not yet walked it follows the single edges, collecting the
entries, until it meets a walked vertex or a row without exactly one
nonzero.  It visits each vertex once, so it costs O(n).  The vertices it
leaves, the chains that do not close among them, go to Tarjan's single
depth-first pass, which cuts each component off its path of vertices
in O(component size) and reads the peeled flags without writing them.  The
pass does not run when every vertex was peeled.  Its components come out
in topological order and the peeled sinks after them, which puts A in
block-triangular form, so det(xI - A) is the product of the components'
characteristic polynomials; ``charpoly_blocks`` returns them one by one,
so that the analysis can factor each distinct block on its own, and
``charpoly`` multiplies them.
A one-vertex component of the search is x - a_ii.  Every larger one has
its indices sorted by ascending column count, the number of its rows that
are nonzero in the column, stably, so ties keep ascending index order.
That is a permutation similarity P^T B P, which leaves the polynomial, the
Hadamard bound and the trace as they were.  The block is then reduced to
upper Hessenberg form by similarity modulo a prime p, and its
characteristic polynomial mod p is read off the Hessenberg recurrence.
Each reduction step pivots on the candidate row with the fewest nonzeros,
the lowest on a tie.  With the sparse columns first, they are eliminated
while many rows remain below them, so fewer rows are cleared per step and
the fill-in comes later (Tinney and Walker's order): on the 482-vertex
block of a genus-256 dense transvection conjugate one pass takes 1.05 s
instead of 5.2 s.  ``_charpoly_mod`` states the cost of a step; a block
costs O(k^3) operations mod p at worst.  Let B be the
block's Hadamard bound on the coefficients and t the bit length of 2B.
For t <= 511 one prime larger than 2B is used, so the block costs one
pass; a larger bound combines ceil(t/511) or fewer primes above 2^511 by
the Chinese remainder theorem.  Either way the modulus exceeds 2B and the
symmetric lift is exact by proof.  The total cost is O(n) for the walk,
O(n + nnz) for the pass over the vertices it leaves, and O(k^3) per
prime on each block of the search with k > 1.  The realization matrices
are direct sums of signed cycles (the cycles, the swap-shift blocks, their
negated copies and the 1x1 identities) and at most one companion block, so
the walk peels all but that companion, and only the companion reaches the
search and the modular kernel.

The primes are p = h * 2^s + 1 for odd h descending from 2^s - 1 to above
2^(s-1), so p > 2^(2s-1), with one sequence for each shift s in 32, 64,
..., 256; a block takes its primes from the smallest s with 2s - 1 >= t.
Each prime is proven by Proth's theorem: a^((p-1)/2) = -1 (mod p) for some
small a.  One cached function finds the i-th prime of a shift on first use
and keeps it for the process; nothing else is shared, so there is no lock.
As a cheap exact check of the whole route, the x^(k-1) coefficient of every
block from the kernel must equal minus its trace; a mismatch raises
ArithmeticError.

Matrices built here from validated matrices or literal integers go
through the one trusted constructor ``IntMatrix._sparse``, which takes a
nonzero index as it is; ``IntMatrix(...)`` validates every entry of a
caller-supplied matrix.

Basis convention for the symplectic machinery: a genus-g surface carries
coordinates (a_1..a_g, b_1..b_g) and the intersection form

    Omega = [[0, I_g], [-I_g, 0]].

Every predicate below is relative to this one convention.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Iterable, Sequence
from functools import cache
from itertools import compress
from math import comb, gcd, isqrt, prod

from .arith import _Value
from .polycyc import IntPolynomial, _product

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


class IntMatrix(_Value):
    """Square matrix of arbitrary-precision integers."""

    __slots__ = ("_nonzero",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        """Validate a caller-supplied matrix; a non-integer entry raises TypeError."""
        rows = [list(map(operator.index, row)) for row in rows]
        if any(len(row) != len(rows) for row in rows):
            raise DimensionMismatch("matrix must be square")
        cols = range(len(rows))
        self._nonzero = tuple([{j: row[j] for j in compress(cols, row)} for row in rows])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._sparse([{i: 1} for i in range(n)])

    @classmethod
    def _sparse(cls, nonzero) -> "IntMatrix":
        # Trusted internal constructor: one {column: entry} dict per row, no zero
        # entry, columns ascending and below the number of rows.
        m = object.__new__(cls)
        m._nonzero = tuple(nonzero)
        return m

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The dense rows, built from ``nonzero`` in O(n^2) on every read and not
        kept; the library reads them only to print a matrix, in ``__repr__``."""
        rows, n = [], len(self._nonzero)
        for entries in self._nonzero:
            row = [0] * n
            for j, x in entries.items():
                row[j] = x
            rows.append(tuple(row))
        return tuple(rows)

    @property
    def nonzero(self) -> tuple[dict[int, int], ...]:
        """Each row's nonzero entries as {column: entry} in ascending column order:
        the matrix's one stored form, returned as it is; read it only.
        Dicts, not tuples: short tuples pile up in CPython's free lists and grow
        RSS, while CPython keeps at most 80 free dicts; and a row with one entry
        (224 bytes on 64-bit CPython 3.11) is smaller than a dense row of more
        than 23 columns, so a realized matrix holds less than its dense rows."""
        return self._nonzero

    @property
    def dim(self) -> int:
        return len(self._nonzero)

    def _key(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        # The index is canonical (columns ascending, no zero), so its items are a key.
        return tuple([tuple(r.items()) for r in self._nonzero])

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]!r})"


def _strong_components(succ, skip) -> list[list[int]]:
    """Strongly connected components of the graph i -> j for j in succ[i],
    leaving out the vertices whose flag in ``skip`` is set; ``skip`` is read,
    never written.

    Tarjan's single depth-first pass (R. Tarjan, "Depth-first search and
    linear graph algorithms", SIAM J. Comput. 1(2), 1972), with an explicit
    work stack, so a long chain cannot exhaust the recursion limit.  The path
    holds the vertices reached and not yet in a component, in the order they
    were reached.  A vertex's low mark starts at its position on the path and
    takes the least mark over its edges into the path and over its children as
    they finish.  A vertex that finishes with its mark at its own position
    roots a component, the path from it up, which is cut off the path in
    O(component size); its vertices' marks become n, past every position, so
    a later edge into them changes nothing.  The left-out vertices take the
    mark n from the start, so ``skip`` is read once.  They must be a union of
    sink components, as the cycles that ``charpoly_blocks`` peels are; the
    cost is then O(n) plus the edges out of the searched vertices.  The pass
    finds the components sinks first, so they are returned reversed, in
    topological order, each as a sorted list.
    """
    n = len(succ)
    # -1 until reached, then the least path position found; n once cut off or skipped
    low = [n if flag else -1 for flag in skip]
    components = []
    for root in range(n):
        if low[root] >= 0:
            continue
        # Each earlier root left the path empty as it finished.
        low[root], path, work = 0, [root], [(root, 0, iter(succ[root]))]
        while work:
            v, height, edges = work[-1]
            for w in edges:
                if low[w] < 0:
                    low[w] = len(path)
                    work.append((w, len(path), iter(succ[w])))
                    path.append(w)
                    break
                if low[w] < low[v]:
                    low[v] = low[w]
            else:
                work.pop()
                if low[v] == height:  # v roots a component: cut it off the path
                    component = path[height:]
                    del path[height:]
                    for w in component:
                        low[w] = n
                    component.sort()
                    components.append(component)
                else:  # v is not a root, so it has a parent on the work stack
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    components.reverse()
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
    ``charpoly_blocks`` passes its blocks with the indices in ascending order
    of column count, so the lowest i is the one of lowest column count, as
    far as the swaps of earlier steps left that order in place.
    A step with #u nonzero multipliers u updates only the pivot row's
    nonzeros in the rows it clears; its column update visits every row for
    each cleared column but multiplies only that column's nonzeros.  So a
    step costs O((nnz(pivot row) + k) * #u + k) operations mod p, and a
    block O(k^3) at worst.
    """
    n = len(rows)
    h = [[x % p for x in row] for row in rows]
    for j in range(n - 2):
        col = j + 1
        candidates = [i for i in range(col, n) if h[i][j]]
        if not candidates:
            continue
        # Rows below j are zero left of column j, so the most zeros is the
        # fewest nonzeros; max keeps the first, lowest, row of a tie.
        pivot = max(candidates, key=lambda i: h[i].count(0))
        if pivot != col:
            h[pivot], h[col] = h[col], h[pivot]
            for line in h:
                line[pivot], line[col] = line[col], line[pivot]
        if len(candidates) == 1:  # column j is already reduced
            continue
        top = h[col]
        tail = list(compress(range(col, n), top[col:]))
        inverse = pow(top[j], -1, p)
        # Row i -= u_i * row col clears column j below the subdiagonal; the
        # inverse similarity then adds sum_i u_i * column i to column col.
        cleared = []
        for i in candidates:
            row = h[i]
            if i == col or not row[j]:  # the swap may have put a zero at the pivot's index
                continue
            u = row[j] * inverse % p
            for c in tail:
                row[c] = (row[c] - u * top[c]) % p
            row[j] = 0
            cleared.append((i, u))
        for line in h:
            total = line[col]
            for i, u in cleared:
                if line[i]:
                    total += u * line[i]
            line[col] = total % p
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
    return IntPolynomial([c - modulus if c > half else c for c in coeffs])


def charpoly_blocks(a: IntMatrix) -> list[IntPolynomial]:
    """det(xI - B) for each diagonal block B of A's block-triangular form.

    A row of A with exactly one nonzero gives its vertex one edge out, so a
    chain of such vertices that closes on itself is a whole strong component
    and a sink, with polynomial x^k - c for the product c of its k entries.
    One walk peels every such cycle: from each vertex not yet walked it
    follows the single edges, collecting the entries as it goes, until it
    meets a vertex walked before or a row without exactly one nonzero.  It
    visits each vertex once, so it costs O(n).  A chain that does not close
    stays for the strongly connected components of the other vertices, from
    Tarjan's single depth-first pass, which cuts each component off its path
    in O(component size) and does not run when every vertex was peeled.
    Those components come out in topological order and the peeled sinks after
    them, which puts A in block-triangular form, so det(xI - A) is the
    product of the listed polynomials, one per component in that order; the
    empty matrix has none.  A one-vertex component of the search is
    x - a_ii.  Every larger one's indices are sorted, stably, by ascending
    column count, the number of the component's rows nonzero in the column,
    in O(k log k + nnz) steps.  That permutation similarity P^T B P keeps the
    polynomial, the Hadamard bound and the trace, and puts the sparse columns
    first, which cuts the kernel's fill-in: a genus-256 dense transvection
    conjugate is analyzed in 4.9 s instead of 28.0 s.  Its principal
    submatrix in that order, a k x k zero list filled in O(k + nnz) steps
    from the nonzeros of its rows that fall inside the component, is reduced
    to Hessenberg form modulo proven primes whose product exceeds 2B for the
    block's Hadamard bound B, so the cost is O(n + nnz) for the walk and the
    search over ``a.nonzero`` plus O(k^3) operations per prime on each such
    k-dim block: one prime while 2B has at most 511 bits, ceil(log2(2B)/511)
    or fewer above.  That route must give -trace as the x^(k-1) coefficient,
    or ArithmeticError is raised.  An irreducible matrix is a single block.
    """
    nonzero = a.nonzero
    n = left = len(nonzero)
    walk = [0] * n  # 1 + the first vertex of the walk that reached each vertex
    peeled = [False] * n
    cycles = []
    for start in range(n):
        if walk[start] or len(nonzero[start]) != 1:
            continue
        v, path, entries = start, [], []
        while not walk[v] and len(nonzero[v]) == 1:
            walk[v] = start + 1
            path.append(v)
            ((v, x),) = nonzero[v].items()
            entries.append(x)
        if walk[v] == start + 1:  # the chain closed on v: its cycle is a sink, x^k - c
            first = path.index(v)
            for j in path[first:]:
                peeled[j] = True
            k = len(path) - first
            cycles.append(IntPolynomial([-prod(entries[first:])] + [0] * (k - 1) + [1]))
            left -= k
    if not left:
        return cycles
    blocks = []
    for component in _strong_components(nonzero, peeled):
        k = len(component)
        if k == 1:
            i = component[0]
            blocks.append(IntPolynomial([-nonzero[i].get(i, 0), 1]))
            continue
        # Sparse columns first: a stable sort by column count, ties ascending.
        counts = Counter(j for i in component for j in nonzero[i])
        component.sort(key=counts.__getitem__)
        index = {j: col for col, j in enumerate(component)}
        sub = [[0] * k for _ in component]
        for row, i in zip(sub, component):
            for j, x in nonzero[i].items():
                if j in index:
                    row[index[j]] = x
        block = _block_charpoly(sub)
        # The x^(k-1) coefficient is -trace: a cheap exact check of the kernel.
        if block.coeffs[k - 1] != -sum(nonzero[j].get(j, 0) for j in component):
            raise ArithmeticError("characteristic polynomial disagrees with the trace")
        blocks.append(block)
    return blocks + cycles


def charpoly(a: IntMatrix) -> IntPolynomial:
    """det(xI - A), monic of degree dim: the product of ``charpoly_blocks(a)``;
    the empty matrix gives 1."""
    return _product(charpoly_blocks(a))


def cyclic_permutation(n: int) -> IntMatrix:
    """Permutation matrix of the n-cycle e_i -> e_(i+1 mod n); charpoly x^n - 1."""
    if n < 1:
        raise ValueError("cycle length must be positive")
    return IntMatrix._sparse([{(i - 1) % n: 1} for i in range(n)])


def companion_cycle_quotient(n: int) -> IntMatrix:
    """Companion matrix of x^(n-1) + ... + x + 1 = (x^n - 1)/(x - 1).

    Shape (n-1)x(n-1): ones on the subdiagonal, last column all -1.  The
    trace of its l-th power is reg(n, l) - reg(1, l).
    """
    if n < 2:
        raise ValueError("quotient companion matrix needs n >= 2")
    size = n - 1
    return IntMatrix._sparse([{size - 1: -1}] + [{i - 1: 1, size - 1: -1} for i in range(1, size)])


def block_diag(blocks: Sequence[IntMatrix]) -> IntMatrix:
    """Direct sum of square blocks; the empty list gives the empty matrix.  It is
    built from the blocks' nonzero indices alone, each column shifted by its
    block's offset, in O(dim + nnz); no dense row is made."""
    nonzero, offset = [], 0
    for b in blocks:
        nonzero += [{j + offset: x for j, x in entries.items()} for entries in b.nonzero]
        offset += b.dim
    return IntMatrix._sparse(nonzero)


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
    upper: dict[int, int] = {}  # entry (i, j) under the key i * n + j
    for top, bottom in zip(a.nonzero[:g], a.nonzero[g:]):
        pairs = bottom.items()
        for i, x in top.items():
            for j, y in pairs:
                if i < j:
                    key = i * n + j
                    upper[key] = upper.get(key, 0) + x * y
                elif j < i:
                    key = j * n + i
                    upper[key] = upper.get(key, 0) - x * y
    entries = {key: v for key, v in upper.items() if v}
    if len(entries) != g or any(key % n - key // n != g for key in entries):
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
    c = charpoly(a).coeffs
    return all(c[i] == (-1) ** (g + i) * c[a.dim - i] for i in range(a.dim + 1))

