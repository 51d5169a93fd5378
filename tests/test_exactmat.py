import json
import random
import subprocess
import sys
import textwrap
import threading
import time
from collections import Counter
from fractions import Fraction
from itertools import compress
from math import prod
from pathlib import Path

import pytest

import algperiods.exactmat as exactmat
from algperiods import (
    DimensionMismatch,
    DoldClass,
    HomologyModel,
    IntMatrix,
    IntPolynomial,
    LefschetzSequence,
    Mode,
    NotAntisymplectic,
    OddDimension,
    Partition,
    SurfaceKind,
    ZetaFactorization,
    analyze,
    antisymplectic_charpoly_identity_check,
    block_diag,
    charpoly,
    companion_cycle_quotient,
    cyclic_permutation,
    form_predicates,
    poly_divmod,
    realize_target,
    trace_sequence_from_charpoly,
    x_pow_minus_one,
)
from algperiods.realize import _swap_shift_block

from conftest import (
    KERNEL_PRIMES,
    charpoly_by_faddeev_leverrier,
    charpoly_cofactor,
    form_predicates_by_product,
    mat_mul,
    mat_pow,
    negated,
    plus_minus_identity,
    random_antisymplectic_quasiunipotent,
    random_matrix,
    random_symplectic_pair,
    reg,
    sparse_transvection_conjugate,
    standard_symplectic_form,
    symplectic_transvection,
    trace,
    transpose,
)

GOLDEN = Path(__file__).parent / "golden"


def test_matrix_basics():
    a = IntMatrix([[1, 2], [3, 4]])
    assert a.dim == 2
    assert transpose(a) == IntMatrix([[1, 3], [2, 4]])
    assert trace(a) == 5
    assert trace(IntMatrix.identity(4)) == 4
    with pytest.raises(DimensionMismatch):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        mat_mul(a, IntMatrix.identity(3))


def test_mat_pow():
    p3 = cyclic_permutation(3)
    assert mat_pow(p3, 0) == IntMatrix.identity(3)
    assert mat_pow(p3, 3) == IntMatrix.identity(3)
    assert trace(mat_pow(p3, 2)) == 0
    assert trace(mat_pow(p3, 3)) == 3
    with pytest.raises(ValueError):
        mat_pow(p3, -1)


def test_cyclic_permutation_trace_counts_orbits():
    rng = random.Random(3)
    for _ in range(20):
        n, l = rng.randint(1, 9), rng.randint(1, 18)
        assert trace(mat_pow(cyclic_permutation(n), l)) == reg(n, l)


def test_companion_cycle_quotient():
    assert companion_cycle_quotient(2) == IntMatrix([[-1]])
    c3 = companion_cycle_quotient(3)
    assert [trace(mat_pow(c3, l)) for l in range(1, 7)] == [-1, -1, 2, -1, -1, 2]
    c5 = companion_cycle_quotient(5)
    quotient, rem = poly_divmod(x_pow_minus_one(5), IntPolynomial([-1, 1]))
    assert rem.is_zero() and charpoly(c5) == quotient
    for n in range(2, 9):
        traces = [trace(mat_pow(companion_cycle_quotient(n), l)) for l in range(1, 2 * n + 1)]
        assert traces == [reg(n, l) - reg(1, l) for l in range(1, 2 * n + 1)]


def test_charpoly_examples():
    assert charpoly(cyclic_permutation(4)) == x_pow_minus_one(4)
    assert charpoly(IntMatrix(())) == IntPolynomial([1])
    doubled = block_diag([cyclic_permutation(2), cyclic_permutation(2)])
    assert charpoly(doubled) == x_pow_minus_one(2) ** 2
    # A 2000-long chain of singleton components: a recursive component
    # search would exceed the interpreter's recursion limit.
    n = 2000
    shift = IntMatrix([[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)])
    assert charpoly(shift) == IntPolynomial([0] * n + [1])



def _components_by_closure(succ) -> set[int]:
    """The strong components of i -> j for j in succ[i], each as a bitset: the
    vertices that i reaches and that reach i, from both transitive closures,
    each swept to a fixed point in both vertex orders."""
    n = len(succ)
    pred = [[] for _ in range(n)]
    for i, targets in enumerate(succ):
        for j in targets:
            pred[j].append(i)

    def closure(edges):
        reach = [1 << i for i in range(n)]
        changed = True
        while changed:
            changed = False
            for order in (range(n - 1, -1, -1), range(n)):
                for i in order:
                    new = reach[i]
                    for j in edges[i]:
                        new |= reach[j]
                    if new != reach[i]:
                        reach[i], changed = new, True
        return reach

    return {forward & backward for forward, backward in zip(closure(succ), closure(pred))}


def test_strong_components_match_mutual_reachability():
    """The components equal the classes of mutual reachability from the transitive
    closure, each sorted, together a partition of range(n), in topological order:
    no edge runs from a later component into an earlier one.  About 300 seeded
    digraphs with n up to 40 and densities up to 0.5 (self-loops included),
    graphs with isolated vertices, single cycles, and the dim-2000 chain.  With
    a random set of sink components flagged in ``skip`` beforehand, the search
    returns exactly the other components, and ``skip`` is left as it was."""
    rng = random.Random(20241)
    graphs = []
    for _ in range(240):
        n, density = rng.randint(0, 40), rng.choice([0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5])
        graphs.append([[j for j in range(n) if rng.random() < density] for _ in range(n)])
    for _ in range(30):  # isolated vertices: no edge in or out
        n = rng.randint(1, 40)
        isolated = set(rng.sample(range(n), rng.randint(1, n)))
        graphs.append([[] if i in isolated else
                       [j for j in range(n) if j not in isolated and rng.random() < 0.1]
                       for i in range(n)])
    for _ in range(30):  # one cycle through a random subset, the rest possibly isolated
        n = rng.randint(1, 40)
        cycle = rng.sample(range(n), rng.randint(1, n))
        succ = [[] for _ in range(n)]
        for v, w in zip(cycle, cycle[1:] + cycle[:1]):
            succ[v].append(w)
        graphs.append([sorted(targets) for targets in succ])
    graphs.append([[i + 1] for i in range(1999)] + [[]])
    for succ in graphs:
        n = len(succ)
        skip = [False] * n
        components = exactmat._strong_components(succ, skip)
        assert skip == [False] * n, succ
        assert all(c == sorted(c) for c in components), succ
        assert sorted(v for c in components for v in c) == list(range(n)), succ
        assert {sum(1 << v for v in c) for c in components} == _components_by_closure(succ), succ
        place = {v: i for i, c in enumerate(components) for v in c}
        assert all(place[v] <= place[w] for v in range(n) for w in succ[v]), succ
        sinks = [c for c in components if all(w in c for v in c for w in succ[v])]
        left_out = [c for c in sinks if rng.random() < 0.5]
        skip = [any(v in c for c in left_out) for v in range(n)]
        flags = list(skip)
        rest = exactmat._strong_components(succ, skip)
        assert skip == flags, succ
        assert sorted(rest) == sorted(c for c in components if c not in left_out), succ


def test_strong_components_cut_a_long_path_in_linear_time():
    """A 20,000-vertex chain 0 -> 1 -> ... puts every vertex on the search's path
    at once, and each is then a component of its own: cutting each off the path
    in O(component size) takes milliseconds, where a cut that searched the path
    from its start for the component's root would take seconds."""
    n = 20_000
    succ = [[i + 1] for i in range(n - 1)] + [[]]
    start = time.perf_counter()
    components = exactmat._strong_components(succ, [False] * n)
    assert time.perf_counter() - start < 1.0
    assert components == [[i] for i in range(n)]


def test_block_diag():
    assert block_diag([]) == IntMatrix(())
    p2, p3 = cyclic_permutation(2), cyclic_permutation(3)
    combined = block_diag([p2, p3])
    assert combined.dim == 5
    assert charpoly(combined) == x_pow_minus_one(2) * x_pow_minus_one(3)
    assert block_diag([p2]) == p2


def dense_direct_sum(blocks):
    """The dense rows of the direct sum of dense blocks: each row padded by zeros."""
    total, out = sum(map(len, blocks)), []
    for block in blocks:
        left, right = [0] * len(out), [0] * (total - len(out) - len(block))
        out += [left + list(row) + right for row in block]
    return out


def dense_realization_block(kind: str, n: int):
    """The dense rows of a realization block, entry by entry: the n-cycle
    e_i -> e_(i+1), the companion of (x^n - 1)/(x - 1), the swap-shift
    permutation of 2n curves, or the n x n identity."""
    size = {"cycle": n, "companion": n - 1, "swap": 2 * n, "identity": n}[kind]
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        if kind == "cycle":
            rows[(i + 1) % n][i] = 1
        elif kind == "companion":
            rows[i][size - 1] = -1
            if i:
                rows[i][i - 1] = 1
        elif kind == "swap" and i < n:
            rows[n + (i + 1) % n][i] = rows[(i + 1) % n][n + i] = 1
        elif kind == "identity":
            rows[i][i] = 1
    return rows


def test_nonzero_index_matches_compress():
    """IntMatrix stores one form, ``nonzero``: one {column: entry} dict per row in
    ascending column order, the same tuple on every read.  The dense ``rows`` are
    built from it on each read.  For every constructor both equal a dense oracle:
    ``nonzero`` holds the entries that ``compress`` keeps, values and order
    included."""
    rng = random.Random(23)
    cases = []  # (matrix, oracle rows)
    for rows in [[], [[0]], [[-7]]]:
        cases.append((IntMatrix(rows), rows))
    for n in range(6):
        cases.append((IntMatrix.identity(n), dense_realization_block("identity", n)))
        if n:
            cases += [(cyclic_permutation(n), dense_realization_block("cycle", n)),
                      (_swap_shift_block(n), dense_realization_block("swap", n)),
                      (companion_cycle_quotient(n + 1), dense_realization_block("companion", n + 1))]
    cases.append((block_diag([]), []))
    for _ in range(40):
        dim = rng.randint(0, 9)
        rows = [[rng.choice([0, 0, 0, 1, -2, 2**53 + 1]) for _ in range(dim)] for _ in range(dim)]
        index = [{j: row[j] for j in compress(range(dim), row)} for row in rows]
        cases += [(IntMatrix(rows), rows), (IntMatrix._sparse(index), rows)]
        # (block, its oracle rows)
        blocks = [(b, b.rows) for b in (random_sparse_matrix(rng, rng.randint(1, 4))
                                        for _ in range(rng.randint(0, 3)))]
        k, tau = rng.randint(1, 4), rng.randint(1, 3)
        blocks += [(cyclic_permutation(k), dense_realization_block("cycle", k)),
                   (_swap_shift_block(tau), dense_realization_block("swap", tau)),
                   (IntMatrix(rows), rows), (IntMatrix._sparse(index), rows)]
        rng.shuffle(blocks)
        cases.append((block_diag([b for b, _ in blocks]), dense_direct_sum([r for _, r in blocks])))
    for a, rows in cases:
        dense = tuple(map(tuple, rows))
        entries = [[(j, row[j]) for j in compress(range(len(row)), row)] for row in dense]
        assert a.dim == len(dense), a
        assert [list(r.items()) for r in a.nonzero] == entries and a.rows == dense, a
        assert a.nonzero is a.nonzero, a


def random_sparse_matrix(rng: random.Random, dim: int) -> IntMatrix:
    density = rng.uniform(0.15, 0.4)
    return IntMatrix(
        [[rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(dim)] for _ in range(dim)]
    )


def permuted_block_triangular(rng: random.Random) -> IntMatrix:
    """P^T B P for block-upper-triangular B (blocks of size 1-3) and a permutation P."""
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
    n = sum(sizes)
    rows = [[0] * n for _ in range(n)]
    start = 0
    for size in sizes:
        for i in range(start, start + size):
            for j in range(start, n):
                if j < start + size or rng.random() < 0.5:
                    rows[i][j] = rng.randint(-3, 3)
        start += size
    perm = rng.sample(range(n), n)
    return IntMatrix([[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)])


def test_charpoly_against_cofactor_oracle():
    rng = random.Random(7)
    cases = [random_matrix(rng, rng.randint(0, 5), -4, 4) for _ in range(60)]
    cases += [random_sparse_matrix(rng, rng.randint(0, 8)) for _ in range(60)]
    cases += [permuted_block_triangular(rng) for _ in range(60)]
    # Every component a singleton: the zero matrix and one off-diagonal entry.
    cases += [IntMatrix([[0] * n for _ in range(n)]) for n in range(4)]
    cases += [IntMatrix([[0, 0, 0], [0, 0, 5], [0, 0, 0]]), IntMatrix([[2, 0], [-7, 3]])]
    # Irreducible: no zero entry, so one component.
    cases.append(IntMatrix([[rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(6)] for _ in range(6)]))
    for a in cases:
        assert charpoly(a) == charpoly_cofactor(a)


def test_charpoly_matches_faddeev_leverrier_and_cofactor(monkeypatch):
    """The multi-modular kernel against both oracles, from one prime up to several."""
    rng = random.Random(2024)
    cases = [random_matrix(rng, dim, -9, 9) for dim in range(1, 31)]
    cases += [random_sparse_matrix(rng, rng.randint(1, 20)) for _ in range(20)]
    cases += [IntMatrix([[0] * n for _ in range(n)]) for n in (1, 2, 5)]
    cases += [IntMatrix([[-5]]), IntMatrix([[-(10**40)]])]
    cases += [cyclic_permutation(60), companion_cycle_quotient(211)]
    # Bounds past 511 bits, so two primes; dims <= 6 also meet the cofactor oracle.
    cases += [random_matrix(rng, dim, -(10**40), 10**40) for dim in (4, 5)]
    # Entries of size 10^60: bounds past 3 * 511 bits need three or more primes.
    huge = [random_matrix(rng, dim, -(10**60), 10**60) for dim in (8, 10, 12, 14)]
    cases += huge
    primes_used = []
    original = exactmat._charpoly_mod

    def counting(rows, p):
        primes_used[-1] += 1
        return original(rows, p)

    monkeypatch.setattr(exactmat, "_charpoly_mod", counting)
    for a in cases:
        primes_used.append(0)
        cp = charpoly(a)
        assert cp == charpoly_by_faddeev_leverrier(a)
        if a.dim <= 6:
            assert cp == charpoly_cofactor(a)
        bound = exactmat._hadamard_bound(a.rows)
        assert all(abs(c) <= bound for c in cp.coeffs)
    assert charpoly(companion_cycle_quotient(211)) * IntPolynomial([-1, 1]) == x_pow_minus_one(211)
    assert min(primes_used[-len(huge) :]) >= 3
    assert max(primes_used[: -len(huge)]) >= 2


def _cycle_constant(block: IntMatrix):
    """c when every row of the block holds exactly one nonzero entry, so that a
    strongly connected block is one cycle and det(xI - B) = x^k - c; else None."""
    entries = [[x for x in row if x] for row in block.rows]
    if any(len(row) != 1 for row in entries):
        return None
    return prod(row[0] for row in entries)


def _closed_chain(nonzero, component) -> bool:
    """Whether each row of the component holds one nonzero, in a column of the
    component: a cycle, which charpoly_blocks peels and lists last."""
    members = set(component)
    return all(len(nonzero[i]) == 1 and min(nonzero[i]) in members for i in component)


def _assert_blocks_match_oracles(a: IntMatrix, oracle_cache: dict) -> list:
    """The entries of charpoly_blocks(a), one per component of the whole search,
    against Faddeev-LeVerrier and the modular kernel on its component's principal
    submatrix, and against x^k - c on a cycle.  The closed chains, which the
    walk peels, come last, in some order.  Returns the cycle constants, None for
    a component that is not a cycle."""
    rows, nonzero = a.rows, a.nonzero
    components = exactmat._strong_components(nonzero, [False] * a.dim)
    blocks = exactmat.charpoly_blocks(a)
    assert len(blocks) == len(components), a
    constants, searched, peeled = [], [], []
    for component in components:
        sub = IntMatrix([[rows[i][j] for j in component] for i in component])
        if sub not in oracle_cache:
            oracle_cache[sub] = (
                charpoly_by_faddeev_leverrier(sub), exactmat._block_charpoly(sub.rows))
        oracle, kernel = oracle_cache[sub]
        assert oracle == kernel, (a, component)
        c = _cycle_constant(sub)
        if c is not None:
            k = len(component)
            assert oracle == IntPolynomial([-c] + [0] * (k - 1) + [1]), (a, component)
        constants.append(c)
        (peeled if _closed_chain(nonzero, component) else searched).append(oracle)
    assert Counter(blocks[: len(searched)]) == Counter(searched), a
    assert Counter(blocks[len(searched) :]) == Counter(peeled), a
    return constants


def _targets_up_to(total: int) -> list[list[int]]:
    """Every nonempty set of positive integers whose sum is at most ``total``."""
    targets = []

    def extend(start, room, prefix):
        for n in range(start, room + 1):
            targets.append(prefix + [n])
            extend(n + 1, room - n, prefix + [n])

    extend(1, total, [])
    return targets


def test_charpoly_blocks_of_every_small_realization_match_the_oracles():
    """Every realization with target sum <= 30, of every kind and mode: each block
    polynomial equals Faddeev-LeVerrier and the kernel on its principal submatrix,
    and each cycle block equals x^k - c with c = +-1.  Only the non-orientable
    pivot companion, one per model, is not a cycle, unless its pivot is 2: the
    companion of x + 1 is the loop [[-1]]."""
    kinds = [(SurfaceKind.PRESERVING, None), (SurfaceKind.NONORIENTABLE, None),
             (SurfaceKind.REVERSING, Mode.FAITHFUL), (SurfaceKind.REVERSING, Mode.CORRECTED)]
    oracle_cache = {}
    models = 0
    for target in _targets_up_to(30):
        for kind, mode in kinds:
            if kind is SurfaceKind.REVERSING and any(n % 2 for n in target):
                continue
            sm = realize_target(target, kind, mode)
            constants = _assert_blocks_match_oracles(sm.model.matrix, oracle_cache)
            assert set(constants) <= {1, -1, None}, target
            companion = kind is SurfaceKind.NONORIENTABLE and target[0] == 1 and target[1:2] > [2]
            assert constants.count(None) == companion, (target, kind)
            models += 1
    assert models == 4340


def _random_cycle_matrix(rng: random.Random, weights, extra: float) -> IntMatrix:
    """P^T B P for a block-upper-triangular B whose diagonal blocks are cycles with
    entries drawn from ``weights`` and whose entries above them are nonzero with
    probability ``extra``, and a random permutation P."""
    sizes = [rng.randint(1, 7) for _ in range(rng.randint(1, 5))]
    n = sum(sizes)
    rows = [[0] * n for _ in range(n)]
    start = 0
    for size in sizes:
        for i in range(size):
            rows[start + (i + 1) % size][start + i] = rng.choice(weights)
        for i in range(start, start + size):
            for j in range(start + size, n):
                if rng.random() < extra:
                    rows[i][j] = rng.randint(-3, 3)
        start += size
    perm = rng.sample(range(n), n)
    return IntMatrix([[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)])


def test_charpoly_blocks_of_signed_and_weighted_cycles_match_the_oracles():
    """Random signed and weighted cycle matrices, some with entries outside their
    cycles, and the edge cases of a one-vertex component."""
    rng = random.Random(29)
    oracle_cache = {}
    cases = [_random_cycle_matrix(rng, (1, -1), extra) for extra in (0, 0, 0.2, 0.5) * 15]
    cases += [_random_cycle_matrix(rng, (1, -1, 2, -3, 5), extra) for extra in (0, 0.3) * 15]
    # One vertex whose only nonzero is off the diagonal, into a 2-cycle: x, then x^2 - 1.
    into_cycle = IntMatrix([[0, 1, 0], [0, 0, 1], [0, 1, 0]])
    # A 1x1 zero block beside a 3-cycle; a lone loop of weight -4.
    zero_block = block_diag([IntMatrix([[0]]), cyclic_permutation(3)])
    # A 2-cycle whose first row also reaches the loop {2} of weight 2.
    cycle_row_out = IntMatrix([[0, 1, 7], [1, 0, 0], [0, 0, 2]])
    cases += [into_cycle, zero_block, IntMatrix([[-4]]), cycle_row_out]
    for a in cases:
        _assert_blocks_match_oracles(a, oracle_cache)
        cp = charpoly(a)
        assert cp == charpoly_by_faddeev_leverrier(a), a
        if a.dim <= 6:
            assert cp == charpoly_cofactor(a), a
    X = IntPolynomial([0, 1])
    assert exactmat.charpoly_blocks(into_cycle) == [X, x_pow_minus_one(2)]
    assert set(exactmat.charpoly_blocks(zero_block)) == {X, x_pow_minus_one(3)}
    assert exactmat.charpoly_blocks(IntMatrix([[-4]])) == [IntPolynomial([4, 1])]
    assert exactmat.charpoly_blocks(cycle_row_out) == [x_pow_minus_one(2), IntPolynomial([-2, 1])]


def _random_functional_matrix(rng: random.Random, n: int, near: bool) -> IntMatrix:
    """Each row one nonzero in a random column, weights from {1, -1, 2, -3, 5}: a
    random functional graph, whose components are cycles (self-loops among them)
    with tails running into them (rho shapes).  With ``near``, some rows are
    emptied, so chains end in an empty row, and some get a second nonzero."""
    rows = [[0] * n for _ in range(n)]
    for row in rows:
        row[rng.randrange(n)] = rng.choice((1, -1, 2, -3, 5))
        if near and rng.random() < 0.15:
            row[:] = [0] * n
        elif near and rng.random() < 0.15:
            row[rng.randrange(n)] = rng.randint(1, 3)
    return IntMatrix(rows)


def test_the_peel_matches_the_closure_and_faddeev_leverrier():
    """Seeded random functional and near-functional graphs, and the edge cases of
    the walk: closed chains and self-loops of weight other than +-1, tails into a
    cycle, chains that end in an empty row, and a lone off-diagonal entry.  The
    blocks are the Faddeev-LeVerrier polynomials of the components of mutual
    reachability from the transitive closure, one each, with the components whose
    rows each hold one nonzero, the closed chains, last."""
    rng = random.Random(34)
    cases = [_random_functional_matrix(rng, rng.randint(1, 14), near) for near in (False, True) * 60]
    cases += [
        IntMatrix([[3]]),  # a self-loop of weight 3: x - 3
        IntMatrix([[0, 0, 2], [-2, 0, 0], [0, 3, 0]]),  # a closed chain: x^3 + 12
        IntMatrix([[0, 4, 0], [0, 0, 1], [0, 1, 0]]),  # a tail into a 2-cycle
        IntMatrix([[0, 0, 7], [0, -2, 0], [0, 0, 0]]),  # a chain into an empty row, a loop
        IntMatrix([[0, 5], [0, 0]]),  # a lone off-diagonal entry: x, x
        IntMatrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, -1, 0, 0]]),  # a rho
    ]
    for a in cases:
        rows, nonzero = a.rows, a.nonzero
        succ = [list(entries) for entries in nonzero]
        searched, peeled = Counter(), Counter()
        for mask in _components_by_closure(succ):
            component = [i for i in range(a.dim) if mask >> i & 1]
            sub = IntMatrix([[rows[i][j] for j in component] for i in component])
            closed = _closed_chain(nonzero, component)
            (peeled if closed else searched)[charpoly_by_faddeev_leverrier(sub)] += 1
        blocks = exactmat.charpoly_blocks(a)
        cut = sum(searched.values())
        assert (Counter(blocks[:cut]), Counter(blocks[cut:])) == (searched, peeled), a
        assert charpoly(a) == charpoly_by_faddeev_leverrier(a), a
    X = IntPolynomial([0, 1])
    assert exactmat.charpoly_blocks(cases[-6]) == [IntPolynomial([-3, 1])]
    assert exactmat.charpoly_blocks(cases[-5]) == [IntPolynomial([12, 0, 0, 1])]
    assert exactmat.charpoly_blocks(cases[-4]) == [X, x_pow_minus_one(2)]
    assert exactmat.charpoly_blocks(cases[-3]) == [X, X, IntPolynomial([2, 1])]
    assert exactmat.charpoly_blocks(cases[-2]) == [X, X]
    assert exactmat.charpoly_blocks(cases[-1]) == [X, IntPolynomial([1, 0, 0, 1])]


class _CountingRows(list):
    """A list that counts the reads of its items."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_the_peel_and_the_search_read_each_row_a_bounded_number_of_times():
    """A dim-20,000 comb: a spine of 9,990 vertices whose teeth, 9,990 one-vertex
    tails, come first in index order, feeding one 20-cycle.  A walk that re-walked
    the spine from each tooth would read the rows over 5 * 10^7 times; the peel
    and the search on the 19,980 tail vertices read them fewer than 8 n times."""
    teeth = spine = 9990
    n = teeth + spine + 20
    nonzero = [{teeth + i: 1} for i in range(teeth)]  # tooth i -> spine vertex i
    nonzero += [{teeth + i + 1: 1} for i in range(spine)]  # spine i -> spine i + 1 -> cycle
    nonzero += [{teeth + spine + (j + 1) % 20: -1 if j == 0 else 1} for j in range(20)]
    a = IntMatrix._sparse(nonzero)
    a._nonzero = rows = _CountingRows(nonzero)
    blocks = exactmat.charpoly_blocks(a)
    assert rows.reads < 8 * n, rows.reads
    assert blocks == [IntPolynomial([0, 1])] * (teeth + spine) + [IntPolynomial([1] + [0] * 19 + [1])]


@pytest.mark.parametrize("weight", [2, -3])
def test_a_weighted_cycle_leaves_its_binomial_as_the_residual(weight):
    """A k-cycle with one entry ``weight`` has det(xI - B) = x^k - weight, which has
    roots off the unit circle; analyze reports it as the residual, also beside a
    cycle of ones."""
    for k in (1, 2, 3, 5):
        rows = [list(row) for row in cyclic_permutation(k).rows]
        rows[0][k - 1] = weight
        binomial = IntPolynomial([-weight] + [0] * (k - 1) + [1])
        for blocks in ([IntMatrix(rows)], [IntMatrix(rows), cyclic_permutation(4)]):
            a = block_diag(blocks)
            analysis = analyze(HomologyModel(SurfaceKind.NONORIENTABLE, a, a.dim + 1))
            assert analysis.residual == binomial, (k, weight)
            assert analysis.charpoly == charpoly_by_faddeev_leverrier(a)
            assert (analysis.factorization, analysis.dold) == (None, None)


def test_charpoly_mod_on_sparse_transvection_conjugates():
    """The kernel, on the whole matrix and mod each prime, gives the oracle's residues,
    also under a permutation similarity P^T A P, which pivots on other rows."""
    rng = random.Random(16)
    for dim in (10, 12, 16, 20, 24, 30, 36, 40):
        a = sparse_transvection_conjugate(rng, dim // 2)
        oracle = charpoly_by_faddeev_leverrier(a)
        assert charpoly(a) == oracle
        perm = rng.sample(range(dim), dim)
        rows = a.rows
        permuted = [[rows[i][j] for j in perm] for i in perm]
        for p in KERNEL_PRIMES:
            residues = [c % p for c in oracle.coeffs]
            assert exactmat._charpoly_mod(rows, p) == residues, (dim, p)
            assert exactmat._charpoly_mod(permuted, p) == residues, (dim, p)


def test_searched_blocks_reach_the_kernel_sparse_columns_first(monkeypatch):
    """Each block of the search reaches the kernel with its indices in ascending
    order of column count, the number of the component's rows that are nonzero
    in the column, and ties in ascending index order.  That is a permutation
    similarity P^T B P, so the blocks still equal both oracles.  The inputs are
    sparse transvection conjugates, each also under a random permutation
    similarity, so that their natural order is not sorted."""
    rng = random.Random(35)
    captured = []
    original = exactmat._block_charpoly

    def capturing(rows):
        captured.append((rows, original(rows)))
        return captured[-1][1]

    monkeypatch.setattr(exactmat, "_block_charpoly", capturing)
    reordered = 0
    for g in (2, 3, 4, 5, 6, 8, 10, 12, 15, 18):
        a = sparse_transvection_conjugate(rng, g)
        perm = rng.sample(range(2 * g), 2 * g)
        a_rows = a.rows
        for m in a, IntMatrix([[a_rows[i][j] for j in perm] for i in perm]):
            rows, nonzero = m.rows, m.nonzero
            expected = []
            for component in exactmat._strong_components(nonzero, [False] * m.dim):
                if len(component) == 1 or _closed_chain(nonzero, component):
                    continue
                counts = {j: sum(j in nonzero[i] for i in component) for j in component}
                order = sorted(component, key=lambda j: (counts[j], j))
                reordered += order != component
                expected.append([[rows[i][j] for j in order] for i in order])
            captured.clear()
            blocks = exactmat.charpoly_blocks(m)
            assert sorted(block for block, _ in captured) == sorted(expected), m
            for block, poly in captured:
                column_counts = [sum(map(bool, column)) for column in zip(*block)]
                assert column_counts == sorted(column_counts), block
                assert poly == charpoly_by_faddeev_leverrier(IntMatrix(block)), block
                if len(block) <= 8:
                    assert poly == charpoly_cofactor(IntMatrix(block)), block
            oracle = charpoly_by_faddeev_leverrier(m)
            assert prod(blocks, start=IntPolynomial([1])) == charpoly(m) == oracle, m
            if m.dim <= 8:
                assert oracle == charpoly_cofactor(m), m
    assert reordered >= 10, reordered


def test_charpoly_mod_pivot_and_update_cases():
    """Hand-made first steps: each pivot rule and update branch against the cofactor oracle."""
    cases = [
        # Rows 1 and 2 tie at two nonzeros; row 1 is taken, and row 2 is the
        # one multiplier, so the column update walks one cleared column.
        [[1, 2, 0, 0], [3, 0, 1, 0], [4, 0, 0, 1], [0, 1, 0, 0]],
        # Row 1's single nonzero is the pivot, so the rows it clears change only
        # in column 0; rows 2 and 3 are two multipliers.
        [[0, 1, 1, 1], [5, 0, 0, 0], [2, 3, 0, 1], [1, 0, 2, 0]],
        # Row 1 is zero in column 0 and rows 2 and 3 tie: row 2 is swapped in,
        # and the swap leaves a zero at index 2 that must not be cleared.
        [[1, 1, 1, 1], [0, 1, 1, 1], [2, 0, 1, 0], [3, 1, 0, 0]],
        # The sparsest candidate is the last row, whose single nonzero is the
        # pivot; the swap moves the dense row 1 to index 4, which is cleared.
        [[1, 2, 0, 1, 1], [2, 1, 1, 1, 1], [1, 1, 1, 0, 0], [-1, 0, 2, 1, 0], [3, 0, 0, 0, 0]],
        # Column 0 is zero below row 0: the step is skipped.
        [[1, 2, 3], [0, 4, 5], [0, 6, 7]],
        # Row 1 clears row 2, and column 1 += column 2 makes h_31 = 1 + 2:
        # the column update leaves h_31 = 0 mod 3, so step 1 must not list
        # row 3 as a candidate.
        [[0, 1, 1, 1], [1, 0, 0, 0], [1, 1, 0, 1], [0, 1, 2, 0]],
        # Clearing row 2 with the pivot row 1 writes -2 into h_21, where row 2
        # was zero, so step 1 has two candidates in column 1 and must clear one.
        [[1, 1, 1, 1], [1, 1, 0, 0], [2, 0, 0, 1], [0, 1, 0, 1]],
        # Step 1 pivots on row 4 and swaps it with row 2, which moves row 2's
        # zero into column 1 at index 4; that row is not cleared, but the
        # column update fills its column 2, so step 2 lists it.
        [[1, 1, 1, 0, 0], [1, 0, 1, 1, 0], [0, 0, 0, 1, 1], [0, 2, 1, 0, 1], [0, 1, 0, 0, 1]],
    ]
    for rows in cases:
        oracle = charpoly_cofactor(IntMatrix(rows))
        for p in KERNEL_PRIMES:
            assert exactmat._charpoly_mod(rows, p) == [c % p for c in oracle.coeffs], (rows, p)


def _proth_certificate(p: int) -> tuple[int, int]:
    """(shift, a) for p = h * 2^shift + 1 with h odd, 2^(shift-1) < h < 2^shift, and
    a^((p-1)/2) = -1 (mod p) for a small a, which proves p prime by Proth's theorem."""
    shift = ((p - 1) & (1 - p)).bit_length() - 1  # h odd: the trailing zeros of p - 1
    h = (p - 1) >> shift
    assert h % 2 == 1 and 2 ** (shift - 1) < h < 2**shift, (shift, h)
    witnesses = [a for a in range(2, 48) if pow(a, (p - 1) // 2, p) == p - 1]
    assert witnesses, p
    return shift, witnesses[0]


def test_block_uses_one_prime_up_to_511_bits(monkeypatch):
    """Each block's primes multiply past its 2B, all certified and of one shift;
    a single pass while 2B has at most 511 bits, ceil(bits / 511) or fewer above."""
    rng = random.Random(14)
    cases = [
        IntMatrix(json.loads((GOLDEN / name).read_text())["rows"])
        for name in ("transvection_conj_g8.json", "transvection_conj_reversing_g8.json",
                     "dense_large_g6.json")
    ]
    cases += [random_matrix(rng, dim, -(10**e), 10**e) for dim in (3, 6, 9) for e in (1, 6, 20, 45, 90)]
    cases += [permuted_block_triangular(rng) for _ in range(5)]
    cases += [IntMatrix([[10**e]]) for e in (30, 80, 160, 400)]
    calls = []
    original = exactmat._charpoly_mod

    def recording(rows, p):
        calls.append((rows, p))
        return original(rows, p)

    monkeypatch.setattr(exactmat, "_charpoly_mod", recording)
    for a in cases:
        assert charpoly(a) == charpoly_by_faddeev_leverrier(a)
    blocks = []  # [rows, primes]: every pass of a block gets the same rows object
    for rows, p in calls:
        if blocks and blocks[-1][0] is rows:
            blocks[-1][1].append(p)
        else:
            blocks.append([rows, [p]])
    bit_lengths = set()
    for rows, primes in blocks:
        twice_bound = 2 * exactmat._hadamard_bound(rows)
        bits = twice_bound.bit_length()
        bit_lengths.add(bits)
        assert prod(primes) > twice_bound
        assert len(primes) <= -(-bits // 511), (bits, len(primes))
        shifts = {_proth_certificate(p)[0] for p in primes}
        assert len(shifts) == 1 and shifts <= set(exactmat._PROTH_SHIFTS)
    assert any(128 < bits <= 511 for bits in bit_lengths)
    assert any(bits > 3 * 511 for bits in bit_lengths)


def test_proth_primes_are_certified_and_deterministic():
    count = 3
    sequences = {}
    for shift in exactmat._PROTH_SHIFTS:
        primes = sequences[shift] = [exactmat._prime(shift, i) for i in range(count)]
        assert all(_proth_certificate(p)[0] == shift for p in primes)
        assert primes == sorted(set(primes), reverse=True)
    # A fresh process builds no prime at import and the same sequences on use.
    script = textwrap.dedent(
        f"""
        import algperiods.exactmat as exactmat
        assert exactmat._prime.cache_info().currsize == 0
        print({{s: [exactmat._prime(s, i) for i in range({count})] for s in exactmat._PROTH_SHIFTS}})
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr(sequences)


def test_prime_sequence_grows_safely_across_threads():
    # Threads that need primes at the same time, with an empty cache, must all
    # get the one sequence per shift, while two sequences grow at once.
    rng = random.Random(5)
    # 2B of 134 and 211 bits: one prime each, from the shift-96 and shift-128 sequences.
    matrices = [random_matrix(rng, 12, -(10**3), 10**3), random_matrix(rng, 12, -(10**5), 10**5)]
    shifts = (96, 128)
    for a, shift in zip(matrices, shifts):
        bits = (2 * exactmat._hadamard_bound(a.rows)).bit_length()
        assert 2 * shift - 1 >= bits > 2 * shift - 65, bits
    references = [charpoly(a) for a in matrices]
    expected = {s: [exactmat._prime(s, i) for i in range(4)] for s in shifts}
    interval = sys.getswitchinterval()
    for _ in range(5):
        exactmat._prime.cache_clear()
        results, errors = [], []

        def work(order):
            try:
                for i in order:
                    exactmat._prime(shifts[i], 3)
                    results.append((i, charpoly(matrices[i])))
            except Exception as exc:  # recorded and asserted below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=((0, 1) if t % 2 else (1, 0),)) for t in range(6)]
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert sorted(results, key=lambda r: r[0]) == [(i, references[i]) for i in (0, 1) for _ in threads]
        assert {s: [exactmat._prime(s, i) for i in range(4)] for s in shifts} == expected


def test_charpoly_postcondition_survives_optimized_mode():
    # A wrong residue from one prime must raise ArithmeticError, also under python -O.
    script = textwrap.dedent(
        """
        import algperiods.exactmat as exactmat
        from algperiods import IntMatrix, charpoly

        if __debug__:
            raise SystemExit("not running under -O")
        original = exactmat._charpoly_mod

        def corrupted(rows, p):
            residues = original(rows, p)
            residues[-2] = (residues[-2] + 1) % p
            return residues

        exactmat._charpoly_mod = corrupted
        try:
            charpoly(IntMatrix([[2, 1], [1, 1]]))
        except ArithmeticError:
            raise SystemExit(0)
        raise SystemExit("a corrupted residue passed the trace check")
        """
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout


def test_matrix_power_traces_match_newton():
    rng = random.Random(9)
    for _ in range(25):
        a = random_matrix(rng, rng.randint(1, 5))
        newton = trace_sequence_from_charpoly(charpoly(a), 12)
        power = IntMatrix.identity(a.dim)
        for l in range(1, 13):
            power = mat_mul(power, a)
            assert trace(power) == newton[l - 1]


def test_constructors_reject_non_integer_entries():
    assert IntMatrix([[2, True], [-1, 10**30]]).rows == ((2, 1), (-1, 10**30))
    for bad in (0.5, 1.9, 2.0, Fraction(1, 2), Fraction(4, 2), "3"):
        with pytest.raises(TypeError):
            IntMatrix([[1, bad], [0, 1]])
        with pytest.raises(TypeError):
            symplectic_transvection([1, 0], bad)
        with pytest.raises(TypeError):
            symplectic_transvection([bad, 0])
        with pytest.raises(TypeError):
            IntPolynomial([1, bad])
        with pytest.raises(TypeError):
            DoldClass({1: bad})
        with pytest.raises(TypeError):
            DoldClass({bad: 1})
        with pytest.raises(TypeError):
            LefschetzSequence({1: bad})
        with pytest.raises(TypeError):
            ZetaFactorization([(-1, 1, bad)])
        with pytest.raises(TypeError):
            ZetaFactorization([(-1, bad, 1)])
        with pytest.raises(TypeError):
            Partition({bad: 1})
        with pytest.raises(TypeError):
            Partition({1: bad})
        with pytest.raises(TypeError):
            HomologyModel(SurfaceKind.PRESERVING, IntMatrix.identity(2), bad)
        with pytest.raises(TypeError):
            realize_target([bad], SurfaceKind.PRESERVING)
    # the cases seen truncating before: x and {1: 2}
    with pytest.raises(TypeError):
        IntPolynomial([0.5, 1.9])
    with pytest.raises(TypeError):
        DoldClass({1.7: 2.9})
    assert IntPolynomial([True, 10**30]).coeffs == (1, 10**30)
    assert DoldClass({2: 10**30}).as_dict() == {2: 10**30}


def test_standard_symplectic_form():
    assert standard_symplectic_form(1) == IntMatrix([[0, 1], [-1, 0]])
    for g in range(0, 9):
        omega = standard_symplectic_form(g)
        assert mat_mul(omega, omega) == negated(IntMatrix.identity(2 * g))
        assert transpose(omega) == negated(omega)


def test_symplectic_predicates():
    omega = standard_symplectic_form(2)
    assert form_predicates(omega) == (True, False)
    assert form_predicates(negated(omega)) == (True, False)
    assert form_predicates(plus_minus_identity(3)) == (False, True)
    assert form_predicates(IntMatrix(())) == (True, True)
    with pytest.raises(OddDimension):
        form_predicates(IntMatrix([[1]]))


def test_form_predicates_match_the_products():
    rng = random.Random(23)
    cases = [plus_minus_identity(2), standard_symplectic_form(3)]
    cases += [random_symplectic_pair(rng, rng.randint(1, 4))[0] for _ in range(10)]
    cases += [random_antisymplectic_quasiunipotent(rng) for _ in range(10)]
    cases += [random_matrix(rng, 2 * rng.randint(1, 4), -2, 2) for _ in range(10)]
    cases += [IntMatrix([[0] * 4 for _ in range(4)])]
    for a in cases:
        assert form_predicates(a) == form_predicates_by_product(a), a
    # -Omega with one entry changed: a_00 = 2 adds a pair on the diagonal and
    # keeps the matrix symplectic, a_01 = 1 leaves an entry off (i, i + g).
    for (i, j, v), expected in [((0, 0, 2), (True, False)), ((0, 1, 1), (False, False))]:
        rows = [list(row) for row in negated(standard_symplectic_form(2)).rows]
        rows[i][j] = v
        a = IntMatrix(rows)
        assert form_predicates(a) == form_predicates_by_product(a) == expected, rows
    # One entry moved at every position (i, j) of a symplectic and an
    # antisymplectic matrix of each dimension 2-12: every key i * n + j of the
    # accumulator is hit, so keys that a wrong stride would merge disagree.
    for g in range(1, 7):
        s, s_inv = random_symplectic_pair(rng, g, count=rng.randint(1, 4))
        for base in (s, mat_mul(mat_mul(s_inv, plus_minus_identity(g)), s)):
            assert form_predicates(base) == form_predicates_by_product(base) != (False, False)
            for i in range(2 * g):
                for j in range(2 * g):
                    rows = [list(row) for row in base.rows]
                    rows[i][j] += rng.choice([-2, -1, 1, 2])
                    a = IntMatrix(rows)
                    assert form_predicates(a) == form_predicates_by_product(a), (rows, i, j)
    assert form_predicates(IntMatrix(())) == (True, True)
    with pytest.raises(OddDimension):
        form_predicates(IntMatrix([[1]]))


def test_transvections_are_symplectic_and_invert():
    rng = random.Random(13)
    for _ in range(25):
        g = rng.randint(1, 4)
        s, s_inv = random_symplectic_pair(rng, g)
        assert form_predicates(s)[0]
        assert mat_mul(s, s_inv) == IntMatrix.identity(2 * g)
    with pytest.raises(OddDimension):
        symplectic_transvection([1, 0, 0])


def test_conjugation_preserves_antisymplectic():
    rng = random.Random(19)
    for _ in range(25):
        a = random_antisymplectic_quasiunipotent(rng)
        assert form_predicates(a)[1]


def test_antisymplectic_determinant_sign():
    rng = random.Random(21)
    for _ in range(25):
        a = random_antisymplectic_quasiunipotent(rng)
        g = a.dim // 2
        # det(A) = chi_A(0) in even dimension.
        det = charpoly(a).coeffs[0]
        assert det == (-1) ** g


def test_antisymplectic_charpoly_identity():
    assert antisymplectic_charpoly_identity_check(plus_minus_identity(1))
    rng = random.Random(31)
    for _ in range(20):
        assert antisymplectic_charpoly_identity_check(random_antisymplectic_quasiunipotent(rng))
    with pytest.raises(NotAntisymplectic):
        antisymplectic_charpoly_identity_check(IntMatrix.identity(2))
