import json
import random
import subprocess
import sys
import textwrap
import threading
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
    NotAntisymplectic,
    OddDimension,
    Partition,
    SurfaceKind,
    ZetaFactorization,
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

from conftest import (
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


def test_block_diag():
    assert block_diag([]) == IntMatrix(())
    p2, p3 = cyclic_permutation(2), cyclic_permutation(3)
    combined = block_diag([p2, p3])
    assert combined.dim == 5
    assert charpoly(combined) == x_pow_minus_one(2) * x_pow_minus_one(3)
    assert block_diag([p2]) == p2


def test_nonzero_index_matches_compress():
    """IntMatrix.nonzero lists each row's nonzero columns in ascending order, for
    every constructor, and is built once per matrix."""
    rng = random.Random(23)
    matrices = [IntMatrix(()), IntMatrix([[0]]), IntMatrix([[-7]]), IntMatrix.identity(0),
                IntMatrix.identity(5), block_diag([]), companion_cycle_quotient(4)]
    for _ in range(40):
        dim = rng.randint(0, 9)
        rows = [[rng.choice([0, 0, 0, 1, -2, 2**53 + 1]) for _ in range(dim)] for _ in range(dim)]
        blocks = [random_sparse_matrix(rng, rng.randint(1, 4)) for _ in range(rng.randint(0, 3))]
        matrices += [IntMatrix(rows), IntMatrix._raw(rows), IntMatrix.identity(dim),
                     block_diag(blocks + [cyclic_permutation(rng.randint(1, 4))])]
    for a in matrices:
        assert a.nonzero == tuple(list(compress(range(a.dim), row)) for row in a.rows), a
        assert a.nonzero is a.nonzero


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


def sparse_transvection_conjugate(rng: random.Random, g: int) -> IntMatrix:
    """S^-1 diag(M, M) S for a signed g x g permutation M and a product S of a few
    symplectic transvections: a sparse matrix with a few dense rows and columns."""
    perm = rng.sample(range(g), g)
    signs = [rng.choice([-1, 1]) for _ in range(g)]
    m = IntMatrix([[signs[i] if j == perm[i] else 0 for j in range(g)] for i in range(g)])
    s, s_inv = random_symplectic_pair(rng, g, count=rng.randint(2, 6))
    return mat_mul(mat_mul(s_inv, block_diag([m, m])), s)


# A large Proth prime, and small primes that make entries vanish mid-reduction.
KERNEL_PRIMES = (exactmat._prime(64, 0), 2, 3, 7, 101)


def test_charpoly_mod_on_sparse_transvection_conjugates():
    """The kernel, on the whole matrix and mod each prime, gives the oracle's residues,
    also under a permutation similarity P^T A P, which pivots on other rows."""
    rng = random.Random(16)
    for dim in (10, 12, 16, 20, 24, 30, 36, 40):
        a = sparse_transvection_conjugate(rng, dim // 2)
        oracle = charpoly_by_faddeev_leverrier(a)
        assert charpoly(a) == oracle
        perm = rng.sample(range(dim), dim)
        permuted = [[a.rows[i][j] for j in perm] for i in perm]
        for p in KERNEL_PRIMES:
            residues = [c % p for c in oracle.coeffs]
            assert exactmat._charpoly_mod(a.rows, p) == residues, (dim, p)
            assert exactmat._charpoly_mod(permuted, p) == residues, (dim, p)


def test_charpoly_mod_pivot_and_update_cases():
    """Hand-made first steps: each pivot rule and update branch against the cofactor oracle."""
    cases = [
        # Rows 1 and 2 tie at two nonzeros; row 1 is taken, and row 2 is the
        # one multiplier, so the column update reads a bare itemgetter value.
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
