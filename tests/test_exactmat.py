import random
import subprocess
import sys
import textwrap
import threading
from fractions import Fraction
from itertools import compress, islice

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
    # Entries of size 10^12: the Hadamard bound needs three or more primes.
    huge = [random_matrix(rng, dim, -(10**12), 10**12) for dim in (8, 10, 12, 14)]
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


def test_proth_primes_are_certified_and_deterministic():
    exactmat._prime(11)
    primes = exactmat._PRIMES[:12]
    for p, a in primes:
        h = (p - 1) >> 64
        assert p == (h << 64) + 1 and h % 2 == 1 and h < 2**64
        # Proth's theorem: a^((p-1)/2) = -1 (mod p) proves p prime.
        assert pow(a, (p - 1) // 2, p) == p - 1
    assert [p for p, _ in primes] == sorted({p for p, _ in primes}, reverse=True)
    assert list(islice(exactmat._proth_primes(), 12)) == primes
    # A fresh process builds no prime at import and the same sequence on use.
    script = textwrap.dedent(
        """
        import algperiods.exactmat as exactmat
        assert exactmat._PRIMES == []
        exactmat._prime(11)
        print(exactmat._PRIMES)
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr(primes)


def test_prime_sequence_grows_safely_across_threads(monkeypatch):
    # Threads that need primes at the same time must all get the one sequence;
    # advancing the shared generator from two threads at once raises ValueError.
    expected = list(islice(exactmat._proth_primes(), 6))
    matrix = random_matrix(random.Random(5), 12, -(10**25), 10**25)
    reference = charpoly(matrix)
    interval = sys.getswitchinterval()
    for _ in range(5):
        monkeypatch.setattr(exactmat, "_PRIMES", [])
        monkeypatch.setattr(exactmat, "_PRIME_SOURCE", exactmat._proth_primes())
        results, errors = [], []

        def work():
            try:
                exactmat._prime(5)
                results.append(charpoly(matrix))
            except Exception as exc:  # recorded and asserted below
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(6)]
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
        assert results == [reference] * len(threads)
        assert exactmat._PRIMES[:6] == expected


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
