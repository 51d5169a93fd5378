import importlib
import math
import random

import pytest

from algperiods import (
    DimensionMismatch,
    DoldClass,
    FormViolation,
    HomologyModel,
    IntMatrix,
    LefschetzSequence,
    Mode,
    NotQuasiUnipotent,
    SurfaceKind,
    algebraic_periods,
    analyze,
    ap_odd,
    block_diag,
    charpoly,
    charpoly_blocks,
    companion_cycle_quotient,
    cyclic_permutation,
    cyclotomic_factorization,
    dold_coefficients,
    form_predicates,
    periodic_point_certificate,
    realize_target,
)
from algperiods.polycyc import IntPolynomial
from algperiods.realize import _swap_shift_block

from conftest import (
    dold_by_moebius_per_divisor,
    dold_by_newton_window,
    euler_characteristic,
    lefschetz_by_newton,
    lefschetz_by_powers,
    lefschetz_from_dold,
    mat_mul,
    odd_lefschetz_vanish_by_powers,
    poly_product_by_schoolbook,
    random_antisymplectic_quasiunipotent,
    random_matrix,
    random_symplectic_pair,
)


def identity_model(genus: int) -> HomologyModel:
    return HomologyModel(SurfaceKind.PRESERVING, IntMatrix.identity(2 * genus), genus)


def test_model_dimension_validation():
    with pytest.raises(DimensionMismatch):
        HomologyModel(SurfaceKind.PRESERVING, IntMatrix.identity(3), 1)
    with pytest.raises(DimensionMismatch):
        HomologyModel(SurfaceKind.NONORIENTABLE, IntMatrix.identity(3), 3)
    HomologyModel(SurfaceKind.NONORIENTABLE, IntMatrix.identity(2), 3)
    with pytest.raises(ValueError):
        HomologyModel(SurfaceKind.NONORIENTABLE, IntMatrix(()), 0)


def test_model_needs_the_rank_of_h1():
    """Each kind takes exactly the rank of its H_1, 2g orientable and g - 1
    non-orientable: one dimension less or more raises DimensionMismatch with its
    exact text, and a genus below the kind's least raises ValueError first."""
    for kind in SurfaceKind:
        orientable = kind is not SurfaceKind.NONORIENTABLE
        for genus in (1, 2, 5):
            rank = 2 * genus if orientable else genus - 1
            HomologyModel(kind, IntMatrix.identity(rank), genus)
            for dim in (rank - 1, rank + 1):
                if dim < 0:
                    continue
                with pytest.raises(DimensionMismatch) as info:
                    HomologyModel(kind, IntMatrix.identity(dim), genus)
                name = "orientable" if orientable else "non-orientable"
                assert str(info.value) == (
                    f"{name} genus {genus} needs a matrix of dimension {rank}, got {dim}"
                )
        with pytest.raises(ValueError) as info:
            HomologyModel(kind, IntMatrix(()), -1)
        assert str(info.value) == "genus must be nonnegative"
    with pytest.raises(ValueError) as info:
        HomologyModel(SurfaceKind.NONORIENTABLE, IntMatrix(()), 0)
    assert str(info.value) == "a non-orientable surface has genus at least 1"


def test_model_strict_form_checks():
    not_symplectic = IntMatrix([[2, 0], [0, 1]])
    with pytest.raises(FormViolation):
        HomologyModel(SurfaceKind.PRESERVING, not_symplectic, 1, strict=True)
    HomologyModel(SurfaceKind.PRESERVING, not_symplectic, 1)  # lax constructor
    with pytest.raises(FormViolation):
        HomologyModel(SurfaceKind.REVERSING, IntMatrix.identity(2), 1, strict=True)


def test_analysis_form_checks_strict_and_lax_agree():
    """A strict model's form checks, read off its kind, equal the ones a lax model computes."""
    rng = random.Random(37)
    cases = [(SurfaceKind.PRESERVING, random_symplectic_pair(rng, g)[0]) for g in (1, 2, 3)]
    cases += [(SurfaceKind.REVERSING, random_antisymplectic_quasiunipotent(rng)) for _ in range(4)]
    cases += [(kind, IntMatrix(())) for kind in (SurfaceKind.PRESERVING, SurfaceKind.REVERSING)]
    for kind, a in cases:
        symplectic, antisymplectic = form_predicates(a)
        expected = {"symplectic": symplectic, "antisymplectic": antisymplectic}
        for strict in (True, False):
            assert analyze(HomologyModel(kind, a, a.dim // 2, strict=strict)).form_checks == expected
    assert analyze(HomologyModel(SurfaceKind.PRESERVING, IntMatrix(()), 0, strict=True)).form_checks == {
        "symplectic": True,
        "antisymplectic": True,
    }
    lax = HomologyModel(SurfaceKind.PRESERVING, IntMatrix([[2, 0], [0, 1]]), 1)
    assert analyze(lax).form_checks == {"symplectic": False, "antisymplectic": False}
    assert analyze(HomologyModel(SurfaceKind.NONORIENTABLE, IntMatrix([[1]]), 2)).form_checks is None


def test_lefschetz_number_identity_surface():
    for g in range(0, 5):
        m = identity_model(g)
        for l in (1, 2, 5):
            assert lefschetz_by_powers(m, l)[l - 1] == 2 - 2 * g
            assert analyze(m).lefschetz(l)[l - 1] == 2 - 2 * g
        assert euler_characteristic(m) == 2 - 2 * g


def test_lefschetz_number_reversing_sphere():
    m = HomologyModel(SurfaceKind.REVERSING, IntMatrix(()), 0)
    assert lefschetz_by_powers(m, 1) == [0]
    assert lefschetz_by_powers(m, 2)[1] == 2
    assert lefschetz_by_powers(m, 6) == [0, 2, 0, 2, 0, 2]
    assert analyze(m).lefschetz(6) == [0, 2, 0, 2, 0, 2]


def test_lefschetz_sequence_of_two_period_model():
    sm = realize_target({1, 2}, SurfaceKind.PRESERVING)
    expected = [2 - 2 * (2 if l % 2 == 0 else 0) for l in range(1, 9)]
    assert lefschetz_by_powers(sm.model, 8) == expected
    assert sm.analysis.lefschetz(8) == expected


def test_algebraic_periods_examples():
    sm = realize_target({2, 3}, SurfaceKind.PRESERVING)
    d = algebraic_periods(sm.model)
    assert d.as_dict() == {2: -2, 3: -2}

    assert algebraic_periods(identity_model(2)).as_dict() == {1: -2}

    anosov = HomologyModel(SurfaceKind.PRESERVING, IntMatrix([[2, 1], [1, 1]]), 1)
    with pytest.raises(NotQuasiUnipotent):
        algebraic_periods(anosov)


def test_ap_odd_and_mper():
    sm = realize_target({1, 2, 3}, SurfaceKind.PRESERVING)
    assert ap_odd(sm.model) == {1, 3}
    rev = realize_target({2, 4}, SurfaceKind.REVERSING)
    assert ap_odd(rev.model) == set()
    non = realize_target({5}, SurfaceKind.NONORIENTABLE)
    assert ap_odd(non.model) == {5}


def test_odd_vanishing_check():
    rev = realize_target({4}, SurfaceKind.REVERSING)
    assert odd_lefschetz_vanish_by_powers(rev.model, 25)
    assert all(x == 0 for x in rev.analysis.lefschetz(25)[::2])
    sphere = HomologyModel(SurfaceKind.REVERSING, IntMatrix(()), 0)
    assert odd_lefschetz_vanish_by_powers(sphere, 25)
    assert all(x == 0 for x in analyze(sphere).lefschetz(25)[::2])


def test_certificates():
    records = periodic_point_certificate(DoldClass({3: -2}))
    assert len(records) == 1 and records[0].guarantee == "odd" and records[0].periods == (3,)
    records = periodic_point_certificate(DoldClass({4: 1}))
    assert records[0].guarantee == "either" and records[0].periods == (4, 2)
    assert periodic_point_certificate(DoldClass()) == []


def test_dold_reproduces_lefschetz_sequence():
    for sm in (
        realize_target({2, 3}, SurfaceKind.PRESERVING),
        realize_target({2, 4}, SurfaceKind.REVERSING),
        realize_target({1, 3}, SurfaceKind.NONORIENTABLE),
    ):
        orders = cyclotomic_factorization(charpoly(sm.model.matrix))
        bound = 2 * math.lcm(1, *orders)
        d = algebraic_periods(sm.model)
        got = [lefschetz_from_dold(d, l) for l in range(1, bound + 1)]
        assert got == lefschetz_by_powers(sm.model, bound)


def random_quasiunipotent_matrix(rng, kind: SurfaceKind) -> IntMatrix:
    """A dense quasi-unipotent matrix of the kind: a realization matrix, conjugated."""
    if kind is SurfaceKind.REVERSING:
        return random_antisymplectic_quasiunipotent(rng)
    target = set(rng.sample(range(2, 7), k=rng.randint(1, 2)))
    if kind is SurfaceKind.PRESERVING:
        base = realize_target(target, SurfaceKind.PRESERVING).model.matrix
    else:
        base = realize_target(target, SurfaceKind.NONORIENTABLE).model.matrix
    s, s_inv = random_symplectic_pair(rng, base.dim // 2)
    if base.dim % 2:
        s = block_diag([s, IntMatrix.identity(1)])
        s_inv = block_diag([s_inv, IntMatrix.identity(1)])
    return mat_mul(mat_mul(s_inv, base), s)


def test_charpoly_route_matches_power_route():
    rng = random.Random(37)
    for kind in SurfaceKind:
        orientable = kind is not SurfaceKind.NONORIENTABLE
        dims = [2 * rng.randint(1, 2) if orientable else rng.randint(1, 4) for _ in range(20)]
        matrices = [random_matrix(rng, dim, -2, 2) for dim in dims]
        matrices += [random_quasiunipotent_matrix(rng, kind) for _ in range(10)]
        dold_checked = 0
        for a in matrices:
            genus = a.dim // 2 if orientable else a.dim + 1
            m = HomologyModel(kind, a, genus)
            powers = lefschetz_by_powers(m, 10)
            assert powers == lefschetz_by_newton(m.kind, charpoly(a), 10)
            analysis = analyze(m)
            assert analysis.lefschetz(10) == powers
            if analysis.quasi_unipotent:
                bound = 2 * math.lcm(1, *analysis.factorization)
                powers = lefschetz_by_powers(m, bound)
                expected = dold_coefficients(LefschetzSequence(dict(enumerate(powers, 1))))
                assert analysis.dold == expected
                assert dold_by_newton_window(m) == expected
                dold_checked += 1
            else:
                assert analysis.dold is None
        assert dold_checked >= 10

    # The Dold class read off the factorization against Moebius inversion of the
    # Newton window: every kind and reversing mode, dense conjugates, the empty
    # matrix of each kind, and the genus-1 identity, whose Dold class is empty.
    models = []
    for kind in SurfaceKind:
        modes = list(Mode) if kind is SurfaceKind.REVERSING else [Mode.CORRECTED]
        pool = range(2, 15, 2) if kind is SurfaceKind.REVERSING else range(1, 15)
        for mode in modes:
            for _ in range(25):
                target = rng.sample(pool, k=rng.randint(1, 4))
                models.append(realize_target(target, kind, mode=mode).model)
        for _ in range(8):
            a = random_quasiunipotent_matrix(rng, kind)
            genus = a.dim + 1 if kind is SurfaceKind.NONORIENTABLE else a.dim // 2
            models.append(HomologyModel(kind, a, genus))
        models.append(HomologyModel(kind, IntMatrix(()), int(kind is SurfaceKind.NONORIENTABLE)))
    for _ in range(20):
        a = random_antisymplectic_quasiunipotent(rng)
        models.append(HomologyModel(SurfaceKind.REVERSING, a, a.dim // 2))
    identity = identity_model(1)
    models.append(identity)
    for m in models:
        analysis = analyze(m)
        assert analysis.dold == dold_by_newton_window(m), m
        wide = 2 * math.lcm(1, *analysis.factorization) + 1
        assert analysis.lefschetz(wide) == lefschetz_by_newton(m.kind, analysis.charpoly, wide), m
    assert analyze(identity).dold == DoldClass() and analyze(identity).lefschetz(4) == [0] * 4


def test_dold_window_matches_newton_window():
    rng = random.Random(53)
    analyses = []
    for kind in SurfaceKind:
        for _ in range(12):
            if kind is SurfaceKind.REVERSING:
                target = rng.sample(range(2, 11, 2), k=rng.randint(1, 3))
                sm = realize_target(target, kind, mode=rng.choice(list(Mode)))
            else:
                sm = realize_target(rng.sample(range(1, 11), k=rng.randint(1, 3)), kind)
            analyses.append(sm.analysis)
        for _ in range(3):
            a = random_quasiunipotent_matrix(rng, kind)
            genus = a.dim + 1 if kind is SurfaceKind.NONORIENTABLE else a.dim // 2
            analyses.append(analyze(HomologyModel(kind, a, genus)))
    for analysis in analyses:
        assert analysis.quasi_unipotent
        top = max(analysis.dold.support(), default=1)
        wide = 2 * math.lcm(1, *analysis.factorization) + 3
        for n_max in {1, top - 1, wide} - {0}:
            newton = lefschetz_by_newton(analysis.model.kind, analysis.charpoly, n_max)
            assert analysis.lefschetz(n_max) == newton, (analysis.model, n_max)


def test_nonorientable_companion_model():
    matrix = companion_cycle_quotient(3)
    m = HomologyModel(SurfaceKind.NONORIENTABLE, matrix, 3)
    assert algebraic_periods(m).as_dict() == {1: 2, 3: -1}


def test_euler_closure_on_block_models():
    # sum(n * a_n) equals the Euler characteristic for homologically
    # periodic models.
    for target in ({1}, {2}, {2, 3}, {1, 4}):
        sm = realize_target(target, SurfaceKind.PRESERVING)
        total = sum(n * a for n, a in sm.achieved.items())
        assert total == 2 - 2 * sm.genus
    half = block_diag([cyclic_permutation(2), cyclic_permutation(3)])
    matrix = block_diag([half, half])
    m = HomologyModel(SurfaceKind.PRESERVING, matrix, 5)
    d = algebraic_periods(m)
    assert sum(n * a for n, a in d.items()) == 2 - 2 * 5


def random_block(rng: random.Random) -> IntMatrix:
    """One diagonal block of the kinds realizations and analyze inputs are made of."""
    pick = rng.randrange(7)
    if pick == 0:
        return cyclic_permutation(rng.randint(1, 9))
    if pick == 1:
        return companion_cycle_quotient(rng.randint(2, 9))
    if pick == 2:
        return _swap_shift_block(rng.randint(1, 5))
    if pick == 3:
        return IntMatrix.identity(rng.randint(1, 3))
    if pick == 4:  # Anosov-type: trace above 2 in absolute value, determinant +-1
        t = rng.choice([3, 4, -3, 5])
        return rng.choice([IntMatrix([[t - 1, 1], [1, 1]]), IntMatrix([[t, 1], [-1, 0]])])
    if pick == 5:  # a quasi-unipotent block made dense by a unimodular conjugation
        return random_quasiunipotent_matrix(rng, SurfaceKind.NONORIENTABLE)
    return random_matrix(rng, rng.randint(1, 3), -2, 2)


def test_block_factorization_matches_whole_polynomial():
    """analyze() factors each distinct block once; the merged factorization or the
    product of block residuals equals trial division of the whole characteristic
    polynomial, on block sums with repeated blocks, some coupled above the
    diagonal, under a random permutation similarity."""
    rng = random.Random(59)
    quasi_unipotent = 0
    for _ in range(60):
        blocks = [random_block(rng) for _ in range(rng.randint(1, 6))]
        blocks += [rng.choice(blocks) for _ in range(rng.randint(0, 3))]
        rows = [list(row) for row in block_diag(blocks).rows]
        n = len(rows)
        offset = 0
        for b in blocks[:-1]:  # block upper triangular: nothing couples back
            offset += b.dim
            if rng.random() < 0.3:
                rows[rng.randrange(offset)][rng.randrange(offset, n)] = rng.choice([-1, 1, 2])
        perm = rng.sample(range(n), n)
        a = IntMatrix([[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)])
        cp = charpoly(a)
        assert cp == poly_product_by_schoolbook(charpoly_blocks(a))
        analysis = analyze(HomologyModel(SurfaceKind.NONORIENTABLE, a, n + 1))
        assert analysis.charpoly == cp
        try:
            whole = cyclotomic_factorization(cp)
        except NotQuasiUnipotent as exc:
            assert analysis.factorization is None and analysis.residual == exc.residual
            continue
        assert list(analysis.factorization.items()) == list(whole.items())
        assert analysis.residual is None
        quasi_unipotent += 1
    assert 10 <= quasi_unipotent <= 50
    assert charpoly_blocks(IntMatrix(())) == [] and charpoly(IntMatrix(())) == IntPolynomial((1,))


def test_dold_class_from_squarefree_divisors_matches_moebius_per_divisor(monkeypatch):
    """``analyze`` factors each cyclotomic order d once and subtracts m_d mu(s) at d / s
    for each squarefree s | d; the oracle takes one Moebius value per divisor.  Random
    factorizations {d: m_d} with d <= 2520 reach ``analyze`` through a patched block
    factorizer, on the empty matrix of each kind."""
    lefschetz_module = importlib.import_module("algperiods.lefschetz")
    kind_terms = {SurfaceKind.PRESERVING: {1: 2}, SurfaceKind.REVERSING: {2: 1},
                  SurfaceKind.NONORIENTABLE: {1: 1}}
    rng = random.Random(31)
    monkeypatch.setattr(lefschetz_module, "charpoly_blocks", lambda a: [IntPolynomial((1,))])
    for trial in range(300):
        orders = rng.sample(range(1, 2521), rng.randint(1, 8))
        if trial % 3 == 0:
            orders += [1, 2, 2520, 720, 1680][: rng.randint(1, 5)]
        mults = {d: rng.randint(1, 6) for d in orders}
        monkeypatch.setattr(lefschetz_module, "cyclotomic_factorization", lambda block: mults)
        for kind, terms in kind_terms.items():
            genus = 0 if kind is not SurfaceKind.NONORIENTABLE else 1
            analysis = analyze(HomologyModel(kind, IntMatrix(()), genus))
            assert analysis.factorization == dict(sorted(mults.items()))
            assert analysis.dold == dold_by_moebius_per_divisor(terms, mults), (kind, mults)
