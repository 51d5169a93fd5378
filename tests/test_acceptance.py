"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria are exact except the stated Hardy-Ramanujan ratio interval.
"""

import math
import random
from contextlib import contextmanager

import pytest

from algperiods import (
    DoldClass,
    IntMatrix,
    LefschetzSequence,
    Mode,
    OddTargetUnrealizable,
    SurfaceKind,
    ZetaFactorization,
    algebraic_periods,
    antisymplectic_charpoly_identity_check,
    ap_odd,
    canonicalize,
    charpoly,
    cyclotomic_factorization,
    dold_coefficients,
    dold_congruence_check,
    enumerate_partitions,
    hardy_ramanujan_estimate,
    form_predicates,
    lefschetz_from_zeta,
    mper_from_factorization,
    partition_count,
    partition_to_dold_nonorientable,
    partition_to_dold_orientable,
    realize_target,
    series_expand,
    trace_sequence_from_charpoly,
    zeta_from_dold,
)

from conftest import (
    charpoly_cofactor,
    lefschetz_by_powers,
    mat_mul,
    odd_lefschetz_vanish_by_powers,
    random_antisymplectic_quasiunipotent,
    random_matrix,
    trace,
)

PRESERVING_CASES = {
    frozenset({1}): 0,
    frozenset({2, 3}): 6,
    frozenset({1, 2}): 2,
    frozenset({5}): 6,
    frozenset({2, 4, 6}): 13,
    frozenset({1, 3, 5, 7}): 15,
}

NONORIENTABLE_CASES = {
    frozenset({1}): 1,
    frozenset({2, 3}): 7,
    frozenset({1, 3}): 3,
    frozenset({4, 6}): 12,
}

REVERSING_SETS = [{2}, {4}, {2, 4}, {4, 6}, {2, 6}, {8}, {2, 4, 8}, {6, 10}]


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} ({label}): PASS")


@pytest.fixture(scope="module")
def realization_outputs():
    outputs = []
    for target in PRESERVING_CASES:
        outputs.append(realize_target(set(target), SurfaceKind.PRESERVING))
    for target in NONORIENTABLE_CASES:
        outputs.append(realize_target(set(target), SurfaceKind.NONORIENTABLE))
    for target in REVERSING_SETS:
        outputs.append(realize_target(set(target), SurfaceKind.REVERSING, Mode.CORRECTED))
        outputs.append(realize_target(set(target), SurfaceKind.REVERSING, Mode.FAITHFUL))
    return outputs


@pytest.fixture(scope="module")
def antisymplectic_instances():
    rng = random.Random(20240611)
    return [random_antisymplectic_quasiunipotent(rng) for _ in range(200)]


def reversing_genus_formula(a):
    by4 = sum(2 * n for n in a if n % 4 == 0)
    if 2 in a:
        return by4 + sum(n for n in a if n % 4 != 0 and n != 2)
    return 2 + by4 + sum(n for n in a if n % 4 != 0)


def order_bound(matrix) -> int:
    orders = cyclotomic_factorization(charpoly(matrix))
    return 2 * math.lcm(1, *orders)


def test_criterion_01_preserving_realization():
    with criterion(1, "orientation-preserving realization"):
        for target, genus in PRESERVING_CASES.items():
            sm = realize_target(set(target), SurfaceKind.PRESERVING)
            assert sm.genus == genus, (sorted(target), sm.genus, genus)
            assert set(algebraic_periods(sm.model).support()) == set(target)


def test_criterion_02_nonorientable_realization():
    with criterion(2, "non-orientable realization"):
        for target, genus in NONORIENTABLE_CASES.items():
            sm = realize_target(set(target), SurfaceKind.NONORIENTABLE)
            assert sm.genus == genus, (sorted(target), sm.genus, genus)
            assert set(sm.achieved.support()) == set(target)


def test_criterion_03_reversing_realization():
    with criterion(3, "orientation-reversing realization"):
        rng = random.Random(3003)
        for target in ({1}, {3}, {2, 5}, {4, 9}):
            with pytest.raises(OddTargetUnrealizable):
                realize_target(target, SurfaceKind.REVERSING, Mode.CORRECTED)
            with pytest.raises(OddTargetUnrealizable):
                realize_target(target, SurfaceKind.REVERSING, Mode.FAITHFUL)
        targets = [set(t) for t in REVERSING_SETS]
        targets += [
            set(rng.sample([2, 4, 6, 8, 10, 12], k=rng.randint(1, 3))) for _ in range(20)
        ]
        for target in targets:
            corrected = realize_target(target, SurfaceKind.REVERSING, Mode.CORRECTED)
            assert set(corrected.achieved.support()) == target
            assert corrected.flags == ()
            faithful = realize_target(target, SurfaceKind.REVERSING, Mode.FAITHFUL)
            assert faithful.genus == reversing_genus_formula(target)
            if 2 in target:
                assert set(faithful.achieved.support()) == target
                assert faithful.flags == ()
            else:
                assert set(faithful.achieved.support()) == target | {2}
                assert faithful.flags != ()


def test_criterion_04_odd_vanishing(realization_outputs, antisymplectic_instances):
    with criterion(4, "odd Lefschetz vanishing and cyclotomic pairing"):
        for sm in realization_outputs:
            if sm.kind is not SurfaceKind.REVERSING:
                continue
            bound = order_bound(sm.model.matrix)
            assert odd_lefschetz_vanish_by_powers(sm.model, bound)
            mults = cyclotomic_factorization(charpoly(sm.model.matrix))
            for l in range(1, max(mults, default=1) + 1, 2):
                assert mults.get(l, 0) == mults.get(2 * l, 0)
        for a in antisymplectic_instances:
            cp = charpoly(a)
            mults = cyclotomic_factorization(cp)
            bound = 2 * math.lcm(1, *mults)
            traces = trace_sequence_from_charpoly(cp, bound)
            # L_l = 1 - tr(A^l) + (-1)^l vanishes at odd l iff the trace does.
            assert all(traces[l - 1] == 0 for l in range(1, bound + 1, 2))
            for l in range(1, max(mults, default=1) + 1, 2):
                assert mults.get(l, 0) == mults.get(2 * l, 0)


def test_criterion_05_antisymplectic_identities(realization_outputs, antisymplectic_instances):
    with criterion(5, "antisymplectic determinant and functional equation"):
        matrices = [a for a in antisymplectic_instances]
        matrices += [
            sm.model.matrix
            for sm in realization_outputs
            if sm.kind is SurfaceKind.REVERSING
        ]
        for a in matrices:
            assert form_predicates(a)[1]
            g = a.dim // 2
            det = charpoly(a).coeffs[0] if a.dim else 1
            assert det == (-1) ** g
            assert antisymplectic_charpoly_identity_check(a)


def test_criterion_06_dold_integrality():
    with criterion(6, "Dold integrality of trace-power sequences"):
        rng = random.Random(6006)
        for _ in range(500):
            a = random_matrix(rng, rng.randint(1, 8), -3, 3)
            power = IntMatrix.identity(a.dim)
            values = {}
            for k in range(1, 13):
                power = mat_mul(power, a)
                values[k] = trace(power)
            seq = LefschetzSequence(values)
            dold_coefficients(seq)  # must not raise DoldViolation
            assert all(dold_congruence_check(seq, n) for n in range(1, 13))


def test_criterion_07_zeta_round_trip(realization_outputs):
    with criterion(7, "zeta function round trip"):
        for sm in realization_outputs:
            f = zeta_from_dold(sm.achieved)
            assert lefschetz_from_zeta(f, 40) == lefschetz_by_powers(sm.model, 40)


def test_criterion_08_canonicalization():
    with criterion(8, "canonicalization of factor products"):
        rng = random.Random(8008)
        for _ in range(100):
            factors = []
            for _ in range(rng.randint(1, 6)):
                m = 0
                while m == 0:
                    m = rng.randint(-4, 4)
                factors.append((rng.choice([1, -1]), rng.randint(1, 8), m))
            f = ZetaFactorization(factors)
            e = canonicalize(f)
            # e_k = c_k + d_{k/2} - d_k (even k), c_k - d_k (odd k)
            c, d = {}, {}
            for delta, r, m in f.factors:
                table = d if delta == 1 else c
                table[r] = table.get(r, 0) + m
            for k in set(c) | set(d) | {2 * j for j in d}:
                expected = c.get(k, 0) - d.get(k, 0)
                if k % 2 == 0:
                    expected += d.get(k // 2, 0)
                assert e.get(k, 0) == expected
            canonical = ZetaFactorization([(-1, k, m) for k, m in e.items()])
            assert series_expand(f, 60) == series_expand(canonical, 60)
            assert all(k % 2 for k in mper_from_factorization(f))


def test_criterion_09_mper_equals_ap_odd(realization_outputs):
    with criterion(9, "minimal Lefschetz periods equal odd algebraic periods"):
        for sm in realization_outputs:
            f = zeta_from_dold(sm.achieved)
            assert mper_from_factorization(f) == ap_odd(sm.model)


def test_criterion_10_census():
    with criterion(10, "partition census"):
        for n in range(1, 26):
            assert partition_count(n) == sum(1 for _ in enumerate_partitions(n))
        assert partition_count(100) == 190569292
        ratio = hardy_ramanujan_estimate(100) / partition_count(100)
        assert 0.9 <= ratio <= 1.1
        for g in range(1, 13):
            partitions = list(enumerate_partitions(g))
            for to_dold, chi in (
                (partition_to_dold_orientable, 2 - 2 * g),
                (partition_to_dold_nonorientable, 2 - g),
            ):
                classes = [to_dold(p) for p in partitions]
                assert len(set(classes)) == len(classes)
                for dc in classes:
                    assert sum(n * a for n, a in dc.items()) == chi


def test_criterion_11_charpoly_oracle():
    with criterion(11, "characteristic polynomial against cofactor oracle"):
        rng = random.Random(1111)
        for _ in range(200):
            a = random_matrix(rng, rng.randint(0, 6), -4, 4)
            assert charpoly(a) == charpoly_cofactor(a)


def test_criterion_12_headline_realizability():
    with criterion(12, "every finite set is realizable"):
        rng = random.Random(1212)
        for _ in range(50):
            target = set(rng.sample(range(1, 13), k=rng.randint(1, 4)))
            sm = realize_target(target, SurfaceKind.PRESERVING)
            assert set(algebraic_periods(sm.model).support()) == target
            sm = realize_target(target, SurfaceKind.NONORIENTABLE)
            assert set(algebraic_periods(sm.model).support()) == target
        for _ in range(50):
            target = set(rng.sample([2, 4, 6, 8, 10, 12], k=rng.randint(1, 4)))
            sm = realize_target(target, SurfaceKind.REVERSING, Mode.CORRECTED)
            assert set(algebraic_periods(sm.model).support()) == target
