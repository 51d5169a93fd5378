import math
import random
import subprocess
import sys
import textwrap

import pytest

import algperiods.exactmat as exactmat
from algperiods import (
    EmptyTarget,
    IntMatrix,
    IntPolynomial,
    Mode,
    OddTargetUnrealizable,
    PieceSpec,
    SurfaceKind,
    algebraic_periods,
    block_diag,
    charpoly,
    companion_cycle_quotient,
    cyclic_permutation,
    cyclotomic_factorization,
    form_predicates,
    realize_target,
    x_pow_minus_one,
)

from conftest import (
    mat_pow,
    odd_lefschetz_vanish_by_powers,
    preserving_model_from_multiplicities,
    trace,
)


def preserving_genus_formula(a: set[int]) -> int:
    return sum(n for n in a if n != 1) if 1 in a else 1 + sum(a)


def reversing_genus_formula(a: set[int]) -> int:
    by4 = sum(2 * n for n in a if n % 4 == 0)
    rest = sum(n for n in a if n % 4 != 0 and n != 2)
    if 2 in a:
        return by4 + rest
    return 2 + by4 + sum(n for n in a if n % 4 != 0)


def nonorientable_genus_formula(a: set[int]) -> int:
    if a == {1}:
        return 1
    if 1 in a:
        return sum(n for n in a if n != 1)
    return 2 + sum(a)


def random_targets(rng, count, pool, max_size):
    for _ in range(count):
        yield set(rng.sample(pool, k=rng.randint(1, max_size)))


def test_empty_target_rejected():
    for kind in SurfaceKind:
        with pytest.raises(EmptyTarget):
            realize_target(set(), kind)


def test_preserving_examples():
    sm = realize_target({2, 3}, SurfaceKind.PRESERVING)
    assert sm.genus == 6
    assert charpoly(sm.model.matrix) == (
        x_pow_minus_one(1) ** 2 * x_pow_minus_one(2) ** 2 * x_pow_minus_one(3) ** 2
    )
    assert set(sm.achieved.support()) == {2, 3}

    sm = realize_target({1}, SurfaceKind.PRESERVING)
    assert sm.genus == 0 and sm.model.matrix.dim == 0
    assert sm.achieved.as_dict() == {1: 2}
    assert sm.pieces == ()

    sm = realize_target({1, 2}, SurfaceKind.PRESERVING)
    assert sm.genus == 2 and sm.achieved.as_dict() == {1: 2, 2: -2}


def test_preserving_structure_is_doubled_permutation():
    sm = realize_target({2, 3}, SurfaceKind.PRESERVING)
    half = block_diag([cyclic_permutation(1), cyclic_permutation(2), cyclic_permutation(3)])
    assert sm.model.matrix == block_diag([half, half])
    assert form_predicates(sm.model.matrix) == (True, False)


def test_preserving_achieved_values():
    sm = realize_target({2, 4, 6}, SurfaceKind.PRESERVING)
    assert sm.achieved.as_dict() == {2: -2, 4: -2, 6: -2}
    sm = realize_target({1, 3, 5, 7}, SurfaceKind.PRESERVING)
    assert sm.achieved.as_dict() == {1: 2, 3: -2, 5: -2, 7: -2}


def test_preserving_homological_periodicity():
    sm = realize_target({2, 3}, SurfaceKind.PRESERVING)
    order = math.lcm(*(p.n for p in sm.pieces))
    assert mat_pow(sm.model.matrix, order) == IntMatrix.identity(sm.model.matrix.dim)


def test_realizations_have_finite_order():
    """A^L = I for L the lcm of the cyclotomic orders, for every kind and reversing
    mode: the matrix is diagonalizable over C, as a periodic map's action must be."""
    rng = random.Random(67)
    runs = [
        (t, kind, None)
        for kind in (SurfaceKind.PRESERVING, SurfaceKind.NONORIENTABLE)
        for t in random_targets(rng, 30, list(range(1, 9)), 3)
    ]
    runs += [
        (t, SurfaceKind.REVERSING, mode)
        for t in random_targets(rng, 30, [2, 4, 6, 8, 10], 3)
        for mode in (Mode.FAITHFUL, Mode.CORRECTED)
    ]
    for target, kind, mode in runs:
        sm = realize_target(target, kind, mode)
        factorization = sm.analysis.factorization
        assert factorization is not None, (target, kind, mode)
        a = sm.model.matrix
        order = math.lcm(*factorization)
        assert mat_pow(a, order) == IntMatrix.identity(a.dim), (target, kind, mode)


def test_reversing_rejects_odd():
    for target in ({3}, {2, 3}, {1}, {4, 6, 9}):
        with pytest.raises(OddTargetUnrealizable):
            realize_target(target, SurfaceKind.REVERSING)


def test_reversing_two_only():
    for mode in (Mode.CORRECTED, Mode.FAITHFUL):
        sm = realize_target({2}, SurfaceKind.REVERSING, mode)
        assert sm.genus == 0 and sm.model.matrix.dim == 0
        assert sm.achieved.as_dict() == {2: 1}
        assert sm.flags == ()


def test_reversing_corrected_four():
    sm = realize_target({4}, SurfaceKind.REVERSING, Mode.CORRECTED)
    assert sm.genus == 9
    assert charpoly(sm.model.matrix) == x_pow_minus_one(2) * x_pow_minus_one(4) ** 4
    assert sm.achieved.as_dict() == {4: -4}
    assert sm.flags == ()
    assert PieceSpec(2, 1, 1) in sm.pieces  # the corrective diag(1, -1) block


def test_reversing_faithful_four():
    sm = realize_target({4}, SurfaceKind.REVERSING, Mode.FAITHFUL)
    assert sm.genus == 10
    assert charpoly(sm.model.matrix) == x_pow_minus_one(2) ** 2 * x_pow_minus_one(4) ** 4
    assert sm.achieved.as_dict() == {2: -1, 4: -4}
    assert sm.flags == ("achieved-differs-from-target", "faithful-reversing-adds-period-2")


def test_reversing_faithful_with_two_in_target():
    sm = realize_target({2, 4}, SurfaceKind.REVERSING, Mode.FAITHFUL)
    assert sm.genus == 8
    assert sm.achieved.as_dict() == {2: 1, 4: -4}
    assert sm.flags == ()
    # Corrected mode coincides when 2 is in the target.
    assert realize_target({2, 4}, SurfaceKind.REVERSING, Mode.CORRECTED).model == sm.model


def test_reversing_models_are_antisymplectic_with_vanishing_odd_traces():
    rng = random.Random(43)
    for target in random_targets(rng, 15, [2, 4, 6, 8, 10, 12], 3):
        for mode in (Mode.CORRECTED, Mode.FAITHFUL):
            sm = realize_target(target, SurfaceKind.REVERSING, mode)
            assert form_predicates(sm.model.matrix)[1]
            orders = cyclotomic_factorization(charpoly(sm.model.matrix))
            bound = 2 * math.lcm(1, *orders)
            assert odd_lefschetz_vanish_by_powers(sm.model, bound)
            for l in sorted(orders):
                if l % 2:
                    assert orders.get(l, 0) == orders.get(2 * l, 0)


def test_reversing_charpoly_shape_faithful():
    rng = random.Random(47)
    for target in random_targets(rng, 10, [2, 4, 6, 8, 10, 12], 3):
        sm = realize_target(target, SurfaceKind.REVERSING, Mode.FAITHFUL)
        working = (set(target) - {2}) if 2 in target else (set(target) | {2})
        expected = IntPolynomial([1])
        for n in sorted(working):
            power = 4 if n % 4 == 0 else 2
            expected = expected * x_pow_minus_one(n) ** power
        assert charpoly(sm.model.matrix) == expected


def test_nonorientable_examples():
    sm = realize_target({1}, SurfaceKind.NONORIENTABLE)
    assert sm.genus == 1 and sm.model.matrix.dim == 0
    assert sm.achieved.as_dict() == {1: 1}

    sm = realize_target({2, 3}, SurfaceKind.NONORIENTABLE)
    assert sm.genus == 7
    expected = block_diag(
        [cyclic_permutation(2), cyclic_permutation(3), IntMatrix.identity(1)]
    )
    assert sm.model.matrix == expected
    assert sm.achieved.as_dict() == {2: -1, 3: -1}

    sm = realize_target({1, 3}, SurfaceKind.NONORIENTABLE)
    assert sm.genus == 3
    assert sm.model.matrix == companion_cycle_quotient(3)
    assert sm.achieved.as_dict() == {1: 2, 3: -1}


def test_nonorientable_pivot_is_minimum():
    sm = realize_target({1, 3, 5}, SurfaceKind.NONORIENTABLE)
    # pivot 3 becomes the companion block, 5 stays a cycle
    expected = block_diag([companion_cycle_quotient(3), cyclic_permutation(5)])
    assert sm.model.matrix == expected


def test_genus_formulas_random():
    rng = random.Random(53)
    for target in random_targets(rng, 200, list(range(1, 9)), 3):
        sm = realize_target(target, SurfaceKind.PRESERVING)
        assert sm.genus == preserving_genus_formula(target)
    for target in random_targets(rng, 200, [2, 4, 6, 8], 3):
        sm = realize_target(target, SurfaceKind.REVERSING, Mode.FAITHFUL)
        assert sm.genus == reversing_genus_formula(target)
    for target in random_targets(rng, 200, list(range(1, 9)), 3):
        sm = realize_target(target, SurfaceKind.NONORIENTABLE)
        assert sm.genus == nonorientable_genus_formula(target)


def test_achieved_equals_target_across_kinds():
    rng = random.Random(59)
    for target in random_targets(rng, 30, list(range(1, 10)), 3):
        assert set(realize_target(target, SurfaceKind.PRESERVING).achieved.support()) == target
        assert set(realize_target(target, SurfaceKind.NONORIENTABLE).achieved.support()) == target
    for target in random_targets(rng, 30, [2, 4, 6, 8, 10], 3):
        sm = realize_target(target, SurfaceKind.REVERSING, Mode.CORRECTED)
        assert set(sm.achieved.support()) == target
        assert sm.flags == ()


def test_euler_characteristic_closure():
    rng = random.Random(61)
    for target in random_targets(rng, 20, list(range(1, 9)), 3):
        sm = realize_target(target, SurfaceKind.PRESERVING)
        assert sum(n * a for n, a in sm.achieved.items()) == 2 - 2 * sm.genus
        sm = realize_target(target, SurfaceKind.NONORIENTABLE)
        assert sum(n * a for n, a in sm.achieved.items()) == 2 - sm.genus
    for target in random_targets(rng, 20, [2, 4, 6, 8], 3):
        for mode in (Mode.CORRECTED, Mode.FAITHFUL):
            sm = realize_target(target, SurfaceKind.REVERSING, mode)
            assert sum(n * a for n, a in sm.achieved.items()) == 2 - 2 * sm.genus


def test_determinism():
    a = realize_target({4, 6}, SurfaceKind.REVERSING, Mode.CORRECTED)
    b = realize_target({4, 6}, SurfaceKind.REVERSING, Mode.CORRECTED)
    assert a == b
    assert a.model.matrix.rows == b.model.matrix.rows


def test_multiplicity_helper():
    model = preserving_model_from_multiplicities({2: 2, 3: 1})
    assert model.genus == 7
    assert charpoly(model.matrix) == x_pow_minus_one(2) ** 4 * x_pow_minus_one(3) ** 2
    d = algebraic_periods(model)
    assert d.as_dict() == {1: 2, 2: -4, 3: -2}


def test_realize_target_dispatch():
    assert realize_target({2}, SurfaceKind.PRESERVING).kind is SurfaceKind.PRESERVING
    assert realize_target({2}, SurfaceKind.REVERSING).kind is SurfaceKind.REVERSING
    assert realize_target({2}, SurfaceKind.NONORIENTABLE).kind is SurfaceKind.NONORIENTABLE


def test_large_lcm_realization_builds_no_lefschetz_window():
    # lcm 13,956,975: a 2*lcm Lefschetz window would not fit in memory.
    target = {23, 25, 27, 29, 31}
    sm = realize_target(target, SurfaceKind.NONORIENTABLE)
    assert sm.model.matrix.dim == 136
    assert set(sm.achieved.support()) == target


def test_charpoly_of_realizations_splits_into_pieces(monkeypatch):
    # The per-block kernel sees blocks of the pieces' sizes only, so the
    # largest block it is handed is the largest piece, not the whole matrix.
    cases = [
        (realize_target(range(2, 20), SurfaceKind.PRESERVING), 380, 19,
         math.prod(x_pow_minus_one(n) ** 2 for n in range(1, 20))),
        # Swap-shift block of 60 (tau = 60): two 60-cycles, in both halves.
        (realize_target({60}, SurfaceKind.REVERSING), 242, 60,
         x_pow_minus_one(60) ** 4 * x_pow_minus_one(2)),
    ]
    original = exactmat._block_charpoly
    for sm, dim, largest, expected in cases:
        dims = []

        def recording(block):
            dims.append(len(block))
            return original(block)

        monkeypatch.setattr(exactmat, "_block_charpoly", recording)
        assert sm.model.matrix.dim == dim
        assert charpoly(sm.model.matrix) == expected
        assert max(dims) == largest
        assert sum(dims) == dim


def test_postconditions_survive_optimized_mode():
    # Under python -O bare asserts vanish; a construction that misses its
    # target must still raise TargetMismatch, whatever its kind.
    script = textwrap.dedent(
        """
        import algperiods.realize as realize
        from algperiods import (
            HomologyModel, Mode, SurfaceKind, TargetMismatch, cyclic_permutation, realize_target,
        )

        if __debug__:
            raise SystemExit("not running under -O")
        # Achieved periods {1, 2}, whatever the construction was asked for.
        wrong = realize.analyze(HomologyModel(SurfaceKind.NONORIENTABLE, cyclic_permutation(2), 3))
        realize.analyze = lambda model: wrong
        for target, kind in [
            ({3}, SurfaceKind.PRESERVING),
            ({1}, SurfaceKind.NONORIENTABLE),
            ({2, 3}, SurfaceKind.NONORIENTABLE),
            ({4}, SurfaceKind.REVERSING),
        ]:
            try:
                realize_target(target, kind, Mode.CORRECTED)
            except TargetMismatch:
                continue
            raise SystemExit(f"realize_target({target}, {kind}) did not raise TargetMismatch")
        # The faithful reversing construction reports the miss in its flags instead.
        sm = realize_target({4}, SurfaceKind.REVERSING, Mode.FAITHFUL)
        if sm.flags != (realize.DEVIATION_FLAG, realize.FAITHFUL_PERIOD_TWO_FLAG):
            raise SystemExit(f"faithful reversing flags {sm.flags}")
        """
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
