"""Library refusals, small reprs and the two postconditions, called in-process.

Every refusal here is a ``raise`` statement, not an assert, so each also holds
under ``python -O``.
"""

import importlib

import pytest

import algperiods.exactmat as exactmat
from algperiods import (
    DoldClass,
    HomologyModel,
    IntMatrix,
    IntPolynomial,
    LefschetzSequence,
    Mode,
    Partition,
    SurfaceKind,
    TargetMismatch,
    ZetaFactorization,
    charpoly_blocks,
    companion_cycle_quotient,
    cyclic_permutation,
    cyclotomic,
    enumerate_partitions,
    hardy_ramanujan_estimate,
    lefschetz_from_zeta,
    realize_target,
    series_expand,
    trace_sequence_from_charpoly,
    x_pow_minus_one,
)

# import_module, not attribute access: the package re-exports each module's names
realize = importlib.import_module("algperiods.realize")

X = IntPolynomial((0, 1))
ONE = IntPolynomial((1,))
ZETA = ZetaFactorization([(1, 3, 2)])

REFUSALS = {
    "LefschetzSequence_index_0": (
        lambda: LefschetzSequence({0: 1}), "index 0 is not a positive integer"),
    "DoldClass_index_0": (lambda: DoldClass({0: 1}), "index 0 is not a positive integer"),
    "enumerate_partitions_0": (
        lambda: next(enumerate_partitions(0)), "enumeration needs a positive integer"),
    "hardy_ramanujan_estimate_0": (
        lambda: hardy_ramanujan_estimate(0), "the estimate needs a positive integer"),
    "cyclic_permutation_0": (lambda: cyclic_permutation(0), "cycle length must be positive"),
    "companion_cycle_quotient_1": (
        lambda: companion_cycle_quotient(1), "quotient companion matrix needs n >= 2"),
    "negative_power": (
        lambda: IntPolynomial((1, 1)) ** -1, "negative polynomial powers are not defined"),
    "x_pow_minus_one_0": (lambda: x_pow_minus_one(0), "exponent must be positive"),
    "cyclotomic_0": (lambda: cyclotomic(0), "cyclotomic order must be positive"),
    "trace_sequence_0": (
        lambda: trace_sequence_from_charpoly(X - ONE, 0), "n_max must be positive"),
    "realize_target_0": (
        lambda: realize_target({0, 2}, SurfaceKind.PRESERVING),
        "target elements must be positive integers"),
    "series_expand_0": (lambda: series_expand(ZETA, 0), "truncation order must be positive"),
    "lefschetz_from_zeta_0": (lambda: lefschetz_from_zeta(ZETA, 0), "n_max must be positive"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_library_refusal(name):
    call, message = REFUSALS[name]
    with pytest.raises(ValueError) as info:
        call()
    assert (type(info.value), str(info.value)) == (ValueError, message)


TYPE_REFUSALS = {
    # a mode given as its string value used to build the corrected model and
    # report mode='faithful'
    "reversing_mode_str": (
        lambda: realize_target({4}, SurfaceKind.REVERSING, mode="faithful"),
        "mode must be a Mode, not str"),
    "reversing_mode_none": (
        lambda: realize_target({4}, SurfaceKind.REVERSING, mode=None),
        "mode must be a Mode, not NoneType"),
    # a kind given as its string value used to take the non-orientable branch
    "realize_kind_str": (
        lambda: realize_target({2}, "preserving"), "kind must be a SurfaceKind, not str"),
    # ... and a strict model of one used to skip its form check
    "model_kind_str": (
        lambda: HomologyModel("preserving", IntMatrix([[1, 0], [0, 1]]), 1, strict=True),
        "kind must be a SurfaceKind, not str"),
}


@pytest.mark.parametrize("name", TYPE_REFUSALS)
def test_a_kind_or_reversing_mode_of_the_wrong_type_is_refused(name):
    call, message = TYPE_REFUSALS[name]
    with pytest.raises(TypeError) as info:
        call()
    assert (type(info.value), str(info.value)) == (TypeError, message)


def test_realize_target_refuses_a_wrong_kind_before_it_builds_a_block(monkeypatch):
    built = []
    monkeypatch.setattr(realize, "cyclic_permutation", lambda n: built.append(n))
    with pytest.raises(TypeError, match="^kind must be a SurfaceKind, not str$"):
        realize_target(range(2, 60), "preserving")
    assert built == []


def test_mode_none_stays_allowed_on_the_other_kinds():
    for kind in (SurfaceKind.PRESERVING, SurfaceKind.NONORIENTABLE):
        sm = realize_target({1, 3}, kind, mode=None)
        assert (sm.mode, sm.achieved.support()) == (None, (1, 3))


def test_small_values_print_and_count():
    assert (str(IntPolynomial()), bool(IntPolynomial()), bool(ONE)) == ("0", False, True)
    assert len(LefschetzSequence({1: 2, 2: 3, 3: 4})) == 3
    assert repr(LefschetzSequence({1: 2})) == "LefschetzSequence({1: 2})"
    assert repr(Partition({2: 1, 1: 1})) == "Partition([2, 1])"
    assert repr(ZETA) == "ZetaFactorization('+,3,2')"


def test_block_charpoly_refuses_a_result_that_disagrees_with_the_trace(monkeypatch):
    original = exactmat._charpoly_mod

    def perturbed(rows, p):
        residues = original(rows, p)
        residues[len(rows) - 1] += 1  # the x^(k-1) coefficient, -trace
        return residues

    a = IntMatrix([[2, 1], [1, 1]])
    assert charpoly_blocks(a) == [IntPolynomial((1, -3, 1))]
    monkeypatch.setattr(exactmat, "_charpoly_mod", perturbed)
    with pytest.raises(ArithmeticError, match="disagrees with the trace"):
        charpoly_blocks(a)


def test_realize_target_checks_the_achieved_periods(monkeypatch):
    """A construction whose analysis reports other periods than its target raises
    TargetMismatch, except the faithful reversing one, which flags the miss."""
    faithful = realize_target({2, 4}, SurfaceKind.REVERSING, Mode.FAITHFUL)
    assert (faithful.achieved.support(), faithful.flags) == ((2, 4), ())
    # achieved periods {1, 2}, whatever the construction was asked for
    wrong = realize.analyze(HomologyModel(SurfaceKind.NONORIENTABLE, cyclic_permutation(2), 3))
    assert wrong.dold.support() == (1, 2)
    monkeypatch.setattr(realize, "analyze", lambda model: wrong)
    for target, kind in [
        ({3}, SurfaceKind.PRESERVING),
        ({1}, SurfaceKind.NONORIENTABLE),
        ({2, 3}, SurfaceKind.NONORIENTABLE),
        ({4}, SurfaceKind.REVERSING),
        ({2, 4}, SurfaceKind.REVERSING),
    ]:
        with pytest.raises(TargetMismatch, match="missed its target"):
            realize_target(target, kind)
    faithful = realize_target({2, 4}, SurfaceKind.REVERSING, Mode.FAITHFUL)
    assert faithful.flags == (realize.DEVIATION_FLAG, realize.FAITHFUL_PERIOD_TWO_FLAG)
    assert faithful.achieved.support() == (1, 2)
