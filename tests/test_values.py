"""The one equality rule of the library's seven value classes.

``IntMatrix``, ``IntPolynomial``, ``DoldClass``, ``LefschetzSequence``,
``Partition``, ``ZetaFactorization`` and ``HomologyModel`` compare by value
and only with their own class: two values built separately from equal data
are equal and hash equal, and a value never equals a value of another class
or the plain tuple or dict that holds its data, even when the data are the
same.
"""

import pytest

from algperiods import (
    DoldClass,
    HomologyModel,
    IntMatrix,
    IntPolynomial,
    LefschetzSequence,
    Partition,
    SurfaceKind,
    ZetaFactorization,
)

# name -> (factory, an unequal value, the plain tuple and dict or list of its data).
# DoldClass, LefschetzSequence and Partition hold the same map here, so only the
# class tells them apart; the maps are given unsorted, and sorted when built.
VALUES = {
    "IntMatrix": (
        lambda: IntMatrix([[1, 2], [3, 4]]),
        IntMatrix([[1, 2], [3, 5]]),
        (((1, 2), (3, 4)), [[1, 2], [3, 4]]),
    ),
    "IntPolynomial": (
        lambda: IntPolynomial([1, 2, 0]),
        IntPolynomial([1, 2, 1]),
        ((1, 2), [1, 2]),
    ),
    "DoldClass": (
        lambda: DoldClass({2: 1, 1: 2, 3: 0}),
        DoldClass({1: 2}),
        (((1, 2), (2, 1)), {1: 2, 2: 1}),
    ),
    "LefschetzSequence": (
        lambda: LefschetzSequence({2: 1, 1: 2}),
        LefschetzSequence({1: 2, 2: 0}),
        (((1, 2), (2, 1)), {1: 2, 2: 1}),
    ),
    "Partition": (
        lambda: Partition({2: 1, 1: 2, 3: 0}),
        Partition({2: 1, 1: 1}),
        (((1, 2), (2, 1)), {1: 2, 2: 1}),
    ),
    "ZetaFactorization": (
        lambda: ZetaFactorization([(1, 3, 2), (-1, 1, -1), (1, 2, 0)]),
        ZetaFactorization([(1, 3, 2)]),
        (((-1, 1, -1), (1, 3, 2)), [(-1, 1, -1), (1, 3, 2)]),
    ),
    "HomologyModel": (
        lambda: HomologyModel(SurfaceKind.PRESERVING, IntMatrix([[1, 2], [3, 4]]), 1),
        HomologyModel(SurfaceKind.REVERSING, IntMatrix([[1, 2], [3, 4]]), 1),
        ((SurfaceKind.PRESERVING, IntMatrix([[1, 2], [3, 4]]), 1),
         [SurfaceKind.PRESERVING, IntMatrix([[1, 2], [3, 4]]), 1]),
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_equal_values_compare_and_hash_equal(name):
    make, _, _ = VALUES[name]
    first, second = make(), make()
    assert type(first).__name__ == name and first is not second
    assert first == second and not first != second
    assert second == first and not second != first
    assert hash(first) == hash(second)


@pytest.mark.parametrize("name", VALUES)
def test_unequal_values_differ(name):
    make, other, _ = VALUES[name]
    value = make()
    assert value != other and not value == other
    assert other != value and not other == value


@pytest.mark.parametrize("name", VALUES)
def test_a_value_equals_no_plain_tuple_dict_or_list(name):
    make, _, plains = VALUES[name]
    value = make()
    for plain in plains:
        assert (value == plain, plain == value) == (False, False), plain
        assert (value != plain, plain != value) == (True, True), plain


@pytest.mark.parametrize("name", VALUES)
def test_a_value_equals_no_value_of_another_class(name):
    value = VALUES[name][0]()
    for other_name, (make, _, _) in VALUES.items():
        if other_name != name:
            other = make()
            assert (value == other, other == value) == (False, False), other_name
            assert (value != other, other != value) == (True, True), other_name


def test_strict_and_lax_models_are_equal():
    """A strict model keeps the form predicates it computed; they take no part in
    equality or hashing."""
    rows = [[1, 0], [0, 1]]
    strict = HomologyModel(SurfaceKind.PRESERVING, IntMatrix(rows), 1, strict=True)
    lax = HomologyModel(SurfaceKind.PRESERVING, IntMatrix(rows), 1)
    assert strict == lax and not strict != lax
    assert hash(strict) == hash(lax)
