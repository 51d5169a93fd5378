"""An exhaustive oracle at small genus that shares no formula with the library.

For each kind and each genus up to ``MAX_GENUS``, every multiset of
cyclotomic orders {d: m_d} with sum phi(d) * m_d equal to the dimension of
the homology action (2g for the orientable kinds, g - 1 for the
non-orientable kind) is a candidate characteristic polynomial
prod Phi_d^{m_d}.  The candidates are kept when they meet the necessary
constraint of the kind's form:

* preserving (symplectic): the orders 1 and 2 have even multiplicity;
* reversing (antisymplectic): chi(x) = (-1)^g x^{2g} chi(-1/x), checked on
  the coefficients of the product polynomial as c_i = (-1)^(g+i) c_(2g-i);
  it swaps the orders d and 2d for odd d, so m_d = m_{2d} as well, which
  binds an odd d that is reached only through its even order 2d;
* non-orientable: none.

Given m_d = m_{2d} for every odd d, the identity comes to m_4 even.  Write
p*(x) = x^deg(p) p(-1/x), which is multiplicative.  Phi_d is palindromic for
d >= 2, and Phi_d(-x) is Phi_{2d}(x) for odd d >= 3 and Phi_d(x) for 4 | d;
so Phi_d* = Phi_{2d} and Phi_{2d}* = Phi_d for odd d >= 3, Phi_d* = Phi_d for
4 | d, and Phi_1* = -Phi_2, Phi_2* = Phi_1.  Hence chi* = (-1)^(m_1) chi, and
the identity asks m_1 = g mod 2.  Since phi(2d) = phi(d) for odd d,
g = sum_{d odd} phi(d) m_d + sum_{4 | d} (phi(d) / 2) m_d; phi(d) is even for
odd d >= 3, and phi(d) / 2 is odd for no multiple d of 4 but 4, so
g = m_1 + m_4 mod 2.  A test checks this equivalence on every multiset
through ``MAX_GENUS``.

Each kept multiset's product polynomial is multiplied out by the schoolbook
oracle of ``conftest``, not by the library's product.  Its Dold class comes
from the Newton power sums of that polynomial (``conftest.lefschetz_by_newton``)
and ``dold_coefficients``, not from the closed form that ``analyze`` uses.  The
classes found are the reachable ones at that genus; realizations, census
classes and the odd-period obstruction are checked against them.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

import pytest

from algperiods import (
    LefschetzSequence,
    Mode,
    SurfaceKind,
    cyclotomic,
    divisors,
    dold_coefficients,
    enumerate_partitions,
    partition_to_dold_nonorientable,
    partition_to_dold_orientable,
    realize_target,
)

from conftest import lefschetz_by_newton, poly_product_by_schoolbook

MAX_GENUS = 7


def totient(d: int) -> int:
    return sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)


def multisets(dim: int):
    """Every {d: m_d} with sum phi(d) * m_d == dim; phi(d) >= sqrt(d / 2)
    bounds the orders by 2 * dim^2."""
    orders = [(d, totient(d)) for d in range(1, 2 * dim * dim + 2)]
    orders = [(d, phi) for d, phi in orders if phi <= dim]

    def walk(i, left):
        if left == 0:
            yield {}
            return
        for j in range(i, len(orders)):
            d, phi = orders[j]
            for m in range(1, left // phi + 1):
                for rest in walk(j + 1, left - m * phi):
                    yield {d: m, **rest}

    return walk(0, dim)


def product_polynomial(m: dict):
    """prod Phi_d^(m_d), multiplied out by the schoolbook oracle."""
    return poly_product_by_schoolbook(cyclotomic(d) for d, k in m.items() for _ in range(k))


def swaps_odd_orders(m: dict) -> bool:
    """m_d == m_{2d} for every odd d."""
    odd = {d for d in m if d % 2} | {d // 2 for d in m if d % 4 == 2}
    return all(m.get(d, 0) == m.get(2 * d, 0) for d in odd)


def antisymplectic_identity(m: dict) -> bool:
    """c_i == (-1)^(g+i) c_(2g-i) on the coefficients of the product polynomial."""
    c = product_polynomial(m).coeffs
    n = len(c) - 1
    return all(c[i] == (-1) ** (n // 2 + i) * c[n - i] for i in range(n + 1))


def meets_form(kind: SurfaceKind, m: dict) -> bool:
    if kind is SurfaceKind.PRESERVING:
        return m.get(1, 0) % 2 == 0 and m.get(2, 0) % 2 == 0
    if kind is SurfaceKind.REVERSING:
        return swaps_odd_orders(m) and antisymplectic_identity(m)
    return True


def dold_class(kind: SurfaceKind, m: dict):
    cp = product_polynomial(m)
    candidates = {1, 2}.union(*(divisors(d) for d in m))
    window = lefschetz_by_newton(kind, cp, max(candidates))
    return dold_coefficients(LefschetzSequence({l: window[l - 1] for l in candidates}))


@pytest.fixture(scope="module")
def reachable():
    """{kind: {genus: set of Dold classes}} for every genus up to MAX_GENUS,
    from 0 (the sphere) for the orientable kinds and from 1 (the projective
    plane) for the non-orientable kind."""
    nonorientable = SurfaceKind.NONORIENTABLE
    return {
        kind: {
            g: {
                dold_class(kind, m)
                for m in multisets(g - 1 if kind is nonorientable else 2 * g)
                if meets_form(kind, m)
            }
            for g in range(kind is nonorientable, MAX_GENUS + 1)
        }
        for kind in SurfaceKind
    }


def test_multisets_are_counted_by_degree():
    """The walk's counts are the coefficients of prod_d 1 / (1 - x^phi(d))."""
    n_max = 10
    counts = [1] + [0] * n_max
    for phi in map(totient, range(1, 2 * n_max * n_max + 2)):
        for n in range(phi, n_max + 1):
            counts[n] += counts[n - phi]
    assert [sum(1 for _ in multisets(n)) for n in range(n_max + 1)] == counts
    assert counts[:6] == [1, 2, 6, 10, 24, 38]
    assert meets_form(SurfaceKind.REVERSING, {6: 1}) is False
    assert meets_form(SurfaceKind.REVERSING, {3: 1, 6: 1}) is True
    assert meets_form(SurfaceKind.REVERSING, {4: 1}) is False
    assert meets_form(SurfaceKind.REVERSING, {4: 2}) is True
    assert meets_form(SurfaceKind.REVERSING, {1: 1, 2: 1}) is True
    assert meets_form(SurfaceKind.PRESERVING, {1: 1, 2: 1}) is False


def test_reversing_identity_is_m4_even_given_the_swap():
    """Among the multisets with m_d == m_{2d} for odd d, the antisymplectic identity
    holds exactly when m_4 is even (the argument is in the module docstring).
    The swap alone keeps 1, 1, 5, 5, 19, 19 and 59 multisets at genus 1 to 7 that
    break the identity, the ones that the form constraint missed before it
    checked the identity."""
    broken = []
    for g in range(1, MAX_GENUS + 1):
        swapped = [m for m in multisets(2 * g) if swaps_odd_orders(m)]
        assert [antisymplectic_identity(m) for m in swapped] == [
            m.get(4, 0) % 2 == 0 for m in swapped], g
        broken.append(sum(1 for m in swapped if m.get(4, 0) % 2))
    assert broken == [1, 1, 5, 5, 19, 19, 59]


def test_every_small_realization_is_reachable(reachable):
    targets = [
        set(a)
        for size in range(1, 5)
        for a in combinations(range(1, 11), size)
        if sum(a) <= 10
    ]
    checked = 0
    for kind in SurfaceKind:
        modes = list(Mode) if kind is SurfaceKind.REVERSING else [None]
        for a in targets:
            if kind is SurfaceKind.REVERSING and any(n % 2 for n in a):
                continue
            for mode in modes:
                sm = realize_target(a, kind, mode=mode)
                if sm.genus <= MAX_GENUS:
                    assert sm.achieved in reachable[kind][sm.genus], (kind, a, mode)
                    checked += 1
    assert checked >= 30


def test_every_small_census_class_is_reachable(reachable):
    for g in range(1, MAX_GENUS + 1):
        for p in enumerate_partitions(g):
            assert partition_to_dold_orientable(p) in reachable[SurfaceKind.PRESERVING][g], p
            assert partition_to_dold_nonorientable(p) in reachable[SurfaceKind.NONORIENTABLE][g], p


def test_no_reversing_class_has_an_odd_period(reachable):
    classes = set().union(*reachable[SurfaceKind.REVERSING].values())
    assert classes
    assert [d for d in classes if any(n % 2 for n in d.support())] == []
