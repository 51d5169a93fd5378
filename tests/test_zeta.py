import random

import pytest

from algperiods import (
    DoldClass,
    ZetaFactorization,
    canonicalize,
    format_factors,
    lefschetz_from_zeta,
    mper_from_factorization,
    parse_factors,
    series_expand,
    zeta_from_dold,
)

from conftest import lefschetz_from_dold, series_by_dense_product


def random_factorization(rng: random.Random, max_factors: int = 6) -> ZetaFactorization:
    factors = []
    for _ in range(rng.randint(1, max_factors)):
        m = 0
        while m == 0:
            m = rng.randint(-4, 4)
        factors.append((rng.choice([1, -1]), rng.randint(1, 8), m))
    return ZetaFactorization(factors)


def test_normalization_merges_and_drops():
    f = ZetaFactorization([(1, 2, 3), (1, 2, -3), (-1, 1, 2)])
    assert f.factors == (( -1, 1, 2),)
    assert ZetaFactorization([]).factors == ()
    with pytest.raises(ValueError):
        ZetaFactorization([(2, 1, 1)])
    with pytest.raises(ValueError):
        ZetaFactorization([(1, 0, 1)])


def test_zeta_from_dold_examples():
    assert zeta_from_dold(DoldClass({1: 2})).factors == ((-1, 1, -2),)
    assert zeta_from_dold(DoldClass()).factors == ()
    f = zeta_from_dold(DoldClass({1: 2, 2: -2}))
    assert f.factors == ((-1, 1, -2), (-1, 2, 2))


def test_series_examples():
    assert series_expand(ZetaFactorization([(-1, 1, -1)]), 4) == [1, 1, 1, 1, 1]
    assert series_expand(ZetaFactorization([(1, 1, 2)]), 3) == [1, 2, 1, 0]
    assert series_expand(ZetaFactorization([(-1, 2, -1), (-1, 1, -1)]), 4) == [1, 1, 2, 2, 3]
    assert series_expand(ZetaFactorization([]), 3) == [1, 0, 0, 0]


def test_series_matches_dense_product_oracle():
    # On a dense running series the route changes near |m| = n_max // r, which
    # the exponents straddle; 10^9 always takes the closed-form binomial
    # route, and r runs past n_max.
    rng = random.Random(97)
    for _ in range(400):
        n_max = rng.randint(1, 80)
        factors = []
        for _ in range(rng.randint(1, 3)):
            r = rng.randint(1, n_max + 2)
            edge = n_max // r
            size = rng.choice([max(edge - 1, 1), max(edge, 1), edge + 1, 10**9])
            factors.append((rng.choice([1, -1]), r, rng.choice([1, -1]) * size))
        f = ZetaFactorization(factors)
        assert series_expand(f, n_max) == series_by_dense_product(f, n_max), (f, n_max)


def test_series_constant_term_is_one():
    rng = random.Random(67)
    for _ in range(30):
        assert series_expand(random_factorization(rng), 12)[0] == 1


def test_lefschetz_from_zeta_examples():
    assert lefschetz_from_zeta(zeta_from_dold(DoldClass({1: 2})), 6) == [2] * 6
    got = lefschetz_from_zeta(zeta_from_dold(DoldClass({3: -2})), 9)
    assert got == [0, 0, -6, 0, 0, -6, 0, 0, -6]


def test_lefschetz_from_zeta_matches_dold_inverse():
    rng = random.Random(71)
    for _ in range(40):
        d = DoldClass({rng.randint(1, 9): rng.randint(-4, 4) for _ in range(rng.randint(1, 4))})
        f = zeta_from_dold(d)
        got = lefschetz_from_zeta(f, 30)
        assert got == [lefschetz_from_dold(d, n) for n in range(1, 31)]


def test_canonicalize_examples():
    assert canonicalize(ZetaFactorization([(1, 1, 1)])) == {1: -1, 2: 1}
    assert canonicalize(ZetaFactorization([(-1, 3, 2)])) == {3: 2}
    assert canonicalize(ZetaFactorization([(1, 2, 5)])) == {2: -5, 4: 5}


def test_canonicalize_is_idempotent_on_canonical_input():
    rng = random.Random(73)
    for _ in range(30):
        exponents = {}
        for _ in range(rng.randint(1, 5)):
            exponents[rng.randint(1, 9)] = rng.randint(-4, 4)
        exponents = {k: e for k, e in exponents.items() if e}
        canonical = ZetaFactorization([(-1, k, e) for k, e in exponents.items()])
        assert canonicalize(canonical) == exponents


def test_canonicalize_preserves_series():
    rng = random.Random(79)
    for _ in range(60):
        f = random_factorization(rng)
        e = canonicalize(f)
        g = ZetaFactorization([(-1, k, m) for k, m in e.items()])
        assert series_expand(f, 60) == series_expand(g, 60)


def test_canonicalize_matches_direct_exponent_rules():
    rng = random.Random(83)
    for _ in range(40):
        f = random_factorization(rng)
        c, d = {}, {}
        for delta, r, m in f.factors:
            (d if delta == 1 else c)[r] = (d if delta == 1 else c).get(r, 0) + m
        ks = set(c) | set(d) | {2 * k for k in d}
        expected = {}
        for k in ks:
            e = c.get(k, 0) + (d.get(k // 2, 0) if k % 2 == 0 else 0) - d.get(k, 0)
            if e:
                expected[k] = e
        assert canonicalize(f) == expected


def test_mper_examples():
    assert mper_from_factorization(ZetaFactorization([(1, 2, 5)])) == set()
    assert mper_from_factorization(ZetaFactorization([])) == set()
    f = ZetaFactorization([(-1, 3, -2), (-1, 1, 1)])
    assert mper_from_factorization(f) == {1, 3}


def test_mper_never_contains_even_numbers():
    rng = random.Random(89)
    for _ in range(60):
        assert all(k % 2 for k in mper_from_factorization(random_factorization(rng)))


def test_parse_factors():
    f = parse_factors("+,3,2;-,1,-1")
    assert f.factors == ((-1, 1, -1), (1, 3, 2))
    assert parse_factors("  + , 3 , 2 ;\n - , 1 , -1 ") == f
    merged = parse_factors("+,2,1;+,2,3")
    assert merged.factors == ((1, 2, 4),)
    assert parse_factors(format_factors(f)) == f
    for bad in ("", "x,1,1", "+,0,1", "+,1", "+,1,a", "+;1;1"):
        with pytest.raises(ValueError):
            parse_factors(bad)
