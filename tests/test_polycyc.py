import random

import pytest

from algperiods import (
    IntPolynomial,
    NonMonicInput,
    NotQuasiUnipotent,
    cyclotomic,
    cyclotomic_factorization,
    moebius,
    poly_divmod,
    trace_sequence_from_charpoly,
    x_pow_minus_one,
)

from algperiods.polycyc import _totient

from conftest import cyclotomic_by_division, cyclotomic_root_sum, reg, totient_by_gcd_count

X = IntPolynomial([0, 1])
ONE = IntPolynomial([1])


def test_normalization_strips_trailing_zeros():
    assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPolynomial([0, 0]).degree == -1
    assert IntPolynomial().is_zero()


def test_ring_ops():
    assert IntPolynomial([-1, 1]) * IntPolynomial([1, 1]) == IntPolynomial([-1, 0, 1])
    assert X + X == IntPolynomial([0, 2])
    assert (X - X).is_zero()
    assert X ** 3 == IntPolynomial([0, 0, 0, 1])
    assert str(IntPolynomial([1, -1, 1])) == "x^2 - x + 1"


def test_divmod_examples():
    q, r = poly_divmod(IntPolynomial([-1, 0, 1]), IntPolynomial([-1, 1]))
    assert q == IntPolynomial([1, 1]) and r.is_zero()
    q, r = poly_divmod(IntPolynomial([-1, 0, 1]), IntPolynomial([1, 0, 1]))
    assert q == ONE and r == IntPolynomial([-2])


def test_divmod_errors():
    with pytest.raises(ZeroDivisionError):
        poly_divmod(X, IntPolynomial())
    with pytest.raises(NonMonicInput):
        poly_divmod(IntPolynomial([0, 0, 1]), IntPolynomial([0, 2]))  # x^2 / 2x
    # A divisor with leading coefficient other than +-1 is refused even when
    # the quotient would be integral.
    with pytest.raises(NonMonicInput):
        poly_divmod(IntPolynomial([-2, 0, 2]), IntPolynomial([-2, 2]))
    # Leading coefficient -1 stays in the integers.
    q, r = poly_divmod(IntPolynomial([-1, 0, 1]), IntPolynomial([1, -1]))
    assert q == IntPolynomial([-1, -1]) and r.is_zero()


def test_divmod_random_reconstruction():
    rng = random.Random(5)
    for _ in range(60):
        p = IntPolynomial([rng.randint(-4, 4) for _ in range(rng.randint(1, 7))])
        q = IntPolynomial([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))] + [1])
        quo, rem = poly_divmod(p, q)
        assert quo * q + rem == p
        assert rem.degree < q.degree


def test_cyclotomic_small_table():
    assert cyclotomic(1) == IntPolynomial([-1, 1])
    assert cyclotomic(2) == IntPolynomial([1, 1])
    assert cyclotomic(6) == IntPolynomial([1, -1, 1])
    assert cyclotomic(12) == IntPolynomial([1, 0, -1, 0, 1])


def test_cyclotomic_matches_division_oracle():
    """Phi_d as a quotient of two binomial products equals x^d - 1 divided by every
    lower-order cyclotomic, for every d <= 600."""
    for d in range(1, 601):
        assert cyclotomic(d) == cyclotomic_by_division(d), d


def test_totient_against_gcd_count():
    for n in range(1, 1001):
        assert _totient(n) == totient_by_gcd_count(n), n


def test_totient_square_bound():
    """phi(d)^2 >= d for every d <= 10^5 but 2 and 6, which bounds the orders that
    ``cyclotomic_factorization`` tries by max(6, R^2); phi here comes from a sieve."""
    limit = 10**5
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p is prime: no smaller prime has touched it
            for n in range(p, limit + 1, p):
                phi[n] -= phi[n] // p
    assert [d for d in range(1, limit + 1) if phi[d] ** 2 < d] == [2, 6]


def test_cyclotomic_product_identity():
    from algperiods import divisors

    for n in range(1, 201):
        product = ONE
        for d in divisors(n):
            product = product * cyclotomic(d)
        assert product == x_pow_minus_one(n), n


def test_cyclotomic_root_sum_is_moebius():
    for m in range(1, 501):
        assert cyclotomic_root_sum(m) == moebius(m), m


def test_factorization_examples():
    assert cyclotomic_factorization(x_pow_minus_one(2) ** 2) == {1: 2, 2: 2}
    assert cyclotomic_factorization(x_pow_minus_one(3)) == {1: 1, 3: 1}
    assert cyclotomic_factorization(ONE) == {}
    # Phi_6 left as a degree-2 residual: 6 lies above R^2 = 4, and phi(6)^2 < 6.
    assert cyclotomic_factorization(cyclotomic(6)) == {6: 1}
    assert cyclotomic_factorization(cyclotomic(3) * cyclotomic(6)) == {3: 1, 6: 1}
    with pytest.raises(NotQuasiUnipotent) as exc:
        cyclotomic_factorization(IntPolynomial([1, -3, 1]))
    assert exc.value.residual == IntPolynomial([1, -3, 1])
    with pytest.raises(NonMonicInput):
        cyclotomic_factorization(IntPolynomial([2, 0, 2]))


def test_factorization_round_trip_random_products():
    rng = random.Random(11)
    for _ in range(40):
        mults = {}
        for _ in range(rng.randint(1, 4)):
            d = rng.randint(1, 12)
            mults[d] = mults.get(d, 0) + rng.randint(1, 2)
        p = ONE
        for d, m in mults.items():
            p = p * cyclotomic(d) ** m
        assert cyclotomic_factorization(p) == mults


def test_factorization_of_binomials_multiplies_back():
    """x^k - 1 and x^k + 1 for every k <= 400: the product of the factors, each to
    its multiplicity, is the binomial again; cyclotomic factorization is unique, so
    this pins the result.  x^k - 2 and x^k + 2 (irreducible by Eisenstein's
    criterion) are refused with themselves as the residual."""
    for k in range(1, 401):
        for constant in (-1, 1):
            binomial = IntPolynomial([constant] + [0] * (k - 1) + [1])
            mults = cyclotomic_factorization(binomial)
            assert list(mults) == sorted(mults), binomial
            product = ONE
            for d, m in mults.items():
                product = product * cyclotomic(d) ** m
            assert product == binomial, binomial
    for k in range(1, 9):
        for constant in (-2, 2):
            binomial = IntPolynomial([constant] + [0] * (k - 1) + [1])
            with pytest.raises(NotQuasiUnipotent) as exc:
                cyclotomic_factorization(binomial)
            assert exc.value.residual == binomial


def test_factorization_agrees_with_root_modulus_oracle():
    numpy = pytest.importorskip("numpy")
    rng = random.Random(29)
    for _ in range(120):
        if rng.random() < 0.5:
            p = ONE
            for _ in range(rng.randint(1, 3)):
                p = p * cyclotomic(rng.randint(1, 8))
        else:
            p = IntPolynomial([rng.randint(-3, 3) for _ in range(rng.randint(1, 6))] + [1])
        roots = numpy.roots(list(reversed(p.coeffs))) if p.degree > 0 else []
        deviation = max((abs(abs(r) - 1.0) for r in roots), default=0.0)
        try:
            cyclotomic_factorization(p)
            unit_roots = True
        except NotQuasiUnipotent:
            unit_roots = False
        if unit_roots:
            assert deviation < 1e-6, (p, deviation)
        else:
            # Integer polynomials that are not cyclotomic products have a
            # root well off the unit circle (Kronecker), so the numeric
            # oracle separates the two cases cleanly.
            assert deviation > 1e-3, (p, deviation)


def test_trace_sequence_examples():
    assert trace_sequence_from_charpoly(x_pow_minus_one(3), 6) == [0, 0, 3, 0, 0, 3]
    assert trace_sequence_from_charpoly(IntPolynomial([-1, 1]), 4) == [1, 1, 1, 1]
    assert trace_sequence_from_charpoly(x_pow_minus_one(2) ** 2, 4) == [0, 4, 0, 4]
    with pytest.raises(NonMonicInput):
        trace_sequence_from_charpoly(IntPolynomial([1, 2]), 3)


def test_trace_sequence_of_cycle_products_matches_reg():
    rng = random.Random(41)
    for _ in range(20):
        ns = [rng.randint(1, 9) for _ in range(rng.randint(1, 3))]
        p = ONE
        for n in ns:
            p = p * x_pow_minus_one(n)
        got = trace_sequence_from_charpoly(p, 24)
        expected = [sum(reg(n, l) for n in ns) for l in range(1, 25)]
        assert got == expected
