import random

import pytest

from algperiods import (
    DoldClass,
    DoldViolation,
    LefschetzSequence,
    divisors,
    dold_coefficients,
    dold_congruence_check,
    moebius,
)
from algperiods.arith import _moebius_terms
from algperiods.exactmat import IntMatrix

from conftest import (
    lefschetz_from_dold,
    mat_mul,
    moebius_by_trial_factoring,
    random_matrix,
    reg,
    trace,
)


def moebius_oracle(n: int) -> int:
    # Independent characterization: sum of mu over divisors is [n == 1].
    if n == 1:
        return 1
    return -sum(moebius_oracle(d) for d in divisors(n)[:-1])


def test_moebius_examples():
    assert moebius(1) == 1
    assert moebius(6) == 1
    assert moebius(12) == 0


def test_moebius_against_oracle():
    for n in range(1, 200):
        assert moebius(n) == moebius_oracle(n)


def test_moebius_table_against_trial_factoring():
    """For every n <= 5,000, ``_moebius_terms(n)`` is the nonzero {k: mu(n/k)} over
    a sieve's divisors k of n, and ``moebius(n)`` is mu(n), with mu by trial factoring."""
    limit = 5_000
    mu = [0] + [moebius_by_trial_factoring(n) for n in range(1, limit + 1)]
    sieve = [[] for _ in range(limit + 1)]
    for k in range(1, limit + 1):
        for n in range(k, limit + 1, k):
            sieve[n].append(k)
    for n in range(1, limit + 1):
        assert _moebius_terms(n) == {k: mu[n // k] for k in sieve[n] if mu[n // k]}, n
        assert moebius(n) == mu[n], n


def test_moebius_divisor_sum_identity():
    assert sum(moebius(k) for k in divisors(1)) == 1
    for n in range(2, 300):
        assert sum(moebius(k) for k in divisors(n)) == 0


def test_moebius_rejects_nonpositive():
    with pytest.raises(ValueError):
        moebius(0)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]


def test_divisors_against_brute_force():
    """divisors(n) equals a sieve's divisor lists for every n <= 5,000, and the
    products of prime powers for every 2^a 3^b 5^c <= 10^7; 0 and -1 are refused."""
    limit = 5_000
    sieve = [[] for _ in range(limit + 1)]
    for d in range(1, limit + 1):
        for n in range(d, limit + 1, d):
            sieve[n].append(d)
    for n in range(1, limit + 1):
        assert divisors(n) == sieve[n], n
    powers = {p: [p**k for k in range(24) if p**k <= 10**7] for p in (2, 3, 5)}
    for a, x in enumerate(powers[2]):
        for b, y in enumerate(powers[3]):
            for c, z in enumerate(powers[5]):
                if x * y * z <= 10**7:
                    expected = sorted(2**i * 3**j * 5**k
                                      for i in range(a + 1) for j in range(b + 1) for k in range(c + 1))
                    assert divisors(x * y * z) == expected, (a, b, c)
    for n in (0, -1):
        with pytest.raises(ValueError):
            divisors(n)


def test_reg():
    assert reg(3, 6) == 3
    assert reg(3, 4) == 0
    assert all(reg(1, n) == 1 for n in range(1, 30))


def test_sequence_requires_divisor_closed_domain():
    with pytest.raises(ValueError):
        LefschetzSequence({2: 1})  # missing divisor 1
    with pytest.raises(ValueError):
        LefschetzSequence({})
    seq = LefschetzSequence({1: 5, 2: 3, 4: 1})
    assert seq.domain() == (1, 2, 4)


def test_dold_coefficients_examples():
    assert dold_coefficients(LefschetzSequence({1: 2, 2: 2})).as_dict() == {1: 2}
    assert dold_coefficients(LefschetzSequence({1: 0, 2: 2})).as_dict() == {2: 1}
    with pytest.raises(DoldViolation):
        dold_coefficients(LefschetzSequence({1: 0, 2: 1}))


def test_lefschetz_from_dold_examples():
    d = DoldClass({1: 2, 2: -2})
    assert lefschetz_from_dold(d, 1) == 2
    assert lefschetz_from_dold(d, 2) == -2
    assert lefschetz_from_dold(DoldClass(), 5) == 0


def test_dold_class_drops_zeros_and_defaults_to_zero():
    d = DoldClass({3: 0, 5: -1})
    assert d.support() == (5,)
    assert d[3] == 0 and d[5] == -1 and d[100] == 0


def test_round_trip_on_divisor_closed_domains():
    rng = random.Random(17)
    for _ in range(50):
        domain = set()
        for n in rng.sample(range(1, 30), k=4):
            domain.update(divisors(n))
        d = DoldClass({n: rng.randint(-5, 5) for n in domain})
        seq = LefschetzSequence({n: lefschetz_from_dold(d, n) for n in domain})
        back = dold_coefficients(seq)
        assert back == DoldClass({n: d[n] for n in domain})


def test_congruence_check_examples():
    assert dold_congruence_check(LefschetzSequence({1: 3, 2: 5}), 2)
    assert not dold_congruence_check(LefschetzSequence({1: 0, 2: 1}), 2)
    # An n outside the domain is refused, whether or not it is positive.
    for n in (3, 4, 0, -2):
        with pytest.raises(ValueError):
            dold_congruence_check(LefschetzSequence({1: 0, 2: 1}), n)


def test_congruence_holds_for_matrix_trace_powers():
    rng = random.Random(23)
    for _ in range(40):
        a = random_matrix(rng, rng.randint(1, 5))
        power = IntMatrix.identity(a.dim)
        traces = {}
        for k in range(1, 13):
            power = mat_mul(power, a)
            traces[k] = trace(power)
        seq = LefschetzSequence(traces)
        for n in range(1, 13):
            assert dold_congruence_check(seq, n)
        dold_coefficients(seq)  # must not raise
