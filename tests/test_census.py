import importlib
import math
import random
import subprocess
import sys
import threading
import time
from itertools import islice

import pytest

from algperiods import (
    DoldClass,
    Partition,
    algebraic_periods,
    census,
    enumerate_partitions,
    hardy_ramanujan_estimate,
    partition_count,
    partition_to_dold_nonorientable,
    partition_to_dold_orientable,
)
from algperiods.cli import main

from conftest import (
    partition_counts_by_dp,
    partitions_by_recursion,
    preserving_model_from_multiplicities,
)

# the package exports the function census under the module's name
census_module = importlib.import_module("algperiods.census")


def test_partition_type():
    p = Partition({3: 1, 1: 2})
    assert p.number == 5
    assert p.as_list() == [3, 1, 1]
    assert p.multiplicity(1) == 2 and p.multiplicity(7) == 0
    assert Partition.from_parts([1, 3, 1]) == p
    with pytest.raises(ValueError):
        Partition({0: 1})


def test_partition_count_values():
    assert partition_count(0) == 1
    assert partition_count(5) == 7
    assert partition_count(10) == 42
    assert partition_count(100) == 190569292
    assert partition_count(1000) == 24061467864032622473692149727991
    assert [partition_count(n) for n in range(601)] == partition_counts_by_dp(600)
    with pytest.raises(ValueError):
        partition_count(-1)


def test_partition_count_resumes_from_any_prefix(monkeypatch):
    """The process-wide table resumes from a fresh [1] and from correct prefixes
    of random length, with counts asked ascending, descending and in random
    order; each value and the table afterwards are the oracle's, and a count
    below the table's length appends nothing."""
    oracle = partition_counts_by_dp(600)
    rng = random.Random(23)
    starts = [1] + [rng.randint(2, 600) for _ in range(12)]
    for start in starts:
        asks = rng.sample(range(601), 40)
        for order in (sorted(asks), sorted(asks, reverse=True), asks):
            table = oracle[:start]
            monkeypatch.setattr(census_module, "_WAYS", table)
            for n in order:
                before = len(table)
                assert partition_count(n) == oracle[n], (start, n)
                assert len(table) == max(before, n + 1), (start, n)
            assert census_module._WAYS is table and table == oracle[:len(table)], start


def test_fresh_process_starts_with_one_count():
    script = ("import importlib, algperiods, algperiods.cli\n"
              "print(importlib.import_module('algperiods.census')._WAYS)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[1]"


def test_partition_table_grows_safely_across_threads(monkeypatch):
    # Threads that extend a fresh table at the same time, to different n and in
    # both orders, must all get the oracle's counts and leave its prefix.
    oracle = partition_counts_by_dp(900)
    sizes = (200, 340, 480, 620, 760, 900)
    interval = sys.getswitchinterval()
    for _ in range(5):
        table = [1]
        monkeypatch.setattr(census_module, "_WAYS", table)
        results, errors = [], []

        def work(order):
            try:
                results.extend((n, partition_count(n)) for n in order)
            except Exception as exc:  # recorded and asserted below
                errors.append(exc)

        orders = [sizes[t:] + sizes[:t] for t in range(6)]
        threads = [threading.Thread(target=work, args=(o if t % 2 else o[::-1],))
                   for t, o in enumerate(orders)]
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
        assert sorted(results) == sorted((n, oracle[n]) for n in sizes for _ in threads)
        assert table == oracle


def test_refusals_count_nothing(monkeypatch, capsys):
    """A census refused in the library or at the CLI's genus cap adds no entry."""
    table = [1, 1, 2]
    monkeypatch.setattr(census_module, "_WAYS", table)
    with pytest.raises(ValueError, match="float range"):
        census(76_568)
    assert main(["census", "--genus", "50001"]) == 1
    assert "above the cap" in capsys.readouterr().err
    assert table == [1, 1, 2]


def test_count_matches_enumeration():
    for n in range(1, 41):
        count = sum(1 for _ in enumerate_partitions(n))
        assert count == partition_count(n)
    for n in range(1, 13):
        seen = list(enumerate_partitions(n))
        assert len(set(seen)) == len(seen)
        assert all(p.number == n for p in seen)


def test_enumeration_order():
    assert [p.as_list() for p in enumerate_partitions(3)] == [[3], [2, 1], [1, 1, 1]]
    assert [p.as_list() for p in enumerate_partitions(1)] == [[1]]
    listing = [p.as_list() for p in enumerate_partitions(6)]
    assert listing[0] == [6] and listing[-1] == [1] * 6
    assert listing == sorted(listing, reverse=True)


def test_enumeration_matches_recursive_oracle():
    for n in range(1, 26):
        got = list(enumerate_partitions(n))
        expected = partitions_by_recursion(n)
        assert [p.as_list() for p in got] == [p.as_list() for p in expected], n
        assert [(p.parts(), hash(p)) for p in got] == [(p.parts(), hash(p)) for p in expected], n


def test_census_refuses_beyond_float_range(monkeypatch):
    assert math.isfinite(hardy_ramanujan_estimate(76_567))
    with pytest.raises(ValueError, match="float range"):
        hardy_ramanujan_estimate(76_568)

    def never(n):
        raise AssertionError(f"P({n}) was counted before the refusal")

    # the package exports the function census under the module's name
    monkeypatch.setattr(importlib.import_module("algperiods.census"), "partition_count", never)
    start = time.perf_counter()
    for genus in (76_568, 10**6):
        with pytest.raises(ValueError, match="float range"):
            census(genus)
    assert time.perf_counter() - start < 1.0


def test_hardy_ramanujan():
    assert hardy_ramanujan_estimate(1) > 0
    ratio = hardy_ramanujan_estimate(100) / partition_count(100)
    assert 0.9 <= ratio <= 1.1
    values = [hardy_ramanujan_estimate(n) for n in range(1, 501)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_correspondence_examples():
    assert partition_to_dold_orientable(Partition({3: 1})).as_dict() == {1: 2, 3: -2}
    assert partition_to_dold_orientable(Partition({1: 3})).as_dict() == {1: -4}
    assert partition_to_dold_nonorientable(Partition({3: 1})).as_dict() == {1: 2, 3: -1}
    assert not partition_to_dold_nonorientable(Partition({1: 2}))


def test_correspondences_match_validating_constructor():
    """Each correspondence equals the DoldClass built from its formula, with its
    support in the same ascending order, which dict equality alone does not see
    but support(), hashing and the certificates do."""
    for n in range(1, 16):
        for p in enumerate_partitions(n):
            parts = p.parts()
            for to_dold, scale in (
                (partition_to_dold_orientable, -2),
                (partition_to_dold_nonorientable, -1),
            ):
                coeffs = {k: scale * m for k, m in parts.items() if k != 1}
                coeffs[1] = 2 + scale * p.multiplicity(1)
                got, expected = to_dold(p), DoldClass(coeffs)
                assert got == expected and hash(got) == hash(expected), (p, scale)
                assert got.support() == expected.support() == tuple(sorted(got.support()))
                assert 0 not in got.as_dict().values()


def test_correspondence_euler_identities():
    for g in range(1, 13):
        for p in enumerate_partitions(g):
            orient = partition_to_dold_orientable(p)
            assert sum(n * a for n, a in orient.items()) == 2 - 2 * g
            non = partition_to_dold_nonorientable(p)
            assert sum(n * a for n, a in non.items()) == 2 - g


def test_correspondences_injective():
    for g in range(1, 13):
        for to_dold in (partition_to_dold_orientable, partition_to_dold_nonorientable):
            classes = [to_dold(p) for p in enumerate_partitions(g)]
            assert len(set(classes)) == len(classes), (g, to_dold.__name__)


def test_correspondence_agrees_with_realized_models():
    for g in range(1, 9):
        for p in enumerate_partitions(g):
            model = preserving_model_from_multiplicities(p.parts())
            assert model.genus == g
            assert algebraic_periods(model) == partition_to_dold_orientable(p)


def test_census_reports():
    rep = census(5)
    assert rep.exact_count == 7
    assert rep.exact_count >= 1
    assert "lower bound" in rep.statement

    rep = census(100)
    assert rep.exact_count == 190569292
    assert 0.9 <= rep.ratio <= 1.1

    classes = [partition_to_dold_orientable(p).as_dict() for p in enumerate_partitions(2)]
    assert classes == [{1: 2, 2: -2}, {1: -2}]
    first = [partition_to_dold_nonorientable(p) for p in islice(enumerate_partitions(6), 3)]
    assert [d.as_dict() for d in first] == [{1: 2, 6: -1}, {1: 1, 5: -1}, {1: 2, 4: -1, 2: -1}]

    with pytest.raises(ValueError):
        census(0)
