"""Fuzz the zeta and census commands through ``cli.main``.

Every input must end with exit 0 and a JSON report, or exit 1 with one
line on stderr; an exception escaping ``main`` fails the test.  Examples
are derandomized and the database is off, so runs repeat exactly.  Drawn
sizes stay where a run takes milliseconds; the caps themselves are
checked in ``test_cli.py::test_size_caps``.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from algperiods.cli import MAX_GENUS, MAX_SERIES, main

FUZZ = settings(max_examples=40, deadline=None, database=None, derandomize=True)

# The grammar's characters plus a letter, an accented letter and an
# Arabic-Indic digit, which int() accepts.
CHARS = st.text(alphabet="+-−,;. \t\n0123456789xé٣", max_size=30)
FACTOR_TERMS = st.builds(
    lambda sign, r, m, comma: comma.join([sign, r, m]),
    st.sampled_from(["+", "-", "−", "", "x", "++"]),
    st.one_of(st.integers(-2, 70).map(str), CHARS),
    st.one_of(st.integers(-10**12, 10**12).map(str), CHARS),
    st.sampled_from([",", " , ", ",,"]),
)
FACTOR_STRINGS = st.one_of(CHARS, st.lists(FACTOR_TERMS, max_size=4).map(";".join))


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_outcome(code: int, out: str, err: str) -> dict:
    assert code in (0, 1)
    if code == 1:
        assert out == "" and err.count("\n") == 1
        return {}
    return json.loads(out)


@FUZZ
@given(text=FACTOR_STRINGS, series=st.one_of(st.none(), st.integers(-3, 60)))
def test_fuzz_zeta_factor_strings(text, series):
    argv = ["zeta", f"--factors={text}", "--canonicalize", "--mper"]
    if series is not None:
        argv += ["--series", str(series)]
    report = check_outcome(*run(argv))
    if report and series is not None:
        assert len(report["series"]) == series + 1 and report["series"][0] == 1


@FUZZ
@example(series=MAX_SERIES, factors="+,1,-2;-,2,-2;+,3,1")
@given(
    series=st.one_of(st.integers(-3, 5000), st.integers(min_value=MAX_SERIES + 1)),
    factors=st.sampled_from(["+,1,-2;-,2,-2;+,3,1", "-,1,-2;-,2,-2;-,4,1", "+,2,1", "-,7,-2"]),
)
def test_fuzz_zeta_series_lengths(series, factors):
    report = check_outcome(*run(["zeta", f"--factors={factors}", "--series", str(series)]))
    assert bool(report) == (1 <= series <= MAX_SERIES)


@FUZZ
@given(
    genus=st.one_of(st.integers(-3, 5000), st.integers(min_value=MAX_GENUS + 1)),
    listing=st.booleans(),
    limit=st.one_of(st.none(), st.integers(-3, 60)),
)
def test_fuzz_census_values(genus, listing, limit):
    # Listing every partition of a genus in 21..41 is valid but takes seconds.
    assume(not (listing and limit is None and 20 < genus <= 41))
    argv = ["census", "--genus", str(genus)]
    if listing:
        argv.append("--list-partitions")
    if limit is not None:
        argv += ["--limit", str(limit)]
    report = check_outcome(*run(argv))
    if report:
        assert report["genus"] == genus
