"""Fuzz every command through ``cli.main``.

Every zeta, census and certify --dold input must end with exit 0 and a
JSON report, or exit 1 with one line on stderr; realize may also end with
exit 2 (one line on stderr) or exit 3 (the report, then one line on
stderr).  Matrix files for analyze and certify --matrix end with exit 0 or
4 and a report (certify: 4 with one line instead), or exit 1 or 5 with
one line on stderr.  An exception escaping ``main`` fails the test.  Examples
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

from algperiods.cli import MAX_GENUS, MAX_SERIES, MAX_SET_SUM, main

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
# partitions whose Dold class is empty: [1] orientable, [1, 1] non-orientable
@example(genus=1, listing=True, limit=None, correspondence="orientable")
@example(genus=2, listing=True, limit=None, correspondence="nonorientable")
@example(genus=5, listing=True, limit=0, correspondence="orientable")
@given(
    genus=st.one_of(st.integers(-3, 5000), st.integers(min_value=MAX_GENUS + 1)),
    listing=st.booleans(),
    limit=st.one_of(st.none(), st.integers(-3, 60)),
    correspondence=st.sampled_from(["orientable", "nonorientable"]),
)
def test_fuzz_census_values(genus, listing, limit, correspondence):
    # Listing every partition of a genus in 21..41 is valid but takes seconds.
    assume(not (listing and limit is None and 20 < genus <= 41))
    argv = ["census", "--genus", str(genus), "--correspondence", correspondence]
    if listing:
        argv.append("--list-partitions")
    if limit is not None:
        argv += ["--limit", str(limit)]
    code, out, err = run(argv)
    report = check_outcome(code, out, err)
    if report:
        assert report["genus"] == genus
        # byte for byte what the standard encoder writes for the same report
        assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"


# Set elements: small labels (0 and negatives included), labels that alone
# pass the set-sum cap, and junk text.  Small labels keep a reversing
# matrix below dim 300, so each run takes milliseconds; the labels above
# the cap stay small enough that a missing cap would fail, not exhaust memory.
SET_ITEMS = st.one_of(
    st.integers(-3, 24).map(str),
    st.one_of(st.integers(MAX_SET_SUM + 1, 3 * MAX_SET_SUM), st.just(10**30)).map(str),
    CHARS,
)
SET_TEXTS = st.one_of(
    st.lists(st.integers(1, 24), min_size=1, max_size=4).map(lambda a: ",".join(map(str, a))),
    st.lists(st.integers(1, 12), min_size=1, max_size=4).map(
        lambda a: ",".join(str(2 * n) for n in a)
    ),
    st.lists(SET_ITEMS, max_size=4).map(",".join),
    CHARS,
)


def realize_fields(out: str, fmt: str) -> dict:
    """target, achieved and flags of a realize report, as lists of strings."""
    if fmt == "json":
        report = json.loads(out)
        return {key: list(map(str, report[key])) for key in ("target", "achieved", "flags")}
    top = dict(line.split(": ", 1) for line in out.splitlines() if line[:1] != " " and ": " in line)
    return {key: top[key].strip("[]").split() for key in ("target", "achieved", "flags")}


@FUZZ
@example(text="4", kind="reversing", mode="faithful", fmt="text", strict=True)
@example(text="3,3,2,2", kind="reversing", mode="corrected", fmt="json", strict=False)
@example(text=f"{MAX_SET_SUM // 2},{MAX_SET_SUM // 2},1", kind="nonorientable",
         mode="corrected", fmt="json", strict=True)
@given(
    text=SET_TEXTS,
    kind=st.sampled_from(["preserving", "reversing", "nonorientable"]),
    mode=st.sampled_from(["faithful", "corrected"]),
    fmt=st.sampled_from(["json", "text"]),
    strict=st.booleans(),
)
def test_fuzz_realize_sets(text, kind, mode, fmt, strict):
    argv = ["realize", f"--set={text}", "--kind", kind, "--mode", mode, "--format", fmt]
    code, out, err = run(argv + ["--strict"] * strict)
    assert code in (0, 1, 2, 3)
    if code in (1, 2):
        assert out == "" and err.count("\n") == 1
        return
    fields = realize_fields(out, fmt)
    assert fields["target"] == [str(n) for n in sorted({int(p) for p in text.split(",") if p})]
    if fields["flags"]:
        assert kind == "reversing" and mode == "faithful"
    else:
        assert fields["achieved"] == fields["target"]
    if code == 3:
        assert strict and fields["flags"] and err.count("\n") == 1
    else:
        assert err == "" and not (strict and fields["flags"])


DOLD_TEXTS = st.one_of(
    st.text(alphabet='{}[]":,.-+ 0123456789eéx٣\x00', max_size=30),
    st.dictionaries(
        st.integers(1, 60).map(str), st.integers(-10**30, 10**30), max_size=5
    ).map(json.dumps),
    st.dictionaries(
        st.one_of(st.integers(-3, 60).map(str), CHARS),
        st.one_of(st.integers(-10**30, 10**30), CHARS, st.booleans(), st.none()),
        max_size=5,
    ).map(json.dumps),
)


@FUZZ
@example(text='{"0": 1}')
@example(text='{"3": -2, "03": 0, "4": 1}')
@given(text=DOLD_TEXTS)
def test_fuzz_certify_dold(text):
    report = check_outcome(*run(["certify", f"--dold={text}"]))
    if report:
        periods = [c["period"] for c in report["certificates"]]
        assert periods == sorted(map(int, report["dold"])) == sorted(set(periods))
        assert 0 not in report["dold"].values()


# Matrix files: junk text, objects with a wrong, boolean, string or missing dim,
# ragged rows and non-integer entries, and block sums of quasi-unipotent and
# Anosov-type blocks under a permutation similarity, some entries as strings.
BLOCKS = [
    [[0, 1], [1, 0]],
    [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
    [[0, -1], [1, -1]],
    [[1]],
    [[-1]],
    [[2, 1], [1, 1]],
    [[3, 1], [-1, 0]],
    [[1, 1], [0, 1]],
]
ENTRIES = st.one_of(
    st.integers(-3, 3), st.integers(-3, 3).map(str), st.booleans(), st.none(),
    st.floats(-2, 2), st.just([1]), st.just("1e3"), st.just(" 2 "),
)


@st.composite
def block_sums(draw):
    blocks = draw(st.lists(st.sampled_from(BLOCKS), min_size=1, max_size=5))
    n = sum(map(len, blocks))
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[offset + i][offset : offset + len(b)] = row
        offset += len(b)
    perm = draw(st.permutations(range(n)))
    rows = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        rows = [[str(x) for x in row] for row in rows]
    return {"dim": n, "rows": rows}


@st.composite
def malformed_matrices(draw):
    n = draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=max(n - 1, 0), max_size=n + 1),
                         min_size=max(n - 1, 0), max_size=n + 1))
    dim = draw(st.one_of(st.just(n), st.just(len(rows)), st.just(str(n)), st.booleans(),
                         st.integers(-2, 6), st.none(), st.just(f"{n}.0")))
    data = {"dim": dim, "rows": rows}
    for key in draw(st.lists(st.sampled_from(["dim", "rows"]), max_size=1)):
        del data[key]
    return data


MATRIX_TEXTS = st.one_of(
    block_sums().map(json.dumps),
    malformed_matrices().map(json.dumps),
    st.text(alphabet='{}[]":,.-+ 0123456789eédimrows', max_size=40),
    st.lists(st.integers(), max_size=3).map(json.dumps),
)


def matrix_argv(command, text, kind, genus_shift, strict, tmp_dir):
    path = tmp_dir / "matrix.json"
    path.write_text(text)
    try:
        dim = json.loads(text)["dim"]
        dim = int(dim) if isinstance(dim, (int, str)) and not isinstance(dim, bool) else 0
    except (ValueError, TypeError, KeyError):
        dim = 0
    genus = (dim + 1 if kind == "nonorientable" else dim // 2) + genus_shift
    argv = [command, "--matrix", str(path), "--kind", kind, "--genus", str(genus)]
    return argv + ["--no-strict"] * (not strict)


# A run takes milliseconds, and more examples reach every exit code.
MATRIX_FUZZ = settings(FUZZ, max_examples=100)
MATRIX_ARGS = dict(
    text=MATRIX_TEXTS,
    kind=st.sampled_from(["preserving", "reversing", "nonorientable"]),
    genus_shift=st.sampled_from([0, 0, 0, 1, -1]),
    strict=st.booleans(),
)


@MATRIX_FUZZ
@example(text=json.dumps({"dim": 4, "rows": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1],
                                              [0, 0, 1, 0]]}),
         kind="preserving", genus_shift=0, strict=True)
@example(text=json.dumps({"dim": 4, "rows": [[2, 0, 1, 0], [0, 0, 0, 1], [1, 0, 1, 0],
                                              [0, 1, 0, 0]]}),
         kind="preserving", genus_shift=0, strict=False)
@given(**MATRIX_ARGS)
def test_fuzz_analyze_matrix(tmp_path_factory, text, kind, genus_shift, strict):
    argv = matrix_argv("analyze", text, kind, genus_shift, strict, tmp_path_factory.getbasetemp())
    code, out, err = run(argv + ["--max-iter", "8"])
    assert code in (0, 1, 4, 5)
    if code in (1, 5):
        assert out == "" and err.count("\n") == 1
        return
    report = json.loads(out)
    assert err == "" and report["quasi_unipotent"] == (code == 0)
    assert len(report["charpoly"]) == report["matrix"]["dim"] + 1 and len(report["lefschetz"]) == 8


@MATRIX_FUZZ
@given(**MATRIX_ARGS)
def test_fuzz_certify_matrix(tmp_path_factory, text, kind, genus_shift, strict):
    argv = matrix_argv("certify", text, kind, genus_shift, strict, tmp_path_factory.getbasetemp())
    code, out, err = run(argv)
    assert code in (0, 1, 4, 5)
    if code:
        assert out == "" and err.count("\n") == 1
        return
    report = json.loads(out)
    assert err == "" and [c["period"] for c in report["certificates"]] == sorted(
        map(int, report["dold"])
    )
