"""Fuzz every command through ``cli.main``, and the form check and the charpoly
kernel against their oracles.

Every zeta, census and certify --dold input must end with exit 0 and a
JSON report, or exit 1 with one line on stderr; realize may also end with
exit 2 (one line on stderr) or exit 3 (the report, then one line on
stderr).  Matrix files for analyze and certify --matrix end with exit 0 or
4 and a report (certify: 4 with one line instead), or exit 1 or 5 with
one line on stderr.  An exception escaping ``main`` fails the test.  Examples
are derandomized and the database is off, so runs repeat exactly.  Drawn
sizes stay where a run takes milliseconds; the caps themselves are
checked in ``test_cli.py::test_size_caps``.  ``form_predicates`` must agree with
the dense product A^T Omega A of ``conftest`` on every drawn matrix, and
``exactmat._charpoly_mod`` the Faddeev-LeVerrier residues mod each prime of
``KERNEL_PRIMES`` on drawn sparse and dense matrices.  The
matrix rows of a realize or analyze report must be the bytes that the
standard encoder writes for plain-list rows, and in text the entries of each
row joined by spaces.  A census listing must hold the rows of
``enumerate_partitions`` with ``partition_to_dold_*``, and its text must be
what the generic text writer gives for the same report.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import algperiods.exactmat as exactmat
from algperiods import (
    HomologyModel,
    IntMatrix,
    Mode,
    SurfaceKind,
    analyze,
    form_predicates,
    realize_target,
)
from algperiods.cli import (
    MAX_GENUS,
    MAX_SERIES,
    MAX_SET_SUM,
    _ROW_BATCH,
    _analysis_payload,
    _model_report,
    main,
)

from conftest import (
    JSON_INT_LIMIT,
    KERNEL_PRIMES,
    charpoly_by_faddeev_leverrier,
    census_listing_by_objects,
    form_predicates_by_product,
    json_by_dumps,
    mat_mul,
    negated,
    plus_minus_identity,
    random_matrix,
    sparse_transvection_conjugate,
    standard_symplectic_form,
    symplectic_transvection,
    text_by_writer,
)

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
@example(genus=1, listing=True, limit=None, correspondence="orientable", fmt="json")
@example(genus=2, listing=True, limit=None, correspondence="nonorientable", fmt="text")
@example(genus=5, listing=True, limit=0, correspondence="orientable", fmt="text")
@given(
    genus=st.one_of(st.integers(-3, 5000), st.integers(min_value=MAX_GENUS + 1)),
    listing=st.booleans(),
    limit=st.one_of(st.none(), st.integers(-3, 60)),
    correspondence=st.sampled_from(["orientable", "nonorientable"]),
    fmt=st.sampled_from(["json", "text"]),
)
def test_fuzz_census_values(genus, listing, limit, correspondence, fmt):
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
        if listing:
            assert report["partitions"] == census_listing_by_objects(genus, correspondence, limit)
    if fmt == "text":
        # the same outcome, and the generic text writer's bytes for the same report
        text_code, text, text_err = run(argv + ["--format", "text"])
        assert (text_code, text_err) == (code, err)
        assert text == (text_by_writer(report) if report else "")


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


def is_prime_power(q: int) -> bool:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


# Sets of primes and prime powers have the largest lcm for their sum.
PRIME_POWERS = [q for q in range(2, MAX_SET_SUM + 1) if is_prime_power(q)]


@st.composite
def realizable_sets(draw):
    """Distinct elements summing to at most the set-sum cap: drawn in order from
    1..60 or from the prime powers, skipping any element that would pass the cap."""
    pool = draw(st.sampled_from([range(1, 61), PRIME_POWERS]))
    chosen, total = set(), 0
    for n in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12, unique=True)):
        if total + n <= MAX_SET_SUM:
            chosen.add(n)
            total += n
    return chosen


@settings(FUZZ, max_examples=100)
# lcms of 510,510, 4,849,845 and 7,420,738,134,810 with set sums of 59, 75 and 197
@example(target={5, 6, 7, 11, 13, 17}, kind="preserving", mode="corrected")
@example(target={3, 5, 7, 11, 13, 17, 19}, kind="nonorientable", mode="corrected")
@example(target={2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}, kind="preserving",
         mode="faithful")
@given(
    target=realizable_sets(),
    kind=st.sampled_from(["preserving", "reversing", "nonorientable"]),
    mode=st.sampled_from(["faithful", "corrected"]),
)
def test_fuzz_realize_every_small_set(target, kind, mode):
    """Every set under the set-sum cap is realized, whatever its lcm, except one
    with an odd element for the reversing kind; the default window holds every
    algebraic period."""
    argv = ["realize", "--set", ",".join(map(str, target)), "--kind", kind, "--mode", mode]
    code, out, err = run(argv)
    if kind == "reversing" and any(n % 2 for n in target):
        assert (code, out) == (2, "") and err.count("\n") == 1
        return
    report = json.loads(out)
    assert (code, err) == (0, "") and report["target"] == sorted(target)
    assert target <= set(report["achieved"]) <= target | {2}
    window = max((2, *map(int, report["cyclotomic_factorization"])))
    assert len(report["lefschetz"]) == window >= max(report["achieved"])


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


@st.composite
def sparse_matrices(draw):
    """Even-dimension matrices, mostly zeros, so that pairs of rows k and k + g
    meet on the diagonal and their products cancel."""
    n = 2 * draw(st.integers(0, 4))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -2])
    return IntMatrix(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))


@st.composite
def transvection_pairs(draw, g):
    """A product S of symplectic transvections in dimension 2g, with its inverse."""
    s = s_inv = IntMatrix.identity(2 * g)
    for _ in range(draw(st.integers(1, 4))):
        v = draw(st.lists(st.integers(-1, 1), min_size=2 * g, max_size=2 * g))
        lam = draw(st.sampled_from([-1, 1, 2]))
        s = mat_mul(s, symplectic_transvection(v, lam))
        s_inv = mat_mul(symplectic_transvection(v, -lam), s_inv)
    return s, s_inv


@st.composite
def symplectic_products(draw):
    return draw(transvection_pairs(draw(st.integers(1, 4))))[0]


@st.composite
def antisymplectic_conjugates(draw):
    """S^-1 B S for an antisymplectic B: diag(I, -I) or a reversing realization."""
    if draw(st.booleans()):
        base = plus_minus_identity(draw(st.integers(1, 4)))
    else:
        target = draw(st.sets(st.sampled_from([4, 6, 8]), min_size=1, max_size=2))
        base = realize_target(target, SurfaceKind.REVERSING, draw(st.sampled_from(Mode))).model.matrix
    s, s_inv = draw(transvection_pairs(base.dim // 2))
    return mat_mul(mat_mul(s_inv, base), s)


@st.composite
def one_entry_changed(draw, matrices):
    """A drawn matrix with one entry moved by a small nonzero amount."""
    a = draw(matrices)
    rows = [list(row) for row in a.rows]
    i, j = draw(st.integers(0, a.dim - 1)), draw(st.integers(0, a.dim - 1))
    rows[i][j] += draw(st.sampled_from([-2, -1, 1, 2]))
    return IntMatrix(rows)


FORMED = st.one_of(symplectic_products(), antisymplectic_conjugates())


@settings(FUZZ, max_examples=200)
@example(a=IntMatrix([[1, 1], [1, 1]]))  # the two pairs cancel
@example(a=IntMatrix([[1, 0], [1, 1]]))  # a pair on the diagonal, symplectic
@example(a=IntMatrix([[1, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, -1, 0, 0]]))  # k = 0, 1 cancel
@example(a=IntMatrix([[0, 1, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]))  # -Omega, a_01 = 1
@example(a=negated(standard_symplectic_form(3)))
@example(a=IntMatrix([]))
@given(a=st.one_of(sparse_matrices(), FORMED, one_entry_changed(FORMED)))
def test_fuzz_form_predicates_match_dense_product(a):
    assert form_predicates(a) == form_predicates_by_product(a)


# Report matrices for the row writer: all-zero rows, nonzeros in the first and
# last columns, entries on both sides of 2^53, and dims 0 and 1.
WRITER_ENTRIES = st.one_of(
    st.sampled_from([1, -1, 2, JSON_INT_LIMIT, -JSON_INT_LIMIT, JSON_INT_LIMIT + 1,
                     -JSON_INT_LIMIT - 1]),
    st.integers(-10**20, 10**20).filter(bool),
)


@st.composite
def writer_matrices(draw):
    n = draw(st.integers(0, 6))
    rows = [[0] * n for _ in range(n)]
    if n:
        columns = st.one_of(st.just(0), st.just(n - 1), st.integers(0, n - 1))
        for row in rows:
            for j, x in draw(st.lists(st.tuples(columns, WRITER_ENTRIES), max_size=n)):
                row[j] = x
    return rows


def batch_edge_rows(n):
    """A dim-n matrix, zero but for +-(2^53 + 1) in the first row of each batch
    of _ROW_BATCH rows, in the last column, and in the last row of each batch and
    of the matrix, in the first column."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        if i % _ROW_BATCH == 0:
            rows[i][n - 1] = JSON_INT_LIMIT + 1
        elif i % _ROW_BATCH == _ROW_BATCH - 1 or i == n - 1:
            rows[i][0] = -JSON_INT_LIMIT - 1
    return rows


def check_rows_written(argv, report, rows):
    """JSON stdout is the standard encoder's for the report with plain-list rows,
    and each text row is its entries joined by spaces."""
    _, out, err = run(argv)
    report["matrix"]["rows"] = rows
    # line lists, so that a failure's diff stays cheap on a dim^2 payload
    assert err == "" and out.split("\n") == (json_by_dumps(report) + "\n").split("\n")
    lines = run(argv + ["--format", "text"])[1].splitlines()
    start = lines.index("  rows:" if rows else "  rows: []") + 1
    expected = [f"    [{i}]: [" + " ".join(map(str, row)) + "]" for i, row in enumerate(rows)]
    assert lines[start : start + len(rows)] == expected


@FUZZ
@example(rows=[])
@example(rows=[[JSON_INT_LIMIT + 1]])
@example(rows=[[0, 0, 0], [-JSON_INT_LIMIT - 1, 0, JSON_INT_LIMIT], [0, 0, 0]])
# one batch filled, one row past it, and two batches and one row
@example(rows=batch_edge_rows(_ROW_BATCH))
@example(rows=batch_edge_rows(_ROW_BATCH + 1))
@example(rows=batch_edge_rows(2 * _ROW_BATCH + 1))
@given(rows=writer_matrices())
def test_fuzz_analyze_rows_match_standard_encoder(tmp_path_factory, rows):
    n = len(rows)
    path = tmp_path_factory.getbasetemp() / "writer.json"
    path.write_text(json.dumps({"dim": n, "rows": rows}))
    argv = ["analyze", "--matrix", str(path), "--kind", "nonorientable", "--genus", str(n + 1),
            "--max-iter", "4"]
    model = HomologyModel(SurfaceKind.NONORIENTABLE, IntMatrix(rows), n + 1)
    check_rows_written(argv, _analysis_payload(analyze(model), 4), rows)


@FUZZ
@given(
    target=st.sets(st.integers(1, 9), min_size=1, max_size=3),
    kind=st.sampled_from(SurfaceKind),
    mode=st.sampled_from(Mode),
)
def test_fuzz_realize_rows_match_standard_encoder(target, kind, mode):
    if kind is SurfaceKind.REVERSING:
        target = {2 * n for n in target}
    argv = ["realize", "--set", ",".join(map(str, target)), "--kind", kind.value,
            "--mode", mode.value]
    sm = realize_target(target, kind, mode)
    check_rows_written(argv, _model_report(sm), [list(row) for row in sm.model.matrix.rows])


@st.composite
def sparse_conjugates(draw):
    return sparse_transvection_conjugate(draw(st.randoms(use_true_random=False)), draw(st.integers(4, 20)))


@st.composite
def dense_matrices(draw):
    bound = draw(st.sampled_from([1, 3, 10**6]))
    return random_matrix(draw(st.randoms(use_true_random=False)), draw(st.integers(2, 16)), -bound, bound)


@st.composite
def permuted(draw, matrices):
    """P^T A P for a drawn matrix A and a drawn permutation P, the identity among them."""
    a = draw(matrices)
    perm = draw(st.permutations(range(a.dim)))
    return IntMatrix([[a.rows[i][j] for j in perm] for i in perm])


@settings(FUZZ, max_examples=100)
@given(a=permuted(st.one_of(sparse_conjugates(), dense_matrices())))
def test_fuzz_charpoly_mod_matches_faddeev_leverrier(a):
    """The kernel's residues mod each of ``KERNEL_PRIMES`` equal the oracle's, on
    sparse transvection conjugates of dimension 8-40 and on dense matrices."""
    oracle = charpoly_by_faddeev_leverrier(a)
    for p in KERNEL_PRIMES:
        assert exactmat._charpoly_mod(a.rows, p) == [c % p for c in oracle.coeffs], p
