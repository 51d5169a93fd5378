import errno
import importlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from algperiods import (
    DoldClass,
    IntMatrix,
    Partition,
    enumerate_partitions,
    partition_count,
    partition_to_dold_nonorientable,
)
from algperiods.cli import (
    MAX_GENUS,
    MAX_LISTED_PARTITIONS,
    MAX_OUTPUT_BITS,
    MAX_SERIES,
    MAX_SET_SUM,
    MAX_SIZE_CHARS,
    MAX_WINDOW,
    main,
)

from conftest import census_listing_by_objects, json_by_dumps, text_by_writer


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


def write_matrix(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text(json.dumps({"dim": len(rows), "rows": rows}))
    return str(path)


def test_realize_preserving(capsys):
    code, rep, _ = run_json(capsys, ["realize", "--set", "2,3", "--kind", "preserving"])
    assert code == 0
    assert rep["genus"] == 6
    assert rep["target"] == [2, 3] and rep["achieved"] == [2, 3]
    assert rep["dold"] == {"2": -2, "3": -2}
    assert rep["quasi_unipotent"] is True
    assert rep["flags"] == []
    assert rep["form_checks"]["symplectic"] is True
    assert rep["matrix"]["dim"] == 12


def test_realize_rejects_odd_reversing(capsys):
    code, out, err = run(capsys, ["realize", "--set", "3", "--kind", "reversing"])
    assert code == 2
    assert "even" in err


def test_realize_faithful_deviation(capsys):
    code, rep, _ = run_json(
        capsys, ["realize", "--set", "4", "--kind", "reversing", "--mode", "faithful"]
    )
    assert code == 0
    assert rep["achieved"] == [2, 4]
    assert rep["flags"]
    code, _, err = run(
        capsys,
        ["realize", "--set", "4", "--kind", "reversing", "--mode", "faithful", "--strict"],
    )
    assert code == 3 and "strict" in err


def test_realize_corrected_default(capsys):
    code, rep, _ = run_json(capsys, ["realize", "--set", "4", "--kind", "reversing"])
    assert code == 0
    assert rep["mode"] == "corrected"
    assert rep["achieved"] == [4] and rep["genus"] == 9


def test_realize_usage_errors(capsys):
    assert run(capsys, ["realize", "--set", "", "--kind", "preserving"])[0] == 1
    assert run(capsys, ["realize", "--set", "a,b", "--kind", "preserving"])[0] == 1
    assert run(capsys, ["realize", "--set", "2", "--kind", "bogus"])[0] == 1
    assert run(capsys, ["bogus-command"])[0] == 1


def test_analyze_identity(capsys, tmp_path):
    path = write_matrix(tmp_path, "id4.json", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    code, rep, _ = run_json(capsys, ["analyze", "--matrix", path, "--kind", "preserving", "--genus", "2"])
    assert code == 0
    assert rep["dold"] == {"1": -2}
    assert rep["algebraic_periods"] == [1]


def test_analyze_not_quasi_unipotent(capsys, tmp_path):
    path = write_matrix(tmp_path, "anosov.json", [[2, 1], [1, 1]])
    code, rep, _ = run_json(capsys, ["analyze", "--matrix", path, "--kind", "preserving", "--genus", "1"])
    assert code == 4
    assert rep["quasi_unipotent"] is False
    assert rep["dold"] is None
    assert rep["residual_factor"] == [1, -3, 1]
    assert rep["lefschetz"]  # truncated sequence still reported


def test_analyze_companion_nonorientable(capsys, tmp_path):
    path = write_matrix(tmp_path, "comp3.json", [[0, -1], [1, -1]])
    code, rep, _ = run_json(
        capsys, ["analyze", "--matrix", path, "--kind", "nonorientable", "--genus", "3"]
    )
    assert code == 0
    assert rep["algebraic_periods"] == [1, 3]
    assert rep["ap_odd"] == [1, 3] and rep["mper_l"] == [1, 3]


def test_analyze_dimension_mismatch(capsys, tmp_path):
    path = write_matrix(tmp_path, "id2.json", [[1, 0], [0, 1]])
    code, _, err = run(capsys, ["analyze", "--matrix", path, "--kind", "preserving", "--genus", "3"])
    assert code == 5 and "dimension" in err


def test_analyze_strict_form_check(capsys, tmp_path):
    path = write_matrix(tmp_path, "notsym.json", [[2, 0], [0, 1]])
    code, _, err = run(capsys, ["analyze", "--matrix", path, "--kind", "preserving", "--genus", "1"])
    assert code == 5 and "form check" in err
    code, rep, _ = run_json(
        capsys,
        ["analyze", "--matrix", path, "--kind", "preserving", "--genus", "1", "--no-strict"],
    )
    assert code == 4  # diag(2, 1) is not quasi-unipotent
    assert rep["form_checks"] == {"symplectic": False, "antisymplectic": False}


def test_analyze_max_iter(capsys, tmp_path):
    path = write_matrix(tmp_path, "id2.json", [[1, 0], [0, 1]])
    code, rep, _ = run_json(
        capsys,
        ["analyze", "--matrix", path, "--kind", "preserving", "--genus", "1", "--max-iter", "7"],
    )
    assert code == 0 and rep["lefschetz"] == [0] * 7


def test_analyze_reversing_reports_odd_vanishing(capsys, tmp_path):
    rows = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]]
    path = write_matrix(tmp_path, "rev2.json", rows)
    code, rep, _ = run_json(capsys, ["analyze", "--matrix", path, "--kind", "reversing", "--genus", "2"])
    assert code == 0
    assert rep["odd_lefschetz_vanish"] is True
    assert rep["form_checks"]["antisymplectic"] is True


def test_analyze_malformed_matrix_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "rows": [[1, 0]]}')
    assert run(capsys, ["analyze", "--matrix", str(path), "--kind", "preserving", "--genus", "1"])[0] == 1
    path.write_text("not json")
    assert run(capsys, ["analyze", "--matrix", str(path), "--kind", "preserving", "--genus", "1"])[0] == 1
    for bad in (True, 1.5, "abc"):
        path = write_matrix(tmp_path, "bad.json", [[1, bad], [0, 1]])
        code, out, err = run(capsys, ["analyze", "--matrix", path, "--kind", "preserving", "--genus", "1"])
        assert code == 1 and out == "", bad
        assert len(err.splitlines()) == 1 and err.startswith("input error:"), bad


def test_big_integers_serialize_as_strings(capsys, tmp_path):
    big = 2 ** 60
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 1, "rows": [[str(big)]]}))
    code, rep, _ = run_json(
        capsys,
        ["analyze", "--matrix", str(path), "--kind", "nonorientable", "--genus", "2", "--max-iter", "2"],
    )
    assert code == 4
    assert rep["matrix"]["rows"][0][0] == str(big)
    assert rep["lefschetz"][1] == str(1 - big ** 2)
    big = "1" + "0" * 29  # a 30-digit string entry of a symplectic shear
    path = write_matrix(tmp_path, "shear.json", [[1, big], [0, 1]])
    code, rep, err = run_json(capsys, ["analyze", "--matrix", path, "--kind", "preserving", "--genus", "1"])
    assert code == 0 and err == ""
    assert rep["matrix"]["rows"] == [[1, big], [0, 1]]
    assert rep["cyclotomic_factorization"] == {"1": 2} and rep["dold"] == {}


def test_zeta_command(capsys):
    code, rep, _ = run_json(capsys, ["zeta", "--factors", "+,1,1", "--canonicalize"])
    assert code == 0 and rep["canonical"] == {"1": -1, "2": 1}

    code, rep, _ = run_json(capsys, ["zeta", "--dold", '{"3":-2}', "--series", "9"])
    assert code == 0 and rep["series"] == [1, 0, 0, -2, 0, 0, 1, 0, 0, 0]

    code, rep, _ = run_json(capsys, ["zeta", "--factors", "+,2,5", "--mper"])
    assert code == 0 and rep["mper"] == []

    assert run(capsys, ["zeta", "--factors", "+,2,5", "--dold", "{}"])[0] == 1
    assert run(capsys, ["zeta", "--canonicalize"])[0] == 1
    assert run(capsys, ["zeta", "--factors", "garbage"])[0] == 1
    for argv in (
        ["zeta", "--factors=--"],
        ["zeta", "--factors", "+,1,1", "--series=--"],
        ["census", "--genus=--"],
        ["realize", "--set=--", "--kind", "preserving"],
        ["realize", "--set", "2", "--kind=--"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == "" and err.startswith("usage error"), argv


def test_zeta_dold_from_file(capsys, tmp_path):
    path = tmp_path / "dold.json"
    path.write_text('{"1": 2, "2": -2}')
    code, rep, _ = run_json(capsys, ["zeta", "--dold", str(path), "--series", "4"])
    assert code == 0
    assert rep["factors"] == [
        {"delta": -1, "r": 1, "m": -2},
        {"delta": -1, "r": 2, "m": 2},
    ]


def test_census_command(capsys):
    code, rep, _ = run_json(capsys, ["census", "--genus", "5"])
    assert code == 0 and rep["exact_count"] == 7

    code, rep, _ = run_json(capsys, ["census", "--genus", "100"])
    assert rep["exact_count"] == 190569292
    assert 0.9 <= rep["ratio"] <= 1.1

    code, rep, _ = run_json(
        capsys,
        ["census", "--genus", "3", "--list-partitions", "--correspondence", "orientable"],
    )
    assert code == 0 and len(rep["partitions"]) == 3
    assert rep["partitions"][0] == {"partition": [3], "dold": {"1": 2, "3": -2}}

    assert run(capsys, ["census", "--genus", "0"])[0] == 1


def test_census_listing_matches_library_rows(capsys):
    """A listing in JSON is the library's partition rows as payload dicts, and in text what
    the generic text writer gives for that payload: every genus to 20, both
    correspondences, the edge limits and no limit."""
    for genus in range(1, 21):
        count = partition_count(genus)
        for correspondence in ("orientable", "nonorientable"):
            for limit in (0, 1, count - 1, count, None):
                argv = ["census", "--genus", str(genus), "--list-partitions",
                        "--correspondence", correspondence]
                argv += [] if limit is None else ["--limit", str(limit)]
                code, rep, _ = run_json(capsys, argv)
                expected = census_listing_by_objects(genus, correspondence, limit)
                assert code == 0 and rep["partitions"] == expected, argv
                code, out, _ = run(capsys, argv + ["--format", "text"])
                assert code == 0 and out == text_by_writer(rep), argv


def test_census_listing_builds_no_partition_or_dold_class(capsys):
    """The CLI listing writes its rows from the partition walk: it builds no
    Partition or DoldClass and runs neither enumerate_partitions nor a
    correspondence.  A profile hook sees every call to them, so nothing in the
    library is patched."""
    # the package exports the function census under the module's name
    census_module = importlib.import_module("algperiods.census")
    watched = {
        f.__code__
        for f in (census_module.enumerate_partitions, census_module._partition_to_dold,
                  Partition.__init__, DoldClass.__init__)
    }
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            calls.append(frame.f_code.co_name)

    def watch(fn):
        calls.clear()
        saved = sys.getprofile()
        sys.setprofile(profile)
        try:
            return fn()
        finally:
            sys.setprofile(saved)

    # the hook sees the objects the library route builds: 11 partitions of 6
    watch(lambda: [partition_to_dold_nonorientable(p) for p in enumerate_partitions(6)])
    assert calls.count("_partition_to_dold") == 11 and "enumerate_partitions" in calls
    watch(lambda: (Partition({2: 1}), DoldClass({1: 2})))
    assert calls == ["__init__", "__init__"]
    listing = ["census", "--genus", "6", "--list-partitions"]
    for argv in (listing, listing + ["--format", "text"], listing + ["--limit", "3"],
                 listing + ["--correspondence", "nonorientable", "--format", "text"]):
        code, out, _ = watch(lambda: run(capsys, argv))
        assert code == 0 and "partition" in out and calls == [], argv


def test_census_counts_the_genus_once(capsys):
    """A census request counts P(genus) once, also when a listing without a
    limit, or with one above the cap, is checked against the listing cap.  A
    profile hook sees every call, under whatever name the caller holds."""
    counted = importlib.import_module("algperiods.census").partition_count.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is counted:
            calls.append(frame.f_locals["n"])

    over = str(MAX_LISTED_PARTITIONS + 1)
    cases = [
        (["census", "--genus", "30"], 0),
        (["census", "--genus", "30", "--list-partitions"], 0),
        (["census", "--genus", "30", "--list-partitions", "--limit", "3"], 0),
        (["census", "--genus", "30", "--list-partitions", "--limit", over, "--format", "text"], 0),
        (["census", "--genus", "42", "--list-partitions"], 1),
        (["census", "--genus", "42", "--list-partitions", "--limit", over], 1),
    ]
    for argv, exit_code in cases:
        calls.clear()
        sys.setprofile(profile)
        try:
            code, out, err = run(capsys, argv)
        finally:
            sys.setprofile(None)
        assert code == exit_code and calls == [int(argv[2])], argv
        if exit_code:
            assert out == "" and err == (
                "usage error: --list-partitions would list P(42) partitions, above the cap of"
                f" {MAX_LISTED_PARTITIONS}; pass --limit K with K <= {MAX_LISTED_PARTITIONS}\n"
            ), argv


def test_census_listing_across_digit_boundaries():
    """Dold keys sort as strings, so a suffix key such as "1" or "4" sits between
    the multi-digit keys of the parts above it.  Genera next to 10, 100, 1000
    and 10,000, and genus 120, whose rows from about the 2,100th on hold both
    "100" and a key from "10" to "19"; both correspondences, limits that end
    inside a block of rows sharing their parts >= _CUT, and full listings down
    to the all-small-parts tail; in JSON and text, against the library's rows."""
    from algperiods.cli import _CUT, _CensusRows, _json_pieces

    def stack(row):
        return [part for part in row["partition"] if part >= _CUT]

    cuts_inside = 0
    for genus in (9, 10, 11, 12, 30, 99, 100, 101, 120, 999, 1000, 1001, 9999, 10_000, 10_001):
        for correspondence in ("orientable", "nonorientable"):
            limits = {30: (None,), 120: (2400,)}.get(genus, (1, 2, 37, 800))
            for limit in limits:
                expected = census_listing_by_objects(genus, correspondence, limit)
                following = census_listing_by_objects(genus, correspondence, (limit or 0) + 1)
                if limit and len(following) > limit:
                    cuts_inside += stack(following[limit - 1]) == stack(following[limit])
                rows = _CensusRows(genus, correspondence, limit)
                report = {"partitions": rows}
                text = "".join(_json_pieces(report))
                assert text == json_by_dumps({"partitions": expected}), (genus, correspondence, limit)
                assert text_by_writer(report) == text_by_writer({"partitions": expected})
    assert cuts_inside >= 20


def test_census_listing_leaves_no_reference_cycles(capsys):
    """A listing makes no reference cycle, which would outlive the call until a
    full collection, and caches nothing across calls: with the collector off,
    gc.collect() finds no more unreachable objects after a listing than after a
    census without one, and after the 44,583 rows of genus 41 in JSON and text
    less than 1 MB stays traced to the package's files.  What stays is CPython's
    free lists, up to 2,000 tuples of each small size (about 0.16 MB here); the
    suffix tables of those two listings, kept across calls, would be 5 MB."""
    import gc
    import tracemalloc

    census = ["census", "--genus", "40"]
    listing = census + ["--list-partitions", "--limit", "3000"]

    def unreachable_after(argv):
        gc.collect()
        gc.disable()
        try:
            assert run(capsys, argv)[0] == 0
            return gc.collect()
        finally:
            gc.enable()

    unreachable_after(census)  # a first run leaves garbage of its own
    baseline = unreachable_after(census)
    for fmt in ("json", "text"):
        assert unreachable_after(listing + ["--format", fmt]) <= baseline, fmt
    tracemalloc.start()
    try:
        for fmt in ("json", "text"):
            assert run(capsys, ["census", "--genus", "41", "--list-partitions", "--format", fmt])[0] == 0
        package = tracemalloc.Filter(True, str(Path(main.__code__.co_filename).parent / "*"))
        kept = tracemalloc.take_snapshot().filter_traces([package]).traces
    finally:
        tracemalloc.stop()
    assert sum(trace.size for trace in kept) < 1_000_000


def test_output_failing_mid_listing_ends_in_one_line(capsys, monkeypatch):
    """The report is written in pieces, so a device that fills up in the middle
    of a listing fails at a write there: the run exits 1 with one line on
    stderr, and what was written before is a prefix of the whole report."""

    class FillingStream(io.StringIO):
        """Takes `room` writes, then fails each with ENOSPC."""

        def __init__(self, room):
            super().__init__()
            self.room, self.writes = room, 0

        def write(self, text):
            self.writes += 1
            if self.writes > self.room:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return super().write(text)

    def run_into(stream, argv):
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stream)
            return main(argv)

    for fmt in ("json", "text"):
        argv = ["census", "--genus", "25", "--list-partitions", "--format", fmt]
        code, whole, _ = run(capsys, argv)
        counting = FillingStream(sys.maxsize)
        assert code == 0 and run_into(counting, argv) == 0 and counting.getvalue() == whole
        assert counting.writes > 20, counting.writes
        for room in (0, 1, 5, counting.writes // 2, counting.writes - 1):
            stream = FillingStream(room)
            assert run_into(stream, argv) == 1, (fmt, room)
            assert capsys.readouterr().err == "output error: No space left on device\n"
            written = stream.getvalue()
            assert whole.startswith(written) and len(written) < len(whole), (fmt, room)
            assert written or room == 0


GOLDEN = Path(__file__).parent / "golden"

# (name, argv, exit code, stderr) for each failure path; {golden} stands for the
# golden corpus directory and {tmp} for a directory holding identity_g1.json (the
# 2 x 2 identity), empty.json (dim 0) and broken.json (not JSON).
FAILURE_CASES = [
    ("realize_odd_reversing", ["realize", "--set", "3,4", "--kind", "reversing"], 2,
     "error: orientation-reversing models admit only even algebraic periods;"
     " target [3, 4] contains odd elements\n"),
    ("realize_strict_mismatch",
     ["realize", "--set", "4", "--kind", "reversing", "--mode", "faithful", "--strict"], 3,
     "error: strict mode, achieved periods [2, 4] differ from target [4]\n"),
    ("analyze_not_quasi_unipotent",
     ["analyze", "--matrix", "{golden}/anosov_g1.json", "--kind", "preserving", "--genus", "1"],
     4, ""),
    ("certify_not_quasi_unipotent",
     ["certify", "--matrix", "{golden}/anosov_g1.json", "--kind", "preserving", "--genus", "1"],
     4, "error: not quasi-unipotent: residual x^2 - 3*x + 1\n"),
    ("analyze_dimension",
     ["analyze", "--matrix", "{golden}/anosov_g1.json", "--kind", "preserving", "--genus", "2"],
     5, "error: orientable genus 2 needs a matrix of dimension 4, got 2\n"),
    ("certify_dimension",
     ["certify", "--matrix", "{golden}/anosov_g1.json", "--kind", "nonorientable", "--genus", "2"],
     5, "error: non-orientable genus 2 needs a matrix of dimension 1, got 2\n"),
    ("analyze_negative_genus",
     ["analyze", "--matrix", "{tmp}/empty.json", "--kind", "reversing", "--genus", "-1"],
     5, "error: genus must be nonnegative\n"),
    ("certify_nonorientable_genus_0",
     ["certify", "--matrix", "{tmp}/empty.json", "--kind", "nonorientable", "--genus", "0"],
     5, "error: a non-orientable surface has genus at least 1\n"),
    *(
        (f"{command}_form_{kind}",
         [command, "--matrix", matrix, "--kind", kind, "--genus", "1"], 5,
         f"error: strict form check failed: {message}\n")
        for command in ("analyze", "certify")
        for kind, matrix, message in (
            ("preserving", "{golden}/not_symplectic_g1.json",
             "orientation-preserving matrix must be symplectic"),
            ("reversing", "{tmp}/identity_g1.json",
             "orientation-reversing matrix must be antisymplectic"),
        )
    ),
    ("analyze_max_iter_usage",
     ["analyze", "--matrix", "{tmp}/identity_g1.json", "--kind", "preserving", "--genus", "1",
      "--max-iter", "0"], 1, "usage error: --max-iter must be positive\n"),
    ("certify_matrix_usage", ["certify", "--matrix", "{tmp}/identity_g1.json", "--genus", "1"],
     1, "usage error: --matrix needs --kind and --genus\n"),
    ("census_usage", ["census", "--genus", "0"], 1, "usage error: --genus must be at least 1\n"),
    ("analyze_missing_file",
     ["analyze", "--matrix", "{tmp}/missing.json", "--kind", "preserving", "--genus", "1"], 1,
     "input error: cannot read {tmp}/missing.json: [Errno 2] No such file or directory:"
     " '{tmp}/missing.json'\n"),
    ("certify_broken_file",
     ["certify", "--matrix", "{tmp}/broken.json", "--kind", "preserving", "--genus", "1"], 1,
     "input error: {tmp}/broken.json is not valid JSON: Expecting property name enclosed in"
     " double quotes: line 1 column 2 (char 1)\n"),
    ("certify_dold_input", ["certify", "--dold", '{"0": 1}'], 1,
     "input error: period '0' is not a positive integer\n"),
]


@pytest.mark.parametrize("name,argv,exit_code,stderr", FAILURE_CASES,
                         ids=[c[0] for c in FAILURE_CASES])
def test_failure_exit_and_stderr(capsys, tmp_path, name, argv, exit_code, stderr):
    """Each failure path ends with its exit code and exactly this stderr; the
    golden corpus pins stdout only."""
    write_matrix(tmp_path, "identity_g1.json", [[1, 0], [0, 1]])
    write_matrix(tmp_path, "empty.json", [])
    (tmp_path / "broken.json").write_text("{")

    def fill(text):
        return text.replace("{golden}", str(GOLDEN)).replace("{tmp}", str(tmp_path))

    code, _, err = run(capsys, [fill(a) for a in argv])
    assert (code, err) == (exit_code, fill(stderr))


def test_size_caps(capsys, tmp_path, monkeypatch):
    identity = write_matrix(tmp_path, "identity.json", [[1, 0], [0, 1]])
    analyze = ["analyze", "--matrix", identity, "--kind", "preserving", "--genus", "1"]
    over_cap = [
        analyze + ["--max-iter", str(MAX_WINDOW + 1)],
        ["census", "--genus", str(MAX_GENUS + 1)],
        ["zeta", "--factors", "+,1,1", "--series", str(MAX_SERIES + 1)],
        # P(42) = 53,174 is the first partition count above the listing cap
        ["census", "--genus", "42", "--list-partitions"],
        ["census", "--genus", "42", "--list-partitions", "--limit", str(MAX_LISTED_PARTITIONS + 1)],
    ]
    for argv in over_cap:
        code, out, err = run(capsys, argv)
        assert code == 1 and out == "", argv
        assert err.count("\n") == 1 and "cap" in err, argv

    code, rep, _ = run_json(capsys, ["zeta", "--factors", "+,1,1", "--series", str(MAX_SERIES)])
    assert code == 0 and rep["series"][:3] == [1, 1, 0] and len(rep["series"]) == MAX_SERIES + 1
    code, rep, _ = run_json(
        capsys, ["census", "--genus", "5", "--list-partitions", "--limit", str(MAX_LISTED_PARTITIONS + 1)]
    )
    assert code == 0 and len(rep["partitions"]) == 7
    code, rep, _ = run_json(capsys, ["census", "--genus", "42", "--list-partitions", "--limit", "2"])
    assert code == 0 and rep["exact_count"] == 53174 and len(rep["partitions"]) == 2
    code, rep, _ = run_json(capsys, analyze + ["--max-iter", str(MAX_WINDOW)])
    assert code == 0 and len(rep["lefschetz"]) == MAX_WINDOW and set(rep["lefschetz"]) == {0}
    # lcm(2, ..., 19) = 232,792,560, but the default window is the largest order,
    # 19; the set sum 189 is under its cap
    assert sum(range(2, 20)) <= MAX_SET_SUM
    code, rep, _ = run_json(capsys, ["realize", "--set", ",".join(map(str, range(2, 20))),
                                     "--kind", "preserving"])
    assert code == 0 and rep["achieved"] == list(range(2, 20)) and len(rep["lefschetz"]) == 19

    # The set-sum cap refuses before any matrix is built: 1..300 would be a
    # dense dim-90,298 preserving matrix.  Duplicates count once.  Building
    # a matrix raises at the first (small) block, before any large allocation.
    def no_matrix(*args):
        raise AssertionError("a matrix was built for a refused --set")

    with monkeypatch.context() as m:
        m.setattr(IntMatrix, "_raw", classmethod(no_matrix))
        m.setattr(IntMatrix, "__init__", no_matrix)
        for text in [",".join(map(str, range(1, 301))), str(MAX_SET_SUM + 1), "100,101,101"]:
            for kind in ("preserving", "reversing", "nonorientable"):
                start = time.perf_counter()
                code, out, err = run(capsys, ["realize", "--set", text, "--kind", kind])
                assert time.perf_counter() - start < 0.1, (text, kind)
                assert code == 1 and out == "", (text, kind)
                assert err.count("\n") == 1 and f"cap of {MAX_SET_SUM}" in err, (text, kind)
    code, rep, _ = run_json(capsys, ["realize", "--set", "150,50,150", "--kind", "nonorientable"])
    assert code == 0 and rep["target"] == [50, 150] and rep["genus"] == MAX_SET_SUM + 2


def window_bits(rows, n):
    """The CLI's bound on the bits of a non-quasi-unipotent window [L_1, ..., L_n]."""
    norm = max(sum(map(abs, row)) for row in rows)
    return n * (n + 1) // 2 * norm.bit_length() + n * (len(rows).bit_length() + 2)


def series_bits(factors, n):
    """The CLI's bound on the bits of a zeta series through degree n."""
    return (n + 1) * sum(
        (n // r + 1).bit_length() + min(abs(m), n // r) * (abs(m) + n // r).bit_length()
        for _, r, m in factors
    )


def test_output_bit_caps(capsys, tmp_path):
    """A non-quasi-unipotent window and a zeta series whose bound on the printed
    bits passes MAX_OUTPUT_BITS exit 1 at once with one line; at the cap they
    print, and the bound holds for what they print."""
    nines = "9" * 20_000
    wide = ";".join(f"+,{r},-1000000" for r in range(1, 40))
    # Uncapped, these ran 168.5 s (16.4 MB) and 112.7 s (6.7 MB) on a 2-core x86-64 machine.
    for factors, series in ((f"+,1,-{nines}", 40), (wide, 2000)):
        start = time.perf_counter()
        code, out, err = run(capsys, ["zeta", "--factors", factors, "--series", str(series)])
        assert time.perf_counter() - start < 1.0, series
        assert code == 1 and out == "" and err.count("\n") == 1, series
        assert err.startswith("usage error:") and f"cap of {MAX_OUTPUT_BITS}" in err, series
    assert series_bits([(1, 1, 1 - 10**20_000)], 40) > MAX_OUTPUT_BITS
    # (1 - z)^-1000 through degree 1,395 is the last under the cap; bits(|m| + N // r)
    # is 12 there, bits(|m|) only 10.
    last = max(n for n in range(1, 5000) if series_bits([(-1, 1, -1000)], n) <= MAX_OUTPUT_BITS)
    zeta = ["zeta", "--factors=-,1,-1000", "--series"]
    code, out, err = run(capsys, zeta + [str(last + 1)])
    assert last == 1395 and code == 1 and out == "" and "cap" in err
    code, rep, _ = run_json(capsys, zeta + [str(last)])
    assert code == 0 and len(rep["series"]) == last + 1

    cat = [[2, 1], [1, 1]]
    path = write_matrix(tmp_path, "cat.json", cat)
    analyze = ["analyze", "--matrix", path, "--kind", "preserving", "--genus", "1", "--max-iter"]
    top = max(n for n in range(1, 5000) if window_bits(cat, n) <= MAX_OUTPUT_BITS)
    start = time.perf_counter()
    code, out, err = run(capsys, analyze + ["12000"])
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == "" and err.count("\n") == 1 and "cap" in err
    code, out, err = run(capsys, analyze + [str(top + 1)])
    assert code == 1 and out == "" and "cap" in err
    code, rep, _ = run_json(capsys, analyze + [str(top)])
    assert code == 4 and len(rep["lefschetz"]) == top

    # The bounds hold for what is printed, at the cap and below it.
    windows = [(cat, top), ([[0, 0], [0, 0]], 50), ([[1, 0, 0], [5, -7, 2], [0, 3, 1]], 400),
               ([[10**6, -1], [1, 0]], 30)]
    for rows, n in windows:
        path = write_matrix(tmp_path, "window.json", rows)
        code, rep, _ = run_json(capsys, ["analyze", "--matrix", path, "--kind", "nonorientable",
                                         "--genus", str(len(rows) + 1), "--max-iter", str(n)])
        assert code == 4 and window_bits(rows, n) <= MAX_OUTPUT_BITS
        assert sum(abs(int(x)).bit_length() for x in rep["lefschetz"]) <= window_bits(rows, n)
    for text, n in (("+,1,-2;-,2,-2;+,3,1", MAX_SERIES), ("-,1,-3", 20_000), ("-,1,-1000", last),
                    ("+,1,-1000000000", 40), ("-,3,7;+,1,-50;+,5,2", 3000),
                    (f"+,1,-{nines[:100]}", 40)):
        code, rep, _ = run_json(capsys, ["zeta", f"--factors={text}", "--series", str(n)])
        factors = [(f["delta"], f["r"], int(f["m"])) for f in rep["factors"]]
        assert code == 0 and series_bits(factors, n) <= MAX_OUTPUT_BITS
        assert sum(abs(int(c)).bit_length() for c in rep["series"]) <= series_bits(factors, n)


def test_oversized_size_values_refused_unparsed(capsys, tmp_path):
    """A size value of a million characters exits 1 in constant time with one short
    line: every int-typed option, each --set element and a matrix file's dim.  Parsed
    in full, a million digits would take seconds, since main() lifts the digit limit."""
    nines, junk = "9" * 10**6, "x" * 10**6
    identity = write_matrix(tmp_path, "identity.json", [[1, 0], [0, 1]])
    analyze = ["analyze", "--matrix", identity, "--kind", "preserving"]
    big_dim = tmp_path / "big_dim.json"
    big_dim.write_text(json.dumps({"dim": nines, "rows": []}))
    cases = [
        ["realize", "--set", nines, "--kind", "preserving"],
        ["realize", f"--set=2,{nines},3", "--kind", "reversing"],
        ["realize", "--set", junk, "--kind", "preserving"],
        analyze + ["--genus", nines],
        analyze + ["--genus", "1", "--max-iter", nines],
        ["analyze", "--matrix", str(big_dim), "--kind", "preserving", "--genus", "1"],
        ["census", "--genus", nines],
        ["census", "--genus", junk],
        ["census", "--genus", "5", "--list-partitions", "--limit", nines],
        ["zeta", "--factors", "+,1,1", "--series", nines],
        ["certify", "--matrix", identity, "--kind", "preserving", "--genus", nines],
    ]
    for argv in cases:
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 0.1, argv[:2]
        assert code == 1 and out == "", argv[:2]
        assert err.count("\n") == 1 and len(err) < 200 and f"cap of {MAX_SIZE_CHARS}" in err, err
    # The longest accepted text still parses; a short bad one is echoed whole.
    code, rep, _ = run_json(capsys, ["census", "--genus", "0" * (MAX_SIZE_CHARS - 1) + "5"])
    assert code == 0 and rep["genus"] == 5
    code, _, err = run(capsys, ["realize", "--set", "2,3x", "--kind", "preserving"])
    assert code == 1 and "'3x'" in err


def test_rejected_values_echoed_short(capsys, tmp_path):
    """A rejected Dold key, Dold value or matrix entry of 100,000 characters exits 1
    with one short line: the echo stops at MAX_SIZE_CHARS characters and gives the
    length of the whole."""
    junk = "x" * 100_000
    junk_entry = write_matrix(tmp_path, "junk_entry.json", [[1, junk], [0, 1]])
    cases = [
        ["certify", "--dold", json.dumps({junk: 1})],
        ["certify", "--dold", json.dumps({"1": junk})],
        ["certify", "--dold", json.dumps({"-" + "0" * (len(junk) - 2) + "1": 1})],
        ["zeta", "--dold", json.dumps({"2": junk})],
        ["analyze", "--matrix", junk_entry, "--kind", "preserving", "--genus", "1"],
        ["certify", "--dold", junk],
    ]
    for argv in cases:
        code, out, err = run(capsys, argv)
        assert code == 1 and out == "", argv[:2]
        assert err.count("\n") == 1 and len(err) < 200, err[:300]
        assert f" of {len(junk)} characters" in err, err
    code, _, err = run(capsys, ["certify", "--dold", '{"1": 2, "3x": 1}'])
    assert code == 1 and "'3x' is not an integer" in err


def test_huge_json_numbers_refused_while_parsing(capsys, tmp_path):
    """A JSON number of more than 4300 digits, as a matrix file's dim, a matrix entry
    or a Dold value, exits 1 with one short line before int() converts it; the same
    integers written as strings are read."""
    big = "9" * 200_000
    big_dim = tmp_path / "big_dim.json"
    big_dim.write_text('{"dim": ' + big + ', "rows": []}')
    big_entry = tmp_path / "big_entry.json"
    big_entry.write_text('{"dim": 2, "rows": [[1, ' + big[:5000] + '], [0, 1]]}')
    cases = [
        ["analyze", "--matrix", str(big_dim), "--kind", "preserving", "--genus", "1"],
        ["analyze", "--matrix", str(big_entry), "--kind", "preserving", "--genus", "1"],
        ["certify", "--dold", '{"2": ' + big + "}"],
    ]
    for argv in cases:
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 0.1, argv[:2]
        assert code == 1 and out == "", argv[:2]
        assert err.count("\n") == 1 and len(err) < 200 and "4300 digits" in err, err
    # Under the digit limit, the dim is echoed short in the row-count message.
    long_dim = tmp_path / "long_dim.json"
    long_dim.write_text('{"dim": ' + big[:4000] + ', "rows": []}')
    code, _, err = run(capsys, ["analyze", "--matrix", str(long_dim), "--kind", "preserving",
                                "--genus", "1"])
    assert code == 1 and len(err) < 200 and "(a value of 4000 characters) rows" in err, err
    unipotent = write_matrix(tmp_path, "unipotent.json", [[1, big[:5000]], [0, 1]])
    code, rep, err = run_json(capsys, ["analyze", "--matrix", unipotent, "--kind", "preserving",
                                       "--genus", "1"])
    assert code == 0 and rep["matrix"]["rows"][0][1] == big[:5000], err


def test_closed_or_full_stdout_ends_in_one_line():
    """A reader that stops early or a full device ends the run with exit 1 and one
    line on stderr, without a traceback and without a second complaint at exit."""
    argv = [sys.executable, "-m", "algperiods", "census", "--genus", "30", "--list-partitions"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b'{\n  "corre'
    proc.stdout.close()  # the listing is far larger than the pipe's buffer
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == "output error: Broken pipe\n"
    if not Path("/dev/full").exists():
        return
    # The listing fails at a write in the middle of the report, a small report
    # only at the final flush.
    for args in (argv, argv[:6]):
        with open("/dev/full", "w") as full:
            done = subprocess.run(args, stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
        assert done.returncode == 1
        assert done.stderr == "output error: No space left on device\n"


def test_help_into_a_full_stdout_is_an_output_error(capsys, monkeypatch):
    """argparse drops an OSError from its help writer, so a help text lost to a
    full stdout would exit 0; it ends with exit 1 and one line on stderr."""

    class FullStream(io.StringIO):
        """A full device: an unbuffered write fails, a buffered one at its flush."""

        def __init__(self, buffered):
            super().__init__()
            self.buffered = buffered

        def write(self, text):
            if self.buffered:
                return super().write(text)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def flush(self):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    for argv in (["--help"], ["realize", "--help"]):
        for buffered in (False, True):
            monkeypatch.setattr(sys, "stdout", FullStream(buffered))
            assert main(argv) == 1, argv
            assert capsys.readouterr().err == "output error: No space left on device\n"
    if not Path("/dev/full").exists():
        return
    with open("/dev/full", "w") as full:
        args = [sys.executable, "-m", "algperiods", "--help"]
        done = subprocess.run(args, stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (1, "output error: No space left on device\n")


def test_certify_command(capsys, tmp_path):
    code, rep, _ = run_json(capsys, ["certify", "--dold", '{"3":-2,"4":1}'])
    assert code == 0
    kinds = [(c["period"], c["guarantee"]) for c in rep["certificates"]]
    assert kinds == [(3, "odd"), (4, "either")]

    code, rep, _ = run_json(capsys, ["certify", "--dold", "{}"])
    assert code == 0 and rep["certificates"] == []

    from algperiods import Mode, SurfaceKind, realize_target

    sm = realize_target({2, 8}, SurfaceKind.REVERSING, Mode.CORRECTED)
    path = write_matrix(tmp_path, "rev28.json", [list(r) for r in sm.model.matrix.rows])
    code, rep, _ = run_json(
        capsys,
        ["certify", "--matrix", path, "--kind", "reversing", "--genus", str(sm.genus)],
    )
    assert code == 0
    assert all(c["guarantee"] == "either" for c in rep["certificates"])

    assert run(capsys, ["certify"])[0] == 1
    assert run(capsys, ["certify", "--matrix", path])[0] == 1


def test_json_output_is_deterministic(capsys):
    code1, out1, _ = run(capsys, ["realize", "--set", "2,4", "--kind", "reversing"])
    code2, out2, _ = run(capsys, ["realize", "--set", "2,4", "--kind", "reversing"])
    assert code1 == code2 == 0 and out1 == out2


def test_text_format_carries_same_information(capsys):
    code, rep, _ = run_json(capsys, ["realize", "--set", "1,2", "--kind", "preserving"])
    code2, text, _ = run(capsys, ["realize", "--set", "1,2", "--kind", "preserving", "--format", "text"])
    assert code == code2 == 0
    for key in rep:
        assert key in text
    assert "genus: 2" in text


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "algperiods", "census", "--genus", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["exact_count"] == 7


def test_certify_long_inline_dold(capsys):
    # An inline map longer than any file name must not be probed as a path.  A
    # 5000-digit number literal is past the digit limit of the JSON parser and is
    # refused as inline JSON; the same number written as a string is read.
    digits = "7" * 5000
    code, out, err = run(capsys, ["certify", "--dold", '{"1": ' + digits + "}"])
    assert code == 1 and out == "" and err.startswith("input error: inline Dold map"), err
    code, out, err = run(capsys, ["certify", "--dold", '{"1": "' + digits + '"}'])
    assert code == 0, err
    assert f'"1": "{digits}"' in out
    code, _, err = run(capsys, ["certify", "--dold", "x" * 5000])
    assert code == 1 and "cannot read" in err


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-string limit to lift"
)
def test_big_integers_beyond_str_digit_limit(capsys, tmp_path):
    # A^8 for A = [[2, 1], [1, 1]]: its 1,500th Lefschetz number has 5,016 digits,
    # and its window stays under the output cap, where A's own 12,000 do not.
    path = write_matrix(tmp_path, "anosov8.json", [[1597, 987], [987, 610]])
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(
        capsys,
        ["analyze", "--matrix", path, "--kind", "preserving", "--genus", "1", "--max-iter", "1500"],
    )
    assert code == 4
    assert sys.get_int_max_str_digits() == limit  # restored after the call
    # tr(A^l) = Lucas(2l) for A = [[2, 1], [1, 1]], so L_l(A^8) = 2 - Lucas(16l).
    lucas = [2, 1]
    while len(lucas) <= 24000:
        lucas.append(lucas[-1] + lucas[-2])
    last = json.loads(out)["lefschetz"][-1]
    sys.set_int_max_str_digits(0)
    try:
        assert int(last) == 2 - lucas[24000]
    finally:
        sys.set_int_max_str_digits(limit)


def test_one_analysis_pass_per_model(capsys, tmp_path, monkeypatch):
    """charpoly_blocks runs once per model, cyclotomic_factorization once per distinct
    block polynomial, and form_predicates runs once per orientable model: in the
    strict constructor, or else in form_checks; never for a non-orientable one.
    The model's nonzero index is built once, and the form check, the Tarjan scan
    in charpoly_blocks and the matrix row writer all read that one index; realize
    builds it in block_diag from the blocks' indices, the only other reads."""
    import algperiods.lefschetz as lefschetz

    calls = {}
    returned = {}
    reads = []  # (reading function, matrix, index) for each read of IntMatrix.nonzero
    nonzero = IntMatrix.nonzero.fget

    def counted_nonzero(a):
        reads.append((sys._getframe(1).f_code.co_name, a, nonzero(a)))
        return reads[-1][2]

    monkeypatch.setattr(IntMatrix, "nonzero", property(counted_nonzero))

    def counting(module, name):
        def counted(*args, _fn=getattr(module, name)):
            calls.setdefault(name, []).append(args)
            returned[name] = _fn(*args)
            return returned[name]

        monkeypatch.setattr(module, name, counted)

    counting(lefschetz, "charpoly_blocks")
    counting(lefschetz, "cyclotomic_factorization")
    counting(lefschetz, "form_predicates")

    rev = write_matrix(tmp_path, "rev2.json", [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]])
    anosov = write_matrix(tmp_path, "anosov.json", [[2, 1], [1, 1]])
    # realize --set 2,3 --kind preserving has the six blocks x - 1, x^2 - 1 and
    # x^3 - 1, each twice; --set 4 --kind reversing has x^4 - 1 four times, x - 1
    # and x + 1; rev2 has x^2 - 1 twice, and the Anosov matrix is one block whose
    # factorization raises NotQuasiUnipotent.
    cases = [
        (["realize", "--set", "2,3", "--kind", "preserving"], 0, (1, 3, 1)),
        (["realize", "--set", "4", "--kind", "reversing"], 0, (1, 3, 1)),
        (["realize", "--set", "2,3", "--kind", "nonorientable"], 0, (1, 3, 0)),
        (["analyze", "--matrix", rev, "--kind", "reversing", "--genus", "2"], 0, (1, 1, 1)),
        (["analyze", "--matrix", rev, "--kind", "reversing", "--genus", "2", "--no-strict"],
         0, (1, 1, 1)),
        (["analyze", "--matrix", anosov, "--kind", "preserving", "--genus", "1"], 4, (1, 1, 1)),
        (["analyze", "--matrix", anosov, "--kind", "reversing", "--genus", "1", "--no-strict"],
         4, (1, 1, 1)),
        (["certify", "--matrix", rev, "--kind", "reversing", "--genus", "2"], 0, (1, 1, 1)),
    ]
    for argv, exit_code, expected in cases:
        calls.clear()
        reads.clear()
        assert run(capsys, argv)[0] == exit_code
        names = ("charpoly_blocks", "cyclotomic_factorization", "form_predicates")
        got = tuple(len(calls.get(n, ())) for n in names)
        assert got == expected, argv
        factored = [args[0] for args in calls["cyclotomic_factorization"]]
        assert sorted(map(str, factored)) == sorted(set(map(str, returned["charpoly_blocks"])))
        readers = {"charpoly_blocks"}
        if expected[2]:
            readers.add("form_predicates")
        if argv[0] != "certify":
            readers.add("rows")  # _MatrixRows.rows
        if argv[0] == "realize":
            readers.add("block_diag")
        assert {name for name, _, _ in reads} == readers, argv
        model_reads = [(a, i) for name, a, i in reads if name != "block_diag"]
        assert len({id(a) for a, _ in model_reads}) == len({id(i) for _, i in model_reads}) == 1, argv


def test_quasi_unipotent_realize_keeps_newton_to_candidate_window(capsys, tmp_path, monkeypatch):
    """Newton runs on no quasi-unipotent model, whose Dold class is read off the
    factorization, and once on a non-quasi-unipotent one, for the printed window."""
    import algperiods.lefschetz as lefschetz
    import algperiods.polycyc as polycyc

    windows = []

    def recorded(cp, n_max, _fn=polycyc.trace_sequence_from_charpoly):
        windows.append(n_max)
        return _fn(cp, n_max)

    monkeypatch.setattr(lefschetz, "trace_sequence_from_charpoly", recorded)
    monkeypatch.setattr(polycyc, "trace_sequence_from_charpoly", recorded)
    rev = write_matrix(tmp_path, "rev2.json", [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]])
    ident = write_matrix(tmp_path, "id2.json", [[1, 0], [0, 1]])
    for argv in (
        ["realize", "--set", "11,13,18", "--kind", "preserving"],
        ["realize", "--set", "2,3,5", "--kind", "nonorientable"],
        ["realize", "--set", "4,6", "--kind", "reversing", "--mode", "faithful"],
        ["realize", "--set", "1", "--kind", "preserving"],
        ["realize", "--set", "1", "--kind", "nonorientable"],
        ["analyze", "--matrix", rev, "--kind", "reversing", "--genus", "2"],
        ["analyze", "--matrix", ident, "--kind", "preserving", "--genus", "1", "--max-iter", "30"],
        ["certify", "--matrix", rev, "--kind", "reversing", "--genus", "2"],
        ["certify", "--matrix", ident, "--kind", "preserving", "--genus", "1"],
    ):
        windows.clear()
        code, rep, _ = run_json(capsys, argv)
        assert code == 0 and rep["dold"] is not None, argv
        assert windows == [], argv
    anosov = write_matrix(tmp_path, "anosov.json", [[2, 1], [1, 1]])
    for extra, printed in (([], 12), (["--max-iter", "40"], 40), (["--max-iter", "1"], 1)):
        windows.clear()
        argv = ["analyze", "--matrix", anosov, "--kind", "preserving", "--genus", "1", *extra]
        code, rep, _ = run_json(capsys, argv)
        assert code == 4 and len(rep["lefschetz"]) == printed
        assert windows == [printed], argv


def test_parser_state_does_not_leak_between_calls(capsys, tmp_path):
    from algperiods.cli import build_parser

    assert build_parser() is build_parser()
    anosov = write_matrix(tmp_path, "anosov.json", [[2, 1], [1, 1]])
    analyze = ["analyze", "--matrix", anosov, "--kind", "preserving", "--genus", "1"]
    realize = ["realize", "--set", "2,4", "--kind", "reversing"]
    census = ["census", "--genus", "4", "--list-partitions"]
    sequence = [
        realize, realize + ["--format", "text"], analyze + ["--max-iter", "3"], census,
        realize + ["--mode", "faithful", "--strict"], analyze, census + ["--format", "text"],
        realize, analyze + ["--format", "text"], census + ["--limit", "2"], analyze, census,
    ]
    outputs = {}
    for argv in sequence:
        code, out, _ = run(capsys, argv)
        outputs.setdefault(tuple(argv), set()).add((code, out))
    assert all(len(seen) == 1 for seen in outputs.values())
    (code, out), = outputs[tuple(analyze)]
    assert code == 4 and len(json.loads(out)["lefschetz"]) == 12
    (code, out), = outputs[tuple(realize)]
    assert code == 0 and json.loads(out)["mode"] == "corrected"
    (code, out), = outputs[tuple(census)]
    rep = json.loads(out)
    assert rep["correspondence"] == "orientable" and len(rep["partitions"]) == 5


def random_payload(rng, depth=0):
    """A report-shaped value: nested containers over the scalars the JSON writer meets."""
    limit = 2**53
    scalars = [
        lambda: rng.randint(-1000, 1000),
        lambda: rng.choice([limit, -limit, limit + 1, -limit - 1, 0, -1, True, False, None]),
        lambda: rng.randint(-(10**30), 10**30),
        lambda: rng.choice([0.0, -0.0, 1.5, 1e300, -2.5e-8, 0.1, float("inf"), float("nan")]),
        lambda: rng.uniform(-1e6, 1e6),
        lambda: "".join(rng.choice('ab"\\\n\t\x00\x1f/é€😀 ') for _ in range(rng.randint(0, 6))),
    ]
    if depth >= 3 or rng.random() < 0.3:
        return rng.choice(scalars)()
    shape = rng.randrange(4)
    size = rng.choice([0, 1, rng.randint(2, 6)])
    if shape == 0:
        edges = [limit, -limit, limit + 1, -limit - 1]
        return [rng.choice(edges) if rng.random() < 0.2 else rng.randint(-9, 9)
                for _ in range(size)]
    if shape == 1:
        items = [random_payload(rng, depth + 1) for _ in range(size)]
        return items if rng.random() < 0.5 else tuple(items)
    keys = [rng.choice([2, 10, 1, -3, 2**60, "2", "b", "aé", "€", "x\"y"]) for _ in range(size)]
    return {k: random_payload(rng, depth + 1) for k in keys}


def test_json_writer_matches_standard_encoder():
    from algperiods.cli import _CensusRows, _MatrixRows, _json_pieces

    def json_text(value):
        return "".join(_json_pieces(value))

    rng = random.Random(71)
    for _ in range(400):
        payload = {str(i): random_payload(rng) for i in range(rng.randint(0, 4))}
        assert json_text(payload) == json_by_dumps(payload), payload
    assert json_text({2: "two", 10: "ten"}) == '{\n  "10": "ten",\n  "2": "two"\n}'
    assert json_text([2**53, -(2**53), 2**53 + 1]) == (
        '[\n  9007199254740992,\n  -9007199254740992,\n  "9007199254740993"\n]'
    )
    with pytest.raises(TypeError):
        json_text({"a": object()})

    # both row writers, empty and not, nested in dicts and lists next to plain
    # values; 65 matrix rows are two batches
    rows = [[0] * 65 for _ in range(65)]
    for i in range(0, 65, 3):
        rows[i][i * 7 % 65] = (-1) ** i * (2**53 + i)
    listing = census_listing_by_objects(7, "orientable", 4)
    payload = {
        "a": [_MatrixRows(IntMatrix([])), 3, {"m": _MatrixRows(IntMatrix(rows)), "s": "x"}],
        "c": {"none": _CensusRows(7, "orientable", 0), "some": [None, _CensusRows(7, "orientable", 4)]},
        "z": [2**60, -1],
    }
    plain = {
        "a": [[], 3, {"m": rows, "s": "x"}],
        "c": {"none": [], "some": [None, listing]},
        "z": [2**60, -1],
    }
    assert json_text(payload) == json_by_dumps(plain)
