"""Golden stdout corpus: every listed command must print exactly the recorded bytes.

Each case is (name, argv, exit code); its stdout lives in
``tests/golden/<name>.out`` and ``{golden}`` in argv stands for that
directory, which also holds the fixed matrix files.  The corpus covers the
README command-line examples, ``realize`` for every kind and reversing mode
in both output formats, and the exit-3/4/5 paths.

After a deliberate change of output, re-record with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from algperiods.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    # README examples, with fixed matrix files standing in for M.json
    ("readme_realize_preserving", ["realize", "--set", "2,3", "--kind", "preserving"], 0),
    ("readme_realize_reversing_faithful",
     ["realize", "--set", "4", "--kind", "reversing", "--mode", "faithful"], 0),
    ("readme_realize_reversing_corrected",
     ["realize", "--set", "4", "--kind", "reversing", "--mode", "corrected"], 0),
    ("readme_analyze_preserving",
     ["analyze", "--matrix", "{golden}/preserving_g2.json", "--kind", "preserving", "--genus", "2"], 0),
    ("readme_analyze_nonorientable",
     ["analyze", "--matrix", "{golden}/nonorientable_g3.json", "--kind", "nonorientable",
      "--genus", "3", "--no-strict", "--max-iter", "20"], 0),
    ("readme_zeta_canonicalize", ["zeta", "--factors", "+,1,1", "--canonicalize"], 0),
    ("readme_zeta_series", ["zeta", "--dold", '{"3": -2}', "--series", "9"], 0),
    ("readme_zeta_mper", ["zeta", "--factors", "+,2,5", "--mper"], 0),
    ("readme_census_count", ["census", "--genus", "100"], 0),
    ("readme_census_list",
     ["census", "--genus", "3", "--list-partitions", "--correspondence", "orientable"], 0),
    ("readme_certify_dold", ["certify", "--dold", '{"3": -2, "4": 1}'], 0),
    ("readme_certify_matrix",
     ["certify", "--matrix", "{golden}/reversing_g9.json", "--kind", "reversing", "--genus", "9"], 0),
    # realize: every kind and reversing mode, both formats
    *(
        (f"realize_{name}_{fmt}", argv + ["--format", fmt], 0)
        for name, argv in [
            ("preserving", ["realize", "--set", "1,2,3", "--kind", "preserving"]),
            ("nonorientable_one", ["realize", "--set", "1", "--kind", "nonorientable"]),
            ("nonorientable_pivot", ["realize", "--set", "1,3,4", "--kind", "nonorientable"]),
            ("nonorientable", ["realize", "--set", "2,3", "--kind", "nonorientable"]),
            ("reversing_faithful",
             ["realize", "--set", "4,6", "--kind", "reversing", "--mode", "faithful"]),
            ("reversing_corrected",
             ["realize", "--set", "4,6", "--kind", "reversing", "--mode", "corrected"]),
            ("reversing_faithful_two",
             ["realize", "--set", "2,8", "--kind", "reversing", "--mode", "faithful"]),
        ]
        for fmt in ("json", "text")
    ),
    # zeta series and census at sizes past the README examples; the last zeta
    # case has an exponent far beyond the truncation order
    ("zeta_series_1450_canonical_mper",
     ["zeta", "--factors=+,1,-2;-,2,-2;+,3,1", "--series", "1450", "--canonicalize", "--mper"], 0),
    ("zeta_dold_series_610", ["zeta", "--dold", '{"1": 2, "2": 2, "4": -1}', "--series", "610"], 0),
    ("zeta_huge_exponent_series_40", ["zeta", "--factors=+,1,-1000000000", "--series", "40"], 0),
    ("census_genus_3000", ["census", "--genus", "3000"], 0),
    ("census_genus_12_list_nonorientable",
     ["census", "--genus", "12", "--list-partitions", "--correspondence", "nonorientable"], 0),
    # a Lefschetz window of 2 * lcm(11, 13, 18) = 5148 entries
    *(
        (f"realize_wide_window_{fmt}",
         ["realize", "--set", "11,13,18", "--kind", "preserving", "--format", fmt], 0)
        for fmt in ("json", "text")
    ),
    # failure exits
    ("realize_strict_mismatch",
     ["realize", "--set", "4", "--kind", "reversing", "--mode", "faithful", "--strict"], 3),
    ("analyze_not_quasi_unipotent",
     ["analyze", "--matrix", "{golden}/anosov_g1.json", "--kind", "preserving", "--genus", "1"], 4),
    # Lefschetz numbers past 2^53, printed as strings
    ("analyze_not_quasi_unipotent_60",
     ["analyze", "--matrix", "{golden}/anosov_g1.json", "--kind", "preserving", "--genus", "1",
      "--max-iter", "60"], 4),
    ("analyze_not_quasi_unipotent_text",
     ["analyze", "--matrix", "{golden}/anosov_g1.json", "--kind", "preserving", "--genus", "1",
      "--max-iter", "5", "--format", "text"], 4),
    ("certify_not_quasi_unipotent",
     ["certify", "--matrix", "{golden}/anosov_g1.json", "--kind", "preserving", "--genus", "1"], 4),
    ("analyze_form_violation",
     ["analyze", "--matrix", "{golden}/not_symplectic_g1.json", "--kind", "preserving",
      "--genus", "1"], 5),
    # a dense non-quasi-unipotent matrix with entries up to 10^6: charpoly
    # coefficients of up to 242 bits, of both signs
    ("analyze_dense_large_entries",
     ["analyze", "--matrix", "{golden}/dense_large_g6.json", "--kind", "preserving",
      "--genus", "6", "--no-strict"], 4),
    ("analyze_reversing_text",
     ["analyze", "--matrix", "{golden}/reversing_g9.json", "--kind", "reversing", "--genus", "9",
      "--format", "text"], 0),
]


def run_case(argv: list[str]) -> tuple[int, str]:
    argv = [a.replace("{golden}", str(GOLDEN)) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name,argv,exit_code", CASES, ids=[c[0] for c in CASES])
def test_golden_stdout(name, argv, exit_code):
    code, out = run_case(argv)
    assert code == exit_code
    assert out == (GOLDEN / f"{name}.out").read_text()


if __name__ == "__main__":
    for name, argv, exit_code in CASES:
        code, out = run_case(argv)
        if code != exit_code:
            sys.exit(f"{name}: exit {code}, expected {exit_code}")
        (GOLDEN / f"{name}.out").write_text(out)
