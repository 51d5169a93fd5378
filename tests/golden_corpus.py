"""Golden stdout corpus: every listed command must print exactly the recorded bytes.

Each case is (name, argv, exit code); its stdout lives in
``tests/golden/<name>.out`` and ``{golden}`` in argv stands for that
directory, which also holds the fixed matrix files.  The corpus covers the
README command-line examples, ``realize`` for every kind and reversing mode
in both output formats, and the exit-3/4/5 paths.  ``test_golden.py`` runs
each case under pytest; this module needs only the standard library, so any
interpreter can check the corpus:

    PYTHONPATH=src python tests/golden_corpus.py --check

prints each case whose exit code or stdout differs and exits 1 if any does.
After a deliberate change of output, re-record with
``PYTHONPATH=src python tests/golden_corpus.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

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
    # integer keys whose string order differs from their numeric order
    # (canonical keys 5, 10, 12; Dold keys 3, 10, 12), in both formats
    *(
        (f"zeta_canonical_key_order_{fmt}",
         ["zeta", "--factors", "+,5,1;-,12,2", "--canonicalize", "--format", fmt], 0)
        for fmt in ("json", "text")
    ),
    *(
        (f"certify_dold_key_order_{fmt}",
         ["certify", "--dold", '{"12": 1, "3": -2, "10": 1}', "--format", fmt], 0)
        for fmt in ("json", "text")
    ),
    ("census_genus_3000", ["census", "--genus", "3000"], 0),
    ("census_genus_12_list_nonorientable",
     ["census", "--genus", "12", "--list-partitions", "--correspondence", "nonorientable"], 0),
    # listings with an empty Dold class ([1] orientable, [1, 1] non-orientable)
    # and the empty listing
    ("census_genus_1_list", ["census", "--genus", "1", "--list-partitions"], 0),
    *(
        (f"census_genus_2_list_nonorientable_{fmt}",
         ["census", "--genus", "2", "--list-partitions", "--correspondence", "nonorientable",
          "--format", fmt], 0)
        for fmt in ("json", "text")
    ),
    *(
        (f"census_genus_5_list_limit_0_{fmt}",
         ["census", "--genus", "5", "--list-partitions", "--limit", "0", "--format", fmt], 0)
        for fmt in ("json", "text")
    ),
    # orders up to 18 with an lcm of 2,574: the default window is the largest
    # order, 18 entries
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
    # dense transvection conjugates of cycle sums whose one 16-dim block has a
    # coefficient bound 2B of 150 and 205 bits, between 2^128 and 2^256
    ("analyze_transvection_conj",
     ["analyze", "--matrix", "{golden}/transvection_conj_g8.json", "--kind", "preserving",
      "--genus", "8"], 0),
    ("certify_transvection_conj_reversing",
     ["certify", "--matrix", "{golden}/transvection_conj_reversing_g8.json", "--kind",
      "reversing", "--genus", "8"], 0),
    # bench-size inputs built with the conftest helpers (random.Random(5)): a
    # signed 32 x 32 permutation M, diag(M, M) conjugated by symplectic
    # transvections until 15% of the entries are nonzero, one 64-dim block with
    # 2B of 153 bits; and a product of 19 Dehn-twist transvections along 2-3
    # term curves in genus 30, not quasi-unipotent, whose largest block is 20-dim
    ("analyze_transvection_conj_g32",
     ["analyze", "--matrix", "{golden}/transvection_conj_g32.json", "--kind", "preserving",
      "--genus", "32"], 0),
    ("analyze_dehn_twists_g30",
     ["analyze", "--matrix", "{golden}/dehn_twists_g30.json", "--kind", "preserving",
      "--genus", "30"], 4),
    ("analyze_reversing_text",
     ["analyze", "--matrix", "{golden}/reversing_g9.json", "--kind", "reversing", "--genus", "9",
      "--format", "text"], 0),
    # block sums under a permutation similarity, so no block is contiguous: two
    # 3-cycles, quotient companions of orders 4 and 3, +-1 and two copies of
    # [[2, 1], [1, 1]] next to [[3, 2], [1, 1]], whose residual is the product
    # (x^2 - 3x + 1)^2 (x^2 - 4x + 1); and the realization of {2, 3, 4} with the
    # same permutation on both symplectic halves, so the strict check passes
    ("analyze_block_sum_not_quasi_unipotent",
     ["analyze", "--matrix", "{golden}/block_sum_mixed_g10.json", "--kind", "preserving",
      "--genus", "10", "--no-strict"], 4),
    ("analyze_block_sum_text",
     ["analyze", "--matrix", "{golden}/block_sum_symplectic_g10.json", "--kind", "preserving",
      "--genus", "10", "--format", "text"], 0),
]


def run_case(argv: list[str]) -> tuple[int, str]:
    argv = [a.replace("{golden}", str(GOLDEN)) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def check() -> int:
    """Run every case, print each whose exit code or stdout differs from its
    record, and return how many do."""
    failed = [name for name, argv, exit_code in CASES
              if run_case(argv) != (exit_code, (GOLDEN / f"{name}.out").read_text())]
    for name in failed:
        print(f"{name}: exit code or stdout differs from the record")
    print(f"{len(CASES) - len(failed)} of {len(CASES)} golden cases match")
    return len(failed)


def record() -> None:
    for name, argv, exit_code in CASES:
        code, out = run_case(argv)
        if code != exit_code:
            sys.exit(f"{name}: exit {code}, expected {exit_code}")
        (GOLDEN / f"{name}.out").write_text(out)


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(1 if check() else 0)
    elif sys.argv[1:]:
        sys.exit("usage: golden_corpus.py [--check]")
    record()
