"""Checks of the benchmark itself; run from the checkout root:

    python3 bench/selftest.py

1. The oracle accepts real output and rejects tampered output: one
   request of every check kind is run through algperiods.cli.main, its
   stdout is verified, then altered in one number (or its exit code) and
   verified again, which must report a problem.
2. Timeout accounting: requests whose default Lefschetz window grows with
   lcm(labels) are run with a 2 s timeout and must be recorded as
   timeouts at about that elapsed time, without a helper thread.
3. Outcomes repeat: each workload runs twice, in fresh processes, for a
   short window; every request seen in both runs must have the same
   outcome.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# Targets whose default 2*lcm Lefschetz window is astronomically long.
UNBOUNDED_WINDOW = [
    ["realize", "--set", ",".join(map(str, range(2, 20))), "--kind", "preserving"],
    ["realize", "--set", "7,11,13,17,19", "--kind", "nonorientable"],
]


def _tamper(rep: dict) -> list[tuple[str, dict]]:
    """Copies of a report, each with one value changed."""
    out = []

    def variant(label, mutate):
        copy = json.loads(json.dumps(rep))
        mutate(copy)
        out.append((label, copy))

    if rep.get("lefschetz"):
        variant("Lefschetz number +1", lambda r: r["lefschetz"].__setitem__(0, int(r["lefschetz"][0]) + 1))
    if rep.get("charpoly"):
        variant("charpoly coefficient +1", lambda r: r["charpoly"].__setitem__(0, int(r["charpoly"][0]) + 1))
    if rep.get("dold"):
        k = next(iter(rep["dold"]))
        variant("Dold coefficient +1", lambda r: r["dold"].__setitem__(k, int(r["dold"][k]) + 1))
    if "achieved" in rep:
        variant("achieved period added", lambda r: r["achieved"].append(max(r["achieved"] + [1]) * 7))
    if "series" in rep:
        variant("series coefficient +1", lambda r: r["series"].__setitem__(-1, int(r["series"][-1]) + 1))
    if "exact_count" in rep:
        variant("P(genus) +1", lambda r: r.__setitem__("exact_count", int(r["exact_count"]) + 1))
    if len(rep.get("partitions") or []) > 2:
        variant("two partitions swapped", lambda r: r["partitions"].insert(1, r["partitions"].pop(2)))
    if rep.get("certificates"):
        variant("certificate dropped", lambda r: r["certificates"].pop())
    return out


def oracle_rejects_tampering() -> int:
    errors = 0
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        cli = run.import_cli()
        seen = set()
        for name in workloads.WORKLOADS:
            rounds, _ = workloads.generate(name, 1, Path(tmp))
            for req in rounds[0]:
                kind = (req.check, req.argv[0], "--list-partitions" in req.argv)
                if kind in seen:
                    continue
                seen.add(kind)
                res = run.execute(cli.main, req.argv)
                if oracle.verify(req.check, req.exp, res["code"], res["stdout"]):
                    print(f"FAIL real output rejected: {req.argv[:5]}")
                    errors += 1
                    continue
                rep = json.loads(res["stdout"])
                cases = _tamper(rep)
                cases.append(("exit code changed", None))
                cases.append(("stdout truncated", "cut"))
                for label, bad in cases:
                    if bad is None:
                        problems = oracle.verify(req.check, req.exp, res["code"] + 3, res["stdout"])
                    elif bad == "cut":
                        problems = oracle.verify(req.check, req.exp, res["code"], res["stdout"][:-20])
                    else:
                        problems = oracle.verify(req.check, req.exp, res["code"], json.dumps(bad))
                    status = "ok  " if problems else "FAIL"
                    errors += not problems
                    print(f"{status} {req.check:13s} {label:28s} -> {problems[0] if problems else 'accepted'}")
    return errors


def timeouts_are_counted() -> int:
    errors = 0
    cli = run.import_cli()
    for argv in UNBOUNDED_WINDOW:
        res = run.execute(cli.main, argv, timeout=2.0)
        ok = res["status"] == "timeout" and 2.0 <= res["seconds"] < 6.0
        errors += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {' '.join(argv)}: {res['status']} after {res['seconds']:.2f} s")
    return errors


def outcomes_repeat() -> int:
    errors = 0
    for name in workloads.WORKLOADS:
        maps = []
        for _ in range(2):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1", "--seconds", "5"]
            proc = subprocess.run(argv, capture_output=True, text=True)
            if proc.returncode:
                print(f"FAIL {name}: exit {proc.returncode}\n{proc.stderr[-1000:]}")
                return errors + 1
            record = json.loads((HERE / "results" / f"{name}-seed1-trace0.json").read_text())
            maps.append(record["outcome_by_request"])
        common = set(maps[0]) & set(maps[1])
        differ = sorted(k for k in common if maps[0][k] != maps[1][k] or maps[0][k] == "mixed")
        errors += bool(differ)
        print(f"{'ok  ' if not differ else 'FAIL'} {name}: {len(common)} requests in both runs,"
              f" outcomes differ for {differ or 'none'}")
    return errors


def main() -> int:
    errors = oracle_rejects_tampering() + timeouts_are_counted() + outcomes_repeat()
    print("selftest passed" if not errors else f"selftest: {errors} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
