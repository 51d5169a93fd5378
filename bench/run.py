"""Benchmark of the algperiods command line, run in-process.

    python3 bench/run.py --workload realize-mix --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client in one thread sends each request's argv to
``algperiods.cli.main`` with stdout captured, waits for it (a closed
loop) and sends the next.  The loop runs whole rounds of the workload
(see workloads.py) until ``--seconds`` have passed and at least
MIN_SAMPLES requests were timed.  Every output is checked afterwards by
an oracle that does not import algperiods (oracle.py).  Times are
reported at the reference speed of a fixed probe loop timed alongside the
program (see speed_probe).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
package's public functions (tracer.py), runs the same loop, measures the
tracing overhead on pairs of untraced and traced runs of the same
requests, and prints the per-layer metrics.  ``--workload all`` runs each
workload in a fresh process and prints one table.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  A results
file with provenance and per-request outcomes goes to bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

REQUEST_TIMEOUT_S = 30.0
MIN_SAMPLES = 100  # so that ten samples lie beyond the 90th percentile
HARD_CAP_FACTOR = 3  # stop mid-round once the loop has run this many --seconds
SETUP_REPEATS = 5
SETUP_PROBES = 9  # speed probes after each set-up
HELD_OUT_SEED = 104729  # reserved for re-checking claims; never used while tuning

END_TO_END = [
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("stdout_kb_per_req", "KiB"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
]


class RequestTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so the program's handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


# ------------------------------------------------------------------ set-up


def import_cli():
    """A fresh import of algperiods.cli from the checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "algperiods" or m.startswith("algperiods.")]:
        del sys.modules[name]
    return importlib.import_module("algperiods.cli")


def set_up(workload: str, seed: int, workdir: Path):
    """Import, generate inputs, write files, run the warm-up request; timed as a whole."""
    start = time.perf_counter()
    cli = import_cli()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    rounds, warm = workloads.generate(workload, seed, workdir)
    outcome = execute(cli.main, warm.argv)
    seconds = time.perf_counter() - start
    if outcome["status"] != "ok" or oracle.verify(warm.check, warm.exp, outcome["code"], outcome["stdout"]):
        raise RuntimeError(f"warm-up request {warm.argv} failed: {outcome['status']}")
    return cli, rounds, seconds


# ------------------------------------------------------------------ speed probe

# On a shared machine the same request runs at speeds up to 1.4x apart, in
# phases that last from seconds to many minutes.  This fixed pure-Python
# loop, timed next to the program, slows down and speeds up with it, so
# every time metric is reported at the probe's reference speed:
# elapsed x PROBE_REF_S / (median probe time around it).  Raw times are kept
# in the results file.
PROBE_REF_S = 0.0025
PROBE_ITERATIONS = 30000


def speed_probe() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i
    return time.perf_counter() - start


# ------------------------------------------------------------------ requests


def execute(main, argv: list[str], timeout: float = REQUEST_TIMEOUT_S) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code, status, detail = None, "ok", ""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except RequestTimeout:
        status = "timeout"
    except Exception as exc:  # a traceback is a failed request, not a benchmark crash
        status, detail = "traceback", f"{type(exc).__name__}: {exc}"[:300]
    finally:
        seconds = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"status": status, "code": code, "stdout": out.getvalue(), "seconds": seconds,
            "detail": detail or err.getvalue().strip()[:300]}


def digest(code, stdout: str) -> str:
    return hashlib.sha1(f"{code}\n{stdout}".encode()).hexdigest()


def timed_loop(main, rounds, seconds: float, spool: Path, on_request=None):
    """Whole rounds until ``seconds`` passed and MIN_SAMPLES were taken.

    Returns the samples and the loop's wall seconds without the speed
    probes.  A sample keeps the digest and byte count of its output; the
    first completed output of each request is written to ``spool`` for the
    oracle, untimed, so the loop holds no output in memory and the
    process's peak memory is the program's.  A speed probe follows every
    request.  The benchmark's own objects are frozen out of the cyclic
    collector's reach while the loop runs, so a collection during a request
    costs what it would cost the program alone.
    """
    samples, probing = [], 0.0
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    try:
        for r in itertools.count():
            for req in rounds[r % len(rounds)]:
                if on_request:
                    on_request(len(samples))
                res = execute(main, req.argv)
                stdout = res.pop("stdout")
                res.update(key=req.key, round=r, bytes=len(stdout), digest=digest(res["code"], stdout))
                path = spool / f"{req.key}.out"
                if res["status"] == "ok" and not path.exists():
                    path.write_text(stdout)
                del stdout  # not held while the next request runs
                res["probe"] = speed_probe()
                probing += res["probe"]
                samples.append(res)
                if time.perf_counter() - start > HARD_CAP_FACTOR * seconds:
                    return samples, time.perf_counter() - start - probing
            if time.perf_counter() - start >= seconds and len(samples) >= MIN_SAMPLES:
                return samples, time.perf_counter() - start - probing
    finally:
        gc.unfreeze()


def verify(samples, requests, spool: Path) -> dict[int, str]:
    """Failure reason per failed sample index; runs after the loop.

    The oracle checks the spooled first output of each request, and every
    other timed run of the request must have printed the same exit code and
    stdout (compared by digest).
    """
    verdicts, reasons = {}, {}
    for i, s in enumerate(samples):
        if s["status"] != "ok":
            reasons[i] = f"{s['status']} after {s['seconds']:.1f} s {s['detail']}".strip()
            continue
        if s["key"] not in verdicts:
            req = requests[s["key"]]
            stdout = (spool / f"{s['key']}.out").read_text()
            verdicts[s["key"]] = (s["digest"], "; ".join(oracle.verify(req.check, req.exp, s["code"], stdout)))
        first, problem = verdicts[s["key"]]
        if problem:
            reasons[i] = f"oracle: {problem}"
        elif s["digest"] != first:
            reasons[i] = "output differs from the first run of the same request"
    return reasons


# ------------------------------------------------------------------ metrics


def scaled_seconds(samples) -> list[float]:
    """Each request's elapsed time at the probe's reference speed, by its round's median probe."""
    probes = {}
    for s in samples:
        probes.setdefault(s["round"], []).append(s["probe"])
    factor = {r: PROBE_REF_S / statistics.median(p) for r, p in probes.items()}
    return [s["seconds"] * factor[s["round"]] for s in samples]


def end_to_end(samples, reasons, setup_s, peak_rss_mb) -> dict:
    """Time metrics at the probe's reference speed; failed requests count at their elapsed time."""
    lat = [t * 1000 for t in scaled_seconds(samples)]
    return {
        "throughput_rps": (len(samples) - len(reasons)) / (sum(lat) / 1000),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8],
        "stdout_kb_per_req": sum(s["bytes"] for s in samples) / len(samples) / 1024,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }


ANALYSIS_CALLS = ("lefschetz.algebraic_periods", "exactmat.is_symplectic", "exactmat.is_antisymplectic")


def _construction_ns(spans):
    """Time inside realize_target minus the analysis calls it makes (outermost ones only)."""
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)
    total = 0
    for root in (s for s in spans if s[3] == "realize.realize_target"):
        total += root[6]
        todo = list(children.get(root[0], ()))
        while todo:
            s = todo.pop()
            if s[3] in ANALYSIS_CALLS:
                total -= s[6]
            else:
                todo.extend(children.get(s[0], ()))
    return total


# (name, unit, better).  A name is "<module>.<function>.<statistic>"; the
# statistics are defined in layer_value.  The trace.* metrics and
# polycyc.cyclotomic.hit_frac are measured outside the spans.
PER_LAYER = [
    ("exactmat.charpoly.calls_per_req", "calls/req", "lower"),
    ("exactmat.charpoly.self_s", "s/req", "lower"),
    ("exactmat.charpoly.dim_max", "dim", "lower"),
    ("exactmat.charpoly.coeff_bits_max", "bits", "lower"),
    ("exactmat.mat_mul.calls", "calls/req", "lower"),
    ("exactmat.mat_mul.self_s", "s/req", "lower"),
    ("exactmat.is_symplectic.calls", "calls/req", "lower"),
    ("exactmat.is_antisymplectic.calls", "calls/req", "lower"),
    ("exactmat.is_symplectic.self_s", "s/req", "lower"),
    ("exactmat.is_antisymplectic.self_s", "s/req", "lower"),
    ("polycyc.cyclotomic_factorization.calls_per_req", "calls/req", "lower"),
    ("polycyc.cyclotomic_factorization.self_s", "s/req", "lower"),
    ("polycyc.poly_divmod.calls", "calls/req", "lower"),
    ("polycyc.poly_divmod.exact_frac", "ratio", "higher"),
    ("polycyc.cyclotomic.hit_frac", "ratio", "higher"),
    ("polycyc.trace_sequence_from_charpoly.window_sum", "terms/req", "lower"),
    ("polycyc.trace_sequence_from_charpoly.self_s", "s/req", "lower"),
    ("lefschetz.algebraic_periods.calls_per_req", "calls/req", "lower"),
    ("lefschetz.algebraic_periods.self_s", "s/req", "lower"),
    ("arith.dold_coefficients.self_s", "s/req", "lower"),
    ("realize.realize_target.self_s", "s/req", "lower"),
    ("zeta.series_expand.self_s", "s/req", "lower"),
    ("census.partition_count.self_s", "s/req", "lower"),
    ("census.enumerate_partitions.self_s", "s/req", "lower"),
    ("cli.main.self_s", "s/req", "lower"),
    ("trace.coverage_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def layer_value(name: str, spans: list, n: int, measured: dict):
    """One per-layer metric; counts, sums and self times are per request (n requests)."""
    if name in measured:
        return measured[name]
    func, stat = name.rsplit(".", 1)
    mine = [s for s in spans if s[3] == func]
    if stat in ("calls", "calls_per_req"):
        return len(mine) / n
    if stat == "self_s":
        if func == "realize.realize_target":  # construction only
            return _construction_ns(spans) / 1e9 / n
        return sum(s[6] - s[7] for s in mine) / 1e9 / n
    if stat == "dim_max":
        return max((s[8][0] for s in mine if s[8]), default=0)
    if stat == "coeff_bits_max":
        return max((s[8][1] for s in mine if s[8]), default=0)
    if stat == "exact_frac":
        return sum(s[8] or 0 for s in mine) / max(1, len(mine))
    if stat == "window_sum":
        return sum(s[8] or 0 for s in mine) / n
    raise ValueError(f"no statistic {stat!r}")


def _hit_counts():
    """(hits, misses) of the cyclotomic memo table, or None if it has no cache_info."""
    cyclotomic = getattr(sys.modules.get("algperiods.polycyc"), "cyclotomic", None)
    if not hasattr(cyclotomic, "cache_info"):
        return None
    info = cyclotomic.cache_info()
    return info.hits, info.misses


def tracing_overhead(cli, rounds, samples, budget):
    """Traced ÷ untraced time - 1, over requests of the traced loop run in adjacent pairs.

    Each request runs untraced and traced, back to back and in alternating
    order, so neither the drift of a shared machine's speed nor the cost of
    going first weighs on one side.
    """
    by_key = {req.key: req for rnd in rounds for req in rnd}
    plain = traced = 0.0
    tracer = Tracer()
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    for i, s in enumerate(samples):
        if time.perf_counter() - start > budget:
            break
        argv = by_key[s["key"]].argv
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced_turn:
                plain += execute(cli.main, argv)["seconds"]
                continue
            tracer.install()
            try:
                traced += execute(cli.main, argv)["seconds"]
            finally:
                tracer.uninstall()
                tracer.reset()
    gc.unfreeze()
    return traced / plain - 1 if plain else 0.0


def traced_run(cli, rounds, seconds, spool):
    """Traced loop and per-layer metrics, then the tracing overhead from paired requests."""
    tracer = Tracer()
    tracer.install()
    before = _hit_counts()

    def mark(i):
        tracer.request = i

    try:
        samples, wall = timed_loop(cli.main, rounds, seconds, spool, on_request=mark)
    finally:
        tracer.uninstall()
    after = _hit_counts()
    overhead = tracing_overhead(cli, rounds, samples, seconds / 2)
    spans = tracer.spans
    measured = {
        "trace.coverage_frac": sum(s[6] for s in spans if s[1] == -1 and s[3] == "cli.main") / 1e9 / wall,
        "trace.overhead_frac": overhead,
    }
    absent = [name for name, _, _ in PER_LAYER
              if not name.startswith(("trace.", "polycyc.cyclotomic."))
              and name.rsplit(".", 1)[0] not in tracer.wrapped]
    if before is None or after is None:
        absent.append("polycyc.cyclotomic.hit_frac")
    else:
        hits, misses = after[0] - before[0], after[1] - before[1]
        measured["polycyc.cyclotomic.hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    metrics = {name: {"value": 0 if name in absent else layer_value(name, spans, len(samples), measured),
                      "unit": unit}
               for name, unit, _ in PER_LAYER}
    return samples, wall, metrics, sorted(set(absent)), spans


# ------------------------------------------------------------------ reporting


def git_sha() -> str:
    """The checkout's commit, or 'unknown' outside a git clone."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "request_timeout_s": REQUEST_TIMEOUT_S,
        "min_samples": MIN_SAMPLES,
        "setup_repeats": SETUP_REPEATS,
        "probe_ref_s": PROBE_REF_S,
        "workload": args.workload,
        "generator": workloads.parameters(args.workload),
    }


def run_one(args) -> int:
    if not (ROOT / "src" / "algperiods" / "cli.py").is_file():
        print(f"error: no algperiods sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        setups = []  # (raw seconds, median probe seconds right after)
        for _ in range(SETUP_REPEATS):
            cli, rounds, seconds = set_up(args.workload, args.seed, workdir)
            setups.append((seconds, statistics.median(speed_probe() for _ in range(SETUP_PROBES))))
        spool = workdir / "outputs"
        spool.mkdir()
        if args.trace:
            samples, wall, metrics, absent, spans = traced_run(cli, rounds, args.seconds, spool)
        else:
            samples, wall = timed_loop(cli.main, rounds, args.seconds, spool)
            # Read before the oracle parses the outputs.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            absent, spans = [], None
        requests = {req.key: req for rnd in rounds for req in rnd}
        reasons = verify(samples, requests, spool)
        if not args.trace:
            setup_s = statistics.median(raw * PROBE_REF_S / probe for raw, probe in setups)
            values = end_to_end(samples, reasons, setup_s, peak_rss_mb)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = {}
    for i, s in enumerate(samples):
        outcomes.setdefault(s["key"], set()).add("failed" if i in reasons else "ok")
    unsteady = sorted(k for k, v in outcomes.items() if len(v) > 1)
    failed_keys = {samples[i]["key"]: reason for i, reason in reasons.items()}
    lat = [s["seconds"] * 1000 for s in samples]
    result = {
        "correct": not reasons,
        "attempted": len(samples),
        "failed": len(reasons),
        "metrics": metrics,
    }
    record = {
        "provenance": provenance(args),
        "result": result,
        "failed_frac": len(reasons) / len(samples),
        "loop_wall_s": wall,
        "unscaled": {
            "throughput_rps": (len(samples) - len(reasons)) / wall,
            "latency_p50_ms": statistics.median(lat),
            "latency_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8],
            "setup_s": statistics.median(raw for raw, _ in setups),
        },
        "probe_s_by_round": [statistics.median(s["probe"] for s in samples if s["round"] == r)
                             for r in range(samples[-1]["round"] + 1)],
        "setup_runs_s": setups,
        "samples": [[s["key"], s["round"], s["seconds"], s["probe"], s["status"]] for s in samples],
        "absent": absent,
        "failures": {k: {"argv": requests[k].argv, "reason": r} for k, r in failed_keys.items()},
        "outcome_by_request": {k: sorted(v)[0] if len(v) == 1 else "mixed" for k, v in outcomes.items()},
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if spans is not None:
        with gzip.open(f"{stem}.spans.jsonl.gz", "wt") as fh:
            fh.write('["id", "parent", "request", "name", "start_ns", "end_ns", "busy_ns", "child_ns", "note"]\n')
            for span in spans:
                fh.write(json.dumps(span) + "\n")

    prov = record["provenance"]
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  python {prov['python']}"
          f"  git {prov['git_sha'][:12]}  nproc {prov['nproc']}")
    print(f"# {len(samples)} requests, {samples[-1]['round'] + 1} rounds, {wall:.2f} s, {len(outcomes)} distinct;"
          f" setup runs {', '.join(f'{raw:.3f}' for raw, _ in setups)} s unscaled")
    for name, m in metrics.items():
        print(f"{name:52s} {m['value']:14.6g} {m['unit']}")
    print(f"{'failed_frac':52s} {record['failed_frac']:14.6g} ratio")
    for name in absent:
        print(f"# absent at this commit: {name}")
    for key, reason in sorted(failed_keys.items()):
        print(f"# FAILED {key} {' '.join(requests[key].argv)}: {reason}")
    if unsteady:
        print(f"# outcome differs between repeats of: {', '.join(unsteady)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, so peak_rss_mb and setup_s are per workload."""
    rows, status = {}, 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            status = proc.returncode
            continue
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    first = next(iter(rows.values()))["metrics"] if rows else {}
    print(f"\n{'metric':52s}" + "".join(f"{w:>16s}" for w in rows))
    for metric, m in first.items():
        values = "".join(f"{r['metrics'][metric]['value']:16.6g}" for r in rows.values())
        print(f"{metric + ' [' + m['unit'] + ']':52s}{values}")
    values = "".join(f"{r['failed'] / r['attempted']:16.6g}" for r in rows.values())
    print(f"{'failed_frac [ratio]':52s}{values}")
    print(json.dumps(rows))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
