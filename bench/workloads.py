"""Seeded request generators for the benchmark workloads.

A workload is a list of rounds; a round is a list of requests built from
a fixed template of slots.  Each slot fixes the request's command, the
surface kind and a narrow size band (matrix dimension, lcm of the
labels, series length, genus), and the seed only picks the concrete
input inside that band.  The timed loop runs whole rounds, so every run
measures the same mix of request sizes whatever the seed; that is what
keeps run-to-run and seed-to-seed spread small on a noisy machine.

Nothing here imports algperiods: inputs are argv lists and JSON matrix
files, and the expectation records hold what the oracle needs to check
the output.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

ROUNDS = 6  # distinct rounds per seed, about as many as one 20 s run gets through


@dataclass
class Request:
    key: str  # stable across runs of one seed: "<round>.<slot>"
    argv: list[str]
    check: str  # name of the oracle check, see oracle.CHECKS
    exp: dict = field(repr=False)


# ------------------------------------------------------------ realize-mix

# Labels dividing 2520 keep lcm(labels), and with it the default 2*lcm
# Lefschetz window, below 5040 for multi-label slots; the "wide" slots
# deliberately pick labels with a large lcm to show window-sized output.
LCM_SAFE = [n for n in range(1, 21) if 2520 % n == 0]
EVEN = list(range(2, 21, 2))


def realize_dim(labels: set[int], kind: str, mode: str) -> int:
    """Matrix dimension of the documented constructions (README, realize.py docs)."""
    if kind == "preserving":
        working = labels - {1} if 1 in labels else labels | {1}
        return 2 * sum(working)
    if kind == "nonorientable":
        if labels == {1}:
            return 0
        if 1 in labels:
            return sum(labels - {1}) - 1
        return sum(labels) + 1
    if mode == "faithful":
        working, extra = labels ^ {2}, 0
    else:
        working, extra = labels - {2}, int(2 not in labels)
    return 2 * (sum(2 * (n if n % 4 == 0 else n // 2) for n in working) + extra)


# Slots are listed from cheapest to dearest; a request's cost grows with
# the cube of the matrix dimension whatever the kind, so a narrow dimension
# band is a narrow cost band.  The counts put the median inside "mid" and
# the 90th percentile inside "large" (ranks 6-14 and 17-19 of 20), never
# on the edge between two bands.
# slot: (name, count per round, label count range, dim band, lcm band, kinds)
ALL_KINDS = ("preserving", "nonorientable", "reversing", "reversing-faithful")
ORIENTABLE = ("preserving", "reversing", "reversing-faithful")
REALIZE_SLOTS = [
    ("tiny", 6, (1, 2), (0, 24), (1, 60), ALL_KINDS),
    ("mid", 8, (2, 4), (56, 60), (1, 420), ALL_KINDS),
    ("upper", 2, (4, 5), (96, 100), (1, 840), ORIENTABLE),
    ("wide", 1, (3, 3), (40, 90), (2300, 2600), ("preserving", "nonorientable")),
    ("large", 2, (5, 7), (140, 144), (1, 2520), ORIENTABLE),
    ("tail", 1, (6, 10), (212, 216), (1, 2520), ORIENTABLE),
]


def _pick_labels(rng, kind, mode, n_range, dim_band, lcm_band, wide):
    if kind == "reversing":
        pool = EVEN
    else:
        pool = list(range(1, 21)) if wide else LCM_SAFE
    for _ in range(20000):
        labels = set(rng.sample(pool, rng.randint(*n_range)))
        dim = realize_dim(labels, kind, mode)
        if dim_band[0] <= dim <= dim_band[1] and lcm_band[0] <= math.lcm(*labels) <= lcm_band[1]:
            return labels
    raise ValueError(f"no {kind} label set with dimension in {dim_band} and lcm in {lcm_band}")


def realize_round(rng: random.Random, r: int) -> list[Request]:
    out = []
    for name, count, n_range, dim_band, lcm_band, kinds in REALIZE_SLOTS:
        for i in range(count):
            kind, _, mode = kinds[(i + r) % len(kinds)].partition("-")
            mode = mode or "corrected"
            labels = _pick_labels(rng, kind, mode, n_range, dim_band, lcm_band, name == "wide")
            argv = ["realize", "--set", ",".join(map(str, sorted(labels))), "--kind", kind]
            if kind == "reversing":
                argv += ["--mode", mode]
            exp = {"labels": sorted(labels), "kind": kind, "mode": mode}
            out.append(Request(f"{r}.{len(out)}", argv, "realize", exp))
    rng.shuffle(out)
    return out


# ------------------------------------------------------------ analyze-dense


def _apply_transvection(a: list[list[int]], v: list[int], lam: int, conjugate: bool) -> None:
    """a <- T^-1 a T (conjugate) or a <- a T, with T = I + lam v (Omega v)^T."""
    n = len(a)
    g = n // 2
    w = v[g:] + [-x for x in v[:g]]  # Omega v
    if conjugate:  # left factor T^-1 = I - lam v w^T
        wa = [0] * n
        for k in range(n):
            if w[k]:
                wa = [x + w[k] * y for x, y in zip(wa, a[k])]
        for i in range(n):
            if v[i]:
                c = lam * v[i]
                a[i] = [x - c * y for x, y in zip(a[i], wa)]
    for i in range(n):
        av = sum(a[i][k] * v[k] for k in range(n) if v[k])
        if av:
            c = lam * av
            a[i] = [x + c * y for x, y in zip(a[i], w)]


def _random_curve(rng, n):
    v = [0] * n
    for idx in rng.sample(range(n), k=rng.randint(1, 3)):
        v[idx] = rng.choice([-1, 1])
    return v


CONJ_DENSITY = 0.15


def conj_matrix(rng, g: int, sign: int) -> tuple[list[list[int]], list[int]]:
    """S^-1 diag(P, sign*P) S with P a direct sum of cycles and S a transvection product."""
    cycles, left = [], g
    while left:
        c = min(left, rng.choice([1, 2, 3, 4, 5, 6]))
        cycles.append(c)
        left -= c
    n = 2 * g
    a = [[0] * n for _ in range(n)]
    off = 0
    for c in cycles:
        for i in range(c):
            a[off + (i + 1) % c][off + i] = 1
            a[g + off + (i + 1) % c][g + off + i] = sign
        off += c
    # Conjugate until a fixed share of entries is nonzero: charpoly's cost
    # follows nnz(A) * n^2, so this keeps each slot's cost band narrow.
    for _ in range(4 * n):
        _apply_transvection(a, _random_curve(rng, n), rng.choice([-1, 1]), conjugate=True)
        if sum(1 for row in a for x in row if x) >= CONJ_DENSITY * n * n:
            break
    return a, cycles


def dehn_matrix(rng, g: int) -> list[list[int]]:
    """A product of symplectic transvections (Dehn twist actions) along 2-3 term curves."""
    n = 2 * g
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(g // 2 + 4):
        v = [0] * n
        for idx in rng.sample(range(n), k=rng.randint(2, 3)):
            v[idx] = rng.choice([-1, 1])
        _apply_transvection(a, v, rng.choice([-1, 1]), conjugate=False)
    return a


# Cheapest to dearest, as for realize-mix: the median falls inside "mid"
# and the 90th percentile inside "large".
# slot: (name, count per round, [(family, command, genus band), ...])
ANALYZE_SLOTS = [
    ("tiny", 5, [("dehn", "analyze", (2, 8)), ("conj", "analyze", (4, 6))]),
    ("mid", 8, [("conj", "analyze", (16, 16))]),
    ("upper", 4, [("conj", "certify", (28, 28)), ("dehn", "analyze", (30, 30))]),
    ("large", 2, [("conj", "analyze", (32, 32))]),
    ("tail", 1, [("conj", "analyze", (48, 48))]),
]


def analyze_round(rng: random.Random, r: int, workdir: Path) -> list[Request]:
    out = []
    for _, count, variants in ANALYZE_SLOTS:
        for i in range(count):
            family, command, band = variants[(i + r) % len(variants)]
            g = rng.randint(*band)
            key = f"{r}.{len(out)}"
            if family == "conj":
                sign = 1 if (i + r) % 2 == 0 else -1
                kind = "preserving" if sign == 1 else "reversing"
                rows, cycles = conj_matrix(rng, g, sign)
                exp = {"rows": rows, "cycles": cycles, "sign": sign, "kind": kind, "genus": g}
                check = f"{command}_conj"
            else:
                kind = "preserving"
                rows = dehn_matrix(rng, g)
                exp = {"rows": rows}
                check = "analyze_dehn"
            path = workdir / f"m{key}.json"
            path.write_text(json.dumps({"dim": 2 * g, "rows": rows}))
            argv = [command, "--matrix", str(path), "--kind", kind, "--genus", str(g)]
            out.append(Request(key, argv, check, exp))
    rng.shuffle(out)
    return out


# ------------------------------------------------------------ zeta-census


def _zeta_factors(rng):
    """Three binomials with exponent -2 at r = 1 and 2, so the series is dense
    from the start and its cost depends on the truncation order only."""
    return [(rng.choice([1, -1]), 1, -2), (rng.choice([1, -1]), 2, -2),
            (rng.choice([1, -1]), rng.randint(3, 4), rng.choice([-1, 1]))]


def _random_dold(rng, size):
    return {n: rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for n in rng.sample(range(1, 13), size)}


# Cheapest to dearest, as for realize-mix: the median falls inside "mid"
# and the 90th percentile inside "large".
# slot: (name, count per round, [(request type, size band), ...])
ZETA_SLOTS = [
    ("tiny", 5, [("certify-dold", (1, 5)), ("census", (40, 80))]),
    ("mid", 8, [("zeta-factors", (600, 620)), ("zeta-dold", (600, 620))]),
    ("upper", 4, [("census-list", (30, 30)), ("zeta-factors", (1400, 1450))]),
    ("large", 2, [("census", (2900, 3000))]),
    ("tail", 1, [("census-list-big", (40, 40))]),
]


def zeta_round(rng: random.Random, r: int) -> list[Request]:
    out = []
    for _, count, variants in ZETA_SLOTS:
        for i in range(count):
            kind, band = variants[(i + r) % len(variants)]
            size = rng.randint(*band)
            key = f"{r}.{len(out)}"
            if kind.startswith("zeta"):
                if kind == "zeta-factors":
                    factors = _zeta_factors(rng)
                    text = ";".join(f"{'+' if d == 1 else '-'},{rr},{m}" for d, rr, m in factors)
                    argv = ["zeta", f"--factors={text}"]
                else:
                    dold = {1: 2, 2: 2, rng.randint(3, 4): rng.choice([-1, 1])}
                    factors = [(-1, k, -a) for k, a in dold.items()]
                    argv = ["zeta", "--dold", json.dumps({str(k): a for k, a in dold.items()})]
                exp = {"factors": factors, "series": size,
                       "canonicalize": rng.random() < 0.7, "mper": rng.random() < 0.5}
                argv += ["--series", str(size)]
                argv += ["--canonicalize"] if exp["canonicalize"] else []
                argv += ["--mper"] if exp["mper"] else []
                check = "zeta"
            elif kind.startswith("census"):
                argv = ["census", "--genus", str(size)]
                exp = {"genus": size}
                if kind.startswith("census-list"):
                    limit = rng.randint(19000, 20000) if kind.endswith("big") else rng.randint(2000, 2200)
                    corr = rng.choice(["orientable", "nonorientable"])
                    argv += ["--list-partitions", "--limit", str(limit), "--correspondence", corr]
                    exp.update(limit=limit, correspondence=corr)
                check = "census"
            else:
                dold = _random_dold(rng, size)
                argv = ["certify", "--dold", json.dumps({str(k): a for k, a in dold.items()})]
                exp = {"dold": dold}
                check = "certify_dold"
            out.append(Request(key, argv, check, exp))
    rng.shuffle(out)
    return out


# ------------------------------------------------------------ entry point

WORKLOADS = ("realize-mix", "analyze-dense", "zeta-census")

# The untimed warm-up request of each workload.  On analyze-dense it is a
# genus-30 Dehn-twist product, whose failed trial division fills the
# cyclotomic memo table as far as any request of the workload needs it.
WARMUP_GENUS = 30


def generate(workload: str, seed: int, workdir: Path) -> tuple[list[list[Request]], Request]:
    """The workload's rounds and its warm-up request, all from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "realize-mix":
        rounds = [realize_round(rng, r) for r in range(ROUNDS)]
        warm = Request("warmup", ["realize", "--set", "2,3,4", "--kind", "preserving"], "realize",
                       {"labels": [2, 3, 4], "kind": "preserving", "mode": "corrected"})
    elif workload == "analyze-dense":
        rounds = [analyze_round(rng, r, workdir) for r in range(ROUNDS)]
        rows = dehn_matrix(random.Random(f"warmup:{seed}"), WARMUP_GENUS)
        path = workdir / "warmup.json"
        path.write_text(json.dumps({"dim": len(rows), "rows": rows}))
        warm = Request("warmup", ["analyze", "--matrix", str(path), "--kind", "preserving",
                                  "--genus", str(WARMUP_GENUS)], "analyze_dehn", {"rows": rows})
    elif workload == "zeta-census":
        rounds = [zeta_round(rng, r) for r in range(ROUNDS)]
        warm = Request("warmup", ["census", "--genus", "50"], "census", {"genus": 50})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return rounds, warm


def parameters(workload: str) -> dict:
    """Generator parameters, recorded with every result."""
    slots = {"realize-mix": REALIZE_SLOTS, "analyze-dense": ANALYZE_SLOTS,
             "zeta-census": ZETA_SLOTS}[workload]
    return {"rounds": ROUNDS, "slots": [list(s) for s in slots]}
