"""Independent checks of algperiods CLI output.

Nothing here imports algperiods: every expected value is derived from the
request itself (or from how the benchmark built its input), with
arithmetic written out again below.  Checks are semantic, not byte
golden: a later change may print a shorter Lefschetz window or reorder
keys and still pass, as long as every printed number is right.

Each ``check_*`` function takes the parsed JSON report (or ``None``), the
exit code and the request's expectation record, and returns a list of
problems; an empty list means the output is correct.

Polynomials are lists of integer coefficients, lowest degree first.
"""

from __future__ import annotations

import json
import math

FAITHFUL_FLAG = "achieved-differs-from-target"


# --------------------------------------------------------------- arithmetic


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def moebius(n: int) -> int:
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    return -result if m > 1 else result


def dold_from_lefschetz(lef: dict[int, int]) -> dict[int, int]:
    """a_n = (1/n) sum_{k|n} mu(n/k) L_k on a divisor-closed index set."""
    out = {}
    for n in lef:
        total = sum(moebius(n // k) * lef[k] for k in divisors(n))
        if total % n:
            raise ValueError(f"Lefschetz data violates the Dold congruence at {n}")
        if total:
            out[n] = total // n
    return out


def poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def poly_divmod(p: list[int], q: list[int]) -> tuple[list[int], list[int]]:
    """Division by a polynomial whose leading coefficient is +-1."""
    lead = q[-1]
    if lead not in (1, -1):
        raise ValueError("divisor must be monic up to sign")
    rem = list(p)
    dq = len(q) - 1
    if len(rem) - 1 < dq:
        return [0], rem
    quo = [0] * (len(rem) - dq)
    for i in range(len(rem) - 1, dq - 1, -1):
        c = rem[i] * lead
        if c:
            quo[i - dq] = c
            for j in range(dq + 1):
                rem[i - dq + j] -= c * q[j]
    return quo, trim(rem[:dq])


def trim(p: list[int]) -> list[int]:
    end = len(p)
    while end > 1 and p[end - 1] == 0:
        end -= 1
    return p[:end]


_CYCLOTOMIC: dict[int, list[int]] = {}


def cyclotomic(n: int) -> list[int]:
    """Phi_n = prod_{d|n} (x^d - 1)^mu(n/d), numerator first, then exact division."""
    if n not in _CYCLOTOMIC:
        num, dens = [1], []
        for d in divisors(n):
            x_d = [-1] + [0] * (d - 1) + [1]
            mu = moebius(n // d)
            if mu == 1:
                num = poly_mul(num, x_d)
            elif mu == -1:
                dens.append(x_d)
        for den in dens:
            num, rem = poly_divmod(num, den)
            if any(rem):
                raise ArithmeticError(f"Phi_{n} construction was not exact")
        _CYCLOTOMIC[n] = trim(num)
    return _CYCLOTOMIC[n]


def product_of_cyclotomics(mults: dict[int, int]) -> list[int]:
    out = [1]
    for d in sorted(mults):
        for _ in range(mults[d]):
            out = poly_mul(out, cyclotomic(d))
    return out


def power_sums(cp: list[int], n_max: int) -> list[int]:
    """s_1..s_{n_max} of the roots of a monic polynomial (Newton's identities)."""
    deg = len(cp) - 1
    a = [cp[deg - i] for i in range(deg + 1)]  # a[0] = 1, a[i] = coefficient of x^(deg-i)
    sums: list[int] = []
    for k in range(1, n_max + 1):
        acc = -k * a[k] if k <= deg else 0
        for i in range(1, min(k - 1, deg) + 1):
            acc -= a[i] * sums[k - i - 1]
        sums.append(acc)
    return sums


def degree_two_term(kind: str, n: int) -> int:
    if kind == "preserving":
        return 1
    if kind == "reversing":
        return -1 if n % 2 else 1
    return 0


def partition_numbers(n: int) -> list[int]:
    """P(0..n) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p


def next_partition(parts: list[int]) -> list[int] | None:
    """Successor in decreasing lexicographic order, parts listed largest first."""
    ones = 0
    body = list(parts)
    while body and body[-1] == 1:
        body.pop()
        ones += 1
    if not body:
        return None
    k = body.pop() - 1
    rest = ones + 1
    body.append(k)
    while rest:
        take = min(k, rest)
        body.append(take)
        rest -= take
    return body


def hardy_ramanujan(n: int) -> float:
    return math.exp(math.pi * math.sqrt(2 * n / 3)) / (4 * n * math.sqrt(3))


def zeta_lefschetz(factors: list[tuple[int, int, int]], n_max: int) -> dict[int, int]:
    """L_n of prod (1 + delta z^r)^m, from z d/dz log of each binomial."""
    lef = {n: 0 for n in range(1, n_max + 1)}
    for delta, r, m in factors:
        for n in range(r, n_max + 1, r):
            lef[n] -= m * r * (-delta) ** (n // r)
    return lef


def zeta_series(factors: list[tuple[int, int, int]], n_max: int) -> list[int]:
    """Coefficients of prod (1 + delta z^r)^m through z^n_max, one binomial at a time."""
    s = [1] + [0] * n_max
    for delta, r, m in factors:
        for _ in range(abs(m)):
            if m > 0:  # multiply by (1 + delta z^r), top degree first
                for i in range(n_max, r - 1, -1):
                    s[i] += delta * s[i - r]
            else:  # divide by (1 + delta z^r), bottom degree first
                for i in range(r, n_max + 1):
                    s[i] -= delta * s[i - r]
    return s


def normalized_factors(factors) -> list[tuple[int, int, int]]:
    merged: dict[tuple[int, int], int] = {}
    for delta, r, m in factors:
        merged[(delta, r)] = merged.get((delta, r), 0) + m
    return [(d, r, m) for (d, r), m in sorted(merged.items(), key=lambda kv: (kv[0][1], kv[0][0])) if m]


# ------------------------------------------------------------ shared checks


def _int(x) -> int:
    """Report integers beyond 2^53 are printed as decimal strings."""
    if isinstance(x, bool):
        raise TypeError("boolean where an integer was expected")
    return int(x)


def _int_map(d: dict) -> dict[int, int]:
    return {int(k): _int(v) for k, v in d.items()}


def _check_lefschetz_vs_dold(rep: dict, problems: list[str]) -> None:
    dold = _int_map(rep["dold"])
    for n, value in enumerate(rep["lefschetz"], start=1):
        expected = sum(k * a for k, a in dold.items() if n % k == 0)
        if _int(value) != expected:
            problems.append(f"L_{n} = {value} but the printed Dold class gives {expected}")
            return


def _check_lefschetz_vs_charpoly(rep: dict, cp: list[int], limit: int, problems: list[str]) -> None:
    lef = [_int(x) for x in rep["lefschetz"][:limit]]
    if not lef:
        problems.append("empty Lefschetz window")
        return
    sums = power_sums(cp, len(lef))
    for n, value in enumerate(lef, start=1):
        if value != 1 - sums[n - 1] + degree_two_term(rep["kind"], n):
            problems.append(f"L_{n} = {value} disagrees with the printed characteristic polynomial")
            return


def _check_certificates(rep: dict, dold: dict[int, int], problems: list[str]) -> None:
    support = sorted(n for n, a in dold.items() if a)
    certs = rep.get("certificates")
    if [c["period"] for c in certs] != support:
        problems.append("certificates do not follow the Dold support")
        return
    for c in certs:
        n = c["period"]
        want = ("odd", [n]) if n % 2 else ("either", [n, n // 2])
        if (c["guarantee"], c["periods"]) != want or not c.get("statement"):
            problems.append(f"certificate for period {n} is wrong")
            return


def _check_qu_analysis(rep: dict, problems: list[str]) -> list[int]:
    """Checks shared by every quasi-unipotent report; returns the charpoly."""
    cp = [_int(c) for c in rep["charpoly"]]
    mults = _int_map(rep["cyclotomic_factorization"])
    if product_of_cyclotomics(mults) != cp:
        problems.append("charpoly is not the product of the printed cyclotomic factors")
    if len(cp) - 1 != rep["matrix"]["dim"]:
        problems.append("charpoly degree differs from the matrix dimension")
    dold = _int_map(rep["dold"])
    if sorted(n for n, a in dold.items() if a) != rep["algebraic_periods"]:
        problems.append("algebraic_periods is not the support of the Dold class")
    odd = [n for n in rep["algebraic_periods"] if n % 2]
    if rep["ap_odd"] != odd or rep["mper_l"] != odd:
        problems.append("ap_odd / mper_l are not the odd algebraic periods")
    _check_lefschetz_vs_dold(rep, problems)
    _check_lefschetz_vs_charpoly(rep, cp, 64, problems)
    if rep["kind"] == "reversing":
        vanish = all(_int(v) == 0 for v in rep["lefschetz"][0::2])
        if rep["odd_lefschetz_vanish"] is not vanish:
            problems.append("odd_lefschetz_vanish flag is wrong")
    _check_certificates(rep, dold, problems)
    return cp


def _check_form_flags(rep: dict, problems: list[str]) -> None:
    flags = rep.get("form_checks")
    if rep["kind"] == "nonorientable":
        if flags is not None:
            problems.append("non-orientable report carries form checks")
    elif flags is None or not flags.get("symplectic" if rep["kind"] == "preserving" else "antisymplectic"):
        problems.append("form check of the model's own kind is not true")


def _trace_of(rows: list[list]) -> int:
    return sum(_int(rows[i][i]) for i in range(len(rows)))


# ------------------------------------------------------------ per-command checks


def check_realize(rep, code: int, exp: dict) -> list[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    problems: list[str] = []
    target = sorted(set(exp["labels"]))
    if rep["target"] != target or rep["kind"] != exp["kind"] or rep["quasi_unipotent"] is not True:
        problems.append("target, kind or quasi_unipotent flag is wrong")
        return problems
    dim = rep["matrix"]["dim"]
    if dim != (2 * rep["genus"] if exp["kind"] != "nonorientable" else rep["genus"] - 1):
        problems.append("matrix dimension does not match the genus")
    if rep["achieved"] != rep["algebraic_periods"]:
        problems.append("achieved differs from algebraic_periods")
    differs = set(rep["achieved"]) ^ set(target)
    if differs:
        allowed = exp["kind"] == "reversing" and exp.get("mode") == "faithful" and differs <= {2}
        if not allowed or FAITHFUL_FLAG not in rep["flags"]:
            problems.append(f"achieved {rep['achieved']} differs from target {target}")
    elif rep["flags"]:
        problems.append("deviation flag set although achieved == target")
    _check_form_flags(rep, problems)
    cp = _check_qu_analysis(rep, problems)
    if dim and cp[dim - 1] != -_trace_of(rep["matrix"]["rows"]):
        problems.append("charpoly x^(n-1) coefficient is not -trace")
    return problems


def check_analyze_conj(rep, code: int, exp: dict) -> list[str]:
    """Quasi-unipotent conjugate of diag(P, +-P) with known cycle structure."""
    if code != 0:
        return [f"exit code {code}, expected 0"]
    problems: list[str] = []
    if rep["matrix"]["rows"] != exp["rows"]:
        problems.append("echoed matrix differs from the input file")
    if rep["quasi_unipotent"] is not True:
        return problems + ["quasi-unipotent input reported as not quasi-unipotent"]
    _check_form_flags(rep, problems)
    cp = _check_qu_analysis(rep, problems)
    if cp != known_charpoly(exp["cycles"], exp["sign"]):
        problems.append("charpoly differs from the one known from the construction")
    if _int_map(rep["dold"]) != known_dold(exp["cycles"], exp["sign"], exp["kind"]):
        problems.append("Dold class differs from the one known from the construction")
    return problems


def check_certify_conj(rep, code: int, exp: dict) -> list[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    problems: list[str] = []
    dold = _int_map(rep["dold"])
    if rep["kind"] != exp["kind"] or rep["genus"] != exp["genus"]:
        problems.append("kind or genus is wrong")
    if dold != known_dold(exp["cycles"], exp["sign"], exp["kind"]):
        problems.append("Dold class differs from the one known from the construction")
    _check_certificates(rep, dold, problems)
    return problems


def check_analyze_dehn(rep, code: int, exp: dict) -> list[str]:
    """Product of symplectic transvections: QU-ness is decided from the output."""
    if rep is None:
        return [f"exit code {code} with no report"]
    problems: list[str] = []
    rows = exp["rows"]
    if rep["matrix"]["rows"] != rows:
        problems.append("echoed matrix differs from the input file")
    cp = [_int(c) for c in rep["charpoly"]]
    n = len(rows)
    if len(cp) != n + 1 or cp[0] != 1 or cp != cp[::-1] or cp[n - 1] != -_trace_of(rows):
        problems.append("charpoly is not reciprocal of degree n with c_0 = 1 and c_(n-1) = -tr A")
        return problems
    if not (rep.get("form_checks") or {}).get("symplectic"):
        problems.append("product of transvections not reported symplectic")
    if rep["quasi_unipotent"] is True:
        if code != 0:
            problems.append(f"exit code {code} for a quasi-unipotent report, expected 0")
        _check_qu_analysis(rep, problems)
        return problems
    if code != 4:
        problems.append(f"exit code {code} for a non-quasi-unipotent report, expected 4")
    residual = [_int(c) for c in rep["residual_factor"]]
    _, rem = poly_divmod(cp, residual)
    if any(rem) or len(residual) < 2:
        problems.append("residual factor does not divide the charpoly")
    elif not _has_root_off_unit_circle(residual):
        problems.append("could not confirm that the residual has a root off the unit circle")
    _check_lefschetz_vs_charpoly(rep, cp, 64, problems)
    return problems


def _has_root_off_unit_circle(p: list[int]) -> bool:
    """A product of cyclotomics has |s_k| <= degree for every power sum s_k."""
    deg = len(p) - 1
    return any(
        any(abs(s) > deg for s in power_sums(p, n_max)) for n_max in (2 * deg + 8, 8 * deg + 64)
    )


def known_charpoly(cycles: list[int], sign: int) -> list[int]:
    """det(xI - diag(P, sign*P)) for P a direct sum of cycles of the given lengths."""
    out = [1]
    for c in cycles:
        out = poly_mul(out, [-1] + [0] * (c - 1) + [1])
        const = -1 if sign == 1 or c % 2 == 0 else 1  # x^c - (sign)^c
        out = poly_mul(out, [const] + [0] * (c - 1) + [1])
    return out


def known_dold(cycles: list[int], sign: int, kind: str) -> dict[int, int]:
    """Dold class of diag(P, sign*P) from tr(P^n) = sum of the cycle lengths dividing n."""
    orders = {1, 2}
    for c in cycles:
        orders.update(divisors(2 * c))
    lef = {}
    for n in range(1, max(orders) + 1):
        t = sum(c for c in cycles if n % c == 0)
        lef[n] = 1 - (t + sign ** n * t) + degree_two_term(kind, n)
    return dold_from_lefschetz(lef)


def check_zeta(rep, code: int, exp: dict) -> list[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    problems: list[str] = []
    factors = normalized_factors(exp["factors"])
    printed = [(f["delta"], f["r"], f["m"]) for f in rep["factors"]]
    if printed != factors:
        return [f"factors {printed} differ from the request {factors}"]
    compact = ";".join(f"{'+' if d == 1 else '-'},{r},{m}" for d, r, m in factors)
    if rep["factors_compact"] != compact:
        problems.append("factors_compact does not match the factors")
    if "series" in exp:
        if [_int(c) for c in rep["series"]] != zeta_series(factors, exp["series"]):
            problems.append("series coefficients are wrong")
    top = 2 * max((r for _, r, _ in factors), default=1)
    canon = {k: -e for k, e in dold_from_lefschetz(zeta_lefschetz(factors, top)).items()}
    if exp.get("canonicalize") and _int_map(rep["canonical"]) != canon:
        problems.append("canonical exponents are wrong")
    if exp.get("mper") and rep["mper"] != sorted(k for k in canon if k % 2):
        problems.append("mper is wrong")
    return problems


def check_census(rep, code: int, exp: dict) -> list[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    problems: list[str] = []
    g = exp["genus"]
    count = partition_numbers(g)[g]
    if rep["genus"] != g or _int(rep["exact_count"]) != count:
        return [f"P({g}) printed as {rep['exact_count']}, pentagonal recurrence gives {count}"]
    est = hardy_ramanujan(g)
    if not math.isclose(rep["hardy_ramanujan_estimate"], est, rel_tol=1e-9):
        problems.append("Hardy-Ramanujan estimate is wrong")
    if not math.isclose(rep["ratio"], est / count, rel_tol=1e-9):
        problems.append("ratio is wrong")
    if str(count) not in rep["statement"]:
        problems.append("statement does not quote P(genus)")
    if "limit" in exp:
        problems.extend(_check_partition_list(rep, g, min(exp["limit"], count), exp["correspondence"]))
    return problems


def _check_partition_list(rep: dict, g: int, want: int, corr: str) -> list[str]:
    if rep.get("correspondence") != corr:
        return ["correspondence is wrong"]
    listed = rep["partitions"]
    if len(listed) != want:
        return [f"{len(listed)} partitions listed, expected {want}"]
    expected = [g]
    for i, entry in enumerate(listed):
        parts = entry["partition"]
        if parts != expected:
            return [f"partition #{i} is {parts}, decreasing lexicographic order needs {expected}"]
        mult: dict[int, int] = {}
        for k in parts:
            mult[k] = mult.get(k, 0) + 1
        if corr == "orientable":
            dold = {n: -2 * m for n, m in mult.items() if n != 1}
            dold[1] = -2 * (mult.get(1, 0) - 1)
        else:
            dold = {n: -m for n, m in mult.items() if n != 1}
            dold[1] = 2 - mult.get(1, 0)
        if _int_map(entry["dold"]) != {n: a for n, a in dold.items() if a}:
            return [f"Dold class of partition {parts} is wrong"]
        expected = next_partition(parts)
    return []


def check_certify_dold(rep, code: int, exp: dict) -> list[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    dold = {n: a for n, a in exp["dold"].items() if a}
    problems: list[str] = []
    if _int_map(rep["dold"]) != dold:
        problems.append("printed Dold class differs from the input")
    _check_certificates(rep, dold, problems)
    return problems


CHECKS = {
    "realize": check_realize,
    "analyze_conj": check_analyze_conj,
    "certify_conj": check_certify_conj,
    "analyze_dehn": check_analyze_dehn,
    "zeta": check_zeta,
    "census": check_census,
    "certify_dold": check_certify_dold,
}


def verify(check: str, exp: dict, code: int, stdout: str) -> list[str]:
    """All problems with one request's output; [] when it is correct."""
    rep = None
    if stdout.strip():
        try:
            rep = json.loads(stdout)
        except ValueError:
            return [f"exit code {code} and stdout is not JSON"]
    elif code == 0:
        return ["exit code 0 with empty stdout"]
    try:
        return CHECKS[check](rep, code, exp)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return [f"report is malformed: {type(exc).__name__}: {exc}"]
