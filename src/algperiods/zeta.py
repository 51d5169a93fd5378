"""Lefschetz zeta functions as formal products of binomials (1 + d*z^r)^m.

The zeta function of an integer sequence (L_n) is exp(sum L_n z^n / n).
For a finitely supported Dold class it is the finite product

    prod_k (1 - z^k)^(-a_k),

the exponent convention being pinned down by the series identity: taking
z d/dz log of the product must reproduce L_n = sum_{k | n} k a_k, which
the test suite checks term by term.

Canonicalization rewrites every (1 + z^k) factor through
(1 + z^k) = (1 - z^(2k)) / (1 - z^k), leaving the unique representation
prod (1 - z^k)^(e_k):

    e_k = c_k + d_(k/2) - d_k   (k even),      e_k = c_k - d_k   (k odd),

where c and d collect the exponents of (1 - z^k) and (1 + z^k) factors.
The odd part of the support of e is the minimal set of Lefschetz periods
of any sequence with this zeta function; it never contains even numbers.

Factor string grammar (used by the command line): semicolon-separated
terms "SIGN,r,m" with SIGN in {+,-}, e.g. "+,3,2;-,1,-1" for
(1+z^3)^2 (1-z)^(-1).  Whitespace is ignored and duplicate (sign, r)
terms merge by adding exponents.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, index, sub
from typing import Dict, Iterable, NamedTuple

from .arith import DoldClass

__all__ = [
    "Factor",
    "ZetaFactorization",
    "zeta_from_dold",
    "series_expand",
    "lefschetz_from_zeta",
    "canonicalize",
    "mper_from_factorization",
    "parse_factors",
    "format_factors",
]


class Factor(NamedTuple):
    delta: int  # +1 or -1
    r: int      # exponent of z inside the binomial
    m: int      # integer exponent of the whole binomial


class ZetaFactorization:
    """Normalized finite product of binomials (1 + delta*z^r)^m.

    Normalization merges factors with the same (delta, r), drops zero
    exponents and sorts by (r, delta), so equal products compare equal.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable[tuple[int, int, int]] = ()):
        merged: Dict[tuple[int, int], int] = {}
        for delta, r, m in factors:
            delta, r, m = index(delta), index(r), index(m)
            if delta not in (1, -1):
                raise ValueError(f"factor sign must be +1 or -1, got {delta}")
            if r < 1:
                raise ValueError(f"factor degree must be positive, got {r}")
            merged[(delta, r)] = merged.get((delta, r), 0) + m
        self.factors = tuple(
            Factor(delta, r, m)
            for (delta, r), m in sorted(merged.items(), key=lambda kv: (kv[0][1], kv[0][0]))
            if m
        )

    def __eq__(self, other: object):
        if isinstance(other, ZetaFactorization):
            return self.factors == other.factors
        return NotImplemented

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self) -> str:
        return f"ZetaFactorization({format_factors(self)!r})"


def zeta_from_dold(d: DoldClass) -> ZetaFactorization:
    """The zeta function of the sequence L_n = sum_{k|n} k a_k."""
    return ZetaFactorization((-1, k, -a) for k, a in d.items())


def _times_one_plus(s: list[int], delta: int, r: int) -> None:
    """s *= (1 + delta*z^r) in place, truncated to len(s)."""
    s[r:] = list(map(add if delta == 1 else sub, s[r:], s))


def _over_one_minus(s: list[int], q: int) -> None:
    """s /= (1 - z^q) in place: prefix sums along each residue class mod q."""
    for c in range(min(q, len(s))):
        s[c::q] = list(accumulate(s[c::q]))


def _times_binomial_series(s: list[int], delta: int, r: int, m: int) -> list[int]:
    """s * (1 + delta*z^r)^m, truncated, from the closed-form coefficients.

    The coefficient of z^(tr) is C(m, t) delta^t, with C extended to negative
    m; successive ones follow C(m, t) = C(m, t-1) (m - t + 1) / t exactly,
    and vanish for t > m >= 0.  Each nonzero entry of s adds one multiple of
    them, so the cost is at most nnz(s) * (n_max // r + 1) multiplications.
    """
    n_max = len(s) - 1
    terms = n_max // r if m < 0 else min(n_max // r, m)
    coeffs = [1]
    for t in range(1, terms + 1):
        coeffs.append(coeffs[-1] * (m - t + 1) // t * delta)
    span = r * len(coeffs)
    out = [0] * (n_max + 1)
    for i, a in enumerate(s):
        if a:
            out[i : i + span : r] = list(map(add, out[i : i + span : r], map(a.__mul__, coeffs)))
    return out


def series_expand(f: ZetaFactorization, n_max: int) -> list[int]:
    """Integer power-series coefficients of the product through degree n_max.

    The factors (1 + delta*z^r)^m are applied to the running series s one
    by one, each by the cheaper of two routes:

    - |m| passes of n_max + 1 additions and no multiplication: multiplying
      by (1 + delta*z^r) adds the shifted series, dividing by (1 - z^q)
      takes prefix sums along each residue class mod q, and
      1 / (1 + z^r) = (1 - z^r) / (1 - z^(2r));
    - the closed-form truncated binomial series, one multiply-add sweep of
      n_max // r + 1 terms per nonzero entry of s.

    Passes run when |m| * (n_max + 1) <= nnz(s) * (n_max // r + 1), so a
    factor costs O(n_max * min(|m|, n_max // r + 1)) big-integer operations,
    and never more than the closed form alone.
    """
    if n_max < 1:
        raise ValueError("truncation order must be positive")
    series = [1] + [0] * n_max
    for delta, r, m in f.factors:
        nonzero = n_max + 1 - series.count(0)
        if abs(m) * (n_max + 1) > nonzero * (n_max // r + 1):
            series = _times_binomial_series(series, delta, r, m)
        elif m > 0:
            for _ in range(m):
                _times_one_plus(series, delta, r)
        else:
            for _ in range(-m):
                if delta == 1:
                    _times_one_plus(series, -1, r)
                    _over_one_minus(series, 2 * r)
                else:
                    _over_one_minus(series, r)
    return series


def lefschetz_from_zeta(f: ZetaFactorization, n_max: int) -> list[int]:
    """Recover L_1..L_{n_max} from z d/dz log of the product.

    Each factor (1 + d*z^r)^m contributes -m * r * (-d)^(n/r) to L_n when
    r divides n; summing over factors inverts exp(sum L_n z^n / n).
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    out = [0] * n_max
    for delta, r, m in f.factors:
        for n in range(r, n_max + 1, r):
            out[n - 1] -= m * r * (-delta) ** (n // r)
    return out


def canonicalize(f: ZetaFactorization) -> Dict[int, int]:
    """Exponents e_k of the unique representation prod (1 - z^k)^(e_k)."""
    c: Dict[int, int] = {}
    d: Dict[int, int] = {}
    for delta, r, m in f.factors:
        table = d if delta == 1 else c
        table[r] = table.get(r, 0) + m
    keys = set(c) | set(d) | {2 * k for k in d}
    out: Dict[int, int] = {}
    for k in sorted(keys):
        e = c.get(k, 0) - d.get(k, 0)
        if k % 2 == 0:
            e += d.get(k // 2, 0)
        if e:
            out[k] = e
    return out


def mper_from_factorization(f: ZetaFactorization) -> set[int]:
    """Odd indices with nonzero canonical exponent; never contains evens."""
    return {k for k in canonicalize(f) if k % 2}


def parse_factors(text: str) -> ZetaFactorization:
    """Parse the "SIGN,r,m;..." factor grammar."""
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty factor string")
    factors = []
    for term in compact.split(";"):
        if not term:
            continue
        fields = term.split(",")
        if len(fields) != 3:
            raise ValueError(f"factor term {term!r} is not SIGN,r,m")
        sign, r_text, m_text = fields
        if sign in ("+",):
            delta = 1
        elif sign in ("-", "−"):
            delta = -1
        else:
            raise ValueError(f"factor sign {sign!r} must be + or -")
        try:
            r = int(r_text)
            m = int(m_text)
        except ValueError as exc:
            raise ValueError(f"factor term {term!r} has non-integer fields") from exc
        factors.append((delta, r, m))
    if not factors:
        raise ValueError("factor string contains no terms")
    return ZetaFactorization(factors)


def format_factors(f: ZetaFactorization) -> str:
    """Inverse of parse_factors, for round-tripping reports."""
    return ";".join(f"{'+' if delta == 1 else '-'},{r},{m}" for delta, r, m in f.factors)
