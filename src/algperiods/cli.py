"""Command-line surface: realize / analyze / zeta / census / certify.

Reports go to standard output as deterministic JSON (keys sorted, any
integer beyond 2^53 rendered as a decimal string so interchange stays
bit-exact) or as plain text carrying the same information.  Matrix files
are JSON objects {"dim": n, "rows": [[...], ...]}; Dold classes are JSON
maps with string keys; readers accept big integers in either numeric or
string form.  No configuration files, no environment variables.  One recursive
pass writes the bytes of ``json.dumps(sort_keys=True, indent=2)``, with no
converted copy of the report and one join per list of plain integers.  Two
row writers skip that pass: a census listing is written from the levels of
the partition walk, each level formatted once and no object built per row,
and a matrix's rows are written from its nonzero index, a run of zeros by one
string repetition, so about one nonzero per row costs O(dim) Python steps.

Stable exit codes:

    0  success
    1  usage, input or output error
    2  unrealizable target set
    3  strict-mode mismatch between requested and achieved data
    4  matrix is not quasi-unipotent
    5  model validation failure (dimension/genus or form check)
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Dict, Optional

from .arith import DoldClass
from .census import _A1_SHIFT, _SCALES, _walk, census, partition_count
from .exactmat import DimensionMismatch, IntMatrix
from .lefschetz import (
    Analysis,
    FormViolation,
    HomologyModel,
    SurfaceKind,
    analyze,
    periodic_point_certificate,
)
from .realize import Mode, SurfaceModel, OddTargetUnrealizable, realize_target
from .zeta import (
    ZetaFactorization,
    canonicalize,
    format_factors,
    mper_from_factorization,
    parse_factors,
    series_expand,
    zeta_from_dold,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNREALIZABLE = 2
EXIT_STRICT = 3
EXIT_NOT_QUASI_UNIPOTENT = 4
EXIT_MODEL = 5

_JSON_INT_LIMIT = 2 ** 53

# Caps on the sizes that set the cost of zeta and census.  The times in the
# help texts were measured at each cap with Python 3.11 on a 2-core machine.
MAX_SERIES = 100_000
MAX_GENUS = 50_000
MAX_LISTED_PARTITIONS = 50_000  # P(41) = 44,583 fits, P(42) = 53,174 does not
MAX_WINDOW = 1_000_000  # Lefschetz numbers per report; the window is built whole in memory
MAX_SET_SUM = 200  # realize: the matrix dimension is at most 4 * sum + 2, its payload dim^2
# Size values (set elements, genus, window, limit, series order, matrix dim) longer
# than this are refused before int(), whose cost grows with the square of the
# digit count once main() lifts the digit limit; every cap above has 7 digits or fewer.
MAX_SIZE_CHARS = 20


class _UsageError(Exception):
    pass


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise _UsageError(message)

    def _get_values(self, action, arg_strings):
        # "--name=--" gives the option the value "--"; argparse before Python
        # 3.13 drops it as the end-of-options marker and hands on an empty list.
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)

    def _print_message(self, message, file=None):  # argparse drops an OSError here
        if message:
            (file or sys.stderr).write(message)
            (file or sys.stderr).flush()


class _CensusRows:
    """The rows of a census listing, one per partition of the genus in the order
    of the partition walk, written straight to JSON or text with the bytes that a
    payload dict per row would give, {"dold": {str(n): a_n}, "partition": [parts
    in decreasing order]}, with no Partition, DoldClass or dict built.

    Each distinct level (part, count) of the walk's stack is formatted once: its
    parts, each after a separator, and its dold entry '"n": a_n'.  For the part-1
    level that entry is a_1 = 2 + scale * p_1, and none when it is zero; with no
    ones, a_1 = 2.  Each position of the stack keeps the partition text through
    it and its entry, so a row redoes only the levels from the lowest one that
    changed, and sorts its few entries: they sort as their keys do, since '"'
    sorts below every digit, and "1" sorts first.  Text writes the entries without
    the quotes.  Parts and coefficients stay below twice the genus cap, far below
    2^53, so every number is written bare."""

    __slots__ = ("genus", "scale", "limit")

    def __init__(self, genus: int, correspondence: str, limit: Optional[int]):
        self.genus, self.scale, self.limit = genus, _SCALES[correspondence], limit

    def _rows(self, sep: str):
        """(partition text joined by sep, sorted dold entries) for each row."""
        scale, no_ones = self.scale, f'"1": {_A1_SHIFT}'
        levels = {}  # (part, count) -> (its parts, each after a sep; its entry or None)
        texts = [""]  # texts[i + 1]: the parts of stack levels 0..i
        entries = []  # the entries of the stack levels; only the last level can lack one
        for stack, low in islice(_walk(self.genus), self.limit):
            del texts[low + 1 :], entries[low:]
            for level in stack[low:]:
                cached = levels.get(level)
                if cached is None:
                    part, count = level
                    a = scale * count + (_A1_SHIFT if part == 1 else 0)
                    entry = f'"{part}": {a}' if a else None
                    cached = levels[level] = ((sep + str(part)) * count, entry)
                piece, entry = cached
                texts.append(texts[-1] + piece)
                if entry:
                    entries.append(entry)
            row = sorted(entries)
            if stack[-1][0] != 1:
                row.insert(0, no_ones)
            yield texts[-1][len(sep) :], row

    def json(self, item: str) -> list[str]:
        field, cell = item + "  ", item + "    "
        sep = "," + cell
        head, tail = "{" + field + '"dold": ', field + "]" + item + "}"
        middle = "," + field + '"partition": [' + cell
        out = []
        for parts, row in self._rows(sep):
            dold = "{" + cell + sep.join(row) + field + "}" if row else "{}"
            out.append(head + dold + middle + parts + tail)
        return out

    def text_lines(self, item: str) -> list[str]:
        """One text per row, its lines joined by newlines."""
        field, line = item + "  ", "\n" + item + "    "
        out = []
        for i, (parts, row) in enumerate(self._rows(" ")):
            dold = (line + line.join(row)).replace('"', "") if row else ""
            out.append(f"{item}[{i}]:\n{field}dold:{dold}\n{field}partition: [{parts}]")
        return out


class _MatrixRows:
    """The rows of a report's matrix, written from its nonzero index with the
    bytes of a plain list of lists, by one row writer for JSON and text: a run
    of k zeros is one repetition, ("0" + sep) * k, and each nonzero is written
    bare, or in JSON as a quoted decimal when |x| > 2^53."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: IntMatrix):
        self.matrix = matrix

    def _row_texts(self, sep: str, quote: bool):
        zero = "0" + sep
        limit = _JSON_INT_LIMIT
        for row, cols in zip(self.matrix.rows, self.matrix.nonzero):
            parts = []
            start = 0
            for j in cols:
                if j > start:
                    parts.append(zero * (j - start))
                x = row[j]
                parts.append(f'"{x}"{sep}' if quote and not -limit <= x <= limit else f"{x}{sep}")
                start = j + 1
            parts.append(zero * (len(row) - start))
            yield "".join(parts)[: -len(sep)]

    def json(self, item: str) -> list[str]:
        cell = item + "  "
        return [f"[{cell}{r}{item}]" for r in self._row_texts("," + cell, True)]

    def text_lines(self, item: str) -> list[str]:
        return [f"{item}[{i}]: [{r}]" for i, r in enumerate(self._row_texts(" ", False))]


def _json_text(value: Any, pad: str = "\n") -> str:
    """``value`` as JSON with two-space indent; ``pad`` is the newline and indent of its level."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value) if abs(value) <= _JSON_INT_LIMIT else f'"{value}"'
    inner = pad + "  "
    if isinstance(value, dict) and value:
        d = {str(k): v for k, v in value.items()}
        body = (f"{encode_basestring_ascii(k)}: {_json_text(d[k], inner)}" for k in sorted(d))
        return "{" + inner + ("," + inner).join(body) + pad + "}"
    if isinstance(value, (list, tuple)) and value:
        plain = set(map(type, value)) == {int} and max(map(abs, value)) <= _JSON_INT_LIMIT
        body = map(int.__repr__, value) if plain else (_json_text(x, inner) for x in value)
        return "[" + inner + ("," + inner).join(body) + pad + "]"
    if isinstance(value, (_CensusRows, _MatrixRows)):  # row writers give the items
        items = value.json(inner)
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    return json.dumps(value)  # empty containers, bool, None, float; others raise TypeError


def _text_lines(key: str, value: Any, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(value, dict):
        lines = [f"{pad}{key}:"]
        for k in sorted(value, key=str):
            lines.extend(_text_lines(str(k), value[k], indent + 1))
        return lines
    if isinstance(value, (list, tuple)):
        if all(not isinstance(x, (dict, list, tuple)) for x in value):
            return [f"{pad}{key}: [" + " ".join(str(x) for x in value) + "]"]
        lines = [f"{pad}{key}:"]
        for i, x in enumerate(value):
            lines.extend(_text_lines(f"[{i}]", x, indent + 1))
        return lines
    if isinstance(value, (_CensusRows, _MatrixRows)):
        lines = value.text_lines(pad + "  ")
        return [f"{pad}{key}:", *lines] if lines else [f"{pad}{key}: []"]
    return [f"{pad}{key}: {value}"]


def _emit(report: Dict[str, Any], fmt: str) -> None:
    if fmt == "json":
        print(_json_text(report))
    else:
        lines = []
        for key in sorted(report):
            lines.extend(_text_lines(key, report[key], 0))
        print("\n".join(lines))


def _size(text: str) -> int:
    """int(text) for a size value; a text longer than MAX_SIZE_CHARS is refused
    unparsed, and no refusal echoes more than MAX_SIZE_CHARS characters."""
    if len(text) > MAX_SIZE_CHARS:
        raise argparse.ArgumentTypeError(
            f"a value of {len(text)} characters is above the cap of {MAX_SIZE_CHARS} characters"
        )
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _echo(value: Any) -> str:
    """repr(value) for an error message, cut to MAX_SIZE_CHARS characters and the
    length of the whole, so that no message grows with the input."""
    text = repr(value)
    if len(text) <= MAX_SIZE_CHARS:
        return text
    size = len(value) if isinstance(value, str) else len(text)
    return f"{text[:MAX_SIZE_CHARS]}... (a value of {size} characters)"


def _parse_int(value: Any) -> int:
    if isinstance(value, bool):
        raise _InputError("booleans are not integers")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError as exc:
            raise _InputError(f"{_echo(value)} is not an integer") from exc
    raise _InputError(f"{_echo(value)} is not an integer")


def _parse_json(text: str, source: str) -> Any:
    """json.loads with CPython's default digit limit back in force, so that a
    number literal of more than 4,300 digits is refused in linear time rather
    than converted by the quadratic int(); integers written as strings have no
    such limit."""
    lifted = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if lifted is not None:
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _InputError(f"{source} is not valid JSON: {exc}") from exc
    except ValueError:  # a number literal beyond the digit limit
        raise _InputError(f"{source} has a number of over 4300 digits; write it as a string") from None
    finally:
        if lifted is not None:
            sys.set_int_max_str_digits(lifted)


def _load_json(path: str) -> Any:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    return _parse_json(text, path)


def _load_matrix(path: str) -> IntMatrix:
    data = _load_json(path)
    if not isinstance(data, dict) or "dim" not in data or "rows" not in data:
        raise _InputError(f'{path} must be an object {{"dim": n, "rows": [[...]]}}')
    dim = data["dim"]
    if isinstance(dim, str):
        try:
            dim = _size(dim)
        except argparse.ArgumentTypeError as exc:
            raise _InputError(f"{path}: dim: {exc}") from None
    dim = _parse_int(dim)
    rows = data["rows"]
    if not isinstance(rows, list) or len(rows) != dim:
        raise _InputError(f"{path}: expected {_echo(dim)} rows")
    parsed = []
    for row in rows:
        if not isinstance(row, list) or len(row) != dim:
            raise _InputError(f"{path}: every row must have {_echo(dim)} entries")
        # JSON integers are exact ints; anything else (bool included) goes through _parse_int.
        parsed.append([x if type(x) is int else _parse_int(x) for x in row])
    return IntMatrix(parsed)


def _load_dold(source: str) -> DoldClass:
    """Accept either an inline JSON object or a path to a JSON map.

    Input starting with "{" is inline JSON and is never probed as a path:
    a long inline map would make the probe fail with ENAMETOOLONG.
    """
    stripped = source.strip()
    if stripped.startswith("{"):
        data = _parse_json(stripped, "inline Dold map")
    else:
        try:
            is_file = Path(source).exists()
        except OSError as exc:
            raise _InputError(f"cannot read {_echo(source)}: {exc.strerror}") from exc
        if not is_file:
            raise _InputError(f"{_echo(source)} is neither a file nor an inline JSON object")
        data = _load_json(source)
    if not isinstance(data, dict):
        raise _InputError("a Dold class must be a JSON object of period -> coefficient")
    coeffs = {}
    for k, v in data.items():
        n = _parse_int(k)
        if n < 1:
            raise _InputError(f"period {_echo(k)} is not a positive integer")
        coeffs[n] = _parse_int(v)
    return DoldClass(coeffs)


def _dold_payload(d: DoldClass) -> Dict[str, int]:
    return {str(n): a for n, a in d.items()}


def _certificates_payload(d: DoldClass) -> list[Dict[str, Any]]:
    return [
        {
            "period": rec.period,
            "guarantee": rec.guarantee,
            "periods": list(rec.periods),
            "statement": rec.statement,
        }
        for rec in periodic_point_certificate(d)
    ]


def _analysis_payload(analysis: Analysis, bound: Optional[int]) -> Dict[str, Any]:
    """Shared report body for realize/analyze."""
    default = 2 * math.lcm(1, *analysis.factorization) if analysis.quasi_unipotent else 12
    n_max = bound if bound is not None else default
    if n_max > MAX_WINDOW:
        raise _UsageError(f"a Lefschetz window of {n_max} entries is above the cap of {MAX_WINDOW}")
    model = analysis.model
    report: Dict[str, Any] = {
        "kind": model.kind.value,
        "genus": model.genus,
        "matrix": {"dim": model.matrix.dim, "rows": _MatrixRows(model.matrix)},
        "charpoly": list(analysis.charpoly.coeffs),
        "form_checks": analysis.form_checks,
    }
    if not analysis.quasi_unipotent:
        report.update(
            {
                "quasi_unipotent": False,
                "residual_factor": list(analysis.residual.coeffs),
                "cyclotomic_factorization": None,
                "lefschetz": analysis.lefschetz(n_max),
                "dold": None,
                "algebraic_periods": None,
                "ap_odd": None,
                "mper_l": None,
                "odd_lefschetz_vanish": None,
                "certificates": [],
            }
        )
        return report
    mults = analysis.factorization
    lefschetz = analysis.lefschetz(n_max)
    dold = analysis.dold
    odd_periods = [n for n in dold.support() if n % 2]
    report.update(
        {
            "quasi_unipotent": True,
            "cyclotomic_factorization": {str(d): m for d, m in sorted(mults.items())},
            "lefschetz": lefschetz,
            "dold": _dold_payload(dold),
            "algebraic_periods": list(dold.support()),
            "ap_odd": odd_periods,
            "mper_l": odd_periods,
            "certificates": _certificates_payload(dold),
            # L_1, L_3, ... sit at the even indices of the window
            "odd_lefschetz_vanish": (
                not any(lefschetz[::2]) if model.kind is SurfaceKind.REVERSING else None
            ),
        }
    )
    return report


def _model_report(sm: SurfaceModel) -> Dict[str, Any]:
    report = _analysis_payload(sm.analysis, bound=None)
    report.update(
        {
            "mode": sm.mode.value if sm.mode is not None else None,
            "target": list(sm.target),
            "achieved": report["algebraic_periods"],
            "pieces": [
                {"n": p.n, "tau": p.tau, "copies": p.copies} for p in sm.pieces
            ],
            "flags": list(sm.flags),
        }
    )
    return report


def _cmd_realize(args) -> int:
    try:
        elements = [_size(part) for part in args.set.split(",") if part]
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"--set: {exc}") from None
    if not elements or any(n < 1 for n in elements):
        raise _UsageError("--set needs a nonempty list of positive integers")
    total = sum(set(elements))
    if total > MAX_SET_SUM:
        raise _UsageError(f"--set elements sum to {total}, above the cap of {MAX_SET_SUM}")
    kind = SurfaceKind(args.kind)
    try:
        sm = realize_target(set(elements), kind, mode=Mode(args.mode))
    except OddTargetUnrealizable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNREALIZABLE
    _emit(_model_report(sm), args.format)
    if args.strict and sm.flags:
        print(
            "error: strict mode, achieved periods "
            f"{sorted(sm.achieved.support())} differ from target {list(sm.target)}",
            file=sys.stderr,
        )
        return EXIT_STRICT
    return EXIT_OK


def _build_model(matrix: IntMatrix, kind: SurfaceKind, genus: int, strict: bool):
    """HomologyModel or an exit code (5) with a message on stderr."""
    try:
        return HomologyModel(kind, matrix, genus, strict=strict)
    except (DimensionMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    except FormViolation as exc:
        print(f"error: strict form check failed: {exc}", file=sys.stderr)
        return None


def _cmd_analyze(args) -> int:
    if args.max_iter is not None and args.max_iter < 1:
        raise _UsageError("--max-iter must be positive")
    matrix = _load_matrix(args.matrix)
    kind = SurfaceKind(args.kind)
    model = _build_model(matrix, kind, args.genus, strict=not args.no_strict)
    if model is None:
        return EXIT_MODEL
    analysis = analyze(model)
    _emit(_analysis_payload(analysis, bound=args.max_iter), args.format)
    return EXIT_OK if analysis.quasi_unipotent else EXIT_NOT_QUASI_UNIPOTENT


def _cmd_zeta(args) -> int:
    if (args.dold is None) == (args.factors is None):
        raise _UsageError("exactly one of --dold or --factors is required")
    if args.dold is not None:
        factorization = zeta_from_dold(_load_dold(args.dold))
    else:
        try:
            factorization = parse_factors(args.factors)
        except ValueError as exc:
            raise _UsageError(str(exc))
    report: Dict[str, Any] = {
        "factors": [
            {"delta": f.delta, "r": f.r, "m": f.m} for f in factorization.factors
        ],
        "factors_compact": format_factors(factorization),
    }
    if args.canonicalize:
        report["canonical"] = {str(k): e for k, e in canonicalize(factorization).items()}
    if args.series is not None:
        if args.series < 1:
            raise _UsageError("--series needs a positive truncation order")
        if args.series > MAX_SERIES:
            raise _UsageError(f"--series {args.series} is above the cap of {MAX_SERIES}")
        report["series"] = series_expand(factorization, args.series)
    if args.mper:
        report["mper"] = sorted(mper_from_factorization(factorization))
    _emit(report, args.format)
    return EXIT_OK


def _cmd_census(args) -> int:
    if args.genus < 1:
        raise _UsageError("--genus must be at least 1")
    if args.genus > MAX_GENUS:
        raise _UsageError(f"--genus {args.genus} is above the cap of {MAX_GENUS}")
    if args.limit is not None and args.limit < 0:
        raise _UsageError("--limit must be nonnegative")
    if args.list_partitions and (args.limit is None or args.limit > MAX_LISTED_PARTITIONS):
        if partition_count(args.genus) > MAX_LISTED_PARTITIONS:
            raise _UsageError(
                f"--list-partitions would list P({args.genus}) partitions, above the cap of"
                f" {MAX_LISTED_PARTITIONS}; pass --limit K with K <= {MAX_LISTED_PARTITIONS}"
            )
    rep = census(args.genus)
    report: Dict[str, Any] = {
        "genus": rep.genus,
        "exact_count": rep.exact_count,
        "hardy_ramanujan_estimate": rep.hr_estimate,
        "ratio": rep.ratio,
        "statement": rep.statement,
    }
    if args.list_partitions:
        report["correspondence"] = args.correspondence
        report["partitions"] = _CensusRows(args.genus, args.correspondence, args.limit)
    _emit(report, args.format)
    return EXIT_OK


def _cmd_certify(args) -> int:
    if (args.dold is None) == (args.matrix is None):
        raise _UsageError("exactly one of --dold or --matrix is required")
    if args.dold is not None:
        dold = _load_dold(args.dold)
        report: Dict[str, Any] = {"dold": _dold_payload(dold)}
    else:
        if args.kind is None or args.genus is None:
            raise _UsageError("--matrix needs --kind and --genus")
        matrix = _load_matrix(args.matrix)
        model = _build_model(matrix, SurfaceKind(args.kind), args.genus, strict=not args.no_strict)
        if model is None:
            return EXIT_MODEL
        analysis = analyze(model)
        if not analysis.quasi_unipotent:
            print(f"error: not quasi-unipotent: residual {analysis.residual}", file=sys.stderr)
            return EXIT_NOT_QUASI_UNIPOTENT
        dold = analysis.dold
        report = {
            "kind": model.kind.value,
            "genus": model.genus,
            "dold": _dold_payload(dold),
        }
    report["certificates"] = _certificates_payload(dold)
    _emit(report, args.format)
    return EXIT_OK


def _add_format(parser) -> None:
    parser.add_argument(
        "--format", choices=["json", "text"], default="json", help="output format"
    )


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(
        prog="algperiods",
        description="Exact algebraic periods of surface homology models",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    realize_p = sub.add_parser(
        "realize", help="construct a model whose algebraic periods are a given set"
    )
    realize_p.add_argument(
        "--set",
        required=True,
        metavar="N1,N2,...",
        help=f"target period set with distinct elements summing to <= {MAX_SET_SUM} (0.4 s and"
        " 7 MB of JSON at the cap for --set 200 --kind reversing, a dim-802 matrix)",
    )
    realize_p.add_argument(
        "--kind", required=True, choices=["preserving", "reversing", "nonorientable"]
    )
    realize_p.add_argument(
        "--mode",
        choices=["faithful", "corrected"],
        default="corrected",
        help="reversing case only: faithful follows the literal doubled construction",
    )
    realize_p.add_argument(
        "--strict", action="store_true", help="exit 3 if achieved periods differ from the target"
    )
    _add_format(realize_p)

    analyze_p = sub.add_parser("analyze", help="full analysis of a matrix model")
    analyze_p.add_argument("--matrix", required=True, metavar="FILE")
    analyze_p.add_argument(
        "--kind", required=True, choices=["preserving", "reversing", "nonorientable"]
    )
    analyze_p.add_argument("--genus", required=True, type=_size)
    analyze_p.add_argument(
        "--no-strict", action="store_true", help="skip the symplectic/antisymplectic form check"
    )
    analyze_p.add_argument(
        "--max-iter",
        type=_size,
        default=None,
        metavar="N",
        help=f"Lefschetz numbers to print, <= {MAX_WINDOW} (default: twice the lcm of orders)",
    )
    _add_format(analyze_p)

    zeta_p = sub.add_parser("zeta", help="manipulate zeta-function factorizations")
    zeta_p.add_argument("--dold", metavar="FILE|JSON", help="Dold class as a JSON map")
    zeta_p.add_argument(
        "--factors", metavar="STRING", help='factor string, e.g. "+,3,2;-,1,-1"'
    )
    zeta_p.add_argument("--canonicalize", action="store_true")
    zeta_p.add_argument(
        "--series",
        type=_size,
        default=None,
        metavar="N",
        help=f"power series through degree N <= {MAX_SERIES} (0.2 s at the cap for three"
        " factors with |m| <= 2; each factor costs O(N * min(|m|, N // r + 1)))",
    )
    zeta_p.add_argument("--mper", action="store_true")
    _add_format(zeta_p)

    census_p = sub.add_parser("census", help="partition census at a given genus")
    census_p.add_argument(
        "--genus", required=True, type=_size, help=f"genus G <= {MAX_GENUS} (1.4 s at the cap)"
    )
    census_p.add_argument(
        "--list-partitions",
        action="store_true",
        help=f"list partitions with their Dold classes; at most {MAX_LISTED_PARTITIONS} may be"
        " listed (genus 41, 44,583 partitions: 0.4 s and 13 MB as JSON, 0.3 s and 5.4 MB as text)",
    )
    census_p.add_argument(
        "--correspondence", choices=["orientable", "nonorientable"], default="orientable"
    )
    census_p.add_argument(
        "--limit", type=_size, default=None, metavar="K", help="list only the first K partitions"
    )
    _add_format(census_p)

    certify_p = sub.add_parser("certify", help="periodic-point guarantees from a Dold class")
    certify_p.add_argument("--dold", metavar="FILE|JSON")
    certify_p.add_argument("--matrix", metavar="FILE")
    certify_p.add_argument("--kind", choices=["preserving", "reversing", "nonorientable"])
    certify_p.add_argument("--genus", type=_size, default=None)
    certify_p.add_argument("--no-strict", action="store_true")
    _add_format(certify_p)

    return parser


_COMMANDS = {
    "realize": _cmd_realize,
    "analyze": _cmd_analyze,
    "zeta": _cmd_zeta,
    "census": _cmd_census,
    "certify": _cmd_certify,
}


def main(argv=None) -> int:
    """Run one command and return its exit code.

    Python 3.11+ refuses to convert integers of more than 4300 digits to or
    from strings; the limit is lifted for the duration of the call (it is
    process-wide) so that big integers stay bit-exact in input and output,
    except for JSON number literals (see ``_parse_json``).  A closed or full
    standard output ends the run with one line on stderr and exit 1.
    """
    parser = build_parser()
    saved_limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if saved_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # stdout closed early (BrokenPipeError) or full
        print(f"output error: {exc.strerror or exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError) and sys.stdout is sys.__stdout__:
            # The interpreter flushes stdout again at exit; let that go nowhere.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    finally:
        if saved_limit is not None:
            sys.set_int_max_str_digits(saved_limit)


if __name__ == "__main__":
    sys.exit(main())
