"""Command-line surface: realize / analyze / zeta / census / certify.

Reports go to standard output as deterministic JSON (keys sorted, any
integer beyond 2^53 rendered as a decimal string so interchange stays
bit-exact) or as plain text carrying the same information.  Matrix files are
JSON objects {"dim": n, "rows": [[...], ...]}; Dold classes are JSON maps
with string keys; readers accept big integers in either numeric or string
form.  No configuration files, no environment variables.  A report holds the
library's own values as they are: Dold classes, factorizations and canonical
forms as dicts with integer keys, and each namedtuple record (a certificate,
a piece, a zeta factor) as its ``_asdict()``, never the record itself, which
the JSON writer would write as a list.  The writers only read them: both
turn keys into strings and sort them as strings, so "10" comes before "5".
A report goes to standard output in pieces and is never one string: JSON in
the bytes of ``json.dumps(sort_keys=True, indent=2)`` on the string-keyed
report, with no converted copy, from one recursive writer, ``_write_json``:
one call per value and no generator, so a report costs O(values + nnz)
Python steps besides its bytes, and one write per top-level field and per
row batch.  Text goes line by line.  The two row writers are generator
functions, ``_census_rows`` and ``_matrix_rows``, that a report holds bound
to their data with ``functools.partial``.  Called with ``(item, json)``,
each hands over its rows in batches of item texts, and the two emitters own
all framing: the JSON writer joins a batch with commas inside one bracket
pair, as it does the items of a plain list, and the text writer puts each
item after its running index "[i]:".  A census listing comes one block at a
time, the rows that share their parts of at least _CUT: each row is one
f-string of the block's stack texts and an entry of a suffix table made for
the call, with no object built.  A matrix comes _ROW_BATCH rows at a time
from its nonzero index alone: its all-zero text is built once per call, and
each nonzero is spliced in at its offset, so a batch costs O(nnz) slices
plus its bytes (in JSON a batch is one text, its rows already joined as the
writer joins items), and no matrix, realized or loaded, builds dense rows.  A
write that fails ends the run with what was written so far, a prefix of the
report.

Stable exit codes:

    0  success
    1  usage, input or output error
    2  unrealizable target set
    3  strict-mode mismatch between requested and achieved data
    4  matrix is not quasi-unipotent
    5  model validation failure (dimension/genus or form check)

A failure before any report (exits 1, 2 and 5) raises a subclass of
``_UsageError`` that carries its exit code and stderr prefix, and ``main``
writes it as one line; ``analyze`` and ``certify --matrix`` load, build and
analyze a model through one helper.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import compress, islice
from json.encoder import encode_basestring_ascii

from .arith import DoldClass
from .census import _A1_SHIFT, _SCALES, _walk, census
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
    MAX_SIZE_CHARS,
    ZetaFactorization,
    _echo,
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
# Bits that a non-quasi-unipotent Lefschetz window or a zeta series may print, by
# an upper bound computed before any number is (about 5 million decimal digits);
# README, "Size caps", states both bounds.
MAX_OUTPUT_BITS = 2**24


class _UsageError(Exception):
    """Ends the run: main writes prefix + message as one line on stderr and returns code."""

    code, prefix = EXIT_USAGE, "usage error: "


class _InputError(_UsageError):
    prefix = "input error: "


class _UnrealizableError(_UsageError):
    code, prefix = EXIT_UNREALIZABLE, "error: "


class _ModelError(_UsageError):
    code, prefix = EXIT_MODEL, "error: "


def _check_output_bits(bits: int, what: str) -> None:
    if bits > MAX_OUTPUT_BITS:
        raise _UsageError(f"{what} may print {bits} bits, above the cap of {MAX_OUTPUT_BITS}")


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


# A census listing stacks the parts of at least _CUT and takes the parts below it,
# with their dold keys "1" to "4", from tables; 5 measured faster than 4.
_CUT = 5


def _census_rows(genus: int, correspondence: str, limit: int | None, item: str, json: bool):
    """The rows of a census listing, one per partition of the genus in the order
    of the partition walk, written straight to JSON or text with the bytes that a
    payload dict per row would give, {"dold": {str(n): a_n}, "partition": [parts
    in decreasing order]}, with no Partition, DoldClass or dict built.

    The walk yields each stack of the parts >= _CUT once, with its rest.  The rows
    that stack starts form one block: one row per entry of the table of suffixes
    of its rest, the partitions of the rest into parts below _CUT in walk order.
    An entry holds its dold texts for the keys 1 to _CUT - 1 (a_1 = 2 + scale *
    p_1, none when zero, as every 1 is in the suffix; a_n = scale * p_n) and its
    parts, each text after its separator.  Dold keys sort as strings, so the
    suffix key d goes just before the stack's keys that start with the digit d:
    a block splits its stack's entries into one bucket per first digit, and each
    row is one f-string with the suffix's texts between the buckets.  Tables and
    level texts are made per call, and a table never holds more entries than
    the rows the limit still allows.  Text writes the entries without quotes.
    Parts and coefficients stay below twice the genus cap, far below 2^53, so
    every number is written bare.

    The rows come in batches of item texts, one block to a batch: in JSON a
    row's map, in text the lines that follow the row's index.  A block's table
    entries and stack texts are laid out for items at indent item: in JSON the
    key-1 text follows the opening brace of the map, and the stack parts start
    bare, as do the entry parts of the table of the empty stack, which is the
    last block."""
    field, cell = item + "  ", item + "    "
    sep = "," + cell if json else "\n" + cell
    quote, first, part_sep = ('"', cell, sep) if json else ("", sep, " ")
    head, close, mid, tail = (
        ("{" + field + '"dold": {', field + "}", "," + field + '"partition": [' + cell,
         field + "]" + item + "}")
        if json else ("\n" + field + "dold:", "", "\n" + field + "partition: [", "]")
    )
    scale, tables, levels = _SCALES[correspondence], {}, {}
    left = sys.maxsize if limit is None else limit
    for stack, rest in _walk(genus, _CUT):
        if not left:
            return
        table = tables.get(rest)
        if table is None:
            table = tables[rest] = []
            for suffix, ones in islice(_walk(rest, 2, _CUT - 1), left):
                a1 = _A1_SHIFT + scale * ones
                dold = [f"{first}{quote}1{quote}: {a1}" if a1 else ""] + [""] * (_CUT - 2)
                parts = ""
                for part, count in suffix:
                    dold[part - 1] = f"{sep}{quote}{part}{quote}: {scale * count}"
                    parts += (part_sep + str(part)) * count
                parts += (part_sep + "1") * ones
                table.append((*dold, parts if stack else parts[len(part_sep) :]))
        table = table[:left] if len(table) > left else table
        left -= len(table)
        for level in stack:
            if level not in levels:
                part, count = level
                key = str(part)
                slot = min(int(key[0]), _CUT - 1) - 1
                entry = f"{sep}{quote}{key}{quote}: {scale * count}"
                levels[level] = (key, slot, entry, (part_sep + key) * count)
        texts = [levels[level] for level in stack]
        buckets = [""] * (_CUT - 1)
        for _, slot, entry, _ in sorted(texts):
            buckets[slot] += entry
        b1, b2, b3, b4 = buckets
        pp = "".join([text[3] for text in texts])[len(part_sep) :]
        yield [
            f"{head}{s1}{b1}{s2}{b2}{s3}{b3}{s4}{b4}{close}{mid}{pp}{parts}{tail}" if s1 or not json
            # JSON with no key 1: the first text in the map loses its comma, and an empty map its lines
            else f"{head}{d[1:] + close if (d := b1 + s2 + b2 + s3 + b3 + s4 + b4) else '}'}"
            f"{mid}{pp}{parts}{tail}"
            for s1, s2, s3, s4, parts in table
        ]


def _matrix_rows(matrix: IntMatrix, item: str, json: bool):
    """The rows of a report's matrix, written from its nonzero index with the
    bytes of a plain list of lists, by one row writer for JSON and text.  The
    all-zero text is built once per call: in JSON that of min(_ROW_BATCH, dim)
    rows joined as the JSON writer joins the items of a list, in text that of
    one row.  ``splice`` copies it with each nonzero x at (i, j) in place of
    the "0" at offset base + j * step, base the start of row i's entries and
    step the length of "0" and its separator: bare, or in JSON as a quoted
    decimal when |x| > 2^53.  So a text costs O(nnz) slices plus its bytes, an
    all-zero text row is the template itself, and no matrix has its dense
    rows built.  The rows come in batches of _ROW_BATCH: in JSON
    one text, the batch's row lists so joined, in text one text per row, the
    bracketed entries that follow the row's index."""
    cell = item + "  "
    sep, head, tail, join = ("," + cell, "[" + cell, item + "]", "," + item) if json else (" ", " [", "]", "")
    row = head + sep.join(["0"] * matrix.dim) + tail
    zeros = join.join([row] * min(_ROW_BATCH, matrix.dim)) if json else row
    step, stride = len(sep) + 1, len(row) + len(join)

    def splice(group):
        pieces, start = [], 0
        for base, entries in zip(range(len(head), len(zeros), stride), group):
            for j, x in entries.items():
                at = base + j * step
                pieces += zeros[start:at], (f'"{x}"' if json and abs(x) > _JSON_INT_LIMIT else f"{x}")
                start = at + 1
        return "".join([*pieces, zeros[start : len(group) * stride - len(join)]])

    rows = iter(matrix.nonzero)
    while batch := list(islice(rows, _ROW_BATCH)):
        yield [splice(batch)] if json else [splice([entries]) for entries in batch]


_ROW_BATCH = 64
_JSON_WORDS = {None: "null", True: "true", False: "false"}


def _write_json(value: object, write, pad: str = "\n", out: list | None = None) -> None:
    """Write ``value`` as JSON with two-space indent, then a newline, by calls of
    ``write``; ``pad`` is the newline and indent of its level.  One call per
    value, and no generator, appends its pieces to ``out``, the text not yet
    written: None and the booleans come from a table, a list of ints is one
    join, and a dict comes field by field.  ``out`` is written once per field
    of the top-level value and before each batch of a row writer, a callable
    value, which hands over its batches when called with ``(item, json)``; a
    batch is written as it comes.  So a report costs O(values) Python steps
    besides its row writers, and no write is longer than one batch or one
    top-level field."""
    top, inner = out is None, pad + "  "
    out = [] if top else out
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, int) and not isinstance(value, bool):
        out.append(int.__repr__(value) if abs(value) <= _JSON_INT_LIMIT else f'"{value}"')
    elif value is None or isinstance(value, bool):
        out.append(_JSON_WORDS[value])
    elif isinstance(value, dict):
        d = {str(k): v for k, v in value.items()}
        for i, k in enumerate(sorted(d)):
            out.append(("," if i else "{") + f"{inner}{encode_basestring_ascii(k)}: ")
            _write_json(d[k], write, inner, out)
            if top:
                write("".join(out))
                out.clear()
        out.append(pad + "}" if d else "{}")
    elif callable(value):
        opener = "["
        for batch in map(("," + inner).join, value(inner, True)):  # drops a batch's items before writing it
            out.append(opener + inner)
            write("".join(out))
            out.clear()
            write(batch)
            opener = ","
        out.append("[]" if opener == "[" else pad + "]")
    elif isinstance(value, (list, tuple)):
        if set(map(type, value)) == {int} and max(map(abs, value)) <= _JSON_INT_LIMIT:
            out.append(f"[{inner}{(',' + inner).join(map(int.__repr__, value))}{pad}]")
        else:
            for i, x in enumerate(value):
                out.append(("," if i else "[") + inner)
                _write_json(x, write, inner, out)
            out.append(pad + "]" if value else "[]")
    else:
        out.append(json.dumps(value))  # float; others raise TypeError
    if top:
        write("".join(out) + "\n")


def _text_lines(key: str, value: object, indent: int):
    """The text lines of one field; a row writer, a callable value, gives its
    lines a batch at a time."""
    pad = "  " * indent
    if isinstance(value, dict):
        yield f"{pad}{key}:"
        for k in sorted(value, key=str):
            yield from _text_lines(str(k), value[k], indent + 1)
    elif isinstance(value, (list, tuple)):
        if all(not isinstance(x, (dict, list, tuple)) for x in value):
            yield f"{pad}{key}: [" + " ".join(str(x) for x in value) + "]"
        else:
            yield f"{pad}{key}:"
            for i, x in enumerate(value):
                yield from _text_lines(f"[{i}]", x, indent + 1)
    elif callable(value):
        item, head, i = pad + "  ", f"{pad}{key}:\n", 0
        for batch in value(item, False):
            yield head + "\n".join([f"{item}[{j}]:{text}" for j, text in enumerate(batch, i)])
            head, i = "", i + len(batch)
        if not i:
            yield f"{pad}{key}: []"
    else:
        yield f"{pad}{key}: {value}"


def _emit(report: dict[str, object], fmt: str) -> None:
    """Write the report to stdout in pieces, the rows of a row writer (a callable
    value) a batch at a time."""
    if fmt == "json":
        return _write_json(report, sys.stdout.write)
    fields = (_text_lines(key, report[key], 0) for key in sorted(report))
    sys.stdout.writelines(f"{lines}\n" for field in fields for lines in field)


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


def _parse_int(value: object) -> int:
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


def _parse_json(text: str, source: str, pairs=None) -> object:
    """json.loads with CPython's default digit limit back in force, so that a
    number literal of more than 4,300 digits is refused in linear time rather
    than converted by the quadratic int(); integers written as strings have no
    such limit.  ``pairs`` is json's object_pairs_hook: None makes dicts."""
    lifted = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        return json.loads(text, object_pairs_hook=pairs)
    except json.JSONDecodeError as exc:
        raise _InputError(f"{source} is not valid JSON: {exc}") from exc
    except ValueError:  # a number literal beyond the digit limit
        raise _InputError(f"{source} has a number of over 4300 digits; write it as a string") from None
    except RecursionError:
        raise _InputError(f"{source} is nested too deeply") from None
    finally:
        sys.set_int_max_str_digits(lifted)


def _echo_path(path: str) -> str:
    """A file path for an error message: whole up to MAX_SIZE_CHARS characters,
    else the last MAX_SIZE_CHARS characters of its repr, which name the file,
    and its length."""
    if len(path) <= MAX_SIZE_CHARS:
        return repr(path)
    return f"...{repr(path)[-MAX_SIZE_CHARS:]} (a value of {len(path)} characters)"


def _load_json(path: str, pairs=None) -> object:
    """The JSON value of a file read as UTF-8; every refusal names the file by
    ``_echo_path`` once."""
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except OSError as exc:
        raise _InputError(f"cannot read {_echo_path(path)}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:  # from read(); a ValueError, so caught first
        raise _InputError(f"{_echo_path(path)} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    except ValueError:  # from open(): a NUL in the path, or a character it cannot encode
        raise _InputError(f"cannot read {_echo_path(path)}: not a valid file path") from None
    return _parse_json(text, _echo_path(path), pairs)


def _load_matrix(path: str) -> IntMatrix:
    data = _load_json(path)
    if not isinstance(data, dict) or "dim" not in data or "rows" not in data:
        raise _InputError(f'{_echo_path(path)} must be an object {{"dim": n, "rows": [[...]]}}')
    dim = data["dim"]
    if isinstance(dim, str):
        try:
            dim = _size(dim)
        except argparse.ArgumentTypeError as exc:
            raise _InputError(f"{_echo_path(path)}: dim: {exc}") from None
    dim = _parse_int(dim)
    rows = data["rows"]
    if not isinstance(rows, list) or len(rows) != dim:
        raise _InputError(f"{_echo_path(path)}: expected {_echo(dim)} rows")
    cols, nonzero = range(dim), []
    for row in rows:
        if not isinstance(row, list) or len(row) != dim:
            raise _InputError(f"{_echo_path(path)}: every row must have {_echo(dim)} entries")
        # JSON integers are exact ints; anything else (bool included) goes through
        # _parse_int.  Each row goes straight into the nonzero index, so a parsed
        # zero such as "0" or "-0" is left out like a JSON 0.
        row = [x if type(x) is int else _parse_int(x) for x in row]
        nonzero.append({j: row[j] for j in compress(cols, row)})
    return IntMatrix._sparse(nonzero)


def _load_dold(source: str) -> DoldClass:
    """Accept either an inline JSON object or a path to a JSON map.

    Input starting with "{" is inline JSON and is never probed as a path:
    a long inline map would make the probe fail with ENAMETOOLONG.  Objects
    are read as tuples of their (key, value) pairs, so that two keys for one
    period ("2" twice, "2" and "02", or "2" and "+2") are refused.
    """
    stripped = source.strip()
    if stripped.startswith("{"):
        data = _parse_json(stripped, "inline Dold map", tuple)
    else:
        try:
            os.stat(source)
        except (FileNotFoundError, NotADirectoryError, ValueError):  # ValueError: a NUL in the text
            raise _InputError(f"{_echo_path(source)} is neither a file nor an inline JSON object") from None
        except OSError as exc:
            raise _InputError(f"cannot read {_echo_path(source)}: {exc.strerror}") from exc
        data = _load_json(source, tuple)
    if not isinstance(data, tuple):
        raise _InputError("a Dold class must be a JSON object of period -> coefficient")
    coeffs = {}
    for k, v in data:
        n = _parse_int(k)
        if n < 1:
            raise _InputError(f"period {_echo(k)} is not a positive integer")
        if n in coeffs:
            raise _InputError(f"period {_echo(n)} is given by more than one key")
        coeffs[n] = _parse_int(v)
    return DoldClass(coeffs)


def _analysis_payload(analysis: Analysis, bound: int | None) -> dict[str, object]:
    """Shared report body for realize/analyze."""
    qu = analysis.quasi_unipotent
    # every algebraic period lies in {1, 2} and the divisors of the orders
    default = max((2, *analysis.factorization)) if qu else 12
    n_max = bound if bound is not None else default
    if n_max > MAX_WINDOW:
        raise _UsageError(f"a Lefschetz window of {n_max} entries is above the cap of {MAX_WINDOW}")
    model = analysis.model
    if not qu:  # |L_n| <= 2 + dim * |A|^n for the largest absolute row sum |A|
        norm = max(sum(map(abs, entries.values())) for entries in model.matrix.nonzero)
        bits = n_max * (n_max + 1) // 2 * norm.bit_length()
        _check_output_bits(bits + n_max * (model.matrix.dim.bit_length() + 2), "a Lefschetz window")
    lefschetz = analysis.lefschetz(n_max)
    dold = analysis.dold
    odd_periods = [n for n in dold.support() if n % 2] if qu else None
    report = {
        "kind": model.kind.value,
        "genus": model.genus,
        "matrix": {"dim": model.matrix.dim, "rows": functools.partial(_matrix_rows, model.matrix)},
        "charpoly": list(analysis.charpoly.coeffs),
        "form_checks": analysis.form_checks,
        "quasi_unipotent": qu,
        "cyclotomic_factorization": analysis.factorization,
        "lefschetz": lefschetz,
        "dold": dold.as_dict() if qu else None,
        "algebraic_periods": list(dold.support()) if qu else None,
        "ap_odd": odd_periods,
        "mper_l": odd_periods,
        "certificates": [c._asdict() for c in periodic_point_certificate(dold)] if qu else [],
        # L_1, L_3, ... sit at the even indices of the window
        "odd_lefschetz_vanish": (
            not any(lefschetz[::2]) if qu and model.kind is SurfaceKind.REVERSING else None
        ),
    }
    if not qu:
        report["residual_factor"] = list(analysis.residual.coeffs)
    return report


def _model_report(sm: SurfaceModel) -> dict[str, object]:
    report = _analysis_payload(sm.analysis, bound=None)
    report.update(
        {
            "mode": sm.mode.value if sm.mode is not None else None,
            "target": list(sm.target),
            "achieved": report["algebraic_periods"],
            "pieces": [p._asdict() for p in sm.pieces],
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
    try:
        sm = realize_target(set(elements), SurfaceKind(args.kind), mode=Mode(args.mode))
    except OddTargetUnrealizable as exc:
        raise _UnrealizableError(exc) from None
    _emit(_model_report(sm), args.format)
    if args.strict and sm.flags:
        print(
            "error: strict mode, achieved periods "
            f"{sorted(sm.achieved.support())} differ from target {list(sm.target)}",
            file=sys.stderr,
        )
        return EXIT_STRICT
    return EXIT_OK


def _analyze_matrix(args) -> Analysis:
    """The analysis of the model of --matrix, --kind and --genus, checked against
    its form unless --no-strict."""
    matrix = _load_matrix(args.matrix)
    try:
        model = HomologyModel(SurfaceKind(args.kind), matrix, args.genus, strict=not args.no_strict)
    except (DimensionMismatch, ValueError) as exc:
        raise _ModelError(exc) from None
    except FormViolation as exc:
        raise _ModelError(f"strict form check failed: {exc}") from None
    return analyze(model)


def _cmd_analyze(args) -> int:
    if args.max_iter is not None and args.max_iter < 1:
        raise _UsageError("--max-iter must be positive")
    analysis = _analyze_matrix(args)
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
    report: dict[str, object] = {
        "factors": [f._asdict() for f in factorization.factors],
        "factors_compact": format_factors(factorization),
    }
    if args.canonicalize:
        report["canonical"] = canonicalize(factorization)
    if args.series is not None:
        if args.series < 1:
            raise _UsageError("--series needs a positive truncation order")
        if args.series > MAX_SERIES:
            raise _UsageError(f"--series {args.series} is above the cap of {MAX_SERIES}")
        n = args.series
        # each factor's series has n // r + 1 terms of min(|m|, n // r) * bits(|m| + n // r) bits
        _check_output_bits(
            (n + 1) * sum(
                (n // r + 1).bit_length() + min(abs(m), n // r) * (abs(m) + n // r).bit_length()
                for _, r, m in factorization.factors
            ),
            "--series",
        )
        report["series"] = series_expand(factorization, n)
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
    rep = census(args.genus)
    if args.list_partitions and (args.limit is None or args.limit > MAX_LISTED_PARTITIONS):
        if rep.exact_count > MAX_LISTED_PARTITIONS:
            raise _UsageError(
                f"--list-partitions would list P({args.genus}) partitions, above the cap of"
                f" {MAX_LISTED_PARTITIONS}; pass --limit K with K <= {MAX_LISTED_PARTITIONS}"
            )
    report: dict[str, object] = {
        "genus": rep.genus,
        "exact_count": rep.exact_count,
        "hardy_ramanujan_estimate": rep.hr_estimate,
        "ratio": rep.ratio,
        "statement": rep.statement,
    }
    if args.list_partitions:
        report["correspondence"] = args.correspondence
        report["partitions"] = functools.partial(
            _census_rows, args.genus, args.correspondence, args.limit)
    _emit(report, args.format)
    return EXIT_OK


def _cmd_certify(args) -> int:
    if (args.dold is None) == (args.matrix is None):
        raise _UsageError("exactly one of --dold or --matrix is required")
    if args.dold is not None:
        dold = _load_dold(args.dold)
        report: dict[str, object] = {"dold": dold.as_dict()}
    else:
        if args.kind is None or args.genus is None:
            raise _UsageError("--matrix needs --kind and --genus")
        analysis = _analyze_matrix(args)
        if not analysis.quasi_unipotent:
            print(f"error: not quasi-unipotent: residual {analysis.residual}", file=sys.stderr)
            return EXIT_NOT_QUASI_UNIPOTENT
        dold = analysis.dold
        model = analysis.model
        report = {"kind": model.kind.value, "genus": model.genus, "dold": dold.as_dict()}
    report["certificates"] = [c._asdict() for c in periodic_point_certificate(dold)]
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
    kinds = [k.value for k in SurfaceKind]

    realize_p = sub.add_parser(
        "realize", help="construct a model whose algebraic periods are a given set"
    )
    realize_p.add_argument(
        "--set",
        required=True,
        metavar="N1,N2,...",
        help=f"target period set with distinct elements summing to <= {MAX_SET_SUM} (0.10 s and"
        " 7.1 MB of JSON at the cap for --set 200 --kind reversing, a dim-802 matrix)",
    )
    realize_p.add_argument("--kind", required=True, choices=kinds)
    realize_p.add_argument(
        "--mode",
        choices=[m.value for m in Mode],
        default="corrected",
        help="reversing case only: faithful follows the literal doubled construction",
    )
    realize_p.add_argument(
        "--strict", action="store_true", help="exit 3 if achieved periods differ from the target"
    )
    _add_format(realize_p)
    realize_p.set_defaults(run=_cmd_realize)

    analyze_p = sub.add_parser("analyze", help="full analysis of a matrix model")
    analyze_p.add_argument("--matrix", required=True, metavar="FILE")
    analyze_p.add_argument("--kind", required=True, choices=kinds)
    analyze_p.add_argument("--genus", required=True, type=_size)
    analyze_p.add_argument(
        "--no-strict", action="store_true", help="skip the symplectic/antisymplectic form check"
    )
    analyze_p.add_argument(
        "--max-iter",
        type=_size,
        default=None,
        metavar="N",
        help=f"Lefschetz numbers to print, <= {MAX_WINDOW} (default: the largest cyclotomic"
        " order, at least 2, which covers every algebraic period, or 12); a model that is not quasi-unipotent also needs N(N+1)/2 * bits(largest"
        f" absolute row sum) + N * (bits(dim) + 2) <= {MAX_OUTPUT_BITS}",
    )
    _add_format(analyze_p)
    analyze_p.set_defaults(run=_cmd_analyze)

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
        " factors with |m| <= 2; each factor costs O(N * min(|m|, N // r + 1))), and"
        " (N+1) * the sum over factors of bits(N // r + 1) + min(|m|, N // r) *"
        f" bits(|m| + N // r) <= {MAX_OUTPUT_BITS}",
    )
    zeta_p.add_argument("--mper", action="store_true")
    _add_format(zeta_p)
    zeta_p.set_defaults(run=_cmd_zeta)

    census_p = sub.add_parser("census", help="partition census at a given genus")
    census_p.add_argument(
        "--genus", required=True, type=_size, help=f"genus G <= {MAX_GENUS} (0.9 s at the cap)"
    )
    census_p.add_argument(
        "--list-partitions",
        action="store_true",
        help=f"list partitions with their Dold classes; at most {MAX_LISTED_PARTITIONS} may be"
        " listed (genus 41, 44,583 partitions: 0.17 s and 13 MB as JSON, 0.15 s and 5.4 MB as text)",
    )
    census_p.add_argument("--correspondence", choices=list(_SCALES), default="orientable")
    census_p.add_argument(
        "--limit", type=_size, default=None, metavar="K", help="list only the first K partitions"
    )
    _add_format(census_p)
    census_p.set_defaults(run=_cmd_census)

    certify_p = sub.add_parser("certify", help="periodic-point guarantees from a Dold class")
    certify_p.add_argument("--dold", metavar="FILE|JSON")
    certify_p.add_argument("--matrix", metavar="FILE")
    certify_p.add_argument("--kind", choices=kinds)
    certify_p.add_argument("--genus", type=_size, default=None)
    certify_p.add_argument("--no-strict", action="store_true")
    _add_format(certify_p)
    certify_p.set_defaults(run=_cmd_certify)

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    CPython 3.10.7 and later refuse to convert integers of more than 4300
    digits to or from strings; the limit is lifted for the duration of the
    call (it is process-wide) so that big integers stay bit-exact in input
    and output, except for JSON number literals (see ``_parse_json``).  A
    closed or full standard output ends the run with one line on stderr and
    exit 1.
    """
    parser = build_parser()
    saved_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        code = args.run(args)
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        print(f"{exc.prefix}{exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:  # stdout closed early (BrokenPipeError) or full
        print(f"output error: {exc.strerror or exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError) and sys.stdout is sys.__stdout__:
            # The interpreter flushes stdout again at exit; let that go nowhere.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    finally:
        sys.set_int_max_str_digits(saved_limit)


if __name__ == "__main__":
    sys.exit(main())
