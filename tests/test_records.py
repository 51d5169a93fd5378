"""The library's five records and how the command line reads them.

``Analysis``, ``PeriodicPointGuarantee``, ``PieceSpec``, ``SurfaceModel`` and
``CensusReport`` keep their reprs, equality, hashing and read-only fields, and a
report holds each certificate and piece as a ``{field: value}`` dict in field
order, never the record itself: the JSON writer writes any tuple as a list.
"""

import importlib
import json

import pytest

import algperiods.cli as cli
from algperiods import (
    DoldClass,
    HomologyModel,
    IntMatrix,
    Mode,
    SurfaceKind,
    census,
    periodic_point_certificate,
    realize_target,
)

ANALYSIS_REPR = (
    "Analysis(model=HomologyModel('preserving', dim=6, genus=3),"
    " charpoly=IntPolynomial('x^6 - 2*x^5 - x^4 + 4*x^3 - x^2 - 2*x + 1'),"
    " factorization={1: 4, 2: 2}, residual=None, dold=DoldClass({2: -2}))"
)

# name -> (factory, repr, fields): the factory builds one instance of the record.
RECORDS = {
    "PieceSpec": (
        lambda: realize_target({2}, SurfaceKind.PRESERVING).pieces[0],
        "PieceSpec(n=1, tau=1, copies=1)",
        ("n", "tau", "copies"),
    ),
    "SurfaceModel": (
        lambda: realize_target({2}, SurfaceKind.PRESERVING),
        "SurfaceModel(target=(2,), kind=<SurfaceKind.PRESERVING: 'preserving'>, mode=None,"
        " pieces=(PieceSpec(n=1, tau=1, copies=1), PieceSpec(n=2, tau=2, copies=1)),"
        f" analysis={ANALYSIS_REPR}, flags=())",
        ("target", "kind", "mode", "pieces", "analysis", "flags"),
    ),
    "Analysis": (
        lambda: realize_target({2}, SurfaceKind.PRESERVING).analysis,
        ANALYSIS_REPR,
        ("model", "charpoly", "factorization", "residual", "dold"),
    ),
    "PeriodicPointGuarantee": (
        lambda: periodic_point_certificate(DoldClass({3: 1}))[0],
        "PeriodicPointGuarantee(period=3, guarantee='odd', periods=(3,),"
        " statement='every transversal map in the class has a point of minimal period 3')",
        ("period", "guarantee", "periods", "statement"),
    ),
    "CensusReport": (
        lambda: census(2),
        "CensusReport(genus=2, exact_count=2, hr_estimate=2.7151604315612023,"
        " ratio=1.3575802157806012, statement='P(2) = 2 is a lower bound for the number of"
        " conjugacy classes of mapping classes (orientable and non-orientable alike)"
        " containing Morse-Smale diffeomorphisms')",
        ("genus", "exact_count", "hr_estimate", "ratio", "statement"),
    ),
}
HASHABLE = {"PieceSpec", "PeriodicPointGuarantee", "CensusReport"}


@pytest.mark.parametrize("name", RECORDS)
def test_record_repr_equality_and_hash(name):
    make, text, _ = RECORDS[name]
    first, second = make(), make()
    assert type(first).__name__ == name
    assert repr(first) == text
    assert first == second and not first != second
    if name in HASHABLE:
        assert hash(first) == hash(second)
    else:  # a field holds a dict, the factorization of a quasi-unipotent model
        with pytest.raises(TypeError):
            hash(first)


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_are_read_only(name):
    make, _, fields = RECORDS[name]
    record = make()
    for field in fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        assert getattr(record, field) is value


def test_unequal_records_differ():
    pieces = realize_target({2, 3}, SurfaceKind.PRESERVING).pieces
    assert pieces[1] != pieces[2]
    assert census(2) != census(3)
    # the form checks are computed on request and do not take part in equality
    a, b = RECORDS["Analysis"][0](), RECORDS["Analysis"][0]()
    assert a.form_checks == {"symplectic": True, "antisymplectic": False} and a == b


def _field_dict(record, fields):
    return {field: getattr(record, field) for field in fields}


def test_report_pieces_and_certificates_are_field_dicts(monkeypatch):
    """``_model_report`` and a certify report give each piece and certificate as a
    dict of its fields in field order."""
    piece_fields = RECORDS["PieceSpec"][2]
    certificate_fields = RECORDS["PeriodicPointGuarantee"][2]
    sm = realize_target({2, 3}, SurfaceKind.PRESERVING)
    report = cli._model_report(sm)
    assert [list(p) for p in report["pieces"]] == [list(piece_fields)] * 3
    assert report["pieces"] == [_field_dict(p, piece_fields) for p in sm.pieces]
    certificates = periodic_point_certificate(sm.achieved)
    assert len(certificates) == 2
    assert [list(c) for c in report["certificates"]] == [list(certificate_fields)] * 2
    assert report["certificates"] == [_field_dict(c, certificate_fields) for c in certificates]

    reports = _reports(monkeypatch, [["certify", "--dold", '{"2": -2, "3": -2}']])
    assert reports[0]["certificates"] == report["certificates"]
    assert [list(c) for c in reports[0]["certificates"]] == [list(certificate_fields)] * 2


def _reports(monkeypatch, argvs):
    """The report dict of each command, as the CLI hands it to its writer."""
    seen = []
    monkeypatch.setattr(cli, "_emit", lambda report, fmt: seen.append(report))
    for argv in argvs:
        assert cli.main(argv) in (0, 3, 4), argv
    assert len(seen) == len(argvs)
    return seen


def _nested(value):
    yield value
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _nested(item)


def test_no_record_reaches_a_report(monkeypatch, tmp_path):
    """No value nested in a realize (each kind and mode), analyze, certify or zeta
    report is a namedtuple record: the JSON writer would print it as a list."""
    identity = tmp_path / "identity.json"
    identity.write_text(json.dumps({"dim": 2, "rows": [[1, 0], [0, 1]]}))
    anosov = tmp_path / "anosov.json"
    anosov.write_text(json.dumps({"dim": 2, "rows": [[2, 1], [1, 1]]}))
    argvs = [
        ["realize", "--set", "1,2,3", "--kind", "preserving"],
        *(["realize", "--set", s, "--kind", "reversing", "--mode", m.value]
          for s in ("2,4", "4") for m in Mode),
        ["realize", "--set", "1,3", "--kind", "nonorientable"],
        ["realize", "--set", "3", "--kind", "nonorientable"],
        ["analyze", "--matrix", str(identity), "--kind", "preserving", "--genus", "1"],
        ["analyze", "--matrix", str(anosov), "--kind", "preserving", "--genus", "1"],
        ["certify", "--dold", '{"1": 2, "2": -1}'],
        ["certify", "--matrix", str(identity), "--kind", "preserving", "--genus", "1"],
        ["zeta", "--factors", "+,3,2;-,1,-1", "--canonicalize"],
    ]
    reports = _reports(monkeypatch, argvs)
    dicts = 0
    for argv, report in zip(argvs, reports):
        values = list(_nested(report))
        assert [type(v).__name__ for v in values if hasattr(v, "_fields")] == [], argv
        dicts += sum(isinstance(v, dict) for v in values)
    assert dicts > 3 * len(argvs)


def test_analysis_has_no_instance_dict(monkeypatch):
    """``Analysis`` is slotted like the other records: ``vars()`` raises TypeError and
    it takes no attribute that is not a field.  Its form checks are not cached: a
    strict model hands over the predicates it computed, and a lax one computes
    them on each read."""
    for make, _, _ in RECORDS.values():
        with pytest.raises(TypeError):
            vars(make())
    analysis = RECORDS["Analysis"][0]()
    with pytest.raises(AttributeError):
        analysis.cache = {}
    lefschetz = importlib.import_module("algperiods.lefschetz")
    calls = []
    form_predicates = lefschetz.form_predicates
    monkeypatch.setattr(lefschetz, "form_predicates",
                        lambda a: calls.append(a) or form_predicates(a))
    checks = {"symplectic": True, "antisymplectic": False}
    assert [analysis.form_checks, analysis.form_checks] == [checks, checks] and calls == []
    lax = lefschetz.analyze(HomologyModel(SurfaceKind.PRESERVING, IntMatrix([[2, 1], [1, 1]]), 1))
    assert [lax.form_checks, lax.form_checks] == [checks, checks] and len(calls) == 2
    # a model that is not quasi-unipotent has no dict field, so its analysis hashes
    assert lax.factorization is None and hash(lax) == hash(lefschetz.analyze(lax.model))
