"""Rules on the package's source that hold whatever the input."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
import typing
from pathlib import Path

import algperiods

from code_lines import code_lines


def test_library_has_no_assert_statements():
    """python -O strips assert statements, so no check in the library may be one."""
    paths = sorted(Path(algperiods.__file__).parent.glob("*.py"))
    assert len(paths) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_imports_only_what_it_uses():
    """Every absolute import in ``src/`` names a standard-library module, and none
    names ``typing``, ``pathlib`` or ``dataclasses``.  Each CLI command is a fresh
    process that pays for every module the package imports: under ``from
    __future__ import annotations`` builtins and ``collections.abc`` serve the
    annotations, ``open`` and ``os.stat`` serve the two file reads, and
    ``collections.namedtuple`` makes the records, with the equality, hashing,
    repr and read-only fields that ``dataclasses`` (which imports ``inspect``)
    gave them.  The check reads the package's own import statements, not
    ``sys.modules``, whose contents vary with the interpreter; the test below
    checks what a fresh import of the command line loads."""
    paths = sorted(Path(algperiods.__file__).parent.glob("*.py"))
    imported = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.partition(".")[0], []).append(f"{path.name}:{node.lineno}")
    assert {"argparse", "json", "collections"} <= imported.keys()
    assert [imported[name] for name in ("typing", "pathlib", "dataclasses") if name in imported] == []
    assert {name: where for name, where in imported.items()
            if name not in sys.stdlib_module_names} == {}


def test_fresh_cli_import_loads_no_unused_module():
    """A fresh ``python -S`` that imports the command line loads none of the
    modules the package does not use, nor those that only they pull in."""
    unused = ["dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "pathlib"]
    code = f"import sys, algperiods.cli; print([m for m in {unused!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(Path(algperiods.__file__).parent.parent))
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert (result.returncode, result.stderr, result.stdout) == (0, "", "[]\n")


def _name(node):
    """The name a Name, Attribute or import alias node spells, else None."""
    return (getattr(node, "id", None) if isinstance(node, ast.Name)
            else getattr(node, "attr", None) if isinstance(node, ast.Attribute)
            else getattr(node, "name", None) if isinstance(node, ast.alias) else None)


VALUE_CLASSES = {
    "arith.DoldClass", "arith.LefschetzSequence", "census.Partition", "exactmat.IntMatrix",
    "lefschetz.HomologyModel", "polycyc.IntPolynomial", "zeta.ZetaFactorization",
}


def test_one_equality_rule():
    """Only ``arith._Value`` defines ``__eq__`` or ``__hash__`` in ``src/``, each
    class that defines ``_key`` has ``_Value`` among its bases, and no module
    names ``functools.cached_property``: a value class compares and hashes by its
    key, and no record keeps a cache in an instance dict."""
    paths = sorted(Path(algperiods.__file__).parent.glob("*.py"))
    rules, keyed, cached = [], {}, []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                defined = set()
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        defined.add(item.name)
                    elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                        targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                        defined.update(t.id for t in targets if isinstance(t, ast.Name))
                where = f"{path.stem}.{node.name}"
                if defined & {"__eq__", "__hash__"}:
                    rules.append(where)
                if "_key" in defined:
                    keyed[where] = [ast.unparse(base) for base in node.bases]
            if _name(node) == "cached_property":
                cached.append(f"{path.name}:{node.lineno}")
    assert rules == ["arith._Value"]
    assert keyed.keys() == VALUE_CLASSES
    assert {where: bases for where, bases in keyed.items() if "_Value" not in bases} == {}
    assert cached == []


def test_one_moebius_table():
    """``arith._moebius_terms`` is the library's one Moebius rule: only ``arith``
    names ``_prime_exponents``, each function that needs mu or phi names
    ``_moebius_terms``, and ``polycyc.cyclotomic`` does not call itself."""
    paths = sorted(Path(algperiods.__file__).parent.glob("*.py"))
    factoring, readers, cyclotomic_calls = set(), set(), None
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if _name(node) == "_prime_exponents":
                factoring.add(path.name)
            if isinstance(node, ast.FunctionDef):
                where = f"{path.stem}.{node.name}"
                if "_moebius_terms" in map(_name, ast.walk(node)):
                    readers.add(where)
                if where == "polycyc.cyclotomic":
                    cyclotomic_calls = [_name(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)]
    assert factoring == {"arith.py"}
    assert {"arith.moebius", "arith.dold_coefficients", "arith.dold_congruence_check",
            "lefschetz.analyze", "polycyc._totient", "polycyc.cyclotomic"} <= readers
    assert cyclotomic_calls is not None and "cyclotomic" not in cyclotomic_calls


def _defined(owner, module):
    """The functions, classes, methods and properties that ``module`` defines
    in ``owner`` (the module or one of its classes), unwrapped, and the
    classes' own members after each class."""
    for name, value in vars(owner).items():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if isinstance(value, property):
            yield from (f for f in (value.fget, value.fset, value.fdel) if f is not None)
            continue
        value = getattr(value, "func", value)  # functools.cached_property
        value = inspect.unwrap(value) if callable(value) else value
        if inspect.isfunction(value) and value.__module__ == module:
            yield value
        elif inspect.isclass(value) and value.__module__ == module and value is not owner:
            yield value
            yield from _defined(value, module)


def test_every_annotation_resolves():
    """Under ``from __future__ import annotations`` an annotation is a string that
    nothing evaluates, so a name that lost its import would go unnoticed; here
    ``typing.get_type_hints`` evaluates every annotation that a ``src/`` module
    defines, in that module's namespace."""
    paths = sorted(Path(algperiods.__file__).parent.glob("*.py"))
    objects = []
    for path in paths:
        name = "algperiods" if path.stem == "__init__" else f"algperiods.{path.stem}"
        # import_module, not attribute access: algperiods.census is also a function
        module = importlib.import_module(name)
        objects += _defined(module, name)
    assert len(objects) >= 150
    unresolved = []
    for obj in objects:
        try:
            typing.get_type_hints(obj)
        except Exception as exc:  # NameError, TypeError: the annotation names something missing
            unresolved.append(f"{obj.__module__}.{obj.__qualname__}: {exc!r}")
    assert unresolved == []


def test_code_line_rule_on_a_synthetic_source():
    """``code_lines`` counts lines with a token, other than comments and the
    docstrings of modules, classes and functions."""
    source = '''"""Module docstring
over two lines."""

# a comment line
import os  # code with a trailing comment


class A:
    """Class docstring."""

    x = """a string that is not a docstring
    spans two lines"""

    def f(self,
          y):
        """Function
        docstring."""
        return (y +
                1)


async def g():
    """Async docstring."""
    "a second string statement is not a docstring"
'''
    # import, class, the two lines of x, the two def lines, the two return
    # lines, async def and the second string statement
    assert code_lines(source) == 10
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n') == 0
