"""The package namespace and the modules' ``__all__`` lists describe one public surface."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import algperiods

MODULES = [
    importlib.import_module(f"algperiods.{info.name}")
    for info in pkgutil.iter_modules(algperiods.__path__)
    if not info.name.startswith("_")
]


# every module but the command line is a library module and declares __all__
LIBRARY = [m for m in MODULES if m.__name__ != "algperiods.cli"]


def test_modules_are_found():
    names = {m.__name__.rsplit(".", 1)[1] for m in MODULES}
    assert {"arith", "census", "exactmat", "lefschetz", "polycyc", "realize", "zeta"} <= names


def test_namespace_reexports_exactly_the_modules_all():
    exported = set().union(*(getattr(m, "__all__", ()) for m in MODULES))
    public = {
        name
        for name, obj in vars(algperiods).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert public == exported, (sorted(public - exported), sorted(exported - public))
    for name in exported:
        assert getattr(algperiods, name) is next(
            getattr(m, name) for m in MODULES if name in getattr(m, "__all__", ())
        ), name


def test_every_all_entry_is_defined_in_its_module():
    for m in MODULES:
        entries = getattr(m, "__all__", [])
        assert len(entries) == len(set(entries)), m.__name__
        for name in entries:
            obj = getattr(m, name, None)
            assert obj is not None, (m.__name__, name)
            assert getattr(obj, "__module__", m.__name__) == m.__name__, (m.__name__, name)


def test_init_only_star_imports_each_library_module():
    """``__init__.py`` holds its docstring, ``from .<module> import *`` for each
    library module in name order, and ``__version__``: nothing else, so each
    public name is listed once, in its module's ``__all__``."""
    path = Path(algperiods.__file__)
    docstring, *imports, version = ast.parse(path.read_text(), filename=str(path)).body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert isinstance(docstring.value.value, str)
    assert [ast.unparse(node) for node in imports] == [
        f"from .{m.__name__.rsplit('.', 1)[1]} import *" for m in LIBRARY
    ]
    assert isinstance(version, ast.Assign) and ast.unparse(version.targets[0]) == "__version__"
    for m in LIBRARY:
        assert isinstance(getattr(m, "__all__", None), list), m.__name__
