"""The package namespace and the modules' ``__all__`` lists describe one public surface."""

import importlib
import inspect
import pkgutil

import algperiods

MODULES = [
    importlib.import_module(f"algperiods.{info.name}")
    for info in pkgutil.iter_modules(algperiods.__path__)
    if not info.name.startswith("_")
]


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
