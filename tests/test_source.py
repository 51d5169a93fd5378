"""Rules on the package's source that hold whatever the input."""

import ast
from pathlib import Path

import algperiods


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
