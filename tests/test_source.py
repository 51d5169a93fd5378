"""Rules on the package's source that hold whatever the input."""

import ast
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
