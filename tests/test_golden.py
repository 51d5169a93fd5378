"""Golden stdout corpus under pytest: each case of ``golden_corpus.CASES``
prints exactly its recorded bytes.  ``golden_corpus.py`` says how to check the
corpus without pytest and how to re-record it."""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from golden_corpus import CASES, GOLDEN, run_case


@pytest.mark.parametrize("name,argv,exit_code", CASES, ids=[c[0] for c in CASES])
def test_golden_stdout(name, argv, exit_code):
    code, out = run_case(argv)
    assert code == exit_code
    assert out == (GOLDEN / f"{name}.out").read_text()


def test_readme_library_example():
    """README's python block prints, line by line, what each print's comment says.

    The expected text of a ``print(...)  # text`` line is its comment up to
    the first double space, which starts an explanatory remark.
    """
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [
        line.split("# ", 1)[1].split("  ", 1)[0]
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
    assert expected
