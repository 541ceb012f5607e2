"""Tests of `tools/code_lines.py`, the code-line count of the package."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Code lines: `import os`, `def f(x):`, the four lines of the bracketed
# return, the two lines of the string that is not a docstring, and `pass`.
SAMPLE = '''"""A module docstring,
over two lines."""

# a comment alone on its line
import os  # a comment after code


def f(x):
    """A function docstring."""
    # a comment in a body

    return (
        x
        + 1
    )


class C:
    """A class docstring,

    with a blank line in it."""

    text = """not a docstring,
    so both lines count"""
    pass
'''


def test_the_sample_module_has_exactly_its_code_lines():
    assert code_lines.code_lines(SAMPLE) == 10
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_the_total_row_is_the_sum_of_the_module_rows(capsys):
    package = TOOL.parents[1] / "src" / "graphhom"
    assert code_lines.main([str(package)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules, total = rows[:-1], rows[-1]
    assert [name for _, name in modules] == sorted(p.name for p in package.glob("*.py"))
    assert total[1] == "total"
    assert int(total[0]) == sum(int(count) for count, _ in modules) > 0
    for count, name in modules:
        assert int(count) == code_lines.code_lines((package / name).read_text(encoding="utf-8"))
