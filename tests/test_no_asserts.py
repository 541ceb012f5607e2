import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "graphhom").rglob("*.py"))


def _assert_lines(source):
    """The line of every `assert` statement in `source`, in order. `python -O`
    strips them, so a check of the program must raise instead."""
    tree = ast.parse(source)
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_the_package_has_no_assert_statement(path):
    assert _assert_lines(path.read_text(encoding="utf-8")) == []


def test_the_guard_catches_a_planted_assert():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        assert x > 0, 'x'\n"
        "    return [y for y in x]  # assert in a comment\n"
        "class C:\n"
        "    def g(self):\n"
        "        assert self\n"
    )
    assert _assert_lines(source) == [3, 7]
