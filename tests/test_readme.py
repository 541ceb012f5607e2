import contextlib
import io
import re
from pathlib import Path

import graphhom

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quick_start(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    # the values the comments in the block promise
    assert lines[:2] == ["x*y - 1", "x + y"]


def test_every_exported_name_resolves():
    assert len(set(graphhom.__all__)) == len(graphhom.__all__)
    for name in graphhom.__all__:
        assert getattr(graphhom, name) is not None, name
