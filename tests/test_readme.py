import contextlib
import dataclasses
import importlib
import io
import pkgutil
import re
from pathlib import Path

import graphhom
from graphhom.verify import CHECK_NAMES

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


_MISSING = object()


def _child(obj, name):
    """obj.name, or _MISSING; a dataclass field without a default is no
    class attribute and stands for itself."""
    if dataclasses.is_dataclass(obj) and name in {f.name for f in dataclasses.fields(obj)}:
        return getattr(obj, name, name)
    return getattr(obj, name, _MISSING)


def _resolves(path, submodules):
    """Whether the dotted `path` starts at a submodule of graphhom, at an
    attribute of one, or at an attribute or field of a graphhom class,
    and each further part is an attribute or field of the part before."""
    classes = [
        c
        for m in submodules.values()
        for c in vars(m).values()
        if isinstance(c, type) and c.__module__.startswith("graphhom.")
    ]
    first, *rest = path.split(".")
    starts = [submodules.get(first, _MISSING)]
    starts += [_child(owner, first) for owner in [*submodules.values(), *classes]]
    for obj in starts:
        for part in rest:
            obj = _MISSING if obj is _MISSING else _child(obj, part)
        if obj is not _MISSING:
            return True
    return False


def test_every_code_name_in_the_readme_resolves():
    # A backticked snake_case or dotted identifier, with or without a call's
    # arguments, must name something in graphhom; check names are exempt.
    submodules = {
        name: importlib.import_module(f"graphhom.{name}")
        for _, name, _ in pkgutil.iter_modules(graphhom.__path__)
    }
    text = README.read_text(encoding="utf-8")
    spans = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\([^`]*\))?`", text)
    names = {n for n in spans if "_" in n or "." in n} - set(CHECK_NAMES)
    assert names
    assert sorted(n for n in names if not _resolves(n, submodules)) == []
