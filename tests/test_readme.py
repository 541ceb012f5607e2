import ast
import builtins
import contextlib
import dataclasses
import importlib
import io
import pkgutil
import re
import sys
import tokenize
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


def _submodules():
    return {
        name: importlib.import_module(f"graphhom.{name}")
        for _, name, _ in pkgutil.iter_modules(graphhom.__path__)
    }


def _code_names(text):
    """Every backticked snake_case or dotted identifier in `text`, with or
    without a call's arguments; check names are exempt."""
    spans = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\([^`]*\))?`", text)
    return {n for n in spans if "_" in n or "." in n} - set(CHECK_NAMES)


def test_every_code_name_in_the_readme_resolves():
    # Each must name something in graphhom.
    names = _code_names(README.read_text(encoding="utf-8"))
    assert names
    submodules = _submodules()
    assert sorted(n for n in names if not _resolves(n, submodules)) == []


PACKAGE = Path(graphhom.__file__).resolve().parent


def _package_sources():
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def _docs_and_comments(source):
    """The docstrings and the `#` comments of a module's source."""
    texts = [
        ast.get_docstring(node) or ""
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return texts + [tok.string for tok in tokens if tok.type == tokenize.COMMENT]


def _attribute_names(submodules):
    """Every name defined in the package or the standard library that a
    parameter's attribute may have: a module attribute of a graphhom
    submodule, or an attribute, method, property or dataclass field of a
    class that a submodule defines or imports, or of a builtin class."""
    owners = [*submodules.values(), *(c for c in vars(builtins).values() if isinstance(c, type))]
    owners += [c for m in submodules.values() for c in vars(m).values() if isinstance(c, type)]
    names = set()
    for owner in owners:
        names.update(dir(owner))
        if dataclasses.is_dataclass(owner):
            names.update(f.name for f in dataclasses.fields(owner))
    return names


def _stale_names(sources):
    """(file, name) of every code name in the docstrings and comments of
    `sources` that names nothing: it does not resolve as in the README
    (`_resolves`), it does not start with a standard-library module, and
    it is not a parameter name of a function in `sources` followed by
    attributes that the package or the standard library defines
    (`_attribute_names`)."""
    submodules = _submodules()
    params = {
        arg.arg for source in sources.values() for arg in ast.walk(ast.parse(source))
        if isinstance(arg, ast.arg)
    }
    attributes = _attribute_names(submodules)

    def names_something(name):
        first, *rest = name.split(".")
        if first in sys.stdlib_module_names:
            return True
        if first in params and attributes.issuperset(rest):
            return True
        return _resolves(name, submodules)

    return sorted(
        (file, name)
        for file, source in sources.items()
        for text in _docs_and_comments(source)
        for name in _code_names(text)
        if not names_something(name)
    )


def test_every_code_name_in_the_package_docs_resolves():
    sources = _package_sources()
    assert sum(len(_code_names(t)) for s in sources.values() for t in _docs_and_comments(s)) > 100
    assert _stale_names(sources) == []


def test_the_package_docs_guard_flags_a_stale_name():
    # Planted: a parameter that no function has any more, a deleted helper,
    # a module attribute that never was and an attribute that nothing
    # defines on a parameter, in a docstring and a comment.
    sources = _package_sources()
    sources["cube.py"] += (
        '\n\ndef planted(G):\n'
        '    """Reads `G.edges`, `G.no_such_attr`, `min_cycles` and `cube._members`."""\n'
        "    # and `graphhom.no_such_name`, but not `dataclasses.replace`\n"
    )
    assert _stale_names(sources) == [
        ("cube.py", "G.no_such_attr"),
        ("cube.py", "cube._members"),
        ("cube.py", "graphhom.no_such_name"),
        ("cube.py", "min_cycles"),
    ]
