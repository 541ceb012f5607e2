import ast
from pathlib import Path

import graphhom

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphhom"

# (module, name) -> why the definition stays with no reader in the package
ALLOWED = {
    ("laurent", "evaluate"): "the reference evaluation that the acceptance tests call",
}


def _dead_definitions(sources, exported):
    """The module-level functions and classes of `sources` (module name ->
    source) that no statement of any source reads, other than their own
    definition, and that `exported` does not list, as (module, name) in
    module then line order. A read is a name loaded or an attribute taken,
    so `f(x)` and `module.f` both read f."""
    defined, readers = [], {}
    for module, source in sorted(sources.items()):
        for statement in ast.parse(source).body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, statement.name, statement))
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    readers.setdefault(node.id, []).append(statement)
                elif isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, []).append(statement)
    return [
        (module, name)
        for module, name, statement in defined
        if name not in exported and all(s is statement for s in readers.get(name, ()))
    ]


def test_every_definition_in_the_package_is_read_or_exported():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert _dead_definitions(sources, set(graphhom.__all__)) == sorted(ALLOWED)


def test_the_guard_catches_a_planted_dead_definition():
    sources = {
        "a": (
            "def used():\n"
            "    return 1\n"
            "def dead():\n"
            "    return used()\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "class Kept:\n"
            "    pass\n"
            "class Gone:\n"
            "    def used(self):\n"
            "        pass\n"
            "def exported():\n"
            "    pass\n"
        ),
        "b": "from . import a\nx = a.Kept\nrecursive = 1\n# dead() in a comment\n",
    }
    assert _dead_definitions(sources, {"exported"}) == [("a", "dead"), ("a", "recursive"), ("a", "Gone")]
