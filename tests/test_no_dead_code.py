import ast
from pathlib import Path

import graphhom

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphhom"
TESTS = ROOT / "tests"

# (module, name) -> why the definition stays with no reader in the package
ALLOWED = {
    ("laurent", "evaluate"): "the reference evaluation that the acceptance tests call",
}


def _reads(tree):
    """(name, node) for every node of `tree` that reads a name: a name
    loaded or an attribute taken."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


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
            for name, _ in _reads(statement):
                readers.setdefault(name, []).append(statement)
    return [
        (module, name)
        for module, name, statement in defined
        if name not in exported and all(s is statement for s in readers.get(name, ()))
    ]


def _dead_methods(sources, readers):
    """The methods of the module-level classes of `sources` (module name ->
    source), dunders aside, that no code of `sources` or of `readers` (more
    sources) reads other than their own definition, as (module,
    "Class.method") in module then line order. Reads go by name alone, so
    a method shares its reads with every attribute and variable of its
    name."""
    trees = {module: ast.parse(source) for module, source in sorted(sources.items())}
    reads = {}
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        for name, node in _reads(tree):
            reads.setdefault(name, set()).add(node)
    dead = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if (
                    isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (method.name.startswith("__") and method.name.endswith("__"))
                    and reads.get(method.name, set()) <= {node for _, node in _reads(method)}
                ):
                    dead.append((module, f"{cls.name}.{method.name}"))
    return dead


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


def test_every_method_in_the_package_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    readers = [path.read_text(encoding="utf-8") for path in TESTS.glob("*.py")]
    assert _dead_methods(sources, readers) == []


def test_the_guard_catches_a_planted_dead_method():
    sources = {
        "a": (
            "class Kept:\n"
            "    def __len__(self):\n"
            "        return 0\n"
            "    def used(self):\n"
            "        return self.helper()\n"
            "    def helper(self):\n"
            "        return 1\n"
            "    def dead(self):\n"
            "        return self.used()\n"
            "    def recursive(self):\n"
            "        return self.recursive()\n"
            "    @property\n"
            "    def size(self):\n"
            "        return 1\n"
            "    def tested(self):\n"
            "        pass\n"
            "class Gone:\n"
            "    def unread(self):\n"
            "        pass\n"
            "def free():\n"
            "    pass\n"
        ),
        "b": "from .a import Kept\nx = Kept().used\ny = Kept().size\n# Gone().unread()\n",
    }
    readers = ["from a import Kept\nKept().tested()\n"]
    assert _dead_methods(sources, readers) == [
        ("a", "Kept.dead"),
        ("a", "Kept.recursive"),
        ("a", "Gone.unread"),
    ]
