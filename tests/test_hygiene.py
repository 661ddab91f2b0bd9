"""Source hygiene: every name a module imports is used in that module,
and every top-level function or class of the package is named somewhere
in the package or the tests outside its own definition.

No linter ships with the test dependencies, so this walks the syntax tree
of each module in the package.  ``__init__.py`` is skipped (its imports
are re-exports, and it defines nothing) and so are ``__future__`` imports.
"""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "cuspwind"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detector_flags_unused_and_keeps_used():
    src = ("from __future__ import annotations\n"
           "import math\nimport os.path\nfrom x import a, b as c\n"
           "def f():\n    from y import d\n    return os.path.join(a, d)\n")
    assert unused_imports(src) == [(2, "math"), (4, "c")]


def test_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = ["%s:%d %s" % (p.name, line, name) for p in modules
             for line, name in unused_imports(p.read_text(encoding="utf-8"))]
    assert not found, "unused imports: " + ", ".join(found)


def _names(node) -> set:
    """Every identifier a syntax tree refers to: names, attributes and
    imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def dead_definitions(modules: dict, others: list) -> list:
    """(module, line, name) of each top-level def or class in ``modules``
    (file name -> source) that no top-level statement of ``modules`` or
    ``others`` (sources) names, its own definition excepted."""
    stmts = [(mod, node) for mod, source in modules.items()
             for node in ast.parse(source).body]
    stmts += [(None, node) for source in others
              for node in ast.parse(source).body]
    names = [_names(node) for _, node in stmts]
    return sorted(
        (mod, node.lineno, node.name) for k, (mod, node) in enumerate(stmts)
        if mod is not None
        and isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(node.name in n for j, n in enumerate(names) if j != k))


def test_dead_definition_detector():
    module = ("def used():\n    pass\n\n\ndef dead():\n    return dead()\n"
              "\n\nclass Kept:\n    pass\n\n\nCONST = used\n")
    assert dead_definitions({"m.py": module}, ["from m import Kept\n"]) \
        == [("m.py", 5, "dead")]


def test_no_dead_definitions():
    modules = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    others = [p.read_text(encoding="utf-8")
              for p in [PACKAGE / "__init__.py"] + sorted(TESTS.glob("*.py"))]
    found = ["%s:%d %s" % d for d in dead_definitions(modules, others)]
    assert not found, "defined but never named: " + ", ".join(found)
