"""Source hygiene: every name a module imports is used in that module.

No linter ships with the test dependencies, so this walks the syntax tree
of each module in the package.  ``__init__.py`` is skipped (its imports
are re-exports) and so are ``__future__`` imports.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "cuspwind"


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
