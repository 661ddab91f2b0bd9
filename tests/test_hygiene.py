"""Source hygiene: every name a module of the package or of the tests
imports is used in that module, every top-level function or class of the
package is reached from the command line, every method is named as an
attribute in the package or in ``perfbench/`` outside its own body, every
upper-case module-level constant is loaded there, every dataclass field
is read there as an attribute, and importing the command line loads no
scipy.  The tests do not count as users: a member only they read belongs
in ``tests/oracles.py`` or nowhere.

No linter ships with the test dependencies, so this walks the syntax tree
of each module.  ``__init__.py`` is skipped (its imports are re-exports,
and it defines nothing) and so are ``__future__`` imports.  The walk for
dead definitions starts at ``cli.main``, at the top-level statements of
each module and at the names in ``PUBLIC``; neither ``__init__.py`` nor
a test keeps a definition alive, so the reference implementations the
tests compare against live in ``tests/oracles.py``.  The constant and
field detectors match by name, not by type: a field is taken as read
when any object's attribute of that name is read, so a write-only field
that shares its name with a read attribute of another class (``cap``,
``name`` or ``label``, say) goes unseen.
"""

import ast
import os
import pathlib
import subprocess
import sys

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "cuspwind"
PERFBENCH = TESTS.parent / "perfbench"


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
    files = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    files += sorted(TESTS.glob("*.py"))
    found = ["%s:%d %s" % (p.name, line, name) for p in files
             for line, name in unused_imports(p.read_text(encoding="utf-8"))]
    assert not found, "unused imports: " + ", ".join(found)


def _bound(fn) -> set:
    """The parameters and locals of a function or lambda: every name its
    body stores or defines, nested functions included."""
    args = fn.args
    out = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
           + [args.vararg, args.kwarg] if a is not None}
    for sub in ast.walk(fn):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif sub is not fn and isinstance(sub, (ast.FunctionDef,
                                                ast.ClassDef)):
            out.add(sub.name)
    return out


def _references(node, local=frozenset()) -> set:
    """Each name ``node`` loads that is no parameter or local of an
    enclosing function, and ``name.attr`` for each attribute of one."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        local = local | _bound(node)
    out = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load) \
                and child.id not in local:
            out.add(child.id)
        elif isinstance(child, ast.Attribute) \
                and isinstance(child.value, ast.Name) \
                and child.value.id not in local:
            out.add(child.value.id + "." + child.attr)
        out |= _references(child, local)
    return out


def dead_definitions(modules: dict, roots: list) -> list:
    """(module, line, name) of each top-level def or class in ``modules``
    (file name -> source) that no walk from ``roots`` (``module.name``)
    or from the top-level statements of a module reaches.

    A reached definition reaches what its body refers to (``_references``):
    a name defined at the top of its module or bound there by a
    ``from .x import``, and ``alias.attr`` for a module bound by
    ``from . import``.  ``__init__.py`` is left out of the walk, so its
    re-exports keep nothing alive.
    """
    trees = {mod: ast.parse(source) for mod, source in modules.items()
             if mod != "__init__.py"}
    defs, imports = {}, {}
    for mod, tree in trees.items():
        defs[mod] = {node.name: node for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        # bound name -> (module, name), with name None for a module alias
        imports[mod] = {
            alias.asname or alias.name:
                (node.module + ".py", alias.name) if node.module
                else (alias.name + ".py", None)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}
    reached, todo = set(), []

    def reach(mod, ref):
        head, _, attr = ref.partition(".")
        if head in imports.get(mod, {}):
            mod, name = imports[mod][head]
            if name is None:
                if attr:
                    reach(mod, attr)
            else:
                reach(mod, name)
        elif head in defs.get(mod, {}) and (mod, head) not in reached:
            reached.add((mod, head))
            todo.append((mod, defs[mod][head]))

    for root in roots:
        mod, _, name = root.partition(".")
        reach(mod + ".py", name)
    for mod, tree in trees.items():
        for node in tree.body:
            if node not in defs[mod].values():
                for ref in _references(node):
                    reach(mod, ref)
    while todo:
        mod, node = todo.pop()
        for ref in _references(node):
            reach(mod, ref)
    return sorted((mod, node.lineno, name) for mod in defs
                  for name, node in defs[mod].items()
                  if (mod, name) not in reached)


def test_dead_definition_detector():
    module = ("from . import other\n"
              "from .other import by_import as renamed\n\n\n"
              "def main():\n"
              "    shadowed = 1\n"
              "    return renamed(shadowed) + other.by_alias()\n\n\n"
              "def shadowed():\n    return 0\n\n\n"
              "def reexported():\n    return reexported()\n\n\n"
              "def at_import():\n    return 2\n\n\n"
              "CONST = at_import()\n")
    other = ("def by_import(x):\n    return x\n\n\n"
             "def by_alias():\n    return 3\n\n\n"
             "def public():\n    return 4\n\n\n"
             "def only_a_test_calls():\n    return 5\n")
    modules = {"m.py": module, "other.py": other,
               "__init__.py": "from .m import reexported\n"}
    # a def that only a same-named local of main names, and one that only
    # an __init__ re-export (and its own body) names, are dead
    assert dead_definitions(modules, ["m.main", "other.public"]) == [
        ("m.py", 10, "shadowed"), ("m.py", 14, "reexported"),
        ("other.py", 13, "only_a_test_calls")]


# Definitions no command reaches that stay for callers outside the
# package, each with the reason.
PUBLIC = {
    "fuchsian.conjugate_config": "perfbench/run.py imports it",
}


def test_no_dead_definitions():
    modules = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    found = ["%s:%d %s" % d
             for d in dead_definitions(modules, ["cli.main"] + list(PUBLIC))]
    assert not found, "reached from no command: " + ", ".join(found)


def dead_methods(modules: dict, others: list) -> list:
    """(module, line, Class.method) of each non-dunder method of a class in
    ``modules`` that no attribute access in ``modules`` or ``others``
    names, its own body excepted."""
    trees = {mod: ast.parse(source) for mod, source in modules.items()}
    attrs = {}  # attribute name -> ids of the nodes accessing it
    for tree in list(trees.values()) + [ast.parse(s) for s in others]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attrs.setdefault(node.attr, set()).add(id(node))
    found = []
    for mod, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or (
                        fn.name.startswith("__") and fn.name.endswith("__")):
                    continue
                own = {id(node) for node in ast.walk(fn)}
                if not attrs.get(fn.name, set()) - own:
                    found.append((mod, fn.lineno, cls.name + "." + fn.name))
    return sorted(found)


def test_dead_method_detector():
    module = ("class A:\n    def __len__(self):\n        return 0\n\n"
              "    def used(self):\n        return self.helper()\n\n"
              "    def helper(self):\n        return 1\n\n"
              "    def dead(self):\n        return self.dead()\n\n"
              "    def only_named(self):\n        return 2\n\n\n"
              "only_named = A().used()\n")
    assert dead_methods({"m.py": module}, ["A().used()\n"]) \
        == [("m.py", 11, "A.dead"), ("m.py", 14, "A.only_named")]


def _package_and_perfbench():
    """The package's sources by file name, and those of ``perfbench/``,
    its one caller outside ``src/``; the tests are not users."""
    modules = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    return modules, [p.read_text(encoding="utf-8")
                     for p in sorted(PERFBENCH.glob("*.py"))]


def test_no_dead_methods():
    modules, others = _package_and_perfbench()
    found = ["%s:%d %s" % d for d in dead_methods(modules, others)]
    assert not found, "methods never named as an attribute: " + ", ".join(found)


def _loaded(trees, names: bool) -> set:
    """Attribute names loaded by the syntax trees, and with ``names`` the
    plain names loaded too."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                out.add(node.attr)
            elif names and isinstance(node, ast.Name) \
                    and isinstance(node.ctx, ast.Load):
                out.add(node.id)
    return out


def unread_constants(modules: dict, others: list) -> list:
    """(module, line, NAME) of each upper-case name assigned at the top
    level of ``modules`` that no expression in ``modules`` or ``others``
    loads."""
    trees = {mod: ast.parse(source) for mod, source in modules.items()}
    loaded = _loaded(list(trees.values()) + [ast.parse(s) for s in others],
                     names=True)
    found = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            found += [(mod, node.lineno, sub.id) for target in targets
                      for sub in ast.walk(target)
                      if isinstance(sub, ast.Name) and sub.id.isupper()
                      and sub.id not in loaded]
    return sorted(found)


def test_unread_constant_detector():
    module = ("USED = 1\nUNREAD, ALSO = 2, 3\nlower = USED\n"
              "def f():\n    LOCAL = 4\n    return LOCAL\n")
    assert unread_constants({"m.py": module}, ["import m\nm.ALSO\n"]) \
        == [("m.py", 2, "UNREAD")]


def test_no_unread_constants():
    modules, others = _package_and_perfbench()
    found = ["%s:%d %s" % d for d in unread_constants(modules, others)]
    assert not found, "constants never loaded: " + ", ".join(found)


def _is_dataclass(cls) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in cls.decorator_list)


def write_only_fields(modules: dict, others: list) -> list:
    """(module, line, Class.field) of each field of a dataclass in
    ``modules`` that no attribute load in ``modules`` or ``others``
    names."""
    trees = {mod: ast.parse(source) for mod, source in modules.items()}
    loaded = _loaded(list(trees.values()) + [ast.parse(s) for s in others],
                     names=False)
    return sorted(
        (mod, stmt.lineno, cls.name + "." + stmt.target.id)
        for mod, tree in trees.items() for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in loaded)


def test_write_only_field_detector():
    module = ("from dataclasses import dataclass\n\n\n"
              "@dataclass\nclass A:\n    read: int\n    written: int\n"
              "    elsewhere: int = 0\n\n\n"
              "@dataclass(frozen=True)\nclass B:\n    unread: int\n\n\n"
              "class C:\n    plain: int\n\n\n"
              "def f(a, unread):\n    a.written = 1\n"
              "    return a.read + unread\n")
    assert write_only_fields({"m.py": module}, ["x.elsewhere\n"]) \
        == [("m.py", 7, "A.written"), ("m.py", 13, "B.unread")]


def test_no_write_only_fields():
    modules, others = _package_and_perfbench()
    found = ["%s:%d %s" % d for d in write_only_fields(modules, others)]
    assert not found, "dataclass fields never read: " + ", ".join(found)


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only: at run time scipy.optimize alone
    # adds ~50 MB of resident memory to every command
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, cuspwind.cli; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
