"""Source hygiene: every name a module of the package or of the tests
imports is used in that module, every top-level function or class of the
package is reached from the command line, every method is named as an
attribute in the package or in ``perfbench/`` outside its own body, every
upper-case module-level constant is loaded there, every attribute a
method sets on ``self`` is read there as an attribute, no method only
passes a field of ``self`` through, no function of the package sets an
attribute of one of its own parameters, no method but ``__init__`` sets
one on ``self``, no module imports ``dataclasses``, importing the command
line loads no scipy or html and a spectrum run no dataclasses or copy,
every name ``perfbench/child.py`` wraps exists, and no function imports a
package module (bar those in ``FUNCTION_IMPORTS``), nor ``induced`` the
coder, no attribute of a built presentation but ``gens`` is a dict
keyed by its labels, every option of a subcommand is a ``RunConfig``
key or is read by its command, and no module names a point, distance or
geodesic of the upper half-plane.  The tests do not count as users: a member only they read belongs
in ``tests/oracles.py`` or nowhere.

No linter ships with the test dependencies, so this walks the syntax tree
of each module.  ``__init__.py`` is skipped (its imports are re-exports,
and it defines nothing) and so are ``__future__`` imports.  The walk for
dead definitions starts at ``cli.main``, at the top-level statements of
each module and at the names in ``PUBLIC``; neither ``__init__.py`` nor
a test keeps a definition alive, so the reference implementations the
tests compare against live in ``tests/oracles.py``.  The constant and
field detectors match by name, not by type: a field, or an attribute
set on ``self``, is taken as read when any object's attribute of that
name is read, so a write-only field that shares its name with a read
attribute of another class (``cap``, ``name`` or ``label``, say) goes
unseen.
"""

import argparse
import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys
import textwrap
import types

import numpy as np

from cuspwind import cli, gdms
from cuspwind.config import _SCALARS
from cuspwind.fuchsian import build_group, conjugate_config
from cuspwind.induced import fuchsian_system
from cuspwind.mobius import MobiusMap
from cuspwind.presets import preset_config

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


def _set_fields(cls) -> list:
    """(line, name) of each field of the class: each attribute that one of
    its methods assigns on ``self``."""
    out = []
    for fn in cls.body:
        if isinstance(fn, ast.FunctionDef):
            out += [(node.lineno, node.attr) for node in ast.walk(fn)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"]
    return out


def write_only_fields(modules: dict, others: list) -> list:
    """(module, line, Class.field) of each field of a class in ``modules``
    (``_set_fields``) that no attribute load in ``modules`` or ``others``
    names."""
    trees = {mod: ast.parse(source) for mod, source in modules.items()}
    loaded = _loaded(list(trees.values()) + [ast.parse(s) for s in others],
                     names=False)
    return sorted(
        (mod, line, cls.name + "." + name)
        for mod, tree in trees.items() for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for line, name in _set_fields(cls) if name not in loaded)


def test_write_only_field_detector():
    # a field read only by another file counts as read; a parameter write
    # (a.written) and a plain name (unread) are no reads
    module = ("class A:\n    def __init__(self, read, written, elsewhere=0):\n"
              "        self.read, self.elsewhere = read, elsewhere\n"
              "        self.written = written\n\n\n"
              "class B:\n    def __init__(self, unread):\n"
              "        self.unread = unread\n\n\n"
              "def f(a, unread):\n    a.written = 1\n"
              "    return a.read + unread\n")
    assert write_only_fields({"m.py": module}, ["x.elsewhere\n"]) \
        == [("m.py", 4, "A.written"), ("m.py", 9, "B.unread")]


def test_write_only_self_attribute_detector():
    module = ("class E(Exception):\n"
              "    def __init__(self, message, index=None):\n"
              "        super().__init__(message)\n"
              "        self.index = index\n\n\n"
              "class P:\n    def __init__(self, x, w):\n"
              "        self.x, self.w = x, w\n        self.n = 0\n\n"
              "    def bump(self, other):\n        self.n += 1\n"
              "        other.unseen = 1\n        return self.x\n")
    assert write_only_fields({"m.py": module}, ["p.w\n"]) == [
        ("m.py", 4, "E.index"), ("m.py", 10, "P.n"), ("m.py", 13, "P.n")]


def test_no_write_only_fields():
    modules, others = _package_and_perfbench()
    found = ["%s:%d %s" % d for d in write_only_fields(modules, others)]
    assert not found, "fields never read: " + ", ".join(found)


def _passes_through(node, params) -> bool:
    """``node`` is ``self.x``, ``self.x[p]``, ``self.x[p].y`` or
    ``list(self.x)``, with p one of ``params``."""
    if isinstance(node, ast.Attribute) and isinstance(node.value,
                                                      ast.Subscript):
        node = node.value
    if isinstance(node, ast.Subscript):
        if not (isinstance(node.slice, ast.Name) and node.slice.id in params):
            return False
        node = node.value
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "list" and len(node.args) == 1 \
            and not node.keywords:
        node = node.args[0]
    return isinstance(node, ast.Attribute) \
        and isinstance(node.value, ast.Name) and node.value.id == "self"


def pass_through_accessors(modules: dict) -> list:
    """(module, line, Class.method) of each non-dunder method of a class in
    ``modules`` whose body, after an optional docstring, is one ``return``
    of ``self.x``, ``self.x[param]``, ``self.x[param].y`` or
    ``list(self.x)``."""
    found = []
    for mod, source in modules.items():
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or (
                        fn.name.startswith("__") and fn.name.endswith("__")):
                    continue
                body = fn.body[1:] if ast.get_docstring(fn) is not None \
                    else fn.body
                params = {a.arg for a in fn.args.posonlyargs + fn.args.args
                          + fn.args.kwonlyargs}
                if len(body) == 1 and isinstance(body[0], ast.Return) \
                        and _passes_through(body[0].value, params):
                    found.append((mod, fn.lineno, cls.name + "." + fn.name))
    return sorted(found)


def test_pass_through_accessor_detector():
    module = ("class P:\n    def __init__(self, gens):\n"
              "        self.gens, self.n = gens, len(gens)\n\n"
              "    def __len__(self):\n        return self.n\n\n"
              "    def labels(self):\n        return list(self.gens)\n\n"
              "    def gen(self, label):\n"
              "        \"\"\"The generator of label.\"\"\"\n"
              "        return self.gens[label]\n\n"
              "    def map_of(self, label):\n"
              "        return self.gens[label].map\n\n"
              "    @property\n    def count(self):\n        return self.n\n\n"
              "    def first(self):\n        return self.gens[0]\n\n"
              "    def doubled(self):\n        return self.n + self.n\n\n"
              "    def inverse_map(self, label):\n"
              "        return self.gens[label].map.inverse()\n\n"
              "    def other(self, o):\n        return o.gens\n\n"
              "    def checked(self, label):\n"
              "        assert label in self.gens\n"
              "        return self.gens[label]\n")
    assert pass_through_accessors({"m.py": module}) == [
        ("m.py", 8, "P.labels"), ("m.py", 11, "P.gen"),
        ("m.py", 15, "P.map_of"), ("m.py", 19, "P.count")]


def test_no_pass_through_accessors():
    # a method that only returns a field, an entry of it or a field of an
    # entry gives a second name to what callers can read directly
    modules, _ = _package_and_perfbench()
    found = ["%s:%d %s" % d for d in pass_through_accessors(modules)]
    assert not found, "methods that only pass a field through: " \
        + ", ".join(found)


def _attribute_writes(fn):
    """(line, name, attr) of each assignment, augmented assignment or
    ``setattr`` call in ``fn`` that sets an attribute of the plain name
    ``name``; attr is "*" for ``setattr``."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Store):
            target, attr = node.value, node.attr
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Name) \
                and node.func.id == "setattr" and node.args:
            target, attr = node.args[0], "*"
        else:
            continue
        if isinstance(target, ast.Name):
            yield node.lineno, target.id, attr


def parameter_writes(modules: dict) -> list:
    """(module, line, function, name.attr) of each assignment, augmented
    assignment or ``setattr`` call in a function of ``modules`` that sets
    an attribute of one of the function's own parameters; ``self`` of a
    method is exempt."""
    found = []
    for mod, source in modules.items():
        tree = ast.parse(source)
        methods = {id(fn) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            args = fn.args
            params = {a.arg for a in args.posonlyargs + args.args
                      + args.kwonlyargs + [args.vararg, args.kwarg]
                      if a is not None}
            if id(fn) in methods:
                params.discard("self")
            found += [(mod, line, getattr(fn, "name", "<lambda>"),
                       name + "." + attr)
                      for line, name, attr in _attribute_writes(fn)
                      if name in params]
    return sorted(found)


def test_parameter_write_detector():
    module = ("class A:\n    def set(self, other):\n"
              "        self.x = other.y\n        other.y = 1\n\n\n"
              "def f(a, b, *rest, c):\n    local = g()\n"
              "    local.x, b.n = 1, 2\n    a.n += 1\n"
              "    setattr(c, 'k', 0)\n    setattr(local, 'k', 0)\n"
              "    return lambda self: setattr(self, 'k', 1)\n")
    assert parameter_writes({"m.py": module}) == [
        ("m.py", 4, "set", "other.y"), ("m.py", 9, "f", "b.n"),
        ("m.py", 10, "f", "a.n"), ("m.py", 11, "f", "c.*"),
        ("m.py", 13, "<lambda>", "self.*")]


def test_no_function_sets_attributes_of_its_parameters():
    # a function's arguments are its inputs: a value it derives goes into
    # what it returns, not into an object the caller handed it
    modules, _ = _package_and_perfbench()
    found = ["%s:%d %s sets %s" % d for d in parameter_writes(modules)]
    assert not found, "attributes of parameters set: " + ", ".join(found)


def self_writes(modules: dict) -> list:
    """(module, line, Class.method, self.attr) of each assignment,
    augmented assignment or ``setattr`` call in a method other than
    ``__init__`` of a class in ``modules`` that sets an attribute of
    ``self``: the objects are set up once and then only read."""
    found = []
    for mod, source in modules.items():
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            found += [(mod, line, cls.name + "." + fn.name, "self." + attr)
                      for fn in cls.body if isinstance(fn, ast.FunctionDef)
                      and fn.name != "__init__"
                      for line, name, attr in _attribute_writes(fn)
                      if name == "self"]
    return sorted(found)


def test_self_write_detector():
    module = ("class P:\n    def __init__(self, x):\n"
              "        self.x, self.n = x, 0\n\n"
              "    def bump(self, other):\n        self.n += 1\n"
              "        other.n = self.x\n"
              "        setattr(self, 'k', 0)\n\n"
              "    @property\n    def cached(self):\n"
              "        self.c = self.x\n        return self.c\n\n\n"
              "def f(self):\n    self.y = 1\n")
    assert self_writes({"m.py": module}) == [
        ("m.py", 6, "P.bump", "self.n"), ("m.py", 8, "P.bump", "self.*"),
        ("m.py", 12, "P.cached", "self.c")]


def test_only_init_sets_attributes_on_self():
    # every object of the package is filled in by its constructor and
    # then read: this keeps the guarantee the frozen records gave
    modules, _ = _package_and_perfbench()
    found = ["%s:%d %s sets %s" % d for d in self_writes(modules)]
    assert not found, "attributes set on self after __init__: " \
        + ", ".join(found)


def test_no_module_imports_dataclasses():
    # the decorators exec-compile their generated methods in every process
    # (about 10 ms of importing the command line, BENCH_29.json); the
    # package's classes write their __init__ by hand
    found = ["%s:%d" % (p.name, node.lineno)
             for p in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
             if isinstance(node, ast.Import)
             and any(a.name == "dataclasses" for a in node.names)
             or isinstance(node, ast.ImportFrom)
             and node.module == "dataclasses"]
    assert not found, "dataclasses imported: " + ", ".join(found)


def test_spectrum_run_loads_no_dataclasses(tmp_path):
    # without valid bytecode, as the benchmark runs it, a whole gamma2
    # spectrum run loads neither dataclasses nor copy (which it imports)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, cuspwind.cli\ncuspwind.cli.main(sys.argv[1:])\n"
         "print(sorted({'dataclasses', 'copy'} & set(sys.modules)))",
         "spectrum", "--preset", "gamma2-type", "--cap", "60",
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "[]"
    assert (tmp_path / "spectrum.csv").exists()


def test_cli_import_loads_no_scipy(tmp_path):
    # scipy is a test dependency only: at run time scipy.optimize alone
    # adds ~50 MB of resident memory to every command, numpy.ma (which
    # np.setdiff1d and its kin import) 1.25 MB, numpy.polynomial (the tail
    # rule builds its Legendre table by hand) 0.47-0.65 MB of peak RSS, and
    # html with html.entities 0.46 MB (the SVG title is escaped by hand);
    # neither the import nor a one-cusp spectrum nor a delta run loads them
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    loaded = ("print(sorted(m for m in sys.modules if m.split('.')[0] in "
              "('scipy', 'html') or (m + '.').startswith(('numpy.ma.', "
              "'numpy.polynomial.'))))")
    run = "cuspwind.cli.main(sys.argv[1:])\n"
    for code, command in (
            ("", "spectrum"), (run, "spectrum"), (run, "delta")):
        out = subprocess.run(
            [sys.executable, "-c", "import sys, cuspwind.cli\n" + code + loaded,
             command, "--preset", "one-cusp-one-hyperbolic", "--cap", "60",
             "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, check=True).stdout
        assert out.splitlines()[-1] == "[]"
    assert (tmp_path / "spectrum.csv").exists()
    assert (tmp_path / "delta.json").exists()


def test_free_energy_runs_no_linalg_but_the_perron_root(monkeypatch):
    # np.linalg.eigvals of the key matrix (or of its companion) is the one
    # np.linalg call a pressure call makes; the tail rule's weights come
    # from closed-form moments: a first eigh of a process maps ~0.26 MB of
    # resident memory over eigvals alone, and a first inv 0.3-0.45 MB
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg call outside the Perron root")

    for name in np.linalg.__all__:
        member = getattr(np.linalg, name)
        if name != "eigvals" and callable(member) \
                and not isinstance(member, type):
            monkeypatch.setattr(np.linalg, name, refuse)
    for preset in ("gamma2-type", "one-cusp-one-hyperbolic"):
        pres = build_group(preset_config(preset))
        sysm = fuchsian_system(pres, 60)
        for beta in (-20.0, 0.0, 1.25, 20.0):
            assert 0.0 < gdms.free_energy(sysm, beta).r
        gdms.delta_c(fuchsian_system(pres, 2, restricted=True))


def wrapped_names(source: str) -> list:
    """(module, attribute) of each ``x.wrap(module, attr, ...)`` call in
    ``source``, the module resolved through the imports there and the
    attribute a string, or a loop variable over a tuple of strings."""
    tree = ast.parse(source)
    modules, loops = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            modules.update((a.asname or a.name, node.module + "." + a.name)
                           for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.For) and isinstance(node.target, ast.Name) \
                and isinstance(node.iter, ast.Tuple):
            loops[node.target.id] = [e.value for e in node.iter.elts]
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "wrap":
            module, attr = node.args[:2]
            attrs = loops[attr.id] if isinstance(attr, ast.Name) \
                else [attr.value]
            found.update((modules[module.id], a) for a in attrs)
    return sorted(found)


def test_wrapped_name_detector():
    src = ("from cuspwind import cli\nimport cuspwind.gdms as g\n"
           "def install(t):\n    t.wrap(cli, 'main', 'cli.main')\n"
           "    t.wrap(g, 'pressure')\n"
           "    for w in ('a', 'b'):\n        t.wrap(cli, w, 'cli.w')\n")
    assert wrapped_names(src) == [
        ("cuspwind.cli", "a"), ("cuspwind.cli", "b"),
        ("cuspwind.cli", "main"), ("cuspwind.gdms", "pressure")]


def test_perfbench_names_exist():
    # perfbench/child.py lists a name it cannot find as missing and goes on,
    # so a renamed or dropped name would only show as a null metric
    source = (PERFBENCH / "child.py").read_text(encoding="utf-8")
    names = wrapped_names(source)
    assert {("cuspwind.cli", "emit_figure"), ("cuspwind.cli", "write_csv"),
            ("cuspwind.spectrum", "spectrum")} <= set(names)
    absent = ["%s.%s" % (mod, attr) for mod, attr in names
              if not hasattr(importlib.import_module(mod), attr)]
    assert not absent, "names perfbench wraps are gone: " + ", ".join(absent)
    # its _solve_info reads a solve's beta as args[1]
    from cuspwind import gdms

    params = list(inspect.signature(gdms.free_energy).parameters.values())
    assert params[1].name == "beta"
    assert params[1].kind in (params[1].POSITIONAL_ONLY,
                              params[1].POSITIONAL_OR_KEYWORD)


def euclidean_cases(source: str) -> list:
    """Each name, attribute or import ``INF``, ``is_infinity``, ``inf`` or
    ``isinf`` (``math.inf`` included) and each string ``"vline"`` or
    ``"circle"`` in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.asname or node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in ("INF", "is_infinity", "inf", "isinf", "vline", "circle"):
            found.append(name)
    return sorted(found)


def test_euclidean_case_detector():
    src = ('from .mobius import INF\nimport math, mobius\n'
           'from math import isinf\n'
           'def f(g):\n    return g.kind == "vline" or mobius.is_infinity(g)\n'
           'x = "a circle"\ny = math.inf if isinf(x) else 0.0\n')
    assert euclidean_cases(src) == [
        "INF", "inf", "is_infinity", "isinf", "isinf", "vline"]


def test_geometry_has_no_euclidean_cases():
    # geodesics and horoballs have one Moebius-covariant form: no case for
    # the point oo and no circle/vertical-line kind
    source = (PACKAGE / "geometry.py").read_text(encoding="utf-8")
    assert euclidean_cases(source) == []


REAL_LINE = ("boundary_angle", "boundary_from_angle", "apply_boundary")


def real_line_uses(source: str) -> list:
    """(outermost enclosing class or function, or "<module>", name) of
    each use of a name in ``REAL_LINE``, by name or as an attribute;
    imports do not count."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                walk(child, child.name if scope == "<module>" else scope)
                continue
            name = child.id if isinstance(child, ast.Name) else \
                child.attr if isinstance(child, ast.Attribute) else None
            if name in REAL_LINE:
                found.append((scope, name))
            walk(child, scope)

    walk(ast.parse(source), "<module>")
    return sorted(found)


def test_real_line_use_detector():
    src = ("from .mobius import apply_boundary, boundary_angle\n"
           "class Arc:\n    def f(self, x):\n"
           "        return boundary_angle(x)\n"
           "def g(m, x):\n    return mobius.apply_boundary(m, x)\n"
           "y = boundary_from_angle(1.0)\n")
    assert real_line_uses(src) == [
        ("<module>", "boundary_from_angle"), ("Arc", "boundary_angle"),
        ("g", "apply_boundary")]


def test_presentation_arcs_stay_in_circle_angles():
    # arcs are built, moved and compared as circle angles: no real
    # coordinate inside CircleInterval, and the real action on the
    # boundary only where conjugate_config writes a config
    uses = real_line_uses((PACKAGE / "fuchsian.py").read_text(
        encoding="utf-8"))
    assert [u for u in uses if u[0] == "CircleInterval"] == []
    assert {scope for scope, name in uses if name == "apply_boundary"} \
        == {"conjugate_config"}


HALF_PLANE = ("apply_plane", "hyperbolic_distance",
              "geodesic_distance_between", "BASE_POINT", "Geodesic")


def half_plane_names(source: str) -> list:
    """(line, name) of each definition, import, name or attribute in
    ``source`` that is a name in ``HALF_PLANE``; an import counts by its
    imported name and by its alias."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.alias):
            names = [node.name, node.asname]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in HALF_PLANE]
    return sorted(found)


def test_half_plane_name_detector():
    src = ("from .mobius import apply_plane as act, boundary_angle\n"
           "from . import mobius\nBASE_POINT = 1j\n"
           "class Geodesic:\n    pass\n"
           "def f(z, w):\n    return mobius.hyperbolic_distance(act(z), w)\n"
           "def geodesic_distance_between():\n    return boundary_angle\n")
    assert half_plane_names(src) == [
        (1, "apply_plane"), (3, "BASE_POINT"), (4, "Geodesic"),
        (7, "hyperbolic_distance"), (8, "geodesic_distance_between")]


def test_package_holds_no_half_plane_point():
    # the package works in one geometry, boundary angles, vectors and
    # matrices: the points of the plane, their distances and geodesics
    # serve only the paper's lemma checks in tests/oracles.py
    found = ["%s:%d %s" % (p.name, line, name)
             for p in sorted(PACKAGE.glob("*.py"))
             for line, name in half_plane_names(p.read_text(encoding="utf-8"))]
    assert not found, "half-plane names in the package: " + ", ".join(found)



def _package_modules(node) -> list:
    """The package modules an import statement names: each module of a
    relative import or one under ``cuspwind``, or each name it imports
    from the package itself; [] for any other node."""
    if isinstance(node, ast.Import):
        return [a.name.removeprefix("cuspwind.") for a in node.names
                if a.name.split(".")[0] == "cuspwind"]
    if not isinstance(node, ast.ImportFrom) or not (
            node.level or (node.module or "").split(".")[0] == "cuspwind"):
        return []
    module = (node.module or "").removeprefix("cuspwind").lstrip(".")
    return [module] if module else [a.name for a in node.names]


def misplaced_imports(modules: dict) -> list:
    """(module, line, scope, imported) of each import of a package module
    (``_package_modules``) inside a function, ``scope`` naming its
    enclosing definitions, and of each import of ``coding`` by
    ``induced.py`` (scope ``<module>`` at the top level)."""
    found = []

    def walk(mod, node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(mod, child, child.name if scope == "<module>"
                     else scope + "." + child.name,
                     in_function or isinstance(child, ast.FunctionDef))
                continue
            for name in _package_modules(child):
                if in_function or (mod, name) == ("induced.py", "coding"):
                    found.append((mod, child.lineno, scope, name))
            walk(mod, child, scope, in_function)

    for mod, source in modules.items():
        walk(mod, ast.parse(source), "<module>", False)
    return sorted(found)


def test_misplaced_import_detector():
    module = ("import numpy\nfrom . import gdms\n\n"
              "def f():\n    from .presets import preset_config\n"
              "    import cuspwind.gdms\n    import math\n"
              "    return preset_config, math\n\n"
              "class K:\n    from .errors import CodingStalled\n\n"
              "    def m(self):\n        from cuspwind import build_group\n"
              "        return build_group\n")
    induced = ("from .coding import code_point\nfrom . import coding\n"
               "from .gdms import pressure\n")
    assert misplaced_imports({"m.py": module, "induced.py": induced}) == [
        ("induced.py", 1, "<module>", "coding"),
        ("induced.py", 2, "<module>", "coding"),
        ("m.py", 5, "f", "presets"), ("m.py", 6, "f", "gdms"),
        ("m.py", 14, "K.m", "build_group")]


# The imports of package modules inside a function that the package keeps,
# (module, function, imported module) -> the reason.  The package's
# modules import each other in one order (mobius, geometry, errors,
# fuchsian, coding, gdms, induced, spectrum, figures, presets, config,
# cli), with no import back up that order, so none is kept.
FUNCTION_IMPORTS = {}


def test_package_imports_at_module_level():
    # an import inside a function hides a module's dependencies and is
    # paid on the first call; induced builds the operator and needs
    # nothing of the coder
    modules, _ = _package_and_perfbench()
    found = misplaced_imports(modules)
    kept = {(mod, scope, name) for mod, _, scope, name in found}
    assert set(FUNCTION_IMPORTS) <= kept, "allowed imports gone: %r" % (
        set(FUNCTION_IMPORTS) - kept)
    bad = ["%s:%d %s imports %s" % d for d in found
           if (d[0], d[2], d[3]) not in FUNCTION_IMPORTS]
    assert not bad, "misplaced package imports: " + ", ".join(bad)


def label_keyed_fields(pres) -> list:
    """The attributes of a presentation, bar ``gens``, that are non-empty
    dicts keyed by its labels: a second per-label record beside the
    ``Generator`` in ``gens``."""
    labels = set(pres.gens)
    return sorted(name for name, value in vars(pres).items()
                  if name != "gens" and isinstance(value, dict) and value
                  and set(value) <= labels)


def test_label_keyed_field_detector():
    # keys that are only some of the labels count; other keys, an empty
    # dict and a tuple do not
    pres = types.SimpleNamespace(
        gens={"a": 0, "A": 1, "b": 2, "B": 3}, horocircles={"a": 4, "A": 5},
        by_angle={0.5: "a"}, mixed={"a": 6, "x": 7}, empty={}, cusps=(4,))
    assert label_keyed_fields(pres) == ["horocircles"]


def test_presentation_keeps_one_record_per_label():
    # a fact of one generator lives on its ``Generator``, in the presets
    # and in the chart z -> z / (0.4 z + 1)
    configs = [preset_config(name)
               for name in ("gamma2-type", "one-cusp-one-hyperbolic")]
    configs.append(conjugate_config(
        preset_config("gamma2-type"),
        MobiusMap.from_entries(1.0, 0.0, 0.4, 1.0)))
    for config in configs:
        assert label_keyed_fields(build_group(config)) == []


def unread_option_dests(parser, scalars) -> list:
    """(command, dest) of each option of each subcommand of ``parser``
    whose dest is no key of ``scalars`` (which ``resolve_config`` copies
    into the ``RunConfig``), nor ``config`` or ``preset``, nor an
    ``args.<dest>`` that the subcommand's ``run`` function reads from its
    second parameter.  A subcommand without ``run`` reads nothing."""
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    found = []
    for name, q in sub.choices.items():
        allowed = set(scalars) | {"config", "preset"}
        run = q.get_default("run")
        if run is not None:
            fn = ast.parse(textwrap.dedent(inspect.getsource(run))).body[0]
            params = fn.args.args
            if len(params) >= 2:
                allowed |= {node.attr for node in ast.walk(fn)
                            if isinstance(node, ast.Attribute)
                            and isinstance(node.value, ast.Name)
                            and node.value.id == params[1].arg}
        found += [(name, action.dest) for action in q._actions
                  if not isinstance(action, argparse._HelpAction)
                  and action.dest not in allowed]
    return sorted(found)


def _fixture_command(cfg, opts):
    return cfg.cap, opts.point


def test_unread_option_detector():
    # a renamed dest, an option its command never reads, and every option
    # of a subcommand without a command count; a config key, --config,
    # --preset and what the command reads do not
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers()
    q = sub.add_parser("good")
    q.set_defaults(run=_fixture_command)
    for option in ("--config", "--preset", "--cap", "--point"):
        q.add_argument(option)
    q = sub.add_parser("bad")
    q.set_defaults(run=_fixture_command)
    q.add_argument("--cap")
    q.add_argument("--format", dest="fmt")
    q.add_argument("--blocks")
    q = sub.add_parser("bare")
    q.add_argument("--point")
    assert unread_option_dests(parser, {"cap": int}) == [
        ("bad", "blocks"), ("bad", "fmt"), ("bare", "point")]


def test_every_option_reaches_the_config_or_its_command():
    # an option names its setting once: its dest is the RunConfig key, or
    # the command reads it off the parsed arguments, so no rename table
    # sits between the two and no option is parsed and dropped
    found = unread_option_dests(cli.build_parser(), _SCALARS)
    assert not found, "options that reach neither the config nor their " \
        "command: %r" % found
