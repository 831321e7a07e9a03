"""Static checks on the package sources, with the stdlib `ast` module."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import multipot

# the imports of __init__.py are the package's public names
SOURCES = sorted(p for p in Path(multipot.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list:
    """Names bound by an import that no expression reads and `__all__`
    does not re-export."""
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(imported - used)


def test_scanner_finds_unused_imports():
    src = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import numpy as np\n"
        "from .grid import Grid, Cube\n"
        "from .orlicz import NormSpec\n"
        "__all__ = ['NormSpec']\n"
        "def f(g: Grid):\n"
        "    return np.zeros(3)\n"
    )
    assert unused_imports(ast.parse(src)) == ["Cube", "os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []



def _loads(node, name: str) -> set:
    return {id(n) for n in ast.walk(node)
            if isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)}


def unused_private_names(trees: dict) -> list:
    """Module-level private names (`_name` functions, classes and
    constants) that no module reads, as "module.name".  trees maps module
    names to parsed sources.  A read is a load of the name in its module
    outside its own definition, or a relative import of it."""
    defined, imported = {}, set()
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined.update({(mod, k): node for k in names if k.startswith("_") and not k.startswith("__")})
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported |= {(node.module, a.name) for a in node.names}
    return sorted(f"{mod}.{name}" for (mod, name), node in defined.items()
                  if (mod, name) not in imported
                  and not _loads(trees[mod], name) - _loads(node, name))


def test_scanner_finds_unused_private_names():
    a = (
        "_LIMIT = 3\n"
        "_UNUSED: int = 4\n"
        "def _helper(x):\n"
        "    return x + _LIMIT\n"
        "def _recursive(x):\n"
        "    return _recursive(x - 1) if x else 0\n"
        "class _Shared:\n"
        "    pass\n"
        "def public():\n"
        "    return _helper(1)\n"
    )
    b = "from .a import _Shared\n"
    trees = {"a": ast.parse(a), "b": ast.parse(b)}
    assert unused_private_names(trees) == ["a._UNUSED", "a._recursive"]


def test_no_unused_private_names():
    trees = {p.stem: ast.parse(p.read_text()) for p in Path(multipot.__file__).parent.glob("*.py")}
    assert unused_private_names(trees) == []


def _reads(tree, skip=None) -> set:
    """Names that tree loads or reads as an attribute, outside the node skip."""
    skipped = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
            if id(n) not in skipped and (isinstance(n, ast.Attribute)
                                         or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))}


def _exported(tree: ast.Module) -> list:
    """The names in the module's `__all__`."""
    return [e.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for e in node.value.elts]


def public_names_without_caller(trees: dict, readers: list) -> list:
    """Names in a module's `__all__` that no module reads outside the
    name's own definition and no reader reads, as "module.name".  trees
    maps module names to parsed sources; readers are parsed sources from
    outside the package, such as its acceptance tests."""
    outside = set().union(*(_reads(tree) for tree in readers))
    missing = []
    for mod, tree in trees.items():
        defs = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for name in _exported(tree):
            inside = set().union(*(_reads(t, defs.get(name) if m == mod else None)
                                   for m, t in trees.items()))
            if name not in inside | outside:
                missing.append(f"{mod}.{name}")
    return sorted(missing)


def test_scanner_finds_public_names_without_caller():
    a = (
        "__all__ = ['used', 'recursive', 'read_outside', 'Helper']\n"
        "class Helper:\n"
        "    pass\n"
        "def used():\n"
        "    return Helper()\n"
        "def recursive(x):\n"
        "    return recursive(x - 1) if x else 0\n"
        "def read_outside():\n"
        "    return 1\n"
    )
    b = "from .a import used\n__all__ = ['run']\ndef run():\n    return used()\n"
    reader = "import multipot\nmultipot.a.read_outside()\n"
    trees = {"a": ast.parse(a), "b": ast.parse(b)}
    assert public_names_without_caller(trees, [ast.parse(reader)]) == ["a.recursive", "b.run"]


def test_every_public_name_has_a_caller():
    # a public name is read by another part of the package, the acceptance
    # tests or the benchmark's workloads; tests of its own do not count
    root = Path(__file__).resolve().parents[1]
    trees = {p.stem: ast.parse(p.read_text()) for p in SOURCES}
    readers = [ast.parse((root / f).read_text()) for f in ("tests/test_acceptance.py", "perfbench/workloads.py")]
    assert public_names_without_caller(trees, readers) == []


def _members(cls: ast.ClassDef) -> dict:
    """The public members of a class, by name, each with the node that
    defines it: methods, properties and classmethods, annotated fields and
    the `self.<name>` attributes that `__init__` sets."""
    members = {}
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            members[node.name] = node
            if node.name == "__init__":
                members.update({n.attr: n for n in ast.walk(node) if isinstance(n, ast.Attribute)
                                and isinstance(n.ctx, ast.Store) and isinstance(n.value, ast.Name)
                                and n.value.id == "self" and n.attr not in members})
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            members[node.target.id] = node
    return {name: node for name, node in members.items() if not name.startswith("_")}


def _attribute_reads(tree) -> Counter:
    """How often tree reads each name as an attribute, `x.name`."""
    return Counter(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def public_members_without_reader(trees: dict, readers: list) -> list:
    """Public members of public module-level classes that no module reads
    as an attribute outside the member's own definition and no reader
    reads, as "module.Class.name".  trees maps module names to parsed
    sources; readers are parsed sources from outside the package."""
    inside = sum((_attribute_reads(tree) for tree in trees.values()), Counter())
    outside = set().union(*(_attribute_reads(tree) for tree in readers))
    return sorted(f"{mod}.{cls.name}.{name}" for mod, tree in trees.items() for cls in tree.body
                  if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
                  for name, node in _members(cls).items()
                  if name not in outside and inside[name] == _attribute_reads(node)[name])


def test_scanner_finds_public_members_without_reader():
    a = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Box:\n"
        "    size: int\n"
        "    label: str\n"
        "    note: str = ''\n"
        "    @property\n"
        "    def area(self):\n"
        "        return self.size * self.size\n"
        "    @property\n"
        "    def volume(self):\n"
        "        return self.size ** 3\n"
        "    @classmethod\n"
        "    def unit(cls):\n"
        "        return cls(1, 'unit')\n"
        "    @classmethod\n"
        "    def empty(cls):\n"
        "        return cls(0, '')\n"
        "    def grow(self):\n"
        "        return self.grow() if self.size > 9 else Box(self.area, self.label)\n"
        "    def shrink(self):\n"
        "        return Box(self.size - 1, '')\n"
        "class Stack:\n"
        "    def __init__(self):\n"
        "        self.items, self.depth = [], 0\n"
        "        self.top = None\n"
        "    def _peek(self):\n"
        "        return self.items\n"
        "class _Hidden:\n"
        "    def unread(self):\n"
        "        pass\n"
    )
    b = "from .a import Box\ndef run():\n    return Box.unit().shrink()\n"
    reader = "import multipot\nmultipot.a.Stack().depth\n"
    trees = {"a": ast.parse(a), "b": ast.parse(b)}
    assert public_members_without_reader(trees, [ast.parse(reader)]) == [
        "a.Box.empty", "a.Box.grow", "a.Box.note", "a.Box.volume", "a.Stack.top"]


def test_every_public_member_has_a_reader():
    # as for public names: a member is read by the package outside its own
    # definition, by the acceptance tests or by the benchmark's workloads
    root = Path(__file__).resolve().parents[1]
    trees = {p.stem: ast.parse(p.read_text()) for p in SOURCES}
    readers = [ast.parse((root / f).read_text()) for f in ("tests/test_acceptance.py", "perfbench/workloads.py")]
    assert public_members_without_reader(trees, readers) == []


def _defaulted(fn: ast.FunctionDef, bound: int) -> list:
    """(position in a call, or None for keyword-only; name) of each
    parameter of fn with a default; bound leading parameters (self, cls)
    are not passed by position."""
    a = fn.args
    pos = a.posonlyargs + a.args
    first = len(pos) - len(a.defaults)
    return ([(i - bound, x.arg) for i, x in enumerate(pos[first:], first)]
            + [(None, x.arg) for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None])


def _public_callables(tree: ast.Module):
    """(qualified name, definition, bound parameters) of each function in
    `__all__`, with None for bound, and of each public method of a public
    class: 0 bound for a staticmethod, 1 (self or cls) otherwise."""
    exported = _exported(tree)
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in exported:
            yield node.name, node, None
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
                    yield f"{node.name}.{fn.name}", fn, 0 if static else 1


def _sets(call: ast.Call, position, name: str) -> bool:
    """Whether call passes the parameter name, at position when it may go
    by position; a *args or **kwargs in the call may pass any."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    return position is not None and position < len(call.args) or any(k.arg == name for k in call.keywords)


def defaults_no_call_sets(trees: dict, readers: list) -> list:
    """Defaulted parameters of `__all__` functions and of public methods of
    public classes that no call outside their own definition sets, as
    "module.function(parameter)".  A call names a function as `name(...)`
    or `x.name(...)`, a method only as `x.name(...)`.  trees maps module
    names to parsed sources; readers are parsed sources from outside the
    package."""
    calls = [n for tree in [*trees.values(), *readers] for n in ast.walk(tree) if isinstance(n, ast.Call)]
    unset = []
    for mod, tree in trees.items():
        for qual, fn, bound in _public_callables(tree):
            inside = {id(n) for n in ast.walk(fn)}
            callers = [c for c in calls if id(c) not in inside and (
                isinstance(c.func, ast.Attribute) and c.func.attr == fn.name
                or bound is None and isinstance(c.func, ast.Name) and c.func.id == fn.name)]
            unset += [f"{mod}.{qual}({name})" for position, name in _defaulted(fn, bound or 0)
                      if not any(_sets(c, position, name) for c in callers)]
    return sorted(unset)


def test_scanner_finds_defaults_no_call_sets():
    a = (
        "__all__ = ['solve', 'spread', 'unused']\n"
        "def solve(x, tol=1e-10, steps=10, *, which=None, log=False):\n"
        "    return solve(x - 1, steps=steps) if x else 0\n"
        "def spread(*xs, scale=1.0, shift=0.0):\n"
        "    return xs\n"
        "def unused(x, y=2):\n"
        "    return x\n"
        "def _hidden(x, y=2):\n"
        "    return x\n"
        "class Box:\n"
        "    def grow(self, by=1, twice=False):\n"
        "        return self\n"
        "    @classmethod\n"
        "    def make(cls, size=1):\n"
        "        return cls()\n"
        "    @staticmethod\n"
        "    def check(x, strict=False):\n"
        "        return x\n"
        "    def _peek(self, deep=False):\n"
        "        return self\n"
    )
    b = (
        "from .a import Box, solve, spread\n"
        "def run(args, opts):\n"
        "    Box.make().grow(2)\n"
        "    Box.check(1, True)\n"
        "    grow(1, 2, 3)\n"
        "    spread(*args, **opts)\n"
        "    return solve(1, 1e-8, which=0)\n"
    )
    reader = "import multipot\nmultipot.a.solve(0, log=True)\n"
    trees = {"a": ast.parse(a), "b": ast.parse(b)}
    assert defaults_no_call_sets(trees, [ast.parse(reader)]) == [
        "a.Box.grow(twice)", "a.Box.make(size)", "a.solve(steps)", "a.unused(y)"]


# Parameters that stay without a caller, each with its reason.
_UNSET_EXEMPT = {
    # the weighted weak-type corollary runs only through this parameter
    # until it is a theorem of its own
    "verify.verify_control(us)",
}


def test_every_default_is_set_by_a_call():
    # as for public names: a call in the package, the acceptance tests or
    # the benchmark's workloads sets the parameter; tests of its own do not count
    root = Path(__file__).resolve().parents[1]
    trees = {p.stem: ast.parse(p.read_text()) for p in SOURCES}
    readers = [ast.parse((root / f).read_text()) for f in ("tests/test_acceptance.py", "perfbench/workloads.py")]
    assert set(defaults_no_call_sets(trees, readers)) == _UNSET_EXEMPT
