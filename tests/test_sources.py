"""Static checks on the package sources, with the stdlib `ast` module."""

import ast
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
