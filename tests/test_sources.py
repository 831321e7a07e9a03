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
