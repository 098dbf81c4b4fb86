"""Every module of the package uses each name it imports.

Tests patch names on ``duality``, ``linalg`` and ``tensor`` where those
modules bound them.  A leftover import of a name the module no longer
calls would make such a patch silently inert, and the test built on it
would pass without testing anything.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "diagramalg"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement anywhere in ``source`` that no
    expression of the module reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - read)


def test_checker_flags_an_unused_name():
    source = "from __future__ import annotations\nimport os\nfrom math import gcd, lcm as l\n"
    assert unused_imports(source + "print(gcd)\n") == ["l", "os"]
    assert unused_imports(source + "def f(x: os.PathLike):\n    return l(gcd(1, 2))\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
