"""Every module of the package, and every test module, uses each name it
imports.

Tests patch names on ``duality``, ``linalg`` and ``tensor`` where those
modules bound them.  A leftover import of a name the module no longer
calls would make such a patch silently inert, and the test built on it
would pass without testing anything.  In a test module a leftover import
is the trace of a check that was removed or never written.
"""
import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "diagramalg"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TEST_MODULES,
                         ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TEST_MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
