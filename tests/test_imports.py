"""Every import in a package module is named in that module.

No linter ships with the package, so this check parses each module with
``ast``.  ``__init__.py`` is exempt (its imports are re-exports), and so
are ``from __future__`` imports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "posetalg"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(imported) - named)


def test_guard_flags_an_unused_import():
    assert unused_imports("import json\nfrom .poset import PosetError, make_poset\nmake_poset()\n") == [
        "PosetError",
        "json",
    ]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
