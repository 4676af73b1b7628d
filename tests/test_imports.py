"""Every module of the package uses each name it imports.

An `ast` scan: a name bound by an import (``from __future__`` aside) must
be read somewhere in the module, as a name, as the base of an attribute,
or as a string in ``__all__``.  An import left behind when the code that
used it moves away fails here.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "bicatkit"


def unused_imports(source):
    """The names that `source` imports and never reads, in line order."""
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
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= {elt.value for elt in getattr(node.value, "elts", ())
                     if isinstance(elt, ast.Constant)}
    return sorted((name for name in imported if name not in used), key=imported.get)


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import functools\nimport os\nfrom .search import run, compile_plan\n"
                          "os.getcwd()\nrun()\n") == ["functools", "compile_plan"]
    assert unused_imports("from __future__ import annotations\nimport a.b as c\nc.d\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == [], path.name
