"""Every module of the package uses each name it imports.

An `ast` scan: a name bound by an import (``from __future__`` aside) must
be read in the scope of the import, as a name, as the base of an attribute,
or as a string in ``__all__``.  The scope of a module-level import is the
whole module; that of an import inside a function is that function, nested
functions included, so a stale import in one function does not hide behind
a use of the same name in another.  An import left behind when the code
that used it moves away fails here.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "bicatkit"


_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(scope):
    """The nodes of a scope that lie outside the functions defined in it."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def unused_imports(source):
    """The names that `source` imports and never reads in the scope of the
    import, in line order."""
    tree = ast.parse(source)
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            exported |= {elt.value for elt in getattr(node.value, "elts", ())
                         if isinstance(elt, ast.Constant)}
    unused = []
    for scope in ast.walk(tree):
        if not isinstance(scope, _SCOPES):
            continue
        imported = {}
        for node in _own_nodes(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        used = exported | {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        unused += [(line, name) for name, line in imported.items() if name not in used]
    return [name for _, name in sorted(unused, key=lambda item: item[0])]


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import functools\nimport os\nfrom .search import run, compile_plan\n"
                          "os.getcwd()\nrun()\n") == ["functools", "compile_plan"]
    assert unused_imports("from __future__ import annotations\nimport a.b as c\nc.d\n") == []
    # a function-level import is read in its own function, not elsewhere
    assert unused_imports("import os\ndef f():\n    import json\n    from .search import run\n"
                          "    run()\ndef g():\n    json.dumps(os)\n") == ["json"]
    assert unused_imports("def f():\n    import json\n    return lambda: json.dumps\n"
                          "def g():\n    def h():\n        import os\n    return os\n") == ["os"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == [], path.name
