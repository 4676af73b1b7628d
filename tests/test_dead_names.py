"""Every private module-level name of the package is read in the package.

An `ast` scan: a function, class or assignment at the top level of a
module whose name starts with one underscore must be read outside its own
definition, as a name in its own module, as a name a ``from`` import of
its module brings into another, or as an attribute anywhere.  A helper or
a table left behind when the code that read it goes away fails here.
"""

import ast

from test_imports import PACKAGE

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign)


def _private_definitions(tree):
    """(name, node) for each private name that a top-level node defines."""
    for node in tree.body:
        if not isinstance(node, _DEFINITIONS):
            continue
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            names = [node.name]
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _reads(tree):
    """(node, module, name) for each read in `tree`: `module` is None for a
    name read in the tree's own module, the imported module's last dotted
    part for a ``from`` import, and "*" for an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node, None, node.id
        elif isinstance(node, ast.Attribute):
            yield node, "*", node.attr
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                yield node, node.module.rpartition(".")[2], alias.name


def _can_read(reader, where, module):
    """Whether a read in the module `reader`, from `where` (see `_reads`),
    can read a top-level name of `module`."""
    return where == "*" or (where is None if reader == module else where == module)


def dead_names(sources):
    """The private top-level names of `sources`, a {module: source text}
    mapping, that no module reads outside their own definition, each as
    "module.name", in module and line order."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = {module: list(_reads(tree)) for module, tree in trees.items()}
    dead = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            inside = set(map(id, ast.walk(definition)))
            if not any(read == name and id(node) not in inside
                       and _can_read(reader, where, module)
                       for reader, found in reads.items() for node, where, read in found):
                dead.append(f"{module}.{name}")
    return dead


def test_the_scan_finds_a_dead_name():
    sources = {
        "a": "_TABLE = {}\n_USED, _UNUSED = 1, 2\n"
             "def _recursive(n):\n    return _recursive(n - 1)\n"
             "def _imported():\n    pass\n"
             "class _Read:\n    pass\n"
             "def _attribute():\n    pass\n"
             "def public():\n    return _USED, _Read\n",
        "b": "from .a import _imported\nfrom . import a\n_imported()\na._attribute()\n"
             "_TABLE = 1\nprint(_TABLE)\n",
    }
    assert dead_names(sources) == ["a._TABLE", "a._UNUSED", "a._recursive"]


def test_every_private_top_level_name_is_read():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_names(sources) == []
