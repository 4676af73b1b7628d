"""Print the number of code lines in src/bicatkit: the lines that hold a
token of Python code, not counting docstrings, comments and blank lines.

    python3 scripts/code_lines.py            # the total
    python3 scripts/code_lines.py --files    # and the count of each file
"""

import ast
import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "bicatkit"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    with open(path, "rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(path.read_bytes())))


def main(argv):
    counts = {path.name: code_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
    if argv[1:] == ["--files"]:
        for name, n in counts.items():
            print(f"{n:6d} {name}")
    print(sum(counts.values()))


if __name__ == "__main__":
    main(sys.argv)
