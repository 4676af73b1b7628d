"""The `bicatkit` command's reports and arguments, pinned.

The report bodies (everything above `timing:`) of a fixed list of commands,
run in one process through `cli.main`, byte for byte against
`tests/golden/cli_reports.txt`: the README examples, `validate` on every
bundled bicategory, `cylinder` on three bases, a cylinder built by a
document line, and three commands that fail.

    PYTHONPATH=src python tests/test_cli_reports.py > tests/golden/cli_reports.txt

rewrites the golden file; a change that means to alter reports does that in
a change of its own.  The arguments of every verb are pinned as a table
below, read off the parser the command builds.
"""

import contextlib
import io
import os
import pathlib
import sys
import tempfile

from bicatkit import cli, corpus
from bicatkit.fileformat import document_for, serialize

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_reports.txt"
DOCUMENT = "cyl.bc"

README_COMMANDS = [
    ["validate", "cocycle-twisted"],
    ["classify", "twisted-identity"],
    ["compose", "const-at-unit", "const-at-unit"],
    ["check-icon", "idem-icon-k"],
    ["check-oplax", "codiscrete-shift-a"],
    ["interchange", "idem-general", "probe-at-s"],
    ["strictness", "arrow-shift"],
    ["costrict", "icon-as-oplax-k"],
    ["cylinder", "walking-two-cell"],
    ["nerve", "ordinal-2", "--level", "3"],
    ["equivalence", "id-walking-arrow"],
    ["fibration", "walking-two-cell", "f1"],
    ["corpus", "run-all"],
]

COMMANDS = [
    *README_COMMANDS,
    *(["validate", name] for name in sorted(corpus.BICATEGORIES)),
    *(["cylinder", name] for name in ("walking-arrow", "walking-two-cell", "sigma-idem")),
    ["--file", DOCUMENT, "validate", "cyl-crossing"],
    ["--file", DOCUMENT, "check-oplax", "cyl-crossing"],
    ["validate", "nosuch"],
    ["cylinder", "codiscrete3"],
    ["compose", "idem-laxonly", "twisted-identity"],
]


def document_text():
    """The walking 2-cell and the cylinder over it, as a document."""
    b = corpus.get("bicategory", "walking-two-cell")
    return serialize(document_for(b)) + f'build "cyl" = cylinder "{b.name}"\n'


def cli_reports():
    """Each command's exit code and report body, run from a directory that
    holds `DOCUMENT`, so that the command lines name it alike everywhere."""
    out, cwd = [], os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        pathlib.Path(tmp, DOCUMENT).write_text(document_text(), encoding="utf-8")
        os.chdir(tmp)
        try:
            for argv in COMMANDS:
                text = io.StringIO()
                with contextlib.redirect_stdout(text):
                    code = cli.main(argv)
                body = text.getvalue().split("\ntiming:\n")[0]
                out.append(f"== {' '.join(argv)} (exit {code})\n{body}\n")
        finally:
            os.chdir(cwd)
    return "".join(out)


def test_cli_reports_match_the_golden_file():
    assert cli_reports() == GOLDEN.read_text(encoding="utf-8")


# Each verb in order: its help line and its arguments, each as (dest, flags,
# metavar, type, default, choices, help).
TOP = [("file", ("--file", "-f"), "PATH", None, [], None,
        "load definitions from a document (repeatable; highest precedence)"),
       ("out", ("--out",), "PATH", None, None, None, "also write the report to a file")]
VERBS = [
    ("validate", "run the validator of a named structure",
     [("name", (), None, None, None, None, None)]),
    ("classify", "strict/normal/homomorphism/lax verdict",
     [("functor", (), None, None, None, None, None)]),
    ("compose", "compose two functors (g after f)",
     [("g", (), None, None, None, None, None), ("f", (), None, None, None, None, None)]),
    ("check-icon", "validate an icon", [("icon", (), None, None, None, None, None)]),
    ("check-oplax", "validate an oplax transformation",
     [("transformation", (), None, None, None, None, None)]),
    ("interchange", "check interchange of beta against alpha",
     [("beta", (), None, None, None, None, None), ("alpha", (), None, None, None, None, None)]),
    ("strictness", "decide strictness by arrow-witness probes",
     [("transformation", (), None, None, None, None, None)]),
    ("costrict", "decide whether a transformation behaves as an icon",
     [("transformation", (), None, None, None, None, None)]),
    ("cylinder", "build and validate the cylinder over a 2-category",
     [("two_category", (), "two-category", None, None, None, None)]),
    ("nerve", "level counts and simplicial identities",
     [("bicategory", (), None, None, None, None, None),
      ("level", ("--level",), None, int, 3, None, "truncation level (0..4, default 3)")]),
    ("equivalence", "decide invertibility up to invertible icons",
     [("functor", (), None, None, None, None, None)]),
    ("fibration", "check the lifting property over a 1-cell",
     [("two_category", (), "two-category", None, None, None, None),
      ("one_cell", (), "one-cell", None, None, None,
       "a 1-cell id: bare string or JSON (arrays for tuples)")]),
    ("corpus", "operations on the bundled corpus",
     [("action", (), None, None, None, ["run-all"], None)]),
]


def _arguments(parser):
    return [(a.dest, tuple(a.option_strings), a.metavar, a.type, a.default, a.choices, a.help)
            for a in parser._actions if a.dest != "help"]


def test_the_parser_states_each_verb_with_its_help_runner_and_arguments():
    top = cli._parser()
    verbs = next(a for a in top._actions if a.dest == "verb")
    assert _arguments(top)[:2] == TOP
    assert verbs.required
    assert [(a.dest, a.help) for a in verbs._choices_actions] == [v[:2] for v in VERBS]
    assert list(verbs.choices) == [v[0] for v in VERBS]
    for verb, _, arguments in VERBS:
        parser = verbs.choices[verb]
        assert _arguments(parser) == arguments, verb
        assert parser.get_default("run") is getattr(cli, "_do_" + verb.replace("-", "_")), verb


if __name__ == "__main__":
    sys.stdout.write(cli_reports())
