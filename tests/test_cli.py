import json
import os
import pathlib
import subprocess
import sys

import pytest

from bicatkit import cli, corpus, fileformat
from bicatkit.fileformat import KINDS, document_for, dump_id, serialize


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def above_timing(text):
    return text.split("\ntiming:\n")[0]


def test_validate_bundled_cocycle_passes(capsys):
    code, out = run(capsys, "validate", "cocycle-twisted")
    assert code == 0
    assert 'check bicategory "cocycle-twisted": ok' in out
    assert "result: pass" in out


def test_validate_report_shape(capsys):
    code, out = run(capsys, "validate", "sigma-idem")
    lines = out.splitlines()
    assert lines[0].startswith("bicatkit ")
    assert lines[1] == "command: validate sigma-idem"
    assert lines[-2] == "timing:"
    assert lines[-1].startswith("  total_ms:")


def test_validate_from_file(capsys, tmp_path):
    doc = tmp_path / "defs.bc"
    doc.write_text('build "mine" = ordinal 1\n', encoding="utf-8")
    code, out = run(capsys, "--file", str(doc), "validate", "mine")
    assert code == 0


def test_validate_unknown_name_is_structural(capsys):
    code, out = run(capsys, "validate", "nosuchthing")
    assert code == 2
    assert "unknown structure name" in out


def test_parse_error_is_structural(capsys, tmp_path):
    doc = tmp_path / "broken.bc"
    doc.write_text('category "c"\n  object "x"\n', encoding="utf-8")
    code, out = run(capsys, "--file", str(doc), "validate", "c")
    assert code == 2
    assert "missing its end" in out


def test_incomplete_cocycledata_is_structural(capsys, tmp_path):
    doc = tmp_path / "broken.bc"
    doc.write_text('cocycledata "d"\n  element 0\n  element 1\n  unit 0\n'
                   '  op 0 0 = 0\n  coelement 0\n  counit 0\n  coop 0 0 = 0\nend\n'
                   'build "b" = cocycle "d"\n', encoding="utf-8")
    code, out = run(capsys, "--file", str(doc), "validate", "b")
    assert code == 2
    assert "error: " in out
    assert "incomplete (missing op 0 1" in out


def test_bicategory_whose_hom_lacks_a_composite_is_structural(capsys, tmp_path):
    """The hom fails its own validation before any composition functor's
    domain is read: exit 2 and the hom's error line."""
    doc = tmp_path / "broken.bc"
    doc.write_text('bicategory "t"\n  object "*"\n  unit "*" = "1*"\n'
                   '  hom "*" "*" = category "t-hom"\n    object "1*"\n'
                   '    morphism ["i","1*"] : "1*" -> "1*"\n    identity "1*" = ["i","1*"]\n'
                   '  end\n  compose "*" "*" "*" = functor "comp(*,*,*)"\n'
                   '    on1 "1*" after "1*" = "1*"\n    on2 ["i","1*"] after ["i","1*"] = ["i","1*"]\n'
                   '  end\n  assoc "1*" "1*" "1*" = ["i","1*"]\n  lunit "1*" = ["i","1*"]\n'
                   '  runit "1*" = ["i","1*"]\nend\n', encoding="utf-8")
    code, out = run(capsys, "--file", str(doc), "validate", "t")
    assert code == 2
    assert f"error: {doc}:4: category 't-hom' in bicategory 't' fails validation: " \
           "missing-composite: no composite for composable pair (('i', '1*'), ('i', '1*'))" \
           in out.splitlines()
    assert "result: error (exit 2)" in out


def test_bicategory_whose_hom_lacks_an_identity_is_structural(capsys, tmp_path):
    """The hom fails its own validation before any composition functor's
    domain reads the missing identity: exit 2 and the hom's error line."""
    doc = tmp_path / "broken.bc"
    doc.write_text('bicategory "t"\n  object "*"\n  unit "*" = "1*"\n'
                   '  hom "*" "*" = category "t-hom"\n    object "1*"\n    object "x"\n'
                   '    morphism ["i","1*"] : "1*" -> "1*"\n    identity "1*" = ["i","1*"]\n'
                   '    compose ["i","1*"] after ["i","1*"] = ["i","1*"]\n'
                   '  end\n  compose "*" "*" "*" = functor "comp(*,*,*)"\n'
                   '    on1 "1*" after "1*" = "1*"\n    on2 ["i","1*"] after ["i","1*"] = ["i","1*"]\n'
                   '  end\n  assoc "1*" "1*" "1*" = ["i","1*"]\n  lunit "1*" = ["i","1*"]\n'
                   '  runit "1*" = ["i","1*"]\nend\n', encoding="utf-8")
    code, out = run(capsys, "--file", str(doc), "validate", "t")
    assert code == 2
    assert f"error: {doc}:4: category 't-hom' in bicategory 't' fails validation: " \
           "missing-identity: object 'x' has no identity" in out.splitlines()
    assert "result: error (exit 2)" in out


def test_unknown_verb_exits_2():
    proc = subprocess.run([sys.executable, "-m", "bicatkit.cli", "frobnicate"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


def test_interchange_witness_pair_fails_with_witness(capsys):
    code, out = run(capsys, "interchange", "idem-general", "probe-at-s")
    assert code == 1
    assert "FAIL" in out
    assert "witness:" in out


def test_interchange_with_icon_on_the_right_passes(capsys):
    code, out = run(capsys, "interchange", "idem-general", "icon-as-oplax-k")
    assert code == 0


@pytest.mark.parametrize("beta,alpha", [("arrow-shift", "codiscrete-shift-a"),
                                        ("probe-at-s", "probe-at-s")])
def test_interchange_of_transformations_that_do_not_compose_is_structural(
        capsys, beta, alpha):
    code, out = run(capsys, "interchange", beta, alpha)
    assert code == 2
    assert "error: cannot interchange: " in out


def test_classify_reports_flags(capsys):
    code, out = run(capsys, "classify", "twisted-identity")
    assert code == 0
    assert "classification: homomorphism" in out


def test_compose_uses_fixed_textual_order(capsys):
    code, out = run(capsys, "compose", "const-at-unit", "const-at-unit")
    assert code == 0
    assert 'compose "const-at-unit" after "const-at-unit" =' in out


def test_compose_mismatch_is_structural(capsys):
    code, out = run(capsys, "compose", "id-walking-arrow", "id-sigma-idem")
    assert code == 2
    assert "cannot compose" in out


def test_check_icon_and_oplax(capsys):
    assert run(capsys, "check-icon", "idem-icon-k")[0] == 0
    assert run(capsys, "check-oplax", "codiscrete-shift-a")[0] == 0


def test_strictness_verdicts(capsys):
    code, out = run(capsys, "strictness", "arrow-shift")
    assert code == 0
    assert "strict" in out
    code, out = run(capsys, "strictness", "idem-general")
    assert code == 1
    assert 'witness probe at 1-cell: "s"' in out


def test_strictness_outside_strict_setting_is_structural(capsys):
    code, out = run(capsys, "strictness", "codiscrete-shift-a")
    assert code == 2
    assert "not applicable" in out


def test_costrict_verdicts(capsys):
    code, out = run(capsys, "costrict", "icon-as-oplax-k")
    assert code == 0
    assert "costrict" in out
    code, out = run(capsys, "costrict", "idem-general")
    assert code == 1
    assert "refutation" in out
    assert 'witness: ("*")' in out
    assert "replay holds: True" in out
    code, out = run(capsys, "costrict", "arrow-shift")
    assert code == 1
    assert ('  cylinder refutation against "cross[walking-arrow]": witness: (1)'
            in out.splitlines())
    assert "replay holds: True" in out


def test_cylinder_builds_and_validates(capsys):
    code, out = run(capsys, "cylinder", "walking-arrow")
    assert code == 0
    assert "4 objects" in out


def test_nerve_levels(capsys):
    code, out = run(capsys, "nerve", "ordinal-2", "--level", "3")
    assert code == 0
    assert "level 0: 3 simplices" in out
    assert "level 3: 15 simplices" in out
    assert "simplicial identities up to truncation 3: ok" in out


def test_equivalence_verdicts(capsys):
    assert run(capsys, "equivalence", "id-walking-arrow")[0] == 0
    code, out = run(capsys, "equivalence", "collapse-walking-two-cell")
    assert code == 1
    assert "check bijective-on-objects: FAIL" in out


def test_fibration_verdicts(capsys):
    assert run(capsys, "fibration", "walking-two-cell", "1a")[0] == 0
    code, out = run(capsys, "fibration", "walking-two-cell", "f1")
    assert code == 1
    assert "no-cartesian-lift" in out
    code, out = run(capsys, "fibration", "walking-two-cell", "nope")
    assert code == 2


def test_reports_are_deterministic(capsys):
    _, first = run(capsys, "nerve", "walking-two-cell", "--level", "2")
    _, second = run(capsys, "nerve", "walking-two-cell", "--level", "2")
    assert above_timing(first) == above_timing(second)


def test_out_flag_writes_the_report(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code, out = run(capsys, "--out", str(target), "validate", "terminal")
    assert code == 0
    assert target.read_text(encoding="utf-8") == out


def test_file_that_is_a_directory_is_structural(capsys, tmp_path):
    code, out = run(capsys, "--file", str(tmp_path), "validate", "terminal")
    assert code == 2
    assert "\nerror: " in out
    assert "result: error (exit 2)" in out


def test_file_that_is_not_utf8_is_structural(capsys, tmp_path):
    doc = tmp_path / "latin1.bc"
    doc.write_bytes('build "caf\xe9" = ordinal 1\n'.encode("latin-1"))
    code, out = run(capsys, "--file", str(doc), "validate", "terminal")
    assert code == 2
    assert f"error: {doc}: not UTF-8 text" in out
    assert "result: error (exit 2)" in out


def test_out_path_in_a_missing_directory_is_structural(capsys, tmp_path):
    target = tmp_path / "missing" / "report.txt"
    code, out = run(capsys, "--out", str(target), "validate", "terminal")
    assert code == 2
    assert f"error: [Errno 2] No such file or directory: '{target}'" in out
    assert "result: error (exit 2)" in out
    assert "exit 0" not in out


def test_every_corpus_name_validates(capsys):
    for kind in KINDS:
        for name in sorted(corpus.TABLES.get(kind, ())):
            code, out = run(capsys, "validate", name)
            assert code == 0, out
            assert f"check {kind} {dump_id(name)}: ok" in out.splitlines(), out


def test_bundled_names_resolve_without_reading_a_document(capsys, monkeypatch):
    def refuse(path, into=None):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(fileformat, "parse_path", refuse)
    monkeypatch.delenv("BICATKIT_CORPUS", raising=False)
    for argv, want, line in [
            (["validate", "cocycle-twisted"], 0, 'check bicategory "cocycle-twisted": ok'),
            (["classify", "twisted-identity"], 0, "classification: homomorphism"),
            (["compose", "const-at-unit", "const-at-unit"], 0,
             'check laxfunctor "const-at-unit.const-at-unit": ok'),
            (["costrict", "arrow-shift"], 1,
             'costrictness of "witness[(\'le\', 0, 1)]": not-costrict')]:
        code, out = run(capsys, *argv)
        assert code == want, out
        assert line in out.splitlines(), out


def test_bundled_names_are_looked_up_in_the_document_kinds_order():
    assert list(cli.BUNDLED_KINDS) == [k for k in KINDS if k in corpus.TABLES]


def test_a_document_shadows_a_bundled_name(capsys, tmp_path):
    doc = tmp_path / "shadow.bc"
    doc.write_text('build "walking-arrow" = ordinal 2\n', encoding="utf-8")
    for argv, level0 in (((), "level 0: 2 simplices, 2 morphisms"),
                         (("--file", str(doc)), "level 0: 3 simplices, 3 morphisms")):
        code, out = run(capsys, *argv, "nerve", "walking-arrow", "--level", "0")
        assert code == 0 and level0 in out.splitlines(), out


def test_corpus_env_var_layer(capsys, monkeypatch, tmp_path):
    (tmp_path / "extra.bc").write_text('build "envbuilt" = ordinal 2\n',
                                       encoding="utf-8")
    monkeypatch.setenv("BICATKIT_CORPUS", str(tmp_path))
    code, out = run(capsys, "validate", "envbuilt")
    assert code == 0


def test_corpus_run_all_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "bicatkit.cli", "corpus", "run-all"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "criteria passed: 10/10" in proc.stdout
    for num in range(1, 11):
        assert f"criterion {num} (" in proc.stdout
    golden = pathlib.Path(__file__).parents[1] / "perfbench" / "golden" / "run-all.txt"
    assert above_timing(proc.stdout) + "\n" == golden.read_text(encoding="utf-8")


def test_corpus_run_all_reports_a_raising_criterion_as_its_fail_row(capsys, monkeypatch):
    """A criterion that raises fails on its own row, the others still
    report, and the tally counts the rows there are."""
    from bicatkit import acceptance

    def raises():
        return {}["missing"]

    monkeypatch.setattr(acceptance, "CRITERIA", (
        (1, "first", lambda: (True, "fine")),
        (2, "second", raises),
        (3, "third", lambda: (False, "refuted")),
        (4, "fourth", lambda: (True, "fine"))))
    code, out = run(capsys, "corpus", "run-all")
    assert code == 1
    assert above_timing(out).splitlines()[2:] == [
        "criterion 1 (first): pass — fine",
        "criterion 2 (second): FAIL — raised KeyError: 'missing'",
        "criterion 3 (third): FAIL — refuted",
        "criterion 4 (fourth): pass — fine",
        "criteria passed: 2/4",
        "result: FAIL (exit 1)"]


# ---------------------------------------------------------------------------
# fresh processes: which modules a command imports

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
_FRESH = """import json, sys
from bicatkit import cli
code = cli.main(sys.argv[1:])
print("modules:", json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "bicatkit")))
sys.exit(code)
"""
CORE = ["bicatkit", "bicatkit.bicat", "bicatkit.catcore", "bicatkit.cli",
        "bicatkit.fileformat", "bicatkit.report", "bicatkit.search"]
CORE_DOC = """category "c"
  object "x"
  morphism "1x" : "x" -> "x"
  identity "x" = "1x"
  compose "1x" after "1x" = "1x"
end
magma "m"
  element "e"
  basepoint "e"
  op "e" "e" = "e"
end
cocycledata "d"
  element 0
  unit 0
  op 0 0 = 0
  coelement 0
  counit 0
  coop 0 0 = 0
  twist 0 0 0 = 0
end
build "b" = cocycle "d"
"""


def fresh(*argv):
    """Run `bicatkit ARGV...` in a process of its own: (exit code, report,
    the bicatkit modules loaded by its end).  Only a fresh process shows an
    import that a command needs and no other code made first."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("BICATKIT_CORPUS", None)
    proc = subprocess.run([sys.executable, "-c", _FRESH, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    report, _, modules = proc.stdout.rpartition("modules: ")
    assert modules, proc.stdout + proc.stderr
    return proc.returncode, report, json.loads(modules)


def test_validate_loads_only_the_core_modules(tmp_path):
    doc = tmp_path / "core.bc"
    doc.write_text(CORE_DOC, encoding="utf-8")
    for kind, name in (("category", "c"), ("magma", "m"), ("cocycledata", "d"),
                       ("bicategory", "b")):
        code, report, modules = fresh("--file", str(doc), "validate", name)
        assert code == 0 and f"check {kind} {dump_id(name)}: ok" in report, report
        assert modules == CORE, kind


def test_nerve_adds_only_the_nerve_icon_and_lax_functor_modules(tmp_path):
    doc = tmp_path / "core.bc"
    doc.write_text(CORE_DOC, encoding="utf-8")
    code, report, modules = fresh("--file", str(doc), "nerve", "b", "--level", "1")
    assert code == 0 and "check simplicial identities up to truncation 1: ok" in report
    assert modules == sorted(CORE + ["bicatkit.icon", "bicatkit.laxfun", "bicatkit.nerve"])


BUNDLED = [m for m in CORE if m != "bicatkit.fileformat"] + ["bicatkit.corpus"]


@pytest.mark.parametrize("argv, line, extra", [
    (["validate", "walking-two-cell"], 'check bicategory "walking-two-cell": ok', []),
    (["classify", "idem-laxonly"], "classification: lax", ["bicatkit.laxfun"]),
    (["check-icon", "idem-icon-k"], 'check icon "idem-icon-k": ok',
     ["bicatkit.icon", "bicatkit.laxfun"]),
    (["compose", "idem-laxonly", "idem-flatten"],
     'check laxfunctor "idem-laxonly.idem-flatten": ok',
     ["bicatkit.fileformat", "bicatkit.laxfun"]),
    (["check-oplax", "codiscrete-shift-a"], 'check oplax "shift[a]": ok',
     ["bicatkit.laxfun", "bicatkit.oplax"]),
    (["strictness", "arrow-shift"], "strictness of \"witness[('le', 0, 1)]\": strict",
     ["bicatkit.laxfun", "bicatkit.oplax"]),
], ids=["validate", "classify", "check-icon", "compose", "check-oplax", "strictness"])
def test_a_bundled_name_loads_only_what_its_verb_runs(argv, line, extra):
    """A bundled name reads no document, so loads no `fileformat` unless its
    verb writes one; the corpus builds a bicategory without the lax side,
    and an oplax transformation without the icons."""
    code, report, modules = fresh(*argv)
    assert code == 0 and line in report.splitlines(), report
    assert modules == sorted(BUNDLED + extra)


def test_an_unknown_bundled_name_loads_no_document_reader():
    code, report, modules = fresh("validate", "nosuch")
    assert code == 2
    assert "error: unknown structure name 'nosuch'" in report.splitlines(), report
    assert modules == sorted(BUNDLED)


def test_every_lax_side_kind_of_a_document_validates_in_a_fresh_process(tmp_path):
    """A lax functor, an icon, an oplax transformation and a cylinder build
    line, in that order, so that each finishing step and the cylinder
    builder import their module first; each structure is validated in a
    process of its own."""
    doc = tmp_path / "lax.bc"
    doc.write_text(serialize(document_for(corpus.get("icon", "idem-icon-k")))
                   + serialize(document_for(corpus.get("oplax", "codiscrete-shift-a")))
                   + 'build "o" = ordinal 1\nbuild "cyl" = cylinder "o"\n', encoding="utf-8")
    for kind, name in (("laxfunctor", "1_sigma-idem"), ("icon", "idem-icon-k"),
                       ("oplax", "shift[a]"), ("bicategory", "cyl"),
                       ("laxfunctor", "cyl-top"), ("oplax", "cyl-crossing")):
        code, report, _ = fresh("--file", str(doc), "validate", name)
        assert code == 0 and f"check {kind} {dump_id(name)}: ok" in report, report
