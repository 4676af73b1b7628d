import pathlib
import subprocess
import sys

import pytest

from bicatkit import cli, corpus
from bicatkit.fileformat import KINDS, dump_id


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


def test_every_corpus_name_validates(capsys):
    for kind in KINDS:
        for name in sorted(corpus.TABLES.get(kind, ())):
            code, out = run(capsys, "validate", name)
            assert code == 0, out
            assert f"check {kind} {dump_id(name)}: ok" in out.splitlines(), out


def test_bundled_names_resolve_without_reading_a_document(capsys, monkeypatch):
    def refuse(path, into=None):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(cli, "parse_path", refuse)
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
