"""Transformation layer: validation, classification, composition, the strict
whisker/interchange machinery, and the witness construction."""

import pytest

from bicatkit import corpus
from bicatkit.bicat import UnsupportedSettingError
from bicatkit.laxfun import identity_lax, two_functor
from bicatkit.oplax import (
    OplaxNat,
    arrow_witness,
    classify_oplax,
    enumerate_oplax,
    icon_as_oplax,
    identity_oplax,
    interchange_check,
    oplax_is_icon,
    strictness_by_witness,
    validate_oplax,
    vcomp_oplax,
    whisker_oplax_left,
    whisker_oplax_right,
)


def test_corpus_transformations_validate():
    for name in corpus.OPLAX:
        rep = validate_oplax(corpus.get("oplax", name))
        assert rep.ok, f"{name}: {rep}"


def test_identity_oplax_is_valid_on_every_corpus_functor():
    # the unit transformation exists on any lax functor, weak ambients included
    for name in corpus.LAX_FUNCTORS:
        fun = corpus.get("laxfunctor", name)
        rep = validate_oplax(identity_oplax(fun))
        assert rep.ok, f"{name}: {rep}"


def test_classification_labels():
    assert classify_oplax(corpus.get("oplax", "id-oplax-idem")).label == \
        "strict+pseudonatural+icon"
    assert classify_oplax(corpus.get("oplax", "idem-general")).label == "general"
    assert classify_oplax(corpus.get("oplax", "arrow-shift")).label == \
        "strict+pseudonatural"
    assert classify_oplax(corpus.get("oplax", "icon-as-oplax-k")).label == "icon"
    # identity constraints even though the ambient is weak
    assert classify_oplax(corpus.get("oplax", "codiscrete-shift-a")).label == \
        "strict+pseudonatural"


def test_vcomp_unit_laws_in_strict_ambient():
    u = corpus.idem_general_oplax()
    one = identity_oplax(u.source)
    left = vcomp_oplax(one, u)
    right = vcomp_oplax(u, one)
    for v in (left, right):
        assert validate_oplax(v).ok
        assert v.components == u.components
        assert v.constraints == u.constraints


def test_vcomp_realizes_the_nonassociative_triple():
    # composing three copies of the same transformation two ways gives
    # composites whose components differ: (a.a).a = e but a.(a.a) = a
    shift = corpus.codiscrete_shift("a")
    left = vcomp_oplax(vcomp_oplax(shift, shift), shift)
    right = vcomp_oplax(shift, vcomp_oplax(shift, shift))
    assert validate_oplax(left).ok and validate_oplax(right).ok
    assert left.components["*"] == "e"
    assert right.components["*"] == "a"
    assert left.components != right.components


def test_enumerate_oplax_counts():
    idem = corpus.sigma_idem()
    one = identity_lax(idem)
    found = list(enumerate_oplax(one, one))
    assert len(found) == 4
    # identity and multiply-by-s are strict; k-on-units is a further icon;
    # k-on-s is the lone general one
    kinds = [classify_oplax(u) for u in found]
    assert sum(k.strict for k in kinds) == 2
    assert sum(k.icon for k in kinds) == 2
    assert sum(k.labels == ("general",) for k in kinds) == 1

    const = corpus.const_at_basepoint()
    assert len(list(enumerate_oplax(const, const))) == 3


def test_whiskering_requires_the_strict_setting():
    shift = corpus.codiscrete_shift("a")
    collapse = corpus.collapse_to_terminal(shift.source.source)
    with pytest.raises(UnsupportedSettingError):
        whisker_oplax_left(collapse, shift)
    u = corpus.get("oplax", "id-oplax-idem")
    with pytest.raises(UnsupportedSettingError):
        whisker_oplax_right(u, corpus.idem_laxonly())


def test_whiskering_shapes():
    u = corpus.idem_general_oplax()
    idem = u.source.source
    collapse = corpus.collapse_to_terminal(idem)
    post = whisker_oplax_left(collapse, u)
    assert validate_oplax(post).ok
    assert classify_oplax(post).icon  # everything lands on the unit 1-cell

    wa = corpus.walking_arrow()
    pick = two_functor("pick-s", wa, idem, {0: "*", 1: "*"},
                       {("le", 0, 0): "u", ("le", 0, 1): "s", ("le", 1, 1): "u"},
                       {("id", ("le", 0, 0)): ("i", "u"),
                        ("id", ("le", 0, 1)): ("i", "s"),
                        ("id", ("le", 1, 1)): ("i", "u")})
    pre = whisker_oplax_right(u, pick)
    assert validate_oplax(pre).ok
    assert pre.components == {0: "s", 1: "s"}
    assert pre.constraints[("le", 0, 1)] == "k"


def test_interchange_requires_the_strict_setting():
    shift = corpus.codiscrete_shift("a")
    with pytest.raises(UnsupportedSettingError):
        interchange_check(shift, shift)


def test_interchange_passes_for_icon_and_for_strict():
    alpha = corpus.get("oplax", "icon-as-oplax-k")     # icon components
    beta = corpus.idem_general_oplax()
    assert interchange_check(beta, alpha).ok
    # ... and with a strict later transformation, any earlier one works
    assert interchange_check(identity_oplax(beta.source), beta).ok


def test_strictness_by_witness_finds_the_failing_cell():
    verdict = strictness_by_witness(corpus.idem_general_oplax())
    assert not verdict.strict
    assert verdict.witnesses == ["s"]
    assert verdict.verdict == "non-strict"


def test_strictness_verdict_matches_the_constraint_flag():
    for name in ("id-oplax-idem", "idem-general", "arrow-shift",
                 "icon-as-oplax-k"):
        beta = corpus.get("oplax", name)
        verdict = strictness_by_witness(beta)
        assert verdict.strict == classify_oplax(beta).strict, name


def test_witness_replays_as_a_failing_interchange():
    beta = corpus.get("oplax", "icon-as-oplax-k")
    verdict = strictness_by_witness(beta)
    assert verdict.witnesses == ["s"]
    probe = arrow_witness(beta.source.source, "s")
    rep = interchange_check(beta, probe)
    assert not rep.ok
    assert rep.first("interchange-constraint") is not None


def test_icon_oplax_round_trip():
    icon = corpus.idem_icon_k()
    u = icon_as_oplax(icon)
    assert validate_oplax(u).ok
    back = oplax_is_icon(u)
    assert back is not None
    assert back.components[("*", "*")].components == \
        icon.components[("*", "*")].components
    assert oplax_is_icon(corpus.get("oplax", "arrow-shift")) is None


def test_validation_catches_incompatible_constraints():
    b = corpus.cocycle_trivial()
    one = identity_lax(b)
    bad = OplaxNat("bad", one, one, {"*": 0}, {0: (0, 1), 1: (1, 0)})
    rep = validate_oplax(bad)
    assert not rep.ok
    assert rep.first("unit-compat") is not None
    assert rep.first("composition-compat") is not None


def test_validation_catches_endpoint_mistakes():
    idem = corpus.sigma_idem()
    one = identity_lax(idem)
    rep = validate_oplax(OplaxNat("bad", one, one, {"*": "u"},
                                  {"u": ("i", "u"), "s": ("i", "u")}))
    assert not rep.ok
    assert rep.first("constraint-endpoints") is not None

    rep = validate_oplax(OplaxNat("bad2", one, one, {"*": "nope"}, {}))
    assert rep.structural_failure
    assert rep.first("dangling-component") is not None
