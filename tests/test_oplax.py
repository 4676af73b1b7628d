"""Transformation layer: validation, classification, composition, the strict
whisker/interchange machinery, and the witness construction."""

import pytest

from bicatkit import corpus, oplax
from bicatkit.acceptance import _corpus_battery
from bicatkit.bicat import UnsupportedSettingError
from bicatkit.laxfun import classify, identity_lax, two_functor
from bicatkit.oplax import (
    OplaxClass,
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


def test_classify_oplax_matches_the_identity_formula_on_the_corpus_and_the_battery():
    """The strict flag against the expression that `identity_cells`
    replaces: every constraint equal to the identity on its source."""
    battery = _corpus_battery()
    assert len(battery) == 147
    for u in [corpus.get("oplax", name) for name in corpus.OPLAX] + battery:
        t = u.source.target
        cons = u.constraints.values()
        expected = OplaxClass(all(c == t.id2(t.src2(c)) for c in cons),
                              all(t.inv2(c) is not None for c in cons),
                              all(u.components[a] == t.unit[u.source.object_map[a]]
                                  for a in u.source.source.objects))
        assert classify_oplax(u) == expected, u.name


def test_the_strict_setting_refuses_exactly_the_functors_classify_finds_not_strict():
    funs = [(name, corpus.get("laxfunctor", name)) for name in corpus.LAX_FUNCTORS]
    funs += [(beta.name, fun) for beta in _corpus_battery() for fun in (beta.source, beta.target)]
    refused = set()
    for name, fun in funs:
        try:
            oplax._require_strict_setting("a test", (), (fun,))
        except UnsupportedSettingError:
            refused.add(name)
            assert not classify(fun).is_strict, name
        else:
            assert classify(fun).is_strict, name
    assert {"twisted-identity", "idem-laxonly"} <= refused


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


def test_arrow_witnesses_share_one_walking_arrow():
    idem = corpus.sigma_idem()
    one, two = arrow_witness(idem, "s"), arrow_witness(corpus.ordinal(2), ("le", 0, 1))
    assert one.source.source is two.source.source is one.target.source
    assert corpus.walking_arrow() is not corpus.walking_arrow()


def test_shared_walking_arrow_gives_the_verdicts_of_a_fresh_one_per_probe(monkeypatch):
    battery = _corpus_battery()
    shared = [strictness_by_witness(beta) for beta in battery]
    monkeypatch.setattr(oplax, "_walking_arrow", corpus.walking_arrow)
    assert arrow_witness(corpus.sigma_idem(), "s").source.source is not \
        arrow_witness(corpus.sigma_idem(), "s").source.source
    fresh = [strictness_by_witness(beta) for beta in battery]
    assert [(v.strict, v.witnesses) for v in shared] == \
        [(v.strict, v.witnesses) for v in fresh]
    assert sum(v.strict for v in shared) < len(battery)


def _interchange_by_public_whiskerings(beta, alpha):
    """`interchange_check` pasted from the public whiskerings, each of which
    checks the strict setting again: the verdict as a list of differences."""
    f, g, h, k = alpha.source, alpha.target, beta.source, beta.target
    one = vcomp_oplax(whisker_oplax_left(k, alpha), whisker_oplax_right(beta, f))
    two = vcomp_oplax(whisker_oplax_right(beta, g), whisker_oplax_left(h, alpha))
    return ([a for a in f.source.sorted_objects if one.components[a] != two.components[a]],
            [w for w in f.source.one_cells() if one.constraints[w] != two.constraints[w]])


def test_strictness_probes_check_the_strict_setting_once_per_interchange(monkeypatch):
    """On the criterion-6 battery, `strictness_by_witness` gives the verdicts
    and witnesses of probes pasted from the public whiskerings, and checks
    the strict setting once for itself and once per interchange."""
    battery = _corpus_battery()
    real, calls = oplax._require_strict_setting, []

    def counted(what, *args):
        calls.append(what)
        return real(what, *args)

    monkeypatch.setattr(oplax, "_require_strict_setting", counted)
    for beta in battery:
        b = beta.source.source
        want = [w for w in b.one_cells()
                if _interchange_by_public_whiskerings(beta, arrow_witness(b, w)) != ([], [])]
        del calls[:]
        verdict = strictness_by_witness(beta)
        assert (verdict.strict, verdict.witnesses) == (not want, want), beta.name
        assert calls == ["strictness probing"] + ["the arrow witness", "interchange"] \
            * len(b.one_cells()), beta.name


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
