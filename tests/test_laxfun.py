"""Lax functors: validation, classification, composition, enumeration."""

import pytest

from bicatkit import corpus, laxfun
from bicatkit.laxfun import (
    classify,
    compose_lax,
    enumerate_lax_functors,
    enumerate_two_functors,
    identity_lax,
    two_functor,
    validate_lax_functor,
)


def test_corpus_lax_functors_all_validate():
    for name, build in corpus.LAX_FUNCTORS.items():
        rep = validate_lax_functor(build())
        assert rep.ok, f"{name}: {rep.summary()}"


def test_classification_labels():
    labels = {name: classify(build()).label
              for name, build in corpus.LAX_FUNCTORS.items()}
    assert labels["id-walking-arrow"] == "strict"
    assert labels["collapse-walking-two-cell"] == "strict"
    assert labels["idem-flatten"] == "strict"
    assert labels["idem-laxonly"] == "lax"
    assert labels["maxposet-unit-witness"] == "lax"
    assert labels["twisted-identity"] == "homomorphism"


def test_classification_flag_details():
    k = classify(corpus.idem_laxonly())
    assert not k.comp_identity and not k.comp_invertible
    assert k.unit_identity and k.unit_invertible
    m = classify(corpus.maxposet_unit_witness())
    assert m.comp_identity and not m.unit_invertible
    t = classify(corpus.twisted_identity())
    assert t.comp_invertible and t.unit_invertible
    assert not t.comp_identity and not t.unit_identity
    assert not t.is_strict and t.is_homomorphism and not t.is_normal


def test_identity_lax_acts_as_identity():
    b = corpus.sigma_idem()
    one = identity_lax(b)
    assert one.on_obj("*") == "*"
    assert one.on_1("s") == "s"
    assert one.on_2("k") == "k"


def test_compose_lax_pastes_constraints():
    t = corpus.twisted_identity()
    square = compose_lax(t, t)
    rep = validate_lax_functor(square)
    assert rep.ok
    # the two non-trivial coefficients cancel, so the square is strict
    assert classify(square).is_strict

    lax = corpus.idem_laxonly()
    double = compose_lax(lax, lax)
    assert validate_lax_functor(double).ok
    assert double.comp_constraints[("s", "s")] == "k"
    assert classify(double).label == "lax"


def test_compose_with_identity_preserves_everything():
    f = corpus.idem_laxonly()
    left = compose_lax(identity_lax(f.target), f)
    right = compose_lax(f, identity_lax(f.source))
    for g in (left, right):
        assert g.object_map == f.object_map
        assert g.comp_constraints == f.comp_constraints
        assert g.unit_constraints == f.unit_constraints


def test_composite_fields_are_built_once_on_first_access(monkeypatch):
    built = []
    for attr, build in list(laxfun._COMPOSITE_FIELDS.items()):
        def counted(g, f, attr=attr, build=build):
            built.append(attr)
            return build(g, f)
        monkeypatch.setitem(laxfun._COMPOSITE_FIELDS, attr, counted)

    lax = corpus.idem_laxonly()
    square = compose_lax(lax, lax)
    assert (square.name, square.source, square.target) == \
        ("idem-laxonly.idem-laxonly", lax.source, lax.target)
    assert square.object_map == {"*": "*"}
    assert built == []
    assert square.comp_constraints[("s", "s")] == "k"
    assert built == ["comp_constraints"]
    assert square.on_1("s") == "s"
    assert square.comp_constraints is square.comp_constraints
    assert built == ["comp_constraints", "hom_functors"]
    assert square == compose_lax(lax, lax)
    assert sorted(built) == ["comp_constraints", "comp_constraints", "hom_functors",
                             "hom_functors", "unit_constraints", "unit_constraints"]
    with pytest.raises(AttributeError):
        square.no_such_field


def test_two_functor_rejects_nonstrict_maps():
    b = corpus.sigma_idem()
    cell1 = {"u": "s", "s": "s"}
    cell2 = {("i", "u"): ("i", "s"), ("i", "s"): ("i", "s"), "k": "k"}
    with pytest.raises(ValueError, match="unit"):
        two_functor("bad", b, b, {"*": "*"}, cell1, cell2)


def test_enumerate_two_functors_counts():
    wa = corpus.walking_arrow()
    assert len(list(enumerate_two_functors(wa, wa))) == 3
    idem = corpus.sigma_idem()
    strict_endos = list(enumerate_two_functors(idem, idem))
    assert len(strict_endos) == 3
    assert all(validate_lax_functor(f).ok for f in strict_endos)
    assert all(classify(f).is_strict for f in strict_endos)


def test_enumerate_lax_functors_sigma_z2():
    z2 = corpus.sigma_z2()
    endos = list(enumerate_lax_functors(z2, z2))
    # only the identity and the constant-at-0 functor are lax here: the homs
    # are discrete, so the comparison cells force strict preservation
    assert len(endos) == 2
    images = sorted(tuple(sorted(f.hom_functors[("*", "*")].object_map.items()))
                    for f in endos)
    assert images == [((0, 0), (1, 0)), ((0, 0), (1, 1))]


def test_enumerate_lax_functors_sigma_idem():
    idem = corpus.sigma_idem()
    endos = list(enumerate_lax_functors(idem, idem))
    assert len(endos) == 5
    labels = sorted(classify(f).label for f in endos)
    assert labels == ["lax", "lax", "strict", "strict", "strict"]


def test_enumerate_lax_functors_terminal_to_maxposet():
    src = corpus.terminal_bicategory()
    tgt = corpus.sigma_maxposet()
    funs = list(enumerate_lax_functors(src, tgt))
    assert len(funs) == 2
    labels = sorted(classify(f).label for f in funs)
    assert labels == ["lax", "strict"]
    witness = next(f for f in funs if classify(f).label == "lax")
    assert witness.unit_constraints["*"] == "eta"
    assert not classify(witness).unit_invertible


def test_unit_law_violation_detected():
    f = corpus.idem_laxonly()
    f.comp_constraints[("s", "u")] = "k"
    rep = validate_lax_functor(f)
    assert not rep.ok
    assert rep.first("right-unit-coherence") is not None


def test_comp_coherence_violation_detected():
    # zeroing one coefficient of the twisted identity leaves all endpoints
    # intact but breaks the three-fold comparison pasting
    t = corpus.twisted_identity()
    t.comp_constraints[(0, 0)] = (0, 0)
    rep = validate_lax_functor(t)
    assert not rep.ok
    kinds = {v.kind for v in rep.violations}
    assert "comp-coherence" in kinds


def test_missing_constraint_is_structural():
    f = corpus.idem_laxonly()
    del f.comp_constraints[("s", "s")]
    rep = validate_lax_functor(f)
    assert rep.structural_failure
    assert rep.first("missing-comp-constraint") is not None


def test_hom_functor_errors_are_reported_with_context():
    f = corpus.idem_laxonly()
    f.hom_functors[("*", "*")].morphism_map["k"] = ("i", "u")
    rep = validate_lax_functor(f)
    assert not rep.ok
    assert any(v.kind.startswith("hom-functor:") for v in rep.violations)
