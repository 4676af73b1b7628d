"""Lax functors: validation, classification, composition, enumeration."""

import pytest

from bicatkit import corpus, laxfun
from bicatkit.acceptance import _corpus_battery, _law_universe
from bicatkit.bicat import strict_bicategory, validate_bicategory
from bicatkit.laxfun import (
    classify,
    compose_lax,
    enumerate_lax_functors,
    enumerate_two_functors,
    identity_lax,
    two_functor,
    validate_lax_functor,
)
from unequal_unitors import unequal_unitors


def test_corpus_lax_functors_all_validate():
    for name, build in corpus.LAX_FUNCTORS.items():
        rep = validate_lax_functor(build())
        assert rep.ok, f"{name}: {rep.summary()}"


def test_comparisons_at_keys_the_source_lacks_are_refused():
    """Comparison and unit cells at a pair and an object the source does
    not have are structural, each with its key as witness."""
    fun = corpus.idem_laxonly()
    fun.comp_constraints[("zz", "zz")] = "k"
    fun.unit_constraints["ghost"] = ("i", "u")
    assert [(v.kind, v.witness, v.structural) for v in validate_lax_functor(fun).violations] == [
        ("spurious-comp-constraints", (("zz", "zz"),), True),
        ("spurious-unit-constraints", ("ghost",), True)]


def test_hom_functor_images_at_keys_the_source_lacks_are_refused():
    """An image of a 1-cell and of a 2-cell that the source hom does not
    have are structural, under ``hom-functor:``, each with its key as
    witness."""
    fun = corpus.idem_laxonly()
    hf = fun.hom_functors[("*", "*")]
    hf.object_map["zz"] = "s"
    hf.morphism_map["zz"] = "k"
    assert [(v.kind, v.witness, v.structural) for v in validate_lax_functor(fun).violations] == [
        ("hom-functor:spurious-object-map", ("zz",), True),
        ("hom-functor:spurious-morphism-map", ("zz",), True)]


def test_classification_labels():
    labels = {name: classify(build()).label
              for name, build in corpus.LAX_FUNCTORS.items()}
    assert labels["id-walking-arrow"] == "strict"
    assert labels["collapse-walking-two-cell"] == "strict"
    assert labels["idem-flatten"] == "strict"
    assert labels["idem-laxonly"] == "lax"
    assert labels["maxposet-unit-witness"] == "lax"
    assert labels["twisted-identity"] == "homomorphism"


def _classify_by_the_identity_formula(fun):
    """`classify` with its identity tests written out as the expression
    that `identity_cells` replaces: a cell equal to the identity on its
    source."""
    t = fun.target

    def is_id(c):
        return c == t.id2(t.src2(c))

    comps = list(fun.comp_constraints.values())
    units = list(fun.unit_constraints.values())
    return laxfun.LaxClass(all(map(is_id, comps)), all(t.inv2(c) is not None for c in comps),
                           all(map(is_id, units)), all(t.inv2(c) is not None for c in units))


def test_classify_matches_the_identity_formula_on_the_corpus_and_the_strictness_battery():
    funs = [build() for build in corpus.LAX_FUNCTORS.values()]
    battery = _corpus_battery()
    assert len(battery) == 147
    funs += [fun for beta in battery for fun in (beta.source, beta.target)]
    for fun in funs:
        assert classify(fun) == _classify_by_the_identity_formula(fun), fun.name


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


def _agree_with_on_1_and_on_2(fun):
    positions, two = fun.cell_maps
    s, order = fun.source, fun.target.one_cells()
    assert [order[p] for p in positions] == [fun.on_1(f) for f in s.one_cells()], fun.name
    assert two == {c: fun.on_2(c) for c in s.two_cells()}, fun.name


def test_flat_cell_maps_equal_on_1_and_on_2():
    """The flat maps of every lax functor of the law universe, and of the
    lazily built composites of the first three of each family after the
    first three of each family that composes with it, read what `on_1` and
    `on_2` read: the 1-cell map as the position of each image in the
    target's `one_cells`."""
    bics, fams, _ = _law_universe()
    for funs in fams.values():
        for fun in funs:
            _agree_with_on_1_and_on_2(fun)
    composed = 0
    for (s, t), earlier in sorted(fams.items()):
        for d in sorted(bics):
            for later in fams[(t, d)][:3]:
                for fun in earlier[:3]:
                    _agree_with_on_1_and_on_2(compose_lax(later, fun))
                    composed += 1
    assert composed > 100


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


def _cells(f):
    """What a lax functor assigns: its object map, the cell maps of its hom
    functors and its comparison and unit cells."""
    return (f.object_map, {pair: (h.object_map, h.morphism_map)
                           for pair, h in f.hom_functors.items()},
            f.comp_constraints, f.unit_constraints)


def test_unit_laws_tell_the_left_unitor_from_the_right():
    """On a base whose left and right unitors differ, the identity is a
    lax functor, and it is one of the 16 lax endofunctors.  Checking either
    unit law against the other unitor leaves 8 and rejects the identity."""
    b = unequal_unitors()
    one = identity_lax(b)
    assert validate_lax_functor(one).ok
    endos = list(enumerate_lax_functors(b, b))
    assert len(endos) == 16
    assert [_cells(f) == _cells(one) for f in endos].count(True) == 1


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


def _whiskered_two_cell():
    """Objects x, y, z, a 1-cell h: x -> y, a 2-cell d: g0 => g1 between
    1-cells y -> z, and its whiskering dh: g0h => g1h."""
    homs = {("x", "y"): corpus.hom_category("xy", ["h"]),
            ("y", "z"): corpus.hom_category("yz", ["g0", "g1"], {"d": ("g0", "g1")}),
            ("x", "z"): corpus.hom_category("xz", ["g0h", "g1h"], {"dh": ("g0h", "g1h")})}
    for a, b in [("x", "x"), ("y", "y"), ("z", "z"), ("y", "x"), ("z", "x"), ("z", "y")]:
        homs[(a, b)] = corpus.hom_category(a + b, [f"1{a}"] if a == b else [])
    units = {"1x", "1y", "1z"}

    def comp1(g, f):
        return g if f in units else f if g in units else g + f

    def comp2(d, c):
        if c in {("i", u) for u in units}:
            return d
        if d in {("i", u) for u in units}:
            return c
        return "dh" if d == "d" else ("i", d[1] + "h")

    return strict_bicategory("whiskered-two-cell", ["x", "y", "z"], homs,
                             {"x": "1x", "y": "1y", "z": "1z"}, comp1, comp2)


def test_naturality_failures_under_one_2_cell_come_hom_by_hom():
    """Under d, naturality fails at h's identity, in the hom (x, y), before
    the unit's, in (y, y): the homs of the second cell are met in order of
    their source object."""
    s = _whiskered_two_cell()
    assert validate_bicategory(s).ok
    f = next(enumerate_lax_functors(s, corpus.cocycle_twisted()))
    for pair in [("g0", "h"), ("g0", "1y")]:
        one_cell, coefficient = f.comp_constraints[pair]
        f.comp_constraints[pair] = (one_cell, 1 - coefficient)
    assert [str(v) for v in validate_lax_functor(f).violations
            if v.kind == "comp-constraint-naturality"] == [
        "[comp-constraint-naturality] comparison is not natural under ('d', ('i', 'h'))",
        "[comp-constraint-naturality] comparison is not natural under ('d', ('i', '1y'))"]


def test_missing_constraint_is_structural():
    f = corpus.idem_laxonly()
    del f.comp_constraints[("s", "s")]
    rep = validate_lax_functor(f)
    assert rep.structural_failure
    assert rep.first("missing-comp-constraint") is not None


def test_a_hom_functor_that_is_none_dangles():
    """Only an absent key is missing; a None where a hom functor belongs is
    not a functor."""
    f = corpus.idem_laxonly()
    f.hom_functors[("*", "*")] = None
    assert [str(v) for v in validate_lax_functor(f).violations] == [
        "[dangling-hom-functor] hom functor at ('*', '*') is not a functor"]
    del f.hom_functors[("*", "*")]
    assert [str(v) for v in validate_lax_functor(f).violations] == [
        "[missing-hom-functor] no hom functor at ('*', '*')"]


def test_hom_functor_errors_are_reported_with_context():
    f = corpus.idem_laxonly()
    f.hom_functors[("*", "*")].morphism_map["k"] = ("i", "u")
    rep = validate_lax_functor(f)
    assert not rep.ok
    assert any(v.kind.startswith("hom-functor:") for v in rep.violations)
