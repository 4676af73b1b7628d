"""Icons: validation, the two compatibility laws, composition, enumeration,
and the one-object dictionary with monoidal natural transformations."""

import dataclasses
import itertools

import pytest

import reference_enumerators
from law_universe import universe_icons
import reference_icon_pair
import reference_icons as ref
import test_mutants
from bicatkit import corpus
from bicatkit import fileformat as ff
from bicatkit.acceptance import _law_universe
from bicatkit.bicat import UnsupportedSettingError
from bicatkit.catcore import FiniteCategory, Functor
from bicatkit.icon import (
    Icon,
    _families,
    enumerate_icons,
    hcomp_icons,
    icon_to_monoidal,
    identity_icon,
    is_invertible_icon,
    monoidal_to_icon,
    validate_icon,
    validate_icon_pair,
    vcomp_icons,
    whisker_icon_left,
    whisker_icon_right,
)
from bicatkit.laxfun import (
    LaxFunctor,
    enumerate_lax_functors,
    identity_lax,
    two_functor,
    validate_lax_functor,
)


def icon_cells(icon):
    return {pair: dict(nt.components) for pair, nt in icon.components.items()}


def test_corpus_icons_all_validate():
    for name, build in corpus.ICONS.items():
        rep = validate_icon(build())
        assert rep.ok, f"{name}: {rep.summary()}"


def test_a_cell_at_a_key_the_source_lacks_is_refused():
    """An icon built in code with a stray cell, at no 1-cell of its source,
    fails validation with the key as witness."""
    icon = corpus.idem_icon_k()
    assert validate_icon(icon).ok
    icon.cells["zz"] = "k"
    assert [(v.kind, v.witness, v.structural) for v in validate_icon(icon).violations] == [
        ("spurious-cells", ("zz",), True)]


def test_a_family_at_a_key_that_names_no_hom_is_refused():
    """A family name at a pair that is neither a hom of the source nor a
    key of the hom functors is structural, with the pair as witness; such
    an icon used to validate and then fail in `Icon.components`."""
    icon = corpus.idem_icon_k()
    icon.families[("zz", "zz")] = "ghost"
    assert [(v.kind, v.witness, v.structural) for v in validate_icon(icon).violations] == [
        ("spurious-families", (("zz", "zz"),), True)]


def test_identity_icon_is_unit_for_vcomp():
    kappa = corpus.idem_icon_k()
    left = vcomp_icons(identity_icon(kappa.target), kappa)
    right = vcomp_icons(kappa, identity_icon(kappa.source))
    assert icon_cells(left) == icon_cells(kappa) == icon_cells(right)


def test_vcomp_icons_is_associative_here():
    kappa = corpus.idem_icon_k()
    a = vcomp_icons(vcomp_icons(kappa, kappa), kappa)
    b = vcomp_icons(kappa, vcomp_icons(kappa, kappa))
    assert icon_cells(a) == icon_cells(b)
    assert validate_icon(a).ok


def test_icon_counts_match_hand_computation():
    b = corpus.cocycle_twisted()
    one = identity_lax(b)
    tw = corpus.twisted_identity(b)
    assert len(list(enumerate_icons(one, tw))) == 2

    z2 = corpus.sigma_z2()
    assert len(list(enumerate_icons(identity_lax(z2), identity_lax(z2)))) == 1

    idem = corpus.sigma_idem()
    assert len(list(enumerate_icons(identity_lax(idem), identity_lax(idem)))) == 2


def test_invertibility():
    ok, inv = is_invertible_icon(corpus.get("icon", "id-on-id-idem"))
    assert ok and validate_icon(inv).ok

    ok, inv = is_invertible_icon(corpus.idem_icon_k())
    assert not ok and inv is None

    tw = corpus.twisted_icon(1)
    ok, inv = is_invertible_icon(tw)
    assert ok
    # coefficients are self-inverse, so the inverse has the same cells
    assert icon_cells(inv) == icon_cells(tw)
    back = vcomp_icons(inv, tw)
    assert icon_cells(back) == icon_cells(identity_icon(tw.source))


def test_icon_compat_violations_detected():
    b = corpus.cocycle_twisted()
    one = identity_lax(b)
    tw = corpus.twisted_identity(b)
    bad = monoidal_to_icon("bad", {0: (0, 0), 1: (1, 0)}, one, tw)
    rep = validate_icon(bad)
    assert not rep.ok
    kinds = {v.kind for v in rep.violations}
    assert "composition-compat" in kinds
    assert "unit-compat" in kinds


def test_icon_naturality_violation_is_reported_at_its_hom():
    """The identity icon of the second lax functor walking-two-cell ->
    sigma-idem with its cell at f0 set to k: the naturality square at the
    2-cell up: f0 => f1 of hom ('a', 'b') fails, and nothing else does."""
    s, t = corpus.get("bicategory", "walking-two-cell"), corpus.get("bicategory", "sigma-idem")
    f = list(enumerate_lax_functors(s, t))[1]
    ic = identity_icon(f)
    ic.name = "k"
    ic.cells["f0"] = "k"
    rep = validate_icon(ic)
    line = ("[component:naturality] at ('a', 'b'): "
            "naturality square at 'up' does not commute")
    assert str(rep) == f"icon k: FAIL {line}\n  {line}"
    assert rep.violations[0].witness == ("up",)


def collapse_to_start(b):
    """Strict endofunctor of the walking arrow sending everything to the
    start object (a different object map from the identity)."""
    u0 = ("le", 0, 0)
    cell1 = {f: u0 for f in b.one_cells()}
    cell2 = {c: ("id", u0) for c in b.two_cells()}
    return two_functor("collapse-to-start", b, b, {0: 0, 1: 0}, cell1, cell2)


def test_object_map_mismatch_is_structural():
    b = corpus.walking_arrow()
    f = identity_lax(b)
    g = collapse_to_start(b)
    assert validate_lax_functor(g).ok
    rep = validate_icon(Icon("bad", f, g, {}, {}))
    assert rep.structural_failure
    assert rep.first("object-maps-differ") is not None
    assert list(enumerate_icons(f, g)) == []


def test_hcomp_icons_two_pastings_agree():
    kappa = corpus.idem_icon_k()
    both = hcomp_icons(kappa, kappa)
    assert validate_icon(both).ok
    t = kappa.source.target
    for f in ("u", "s"):
        one_way = both.at(f)
        other = t.vcomp(kappa.target.on_2(kappa.at(f)),
                        kappa.at(kappa.source.on_1(f)))
        assert one_way == other


def test_whiskering_by_identity_functor_keeps_cells():
    kappa = corpus.idem_icon_k()
    one = identity_lax(kappa.source.target)
    assert icon_cells(whisker_icon_left(one, kappa)) == icon_cells(kappa)
    assert icon_cells(whisker_icon_right(kappa, one)) == icon_cells(kappa)


def test_whiskers_equal_hcomp_with_identity_icons():
    """A whisker equals the horizontal composite with an identity icon: the
    same name, cells and families at every pair.  Both sides run between the
    composites of the same two lax functors, so their source and target are
    compared the first time that factor pair comes up."""
    bics, fams, icons = universe_icons()
    checked = 0
    seen = set()

    def agree(whiskered, pasted, sources, targets):
        """`sources` and `targets` are the factor pairs of the composite
        source and target."""
        assert whiskered.name == pasted.name
        assert whiskered.cells == pasted.cells
        assert whiskered.families == pasted.families
        for side, pair in (("source", sources), ("target", targets)):
            key = (id(pair[0]), id(pair[1]))
            if key not in seen:
                seen.add(key)
                assert getattr(whiskered, side) == getattr(pasted, side)

    for (s, t), fam in icons.items():
        if len(fam) > 81:
            continue
        for h in [h for d in bics for h in fams[(t, d)]]:
            for _, _, alpha in fam:
                agree(whisker_icon_left(h, alpha), hcomp_icons(identity_icon(h), alpha),
                      (h, alpha.source), (h, alpha.target))
                checked += 1
        for k in [k for c in bics for k in fams[(c, s)]]:
            for _, _, alpha in fam:
                agree(whisker_icon_right(alpha, k), hcomp_icons(alpha, identity_icon(k)),
                      (alpha.source, k), (alpha.target, k))
                checked += 1
    assert checked == 182203


def _agree(new, old, one_cells):
    """Same name, the same cell at every one of `one_cells` and at no other,
    the same family names."""
    assert new.name == old.name
    assert new.cells == {f: c for nt in old.components.values()
                         for f, c in nt.components.items()}
    assert new.cells.keys() == one_cells
    assert new.families == {pair: nt.name for pair, nt in old.components.items()}


def test_icon_algebra_matches_the_reference():
    """The flat algebra against the per-hom reference, over every icon of
    the `_law_universe` families with at most 81 icons: identities, every
    composable pair and the composites with identities, every whisker by a
    composable functor, and every horizontal composite after an icon of a
    family with at most 9 icons.  Each composite lax functor met is
    compared, field by field, with the eager one the first time its factors
    come up."""
    bics, fams, icons = universe_icons()
    small = {key: [ic for _, _, ic in fam] for key, fam in icons.items() if len(fam) <= 81}
    old = {id(ic): ref.Icon(ic.name, ic.source, ic.target, ic.components)
           for fam in small.values() for ic in fam}
    one_cells = {name: set(b.one_cells()) for name, b in bics.items()}
    seen = set()

    def agree_pasted(new, old_icon, s, later, earlier):
        """`later` and `earlier` are the factors' (source, target) pairs."""
        _agree(new, old_icon, one_cells[s])
        for side, pair in (("source", 0), ("target", 1)):
            key = (id(later[pair]), id(earlier[pair]))
            if key not in seen:
                seen.add(key)
                assert getattr(new, side) == getattr(old_icon, side)

    counts = dict.fromkeys(("identity", "vcomp", "left", "right", "hcomp"), 0)
    for (s, t), fam in small.items():
        for f in fams[(s, t)]:
            _agree(identity_icon(f), ref.identity_icon(f), one_cells[s])
            counts["identity"] += 1
        for a in fam:
            # composites with identities tell the order of the family names
            _agree(vcomp_icons(identity_icon(a.target), a),
                   ref.vcomp_icons(ref.identity_icon(a.target), old[id(a)]), one_cells[s])
            _agree(vcomp_icons(a, identity_icon(a.source)),
                   ref.vcomp_icons(old[id(a)], ref.identity_icon(a.source)), one_cells[s])
            for b in fam:
                if b.source is a.target:
                    _agree(vcomp_icons(b, a), ref.vcomp_icons(old[id(b)], old[id(a)]),
                           one_cells[s])
                    counts["vcomp"] += 1
        # the factor pairs change slowly in these loops, so the reference
        # mostly finds its composites among the recent ones
        for h in [h for d in bics for h in fams[(t, d)]]:
            for a in fam:
                agree_pasted(whisker_icon_left(h, a), ref.whisker_icon_left(h, old[id(a)]), s,
                             (h, h), (a.source, a.target))
                counts["left"] += 1
        for c in bics:
            for k in fams[(c, s)]:
                for a in fam:
                    agree_pasted(whisker_icon_right(a, k), ref.whisker_icon_right(old[id(a)], k),
                                 c, (a.source, a.target), (k, k))
                    counts["right"] += 1
        for b in [b for d in bics if len(icons[(t, d)]) <= 9 for b in small[(t, d)]]:
            for a in fam:
                agree_pasted(hcomp_icons(b, a), ref.hcomp_icons(old[id(b)], old[id(a)]), s,
                             (b.source, b.target), (a.source, a.target))
                counts["hcomp"] += 1
    assert counts == {"identity": 371, "vcomp": 7606, "left": 75407, "right": 106796,
                      "hcomp": 20508}


def _rekeyed(fun, drop=(), extra=None):
    """`fun` with the hom functors at `drop` left out and those of `extra`
    added under their own keys."""
    homs = {p: hf for p, hf in fun.hom_functors.items() if p not in drop}
    homs.update(extra or {})
    return LaxFunctor(fun.name, fun.source, fun.target, fun.object_map, homs,
                      fun.comp_constraints, fun.unit_constraints)


_MISSING = "  [missing-hom-component] no component family at "


def test_hom_functors_keyed_otherwise_report_and_enumerate_as_before():
    """Lax functors whose hom functors lack the empty hom ('b', 'a') of the
    walking 2-cell, or carry it once more under the key ('a', 'z'), which no
    hom of the source has: validation and the family names of the icons
    found go by the keys of the hom functors, sorted, as for any other lax
    functor, and the search, which binds no cell of an empty hom, finds the
    icons it finds for the lax functor keyed by the source's homs."""
    s, t = corpus.get("bicategory", "walking-two-cell"), corpus.get("bicategory", "sigma-idem")
    f = list(enumerate_lax_functors(s, t))[0]
    icons = list(enumerate_icons(f, f))
    assert len(icons) == 4
    missing = _rekeyed(f, drop=[("b", "a")])
    extra = _rekeyed(f, extra={("a", "z"): f.hom_functors[("b", "a")]})
    for g in (missing, extra):
        got = list(enumerate_icons(g, g))
        assert got == list(reference_enumerators.enumerate_icons(g, g))
        assert [ic.cells for ic in got] == [ic.cells for ic in icons]
        assert [sorted(ic.families) for ic in got] == [sorted(g.hom_functors)] * 4
    # the per-hom view, and so the document, hold no cell at ('a', 'z'),
    # which names no hom of the source
    for ic in enumerate_icons(extra, extra):
        assert ic.components[("a", "z")].components == {}
        assert '  at "a" "z" = nat "enum"\n  end\n' in ff.serialize(ff.document_for(ic))

    for ic in icons:
        assert str(validate_icon(Icon("k", missing, missing, ic.cells, dict(ic.families)))) \
            == "icon k: ok"
        assert str(validate_icon(Icon("k", missing, missing, ic.cells, {}))) == "\n".join([
            "icon k: FAIL [missing-hom-component] no component family at ('a', 'a') (+2 more)",
            _MISSING + "('a', 'a')", _MISSING + "('a', 'b')", _MISSING + "('b', 'b')"])
        assert str(validate_icon(Icon("k", extra, extra, ic.cells, dict(ic.families)))) == \
            "icon k: FAIL [missing-hom-component] no component family at ('a', 'z')\n" \
            + _MISSING + "('a', 'z')"
        assert str(validate_icon(Icon("k", extra, extra, ic.cells, {}))) == "\n".join([
            "icon k: FAIL [missing-hom-component] no component family at ('a', 'a') (+4 more)",
            *(_MISSING + repr(pair) for pair in
              [("a", "a"), ("a", "b"), ("a", "z"), ("b", "a"), ("b", "b")])])


def test_a_missing_hom_functor_over_1_cells_is_reported_not_raised():
    """A lax functor without the hom functor at ('a', 'b'), a hom of the
    walking 2-cell with 1-cells: the search finds no icon into or out of it,
    as for differing object maps, and validation refuses each icon with a
    structural violation that names the hom."""
    s, t = corpus.get("bicategory", "walking-two-cell"), corpus.get("bicategory", "sigma-idem")
    f = list(enumerate_lax_functors(s, t))[0]
    g = _rekeyed(f, drop=[("a", "b")])
    assert [str(v) for v in validate_lax_functor(g).violations] == \
        ["[missing-hom-functor] no hom functor at ('a', 'b')"]
    missing = "[missing-hom-functor] no hom functor at ('a', 'b'), whose hom has 1-cells"
    want = f"icon k: FAIL {missing}\n  {missing}"
    for one, two in ((g, g), (f, g), (g, f)):
        assert list(enumerate_icons(one, two)) == []
        for ic in enumerate_icons(f, f):
            rep = validate_icon(Icon("k", one, two, ic.cells, dict(ic.families)))
            assert str(rep) == want
            assert rep.violations[0].witness == ("a", "b") and rep.structural_failure


def test_hom_functors_keyed_differently_give_no_icon_either_way():
    """f is the first lax functor walking-two-cell -> sigma-idem and g is f
    without its hom functor at the empty hom ('b', 'a').  The two lax
    functors of an icon must key their hom functors alike: the search finds
    no icon f => g and none g => f, and validation refuses each with one
    structural violation at the first key that only one of them has."""
    s, t = corpus.get("bicategory", "walking-two-cell"), corpus.get("bicategory", "sigma-idem")
    f = list(enumerate_lax_functors(s, t))[0]
    g = _rekeyed(f, drop=[("b", "a")])
    h = _rekeyed(g, extra={("a", "z"): f.hom_functors[("b", "a")]})
    cases = [(f, g, ("b", "a")), (g, f, ("b", "a")), (f, h, ("a", "z")), (h, f, ("a", "z"))]
    for one, two, key in cases:
        assert list(enumerate_icons(one, two)) == []
        differ = ("[hom-functor-keys-differ] only one of the two lax functors has a "
                  f"hom functor at {key!r}")
        for ic in enumerate_icons(f, f):
            rep = validate_icon(Icon("k", one, two, ic.cells, dict(ic.families)))
            assert str(rep) == f"icon k: FAIL {differ}\n  {differ}"
            assert rep.violations[0].witness == key and rep.structural_failure


def test_hom_functors_with_other_source_fields_enumerate_what_validates():
    """Lax functors that only code can build, since a document builds each
    hom functor out of the source's hom at its key: f (the second lax functor
    walking-two-cell -> sigma-idem) with the hom functor at ('a', 'b') given
    that hom without the 2-cell up: f0 => f1 as its own source, or with that
    hom functor once more at ('a', 'z'), which names no hom of the source.
    Over every choice of a 2-cell of sigma-idem per 1-cell, the search finds
    exactly the candidates that validation accepts, in order, and they are
    the icons f => f: both read the source's homs for the cells and squares
    of a family, so the square at up is checked, and a family at a key that
    names no source hom holds none."""
    s, t = corpus.get("bicategory", "walking-two-cell"), corpus.get("bicategory", "sigma-idem")
    f = list(enumerate_lax_functors(s, t))[1]
    hf = f.hom_functors[("a", "b")]
    hom = hf.source
    narrow = Functor(hf.name, FiniteCategory(
        "no-up", hom.objects, {m: ends for m, ends in hom.morphisms.items() if m != "up"},
        hom.identity, {fg: h for fg, h in hom.table.items() if "up" not in fg}),
        hf.target, hf.object_map, hf.morphism_map)
    one_cells = [x for pair in s.sorted_homs for x in s.homs[pair].sorted_objects]
    cells = t.homs[("*", "*")].sorted_morphisms
    icons = [ic.cells for ic in enumerate_icons(f, f)]
    assert len(icons) == 2
    for g in (_rekeyed(f, extra={("a", "b"): narrow}), _rekeyed(f, extra={("a", "z"): hf})):
        accepted = []
        for choice in itertools.product(cells, repeat=len(one_cells)):
            cand = dict(zip(one_cells, choice))
            if validate_icon(Icon("k", g, g, cand, dict.fromkeys(g.hom_functors, "k"))).ok:
                accepted.append(cand)
        assert [ic.cells for ic in enumerate_icons(g, g)] == accepted == icons


def test_a_hom_functor_that_is_none_is_reported_not_raised():
    """idem-icon-k with None as the hom functor at ('*', '*') of its source
    or of its target: validation refuses the icon with the violation that
    `validate_lax_functor` gives that lax functor, and the search finds no
    icon, where both used to raise AttributeError."""
    kappa = corpus.get("icon", "idem-icon-k")
    f = kappa.source
    g = LaxFunctor(f.name, f.source, f.target, f.object_map, {("*", "*"): None},
                   f.comp_constraints, f.unit_constraints)
    dangling = "[dangling-hom-functor] hom functor at ('*', '*') is not a functor"
    assert [str(v) for v in validate_lax_functor(g).violations] == [dangling]
    for one, two in ((g, kappa.target), (kappa.source, g), (g, g)):
        rep = validate_icon(Icon("k", one, two, kappa.cells, dict(kappa.families)))
        assert str(rep) == f"icon k: FAIL {dangling}\n  {dangling}"
        assert rep.violations[0].witness == ("*", "*") and rep.structural_failure
        assert list(enumerate_icons(one, two)) == []


def test_a_missing_object_image_is_reported_not_raised():
    """idem-icon-k with the object '*' left out of the object map of its
    source or of its target: validation refuses the icon with the violation
    that `validate_lax_functor` gives that lax functor, and the search finds
    no icon, where both used to raise KeyError."""
    kappa = corpus.get("icon", "idem-icon-k")
    f = kappa.source
    g = LaxFunctor(f.name, f.source, f.target, {}, f.hom_functors,
                   f.comp_constraints, f.unit_constraints)
    missing = "[missing-object-image] no image for object '*'"
    assert str(validate_lax_functor(g).violations[0]) == missing
    for one, two in ((g, kappa.target), (kappa.source, g), (g, g)):
        rep = validate_icon(Icon("k", one, two, kappa.cells, dict(kappa.families)))
        assert str(rep) == f"icon k: FAIL {missing}\n  {missing}"
        assert rep.violations[0].witness == ("*",) and rep.structural_failure
        assert list(enumerate_icons(one, two)) == []


def _without_object_images(f):
    """The lax functor f with the hom functor at ('*', '*') given no object
    images, a lax functor `validate_lax_functor` refuses."""
    hf = f.hom_functors[("*", "*")]
    bare = Functor(hf.name, hf.source, hf.target, {}, hf.morphism_map)
    return LaxFunctor(f.name, f.source, f.target, f.object_map, {("*", "*"): bare},
                      f.comp_constraints, f.unit_constraints)


def test_validate_icon_reports_a_hom_functor_without_object_images():
    """idem-icon-k whose source's or target's hom functor gives no 1-cell an
    image: validation refuses the icon under the kind that
    `validate_lax_functor` gives that lax functor, where it used to raise
    KeyError('s')."""
    kappa = corpus.get("icon", "idem-icon-k")
    g = _without_object_images(kappa.source)
    assert validate_lax_functor(g).violations[0].kind == "hom-functor:missing-object-image"
    for one, two, side in ((g, kappa.target, "source"), (kappa.source, g, "target"),
                           (g, g, "source")):
        rep = validate_icon(Icon("k", one, two, kappa.cells, dict(kappa.families)))
        lines = [f"[hom-functor:missing-object-image] hom functor ('*', '*') of the {side}: "
                 f"no image for object {x!r}" for x in ("s", "u")]
        assert [str(v) for v in rep.violations] == lines
        assert [v.witness for v in rep.violations] == [("s",), ("u",)]
        assert rep.structural_failure


def test_enumerate_icons_finds_none_for_a_hom_functor_without_object_images():
    """The search out of the same pairs yields nothing, where it used to
    raise KeyError('s'); between the intact lax functors it finds kappa."""
    kappa = corpus.get("icon", "idem-icon-k")
    g = _without_object_images(kappa.source)
    for one, two in ((g, kappa.target), (kappa.source, g), (g, g)):
        assert list(enumerate_icons(one, two)) == []
    assert kappa.cells in [ic.cells for ic in enumerate_icons(kappa.source, kappa.target)]


def _without_comparisons(f):
    """The lax functor f with no comparisons, which `validate_lax_functor`
    refuses."""
    return LaxFunctor(f.name, f.source, f.target, f.object_map, f.hom_functors, {},
                      f.unit_constraints)


def _with_morphism_image(f, m, image):
    """The lax functor f whose hom functor at ('*', '*') sends the 2-cell m
    to `image`."""
    hf = f.hom_functors[("*", "*")]
    moved = Functor(hf.name, hf.source, hf.target, hf.object_map,
                    {**hf.morphism_map, m: image})
    return LaxFunctor(f.name, f.source, f.target, f.object_map, {("*", "*"): moved},
                      f.comp_constraints, f.unit_constraints)


def test_validate_icon_reports_a_lax_functor_without_comparisons():
    """idem-icon-k whose source's or target's comparisons are all missing:
    validation refuses the icon with the violations that
    `validate_lax_functor` gives that lax functor, where it used to raise
    KeyError(('s', 's')) in the composition law."""
    kappa = corpus.get("icon", "idem-icon-k")
    g = _without_comparisons(kappa.source)
    missing = [str(v) for v in validate_lax_functor(g).violations]
    assert missing[0] == "[missing-comp-constraint] no comparison for the pair ('s', 's')"
    for one, two, side in ((g, kappa.target, "source"), (kappa.source, g, "target"),
                           (g, g, "source")):
        rep = validate_icon(Icon("k", one, two, kappa.cells, dict(kappa.families)))
        assert [str(v) for v in rep.violations] == [
            line.replace("] ", f"] {side} lax functor: ", 1) for line in missing]
        assert rep.violations[0].witness == ("s", "s") and rep.structural_failure


def test_enumerate_icons_finds_none_for_a_lax_functor_without_comparisons():
    kappa = corpus.get("icon", "idem-icon-k")
    g = _without_comparisons(kappa.source)
    for one, two in ((g, kappa.target), (kappa.source, g), (g, g)):
        assert list(enumerate_icons(one, two)) == []


def test_validate_icon_reports_a_morphism_image_that_is_no_target_morphism():
    """idem-icon-k whose source's or target's hom functor sends ('i', 'u')
    to 'nope', a value that is no 2-cell, or to ('i', 's'), a 2-cell with the
    wrong endpoints: validation refuses the icon under the kind that
    `validate_lax_functor` gives, where both used to raise KeyError in the
    naturality squares."""
    kappa = corpus.get("icon", "idem-icon-k")
    for image, kind, message, structural in (
            ("nope", "dangling-morphism-image", "is not a target morphism", True),
            (("i", "s"), "endpoints", "has the wrong endpoints", False)):
        g = _with_morphism_image(kappa.source, ("i", "u"), image)
        assert validate_lax_functor(g).violations[0].kind == "hom-functor:" + kind
        for one, two, side in ((g, kappa.target, "source"), (kappa.source, g, "target"),
                               (g, g, "source")):
            rep = validate_icon(Icon("k", one, two, kappa.cells, dict(kappa.families)))
            assert [str(v) for v in rep.violations] == [
                f"[hom-functor:{kind}] hom functor ('*', '*') of the {side}: "
                f"image of ('i', 'u') {message}"]
            assert rep.violations[0].witness == (("i", "u"),)
            assert rep.structural_failure == structural


def test_enumerate_icons_finds_none_for_a_morphism_image_that_is_no_target_morphism():
    kappa = corpus.get("icon", "idem-icon-k")
    for image in ("nope", ("i", "s")):
        g = _with_morphism_image(kappa.source, ("i", "u"), image)
        for one, two in ((g, kappa.target), (kappa.source, g), (g, g)):
            assert list(enumerate_icons(one, two)) == []


def _with_constraints(f, comp=None, unit=None):
    """The lax functor f with its comparisons and unit comparisons updated
    by `comp` and `unit`."""
    return LaxFunctor(f.name, f.source, f.target, f.object_map, f.hom_functors,
                      {**f.comp_constraints, **(comp or {})},
                      {**f.unit_constraints, **(unit or {})})


@pytest.mark.parametrize("changed, kind", [
    ({"comp": {("u", "u"): ("i", "s")}}, "comp-constraint-endpoints"),
    ({"unit": {"*": ("i", "s")}}, "unit-constraint-endpoints")])
def test_validate_icon_reports_a_constraint_with_the_wrong_endpoints(changed, kind):
    """idem-icon-k whose source's or target's comparison at ('u', 'u'), or
    unit comparison, is the 2-cell ('i', 's'), which runs between the wrong
    1-cells: validation refuses the icon with the violation that
    `validate_lax_functor` gives, and the search finds no icon, where both
    used to raise KeyError in the compatibility laws."""
    kappa = corpus.get("icon", "idem-icon-k")
    g = _with_constraints(kappa.source, **changed)
    wrong = [str(v) for v in validate_lax_functor(g).violations]
    assert len(wrong) == 1 and wrong[0].startswith(f"[{kind}] ")
    for one, two, side in ((g, kappa.target, "source"), (kappa.source, g, "target"),
                           (g, g, "source")):
        rep = validate_icon(Icon("k", one, two, kappa.cells, dict(kappa.families)))
        assert [str(v) for v in rep.violations] == [
            wrong[0].replace("] ", f"] {side} lax functor: ", 1)]
        assert not rep.structural_failure
        assert list(enumerate_icons(one, two)) == []


def test_identity_icon_on_a_unit_comparison_with_the_wrong_endpoints_is_refused():
    """On codiscrete3, the identity lax functor with the unit comparison
    ('to', 'a', 'e'), a 2-cell of its hom that does not start at the unit:
    its identity icon passes every law, and is refused all the same, as the
    lax functor is."""
    f = identity_lax(corpus.get("bicategory", "codiscrete3"))
    g = _with_constraints(f, unit={"*": ("to", "a", "e")})
    assert validate_lax_functor(g).first().kind == "unit-constraint-endpoints"
    rep = validate_icon(identity_icon(g))
    assert rep.first().kind == "unit-constraint-endpoints"
    assert rep.first().message.startswith("source lax functor: ")
    assert list(enumerate_icons(g, g)) == []


def test_the_checks_of_one_lax_functor_run_once_for_all_its_icons(monkeypatch):
    """Over every ordered pair of lax functors between two small corpus
    bicategories, rebuilt as plain lax functors, the checks that read one
    lax functor run once for each distinct lax functor, and a second
    validation of a pair runs none.  The lax functors the search yielded
    come with the verdict of those checks, so they run none at all."""
    import bicatkit.laxfun as laxfun
    real, calls = laxfun.validate_images, []

    def counted(fun):
        calls.append(fun)
        return real(fun)

    monkeypatch.setattr(laxfun, "validate_images", counted)
    s, t = corpus.get("bicategory", "walking-arrow"), corpus.sigma_idem()
    found = list(enumerate_lax_functors(s, t))
    for f in found:
        for g in found:
            list(enumerate_icons(f, g))
    assert calls == []
    funs = [LaxFunctor(f.name, f.source, f.target, f.object_map, f.hom_functors,
                       f.comp_constraints, f.unit_constraints) for f in found]
    assert len(funs) > 1
    ones = [pair for pair in s.sorted_homs if s.homs[pair].objects]
    for f in funs:
        for g in funs:
            list(enumerate_icons(f, g))
    assert len(calls) == len(funs) * len(ones)
    validate_icon(identity_icon(funs[0]))
    assert len(calls) == len(funs) * len(ones)


def _pair_report(check, f, g):
    rep = check(f, g)
    return str(rep), [(v.kind, v.witness, v.structural) for v in rep.violations]


def _pairs_reported_otherwise(pairs):
    """The indices of the pairs on which `validate_icon_pair` and the
    reference, which runs every loop on every pair, report differently."""
    return [n for n, (f, g) in enumerate(pairs)
            if _pair_report(validate_icon_pair, f, g)
            != _pair_report(reference_icon_pair.validate_icon_pair, f, g)]


def test_validate_icon_pair_reports_as_the_reference_on_the_law_universe():
    """Every ordered pair of lax functors in each of the law universe's 121
    families, those with differing object maps included."""
    _, fams, _ = _law_universe()
    assert len(fams) == 121
    pairs = [(f, g) for funs in fams.values() for f in funs for g in funs]
    assert len(pairs) == 24688
    assert sum(not validate_icon_pair(f, g).ok for f, g in pairs) == 244
    assert _pairs_reported_otherwise(pairs) == []


def test_validate_icon_pair_reports_as_the_reference_on_the_icon_source_mutants():
    mutants = [icon for _, icon in test_mutants.icon_mutants()]
    assert len(mutants) == 1958
    assert _pairs_reported_otherwise([(ic.source, ic.target) for ic in mutants]) == []


def test_validate_icon_pair_reports_as_the_reference_on_pairs_that_differ_in_one_field():
    """Lax functors like the identity on the walking 2-cell but for one
    field: the object map (changed, short of an object, or off the target),
    the keys of the hom functors (one short, one extra), the source or the
    target (an equal copy, or another bicategory), or an entry of its own
    (no comparisons, a hom functor that is None), in every ordered pair
    with each other and with the identity."""
    b, other = corpus.get("bicategory", "walking-two-cell"), corpus.sigma_idem()
    f = identity_lax(b)
    omap = f.object_map
    funs = [f, identity_lax(b),
            dataclasses.replace(f, object_map={**omap, "a": "b"}),
            dataclasses.replace(f, object_map={"b": omap["b"]}),
            dataclasses.replace(f, object_map={**omap, "a": "zz"}),
            _rekeyed(f, drop=[("b", "a")]),
            _rekeyed(f, drop=[("a", "b")]),
            _rekeyed(f, extra={("a", "z"): f.hom_functors[("b", "a")]}),
            dataclasses.replace(f, source=dataclasses.replace(b)),
            dataclasses.replace(f, source=other),
            dataclasses.replace(f, target=dataclasses.replace(b)),
            dataclasses.replace(f, target=other),
            dataclasses.replace(f, comp_constraints={}),
            _rekeyed(f, extra={("b", "a"): None})]
    pairs = list(itertools.product(funs, repeat=2))
    assert sum(validate_icon_pair(f, g).ok for f, g in pairs) == 18
    assert _pairs_reported_otherwise(pairs) == []


def test_each_enumerated_icon_has_family_names_of_its_own():
    """Every icon `enumerate_icons` finds between the lax functors of the law
    universe names the family at each hom pair of its source's hom functors
    "enum", in a dict of its own: a write to one icon's names renames no
    other icon and no icon of a later enumeration.  So do the icons between
    lax functors whose hom functors are keyed otherwise."""
    _, fams, icons = _law_universe()
    found = 0
    for key, fam in icons.items():
        for i, j in dict.fromkeys((i, j) for i, j, _ in fam):
            for ic in enumerate_icons(fams[key][i], fams[key][j]):
                assert ic.families == dict.fromkeys(_families(ic.source), "enum")
                found += 1
    assert found == 23987

    sigma = fams[("sigma-idem", "sigma-idem")]
    i, j, _ = icons[("sigma-idem", "sigma-idem")][0]
    extra = _rekeyed(sigma[i], extra={("z", "z"): next(iter(sigma[i].hom_functors.values()))})
    for f, g in ((sigma[i], sigma[j]), (extra, extra)):
        first, second, *_ = enumerate_icons(f, g)
        pair = next(iter(first.families))
        first.families[pair] = "renamed"
        assert second.families[pair] == "enum"
        assert all(ic.families[pair] == "enum" for ic in enumerate_icons(f, g))


def test_composites_set_every_field_at_construction():
    """Each of the four Icon operations builds its source, target and family
    names with the composite, and the composite's bicategory is its source's
    target."""
    ic = corpus.idem_icon_k()
    fun, pair = ic.source, ("*", "*")
    for composite, name in ((vcomp_icons(ic, ic), "k-family.k-family"),
                            (hcomp_icons(ic, ic), f"h{pair!r}"),
                            (whisker_icon_left(fun, ic), f"h{pair!r}"),
                            (whisker_icon_right(ic, fun), f"h{pair!r}")):
        assert {"source", "target", "families"} <= vars(composite).keys(), composite.name
        assert composite.families == {pair: name}
        assert composite.bicategory is composite.source.target


def test_icon_interchange_on_idem_pair():
    idem = corpus.sigma_idem()
    one = identity_lax(idem)
    pool = list(enumerate_icons(one, one))
    assert len(pool) == 2
    for a1 in pool:
        for a2 in pool:
            for b1 in pool:
                for b2 in pool:
                    lhs = vcomp_icons(hcomp_icons(b2, a2), hcomp_icons(b1, a1))
                    rhs = hcomp_icons(vcomp_icons(b2, b1), vcomp_icons(a2, a1))
                    assert icon_cells(lhs) == icon_cells(rhs)


def test_monoidal_dictionary_round_trip():
    tw = corpus.twisted_icon(1)
    fam = icon_to_monoidal(tw)
    assert fam == {0: (0, 1), 1: (1, 1)}
    back = monoidal_to_icon("back", fam, tw.source, tw.target)
    assert validate_icon(back).ok
    assert icon_cells(back) == icon_cells(tw)


def test_monoidal_dictionary_needs_one_object():
    wa = corpus.walking_arrow()
    with pytest.raises(UnsupportedSettingError):
        icon_to_monoidal(identity_icon(identity_lax(wa)))


def test_monoidal_nats_count_as_icons_on_corpus_pairs():
    from bicatkit.laxfun import sigma_functor
    from bicatkit.oracles import enumerate_monoidal_nats

    for pname in corpus.MONOIDAL_PAIRS:
        mf, mg, b = corpus.get("monoidal-pair", pname)
        sf, sg = sigma_functor(mf, b, b), sigma_functor(mg, b, b)
        nats = list(enumerate_monoidal_nats(mf, mg))
        icons = list(enumerate_icons(sf, sg))
        assert len(nats) == len(icons), pname
        def canon(cells):
            return repr(sorted((repr(p), sorted(map(repr, d.items())))
                               for p, d in cells.items()))

        seen = []
        for theta in nats:
            ic = monoidal_to_icon("t", theta, sf, sg)
            assert validate_icon(ic).ok
            assert icon_to_monoidal(ic) == theta
            seen.append(canon(icon_cells(ic)))
        assert sorted(seen) == sorted(canon(icon_cells(i)) for i in icons)


def test_monoidal_identity_nat_deloops_to_identity_icon():
    from bicatkit.laxfun import sigma_functor
    from bicatkit.oracles import enumerate_monoidal_nats

    mf, _, b = corpus.get("monoidal-pair", "idem-pair")
    sf = sigma_functor(mf, b, b)
    idnat = {x: mf.source.cat.identity[x] for x in mf.source.cat.objects}
    assert idnat in list(enumerate_monoidal_nats(mf, mf))
    ic = monoidal_to_icon("id", idnat, sf, sf)
    assert icon_cells(ic) == icon_cells(identity_icon(sf))
