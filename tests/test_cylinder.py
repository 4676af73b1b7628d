"""The cylinder construction: levels, crossing quotient, refutations, and
agreement with the freely presented model."""

import ast
import hashlib
import pathlib

import pytest

from bicatkit import corpus, cylinder, oracles
from bicatkit.bicat import UnsupportedSettingError, validate_bicategory
from bicatkit.cylinder import costrict_refutation, lax_cylinder
from bicatkit.laxfun import classify, validate_lax_functor
from bicatkit.oplax import classify_oplax, is_costrict, validate_oplax

BASES = ("walking-arrow", "sigma-idem", "walking-two-cell")


def cross_cell_count(b, x, y) -> int:
    """How many 1-cells (0,x) -> (1,y) the cylinder must have: one per pair
    of base 1-cells through each intermediate object."""
    return sum(len(b.homs[(w, y)].objects) * len(b.homs[(x, w)].objects)
               for w in b.objects)


@pytest.mark.parametrize("name", BASES)
def test_cylinder_total_validates(name):
    cyl = lax_cylinder(corpus.get("bicategory", name))
    rep = validate_bicategory(cyl.total)
    assert rep.ok, str(rep)
    assert cyl.total.is_strict()
    for leg in (cyl.bottom, cyl.top):
        assert validate_lax_functor(leg).ok
        assert classify(leg).is_strict
    assert validate_oplax(cyl.crossing).ok


@pytest.mark.parametrize("name", BASES)
def test_cross_cell_counts(name):
    b = corpus.get("bicategory", name)
    cyl = lax_cylinder(b)
    for x in b.objects:
        for y in b.objects:
            cross = cyl.total.homs[((0, x), (1, y))]
            assert len(cross.objects) == cross_cell_count(b, x, y)
            # and nothing runs backwards
            assert cyl.total.homs[((1, x), (0, y))].objects == []


def test_walking_arrow_cross_hom_shape():
    b = corpus.walking_arrow()
    cyl = lax_cylinder(b)
    cross = cyl.total.homs[((0, 0), (1, 1))]
    assert len(cross.objects) == 2
    assert len(cross.morphisms) == 3
    non_endo = [m for m in cross.morphisms if cross.src(m) != cross.tgt(m)]
    assert len(non_endo) == 1
    # the only crossing cell is the transformation's constraint at the arrow
    g = ("le", 0, 1)
    assert cyl.crossing.constraints[g] == non_endo[0]
    assert cross.src(non_endo[0]) == ("x", ("le", 1, 1), g)
    assert cross.tgt(non_endo[0]) == ("x", g, ("le", 0, 0))


def test_crossing_has_nonidentity_constraints():
    cyl = lax_cylinder(corpus.walking_arrow())
    cls = classify_oplax(cyl.crossing)
    assert not cls.strict and not cls.icon
    # components are crossing 1-cells, never units of the total
    for a, cell in cyl.crossing.components.items():
        assert cell[0] == "x"
        assert cell != cyl.total.unit[(0, a)]


def test_sliding_identifies_raw_triples():
    # in the walking 2-cell, (1b, f0) -> (f1, 1a) admits two raw triples,
    # one through each parallel 1-cell; sliding "up" across the middle
    # makes them a single 2-cell
    cyl = lax_cylinder(corpus.walking_two_cell())
    cross = cyl.total.homs[(((0, "a")), (1, "b"))]
    src = ("x", "1b", "f0")
    tgt = ("x", "f1", "1a")
    assert len(cross.hom(src, tgt)) == 1


def test_crossing_cells_are_named_by_their_least_triple():
    """A crossing 2-cell is named by the least of its raw triples, not by the
    first one listed: with the parallel 1-cells of the walking 2-cell listed
    the other way round, every crossing hom has the same 2-cells."""
    b, flipped = corpus.walking_two_cell(), corpus.walking_two_cell()
    flipped.homs[("a", "b")].objects.reverse()
    cyl, cyl_flipped = lax_cylinder(b), lax_cylinder(flipped)
    for x in b.objects:
        for y in b.objects:
            key = ((0, x), (1, y))
            assert cyl_flipped.total.homs[key].morphisms.keys() == \
                cyl.total.homs[key].morphisms.keys()


def test_weak_base_rejected():
    with pytest.raises(UnsupportedSettingError):
        lax_cylinder(corpus.codiscrete3())


@pytest.mark.parametrize("name", BASES)
def test_free_model_agrees_with_closed_form(name):
    """Each 2-cell of a crossing hom, mapped into the free model by its least
    raw triple (the last part of its name), lands in a class of its own, and
    every class between its ends is hit."""
    b = corpus.get("bicategory", name)
    cyl = lax_cylinder(b)
    for x in b.objects:
        for y in b.objects:
            model = oracles.FreeCrossModel(b, x, y, max_len=5)
            cross = cyl.total.homs[((0, x), (1, y))]
            for p in cross.objects:
                for q in cross.objects:
                    images = [model.phi(p[1:], q[1:], m[3]) for m in cross.hom(p, q)]
                    assert len(set(images)) == len(images), (p, q)
                    assert set(images) == model.classes_between(p[1:], q[1:]), (p, q)


def test_the_free_model_does_not_import_the_cylinder():
    """The oracle shares no code with what it checks: a broken union-find in
    the cylinder must not break the free model too."""
    tree = ast.parse(pathlib.Path(oracles.__file__).read_text())
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    assert not any(m and m.rpartition(".")[2] == "cylinder" for m in modules), modules


def _cylinder_digest(names):
    """A sha256 over the cylinders of the named bases: every hom table of the
    total in insertion order, its composition functors, units and coherence
    tables, both legs and the crossing."""
    h = hashlib.sha256()

    def put(*parts):
        h.update(repr(parts).encode())

    def put_functor(key, f):
        put(key, f.name, list(f.object_map.items()), list(f.morphism_map.items()))

    for name in names:
        cyl = lax_cylinder(corpus.get("bicategory", name))
        t = cyl.total
        put(t.name, t.objects, list(t.unit.items()))
        for key, cat in t.homs.items():
            put(key, cat.name, cat.objects, list(cat.morphisms.items()),
                list(cat.identity.items()), list(cat.table.items()))
        for key, f in t.comp.items():
            put_functor(key, f)
        put(list(t.associator.items()), list(t.left_unitor.items()),
            list(t.right_unitor.items()))
        for leg in (cyl.bottom, cyl.top):
            put(leg.name, list(leg.object_map.items()),
                list(leg.comp_constraints.items()), list(leg.unit_constraints.items()))
            for key, f in leg.hom_functors.items():
                put_functor(key, f)
        c = cyl.crossing
        put(c.name, list(c.components.items()), list(c.constraints.items()))
    return h.hexdigest()


def test_cylinders_of_the_strict_corpus_are_pinned():
    """The cylinders over the 12 strict bundled bicategories, cell for cell
    and in the order each table was built, hash to a fixed value."""
    names = [n for n in corpus.BICATEGORIES if corpus.get("bicategory", n).is_strict()]
    assert len(names) == 12
    assert _cylinder_digest(names) == \
        "079f32db9039dc3ee5be1892447ab8c4c6d33a8dd9844ff3c58ecb2ef7690a5a"


def test_the_composition_audit_catches_a_raw_composite_not_constant_on_classes(monkeypatch):
    """A raw composite that keeps the first triple's sigma and drops the
    whiskered sigma of the second is well typed over sigma-idem but not
    constant on classes, and building the cylinder stops at the audit."""
    def dropped(b, t1, t2):
        (k1, sig1, tau1), (k2, _, tau2) = t1, t2
        return (b.compose1(k1, k2), sig1, b.vcomp(tau2, b.whisker_right(tau1, k2)))

    monkeypatch.setattr(cylinder, "_raw_compose", dropped)
    with pytest.raises(RuntimeError, match="not constant on classes"):
        lax_cylinder(corpus.sigma_idem())


def test_costrict_verdicts():
    v = is_costrict(corpus.get("oplax", "icon-as-oplax-k"))
    assert v.costrict and v.battery_checked > 20 and not v.battery_failures
    v = is_costrict(corpus.get("oplax", "id-oplax-idem"))
    assert v.costrict

    v = is_costrict(corpus.get("oplax", "idem-general"))
    assert not v.costrict
    assert v.refutation is not None
    assert not v.refutation.replay().ok

    v = is_costrict(corpus.get("oplax", "arrow-shift"))
    assert not v.costrict
    assert v.refutation.witness == 1  # the object whose component is the arrow


def test_refutation_pinpoints_the_component():
    ref = costrict_refutation(corpus.get("oplax", "arrow-shift"))
    assert ref.report.first("interchange-component") is not None
    assert costrict_refutation(corpus.get("oplax", "icon-as-oplax-k")) is None
