"""The cylinder construction: levels, crossing quotient, refutations, and
agreement with the freely presented model."""

import pytest

from bicatkit import corpus
from bicatkit.bicat import UnsupportedSettingError, validate_bicategory
from bicatkit.cylinder import costrict_refutation, lax_cylinder
from bicatkit.laxfun import classify, validate_lax_functor
from bicatkit.oplax import classify_oplax, is_costrict, validate_oplax
from bicatkit.oracles import FreeCrossModel, cross_cell_count

BASES = ("walking-arrow", "sigma-idem", "walking-two-cell")


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


def test_weak_base_rejected():
    with pytest.raises(UnsupportedSettingError):
        lax_cylinder(corpus.codiscrete3())


@pytest.mark.parametrize("name", ("walking-arrow", "walking-two-cell"))
def test_free_model_agrees_with_closed_form(name):
    b = corpus.get("bicategory", name)
    cyl = lax_cylinder(b)
    for x in b.objects:
        for y in b.objects:
            model = FreeCrossModel(b, x, y, max_len=5)
            cross = cyl.total.homs[((0, x), (1, y))]
            for p in cross.objects:
                for q in cross.objects:
                    assert len(model.classes_between(p[1:], q[1:])) == \
                        len(cross.hom(p, q))


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
