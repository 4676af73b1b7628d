"""Equivalence verdicts, cartesian 2-cells, and fibrations."""

import pytest

from bicatkit import corpus
from bicatkit.bicat import UnsupportedSettingError, from_category
from bicatkit.catcore import chain_category
from bicatkit.internal import (
    CartesianQuery,
    cartesian_report,
    fibration_report,
    is_equivalence_in_bicat2,
    is_fibration,
    is_p_cartesian,
)
from bicatkit.oracles import cartesian_by_definition, equivalence_by_inverse_search
from reference_product import eager_product_category

EQUIVALENCES = ["id-walking-arrow", "twisted-identity",
                "arrow-thickening-inclusion"]
NON_EQUIVALENCES = [("collapse-walking-two-cell", "bijective-on-objects"),
                    ("idem-flatten", "hom-equivalences"),
                    ("idem-laxonly", "homomorphism")]


@pytest.mark.parametrize("name", EQUIVALENCES)
def test_equivalence_positive(name):
    v = is_equivalence_in_bicat2(corpus.get("laxfunctor", name))
    assert v.verdict
    assert v.certified == ("bijective-on-objects", "hom-equivalences",
                           "homomorphism")


@pytest.mark.parametrize("name,failing", NON_EQUIVALENCES)
def test_equivalence_negative_names_first_failure(name, failing):
    v = is_equivalence_in_bicat2(corpus.get("laxfunctor", name))
    assert not v.verdict
    assert v.failing == failing
    assert v.witness


def test_inverse_search_oracle_spot_checks():
    found = equivalence_by_inverse_search(
        corpus.get("laxfunctor", "arrow-thickening-inclusion"))
    assert found is not None
    g, back, fore = found
    assert g.object_map == {"a": 0, "b": 1}
    assert equivalence_by_inverse_search(corpus.get("laxfunctor", "idem-laxonly")) is None


def _all_queries(b):
    for p in sorted(b.one_cells(), key=repr):
        pa, _ = b.home1(p)
        for x in b.objects:
            for alpha in sorted(b.homs[(x, pa)].morphisms, key=repr):
                yield CartesianQuery(b, p, alpha)


@pytest.mark.parametrize("name", ["walking-two-cell", "collapsed-two-cell"])
def test_cartesian_agrees_with_definition_oracle(name):
    b = corpus.get("bicategory", name)
    queries = list(_all_queries(b))
    assert queries
    for q in queries:
        assert is_p_cartesian(q) == cartesian_by_definition(b, q.p, q.alpha)


def test_everything_is_cartesian_over_an_identity():
    b = corpus.get("bicategory", "walking-two-cell")
    for x in b.objects:
        for alpha in b.homs[(x, "b")].morphisms:
            assert is_p_cartesian(CartesianQuery(b, b.unit["b"], alpha))


def test_collapsing_the_two_cell_breaks_cartesianness():
    b = corpus.get("bicategory", "collapsed-two-cell")
    q = CartesianQuery(b, "q", "up")
    assert not is_p_cartesian(q)
    rep = cartesian_report(q)
    assert rep.first("no-factorization") is not None


def test_cartesian_stable_under_invertible_reshaping():
    b = corpus.get("bicategory", "thickened-arrow")
    for q in _all_queries(b):
        if not is_p_cartesian(q):
            continue
        up = b.homs[b.home2(q.alpha)]
        a_prime = up.morphisms[q.alpha][0]
        for iota in up.morphisms:
            if up.morphisms[iota][1] != a_prime or up.iso_inverse(iota) is None:
                continue
            assert is_p_cartesian(
                CartesianQuery(b, q.p, b.vcomp(q.alpha, iota)))


def test_boundary_mismatch_raises():
    b = corpus.get("bicategory", "walking-two-cell")
    with pytest.raises(ValueError):
        is_p_cartesian(CartesianQuery(b, "1a", "up"))


def test_weak_ambient_rejected():
    b = corpus.get("bicategory", "codiscrete3")
    with pytest.raises(UnsupportedSettingError):
        is_p_cartesian(CartesianQuery(b, "e", ("to", "e", "e")))
    with pytest.raises(UnsupportedSettingError):
        is_fibration(b, "e")


@pytest.mark.parametrize("name", ["walking-two-cell", "sigma-idem",
                                  "thickened-arrow", "cocycle-trivial"])
def test_identity_one_cells_are_fibrations(name):
    b = corpus.get("bicategory", name)
    for a in b.objects:
        assert is_fibration(b, b.unit[a])


def test_collapsing_projection_fails_the_lifting_clause():
    b = corpus.get("bicategory", "walking-two-cell")
    rep = fibration_report(b, "f1")
    assert not rep.ok
    violation = rep.first("no-cartesian-lift")
    assert violation is not None
    assert violation.witness[3] == "up"


def test_every_one_cell_of_a_poset_square_is_a_fibration():
    square = from_category(
        eager_product_category(chain_category(1), chain_category(1)), "poset-square")
    for p in square.one_cells():
        assert is_fibration(square, p)
