"""Equivalence verdicts, cartesian 2-cells, and fibrations."""

import pytest

from bicatkit import corpus
from bicatkit.bicat import UnsupportedSettingError, from_category, validate_bicategory
from bicatkit.catcore import chain_category
from bicatkit.internal import (
    CartesianQuery,
    cartesian_report,
    fibration_report,
    is_equivalence_in_bicat2,
    is_fibration,
    is_p_cartesian,
)
from bicatkit.oracles import (cartesian_by_definition, equivalence_by_inverse_search,
                              fibration_by_definition)
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


@pytest.mark.parametrize("name", [name for name in corpus.BICATEGORIES
                                  if corpus.get("bicategory", name).is_strict()])
def test_cartesian_agrees_with_definition_oracle(name):
    """On every strict corpus bicategory, each query of a 1-cell p and a
    2-cell into its source."""
    b = corpus.get("bicategory", name)
    queries = list(_all_queries(b))
    assert queries
    for q in queries:
        assert is_p_cartesian(q) == cartesian_by_definition(b, q.p, q.alpha)


def test_fibrations_agree_with_definition_oracle():
    """Over the 47 one-cells of the 12 strict corpus bicategories, the
    oracle's verdict is `fibration_report`'s: 41 fibrations and 6 not.
    Each of the 6 fails the first clause, and its witness is checked by
    brute force: beta is a 2-cell b1 => p.a, no 2-cell into a that lies
    over beta is cartesian by either route, and the report names the same
    witness."""
    refuted, one_cells = [], 0
    for name in sorted(corpus.BICATEGORIES):
        b = corpus.get("bicategory", name)
        if not b.is_strict():
            continue
        for p in b.one_cells():
            one_cells += 1
            rep, witness = fibration_report(b, p), fibration_by_definition(b, p)
            assert rep.ok == (witness is None), (name, p)
            if witness is None:
                continue
            kind, x, a, b1, beta = witness
            pa, pb = b.home1(p)
            assert kind == "no-cartesian-lift"
            assert b.homs[(x, pb)].morphisms[beta] == (b1, b.compose1(p, a))
            for alpha, (_, end) in b.homs[(x, pa)].morphisms.items():
                if end == a and b.whisker_left(p, alpha) == beta:
                    assert not is_p_cartesian(CartesianQuery(b, p, alpha))
                    assert not cartesian_by_definition(b, p, alpha)
            assert (x, a, b1, beta) in [v.witness for v in rep.violations if v.kind == kind]
            refuted.append((name, p))
    assert one_cells == 47
    assert refuted == [("collapsed-two-cell", "f1"), ("sigma-idem", "s"), ("sigma-maxposet", "s"),
                       ("thickened-arrow", "f"), ("thickened-arrow", "f2"),
                       ("walking-two-cell", "f1")]


def _strict_base(name, objects, homs, one, two):
    """The strict 2-category on `objects` with the homs `homs` (as
    `corpus._two_category` takes them), whose 1-cell composites are `one`
    and whose 2-cell composites are `two`, identities on those of `one`."""
    def comp2(d, c):
        if (d, c) in two:
            return two[(d, c)]
        if d[0] == c[0] == "i" and (d[1], c[1]) in one:
            return ("i", one[(d[1], c[1])])
        return None

    return corpus._two_category(name, name, objects, homs, lambda g, f: one.get((g, f)), comp2)


def _forked_lift():
    """p: b -> t, under which the 2-cell v: r0 => r1 of hom(a, t) has two
    lifts into f1, up: f0 => f1 and w: f2 => f1, with p.f0 == p.f2 == r0.
    No 2-cell joins f0 and f2, so neither lift factors the other, and
    neither is cartesian: p fails the first clause although v has lifts."""
    one = {("p", "f0"): "r0", ("p", "f2"): "r0", ("p", "f1"): "r1"}
    two = {(("i", "p"), "up"): "v", (("i", "p"), "w"): "v"}
    return _strict_base("forked-lift", ["a", "b", "t"], {
        ("a", "b"): (["f0", "f1", "f2"], {"up": ("f0", "f1"), "w": ("f2", "f1")}),
        ("b", "t"): (["p"],), ("a", "t"): (["r0", "r1"], {"v": ("r0", "r1")})}, one, two)


def _unstable_lift():
    """p: b -> t, over which u: g0 => g1 of hom(a, b) is cartesian, but u
    pasted with w: y -> a is the cell up: f0 => f1 of hom(y, b), which
    w2: f2 => f1 keeps from being cartesian as in `_forked_lift`.  Over
    hom(y, b) the cartesian lift is z: f3 => f1, which up and w2 factor
    through, so p fails the second clause alone."""
    one = {("g0", "w"): "f0", ("g1", "w"): "f1", ("p", "g0"): "s0", ("p", "g1"): "s1",
           ("p", "f0"): "r0", ("p", "f2"): "r0", ("p", "f3"): "r0", ("p", "f1"): "r1",
           ("s0", "w"): "r0", ("s1", "w"): "r1"}
    two = {("u", ("i", "w")): "up", ("v'", ("i", "w")): "v", (("i", "p"), "u"): "v'",
           **{(("i", "p"), c): "v" for c in ("up", "w2", "z")},
           **{(("i", "p"), c): ("i", "r0") for c in ("e0", "e2")}}
    return _strict_base("unstable-lift", ["y", "a", "b", "t"], {
        ("y", "a"): (["w"],), ("a", "b"): (["g0", "g1"], {"u": ("g0", "g1")}),
        ("b", "t"): (["p"],), ("a", "t"): (["s0", "s1"], {"v'": ("s0", "s1")}),
        ("y", "b"): (["f0", "f1", "f2", "f3"],
                     {"up": ("f0", "f1"), "w2": ("f2", "f1"), "z": ("f3", "f1"),
                      "e0": ("f0", "f3"), "e2": ("f2", "f3")},
                     {("e0", "z"): "up", ("e2", "z"): "w2"}),
        ("y", "t"): (["r0", "r1"], {"v": ("r0", "r1")})}, one, two)


def test_fibration_oracle_where_each_clause_decides():
    """On the corpus no refuted 2-cell has a lift at all, and no 1-cell
    fails the second clause.  Two small strict bases fill both gaps: over
    each of their 1-cells the oracle agrees with `fibration_report`, and
    p's witness is checked by brute force."""
    forked, unstable = _forked_lift(), _unstable_lift()
    for b in (forked, unstable):
        assert validate_bicategory(b).ok and b.is_strict()
        for p in b.one_cells():
            assert fibration_report(b, p).ok == (fibration_by_definition(b, p) is None), p

    assert fibration_by_definition(forked, "p") == ("no-cartesian-lift", "a", "f1", "r0", "v")
    lifts = [alpha for alpha, (_, end) in forked.homs[("a", "b")].morphisms.items()
             if end == "f1" and forked.whisker_left("p", alpha) == "v"]
    assert lifts == ["up", "w"]
    assert not any(is_p_cartesian(CartesianQuery(forked, "p", alpha)) for alpha in lifts)

    assert fibration_by_definition(unstable, "p") == ("whisker-unstable", "u", "w")
    assert is_p_cartesian(CartesianQuery(unstable, "p", "u"))
    assert unstable.whisker_right("u", "w") == "up"
    assert not is_p_cartesian(CartesianQuery(unstable, "p", "up"))
    assert [(v.kind, v.witness) for v in fibration_report(unstable, "p").violations] == [
        ("whisker-unstable", ("u", "w"))]


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
