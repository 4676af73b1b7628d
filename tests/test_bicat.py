"""Bicategory validation: builders, laws, and corruption detection."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicatkit import corpus
from bicatkit.bicat import (Magma, bicategory_laws, coherence_variables, cocycle_bicategory,
                            codiscrete_bicategory, strict_bicategory, validate_bicategory)
from bicatkit.catcore import (Functor, bifunctor_laws, bifunctor_variables, functor_laws,
                              functor_variables, validate_functor)
from bicatkit.oracles import brute_z2_twist_ok
from bicatkit.report import ValidationReport, sorted_ids
from bicatkit.search import compile_plan, run
from reference_product import eager_product_category
from search_inputs import search_inputs


def test_corpus_bicategories_all_validate():
    for name, build in corpus.BICATEGORIES.items():
        rep = validate_bicategory(build())
        assert rep.ok, f"{name}: {rep.summary()}"


def test_the_flat_vertical_composition_table_is_vcomp():
    """`vcomp_table` holds exactly the composable pairs of 2-cells, hom by
    hom, each with its `vcomp`."""
    for name, build in corpus.BICATEGORIES.items():
        b = build()
        pairs = [(c, d) for pair in b.sorted_homs
                 for c, d in b.homs[pair].composable_pairs()]
        assert len(pairs) == len(b.vcomp_table), name
        for c, d in pairs:
            assert b.vcomp_table[(c, d)] == b.vcomp(d, c), (name, c, d)


def test_the_flat_horizontal_composition_and_identity_tables_are_hcomp_and_id2():
    """`hcomp_table` holds exactly the horizontally composable pairs of
    2-cells, each with its `hcomp`, and `id2_table` exactly the 1-cells,
    each with its `id2`."""
    for name, build in corpus.BICATEGORIES.items():
        b = build()
        pairs = [(d, c) for c in b.two_cells() for d in b.two_cells()
                 if b.home2(d)[0] == b.home2(c)[1]]
        assert len(pairs) == len(b.hcomp_table), name
        for d, c in pairs:
            assert b.hcomp_table[(d, c)] == b.hcomp(d, c), (name, d, c)
        assert len(b.one_cells()) == len(b.id2_table), name
        for f in b.one_cells():
            assert b.id2_table[f] == b.id2(f), (name, f)


def test_strictness_flags():
    assert corpus.walking_arrow().is_strict()
    assert corpus.ordinal(2).is_strict()
    assert corpus.sigma_idem().is_strict()
    assert corpus.sigma_z2().is_strict()
    assert not corpus.cocycle_twisted().is_strict()
    assert not corpus.codiscrete3().is_strict()


def _criterion_1_corruptions():
    """The ten Z/2 twist corruptions of acceptance criterion 1, in its order."""
    sites = [t for t in itertools.product((0, 1), repeat=3) if t != (1, 1, 1)]
    for base, site in [({}, s) for s in sites] + [({(1, 1, 1): 1}, s) for s in sites[:3]]:
        twist = dict(base)
        twist[site] = 1 - twist.get(site, 0)
        yield corpus.z2_twist_instance("corrupt", twist)


def _is_identity(b, c):
    """Whether the 2-cell c is an identity, by the expression that
    `identity_cells` replaces."""
    return b.src2(c) == b.tgt2(c) and c == b.id2(b.src2(c))


def test_identity_cells_are_the_two_cells_equal_to_the_identity_on_their_source():
    bics = [build() for build in corpus.BICATEGORIES.values()] + list(_criterion_1_corruptions())
    assert len(bics) == len(corpus.BICATEGORIES) + 10
    for b in bics:
        for c in b.two_cells():
            assert (c in b.identity_cells) == _is_identity(b, c), (b.name, c)
        assert b.identity_cells == frozenset(b.id2_table.values()), b.name
        coherence = [*b.associator.values(), *b.left_unitor.values(),
                     *b.right_unitor.values()]
        assert b.is_strict() == all(_is_identity(b, c) for c in coherence), b.name


def test_is_strict_reads_the_coherence_tables_as_they_are_now():
    b = corpus.sigma_idem()
    assert b.is_strict()
    kept = b.associator[("s", "s", "s")]
    b.associator[("s", "s", "s")] = "k"
    assert not b.is_strict()
    b.associator[("s", "s", "s")] = kept
    assert b.is_strict()
    b.right_unitor["s"] = "k"
    assert not b.is_strict()


def test_is_strict_is_false_on_a_coherence_cell_that_is_no_two_cell():
    b = corpus.walking_arrow()
    b.associator[next(iter(b.associator))] = "no such cell"
    assert not b.is_strict()


def test_ordinal_composition():
    b = corpus.ordinal(2)
    assert b.compose1(("le", 1, 2), ("le", 0, 1)) == ("le", 0, 2)
    with pytest.raises(ValueError):
        b.compose1(("le", 0, 1), ("le", 1, 2))


# Two law failures of one kind, in a report that lists nothing else: their
# order pins the order in which validate_bicategory walks that law.

def test_triangle_failures_come_in_order_of_the_later_cell():
    b = corpus.cocycle_twisted()
    b.left_unitor[0] = b.right_unitor[0] = (0, 1)  # the two flips cancel at (0, 0)
    assert [str(v) for v in validate_bicategory(b).violations] == [
        "[triangle] triangle fails at (0, 1)", "[triangle] triangle fails at (1, 0)"]


def test_associator_naturality_failures_come_triple_by_triple_then_slot_by_slot():
    b = corpus.cocycle_trivial()
    # swap the composites of (0, 1) beside the two 2-cells on 1; composition
    # stays a functor
    mm = b.comp[("*", "*", "*")].morphism_map
    mm[((0, 1), (1, 0))], mm[((0, 1), (1, 1))] = mm[((0, 1), (1, 1))], mm[((0, 1), (1, 0))]
    assert [str(v) for v in validate_bicategory(b).violations] == [
        "[associator-naturality] associator is not natural in the middle slot at (1, 0, 1) "
        "under (0, 1)",
        "[associator-naturality] associator is not natural in the later slot at (0, 1, 1) "
        "under (0, 1)",
        "[associator-naturality] associator is not natural in the later slot at (1, 1, 1) "
        "under (1, 1)",
        "[associator-naturality] associator is not natural in the middle slot at (1, 1, 1) "
        "under (1, 1)"]


def test_coherence_cell_failures_come_cell_by_cell_each_at_its_first_failing_check():
    """Two associators set to k: at (s, s, s) it has the right ends and no
    inverse, at (u, u, u) the wrong ends.  Each is reported once, at its
    first failing check, in the order of the triples."""
    b = corpus.sigma_idem()
    b.associator[("s", "s", "s")] = b.associator[("u", "u", "u")] = "k"
    assert [str(v) for v in validate_bicategory(b).violations] == [
        "[associator-not-invertible] associator at ('s', 's', 's') has no inverse",
        "[associator-endpoints] associator at ('u', 'u', 'u') must run (h.g).f => h.(g.f)"]


def test_magma3_is_not_associative():
    m = corpus.magma3()
    assert not m.is_associative()
    assert m.associativity_failure() == ("a", "a", "a")


def test_codiscrete_requires_unit_basepoint():
    m = corpus.magma3()
    with pytest.raises(ValueError):
        codiscrete_bicategory("bad", Magma(m.elements, m.table, "a"))


def test_strict_builder_rejects_nonassociative_composition():
    m = corpus.magma3()
    hom = corpus.hom_category("m3", m.elements)

    def comp1(g, f):
        return m.table[(g, f)]

    def comp2(d, c):
        return ("i", comp1(d[1], c[1]))

    with pytest.raises(ValueError, match="associative"):
        strict_bicategory("bad", ["*"], {("*", "*"): hom}, {"*": "e"},
                          comp1, comp2)


def test_twist_corruption_yields_pentagon_witness():
    sites = [t for t in itertools.product((0, 1), repeat=3) if t != (1, 1, 1)]
    base = {(1, 1, 1): 1}
    for site in sites:
        twist = dict(base)
        twist[site] = 1 - twist.get(site, 0)
        rep = validate_bicategory(corpus.z2_twist_instance("corrupt", twist))
        kinds = {v.kind for v in rep.violations}
        assert "pentagon" in kinds, f"site {site}: {rep.summary()}"
        wit = rep.first("pentagon")
        assert wit is not None and len(wit.witness) == 4


def test_twist_flip_at_top_site_stays_valid():
    # flipping the all-ones site turns the trivial twist into the classical
    # non-trivial one, which is still a valid structure
    rep = validate_bicategory(corpus.z2_twist_instance("flip", {(1, 1, 1): 1}))
    assert rep.ok


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(0, 1)] * 8))
def test_twist_validity_matches_direct_arithmetic(bits):
    triples = sorted(itertools.product((0, 1), repeat=3))
    twist = dict(zip(triples, bits))
    rep = validate_bicategory(corpus.z2_twist_instance("rand", twist))
    assert rep.ok == brute_z2_twist_ok(twist, n=2)


def _z3_twists(rng, count):
    """Seeded Z/3 twist tables of three sorts in turn: a cocycle class
    (a * x * carry(y + z)) plus the coboundary of a random normalised
    2-cochain, which is valid; the same with one entry moved, which may not
    be; and a random table, which rarely is."""
    els = range(3)
    triples = list(itertools.product(els, repeat=3))
    for i in range(count):
        beta = {(x, y): rng.randrange(3) if x and y else 0 for x in els for y in els}
        a = rng.randrange(3)
        twist = {(x, y, z): (a * x * ((y + z) // 3) + beta[(y, z)] - beta[((x + y) % 3, z)]
                             + beta[(x, (y + z) % 3)] - beta[(x, y)]) % 3
                 for x, y, z in triples}
        if i % 3 == 1:
            site = rng.choice(triples)
            twist[site] = (twist[site] + rng.randrange(1, 3)) % 3
        elif i % 3 == 2:
            twist = {t: rng.randrange(3) for t in triples}
        yield twist


def test_z3_twist_validity_matches_direct_arithmetic():
    op = {(x, y): (x + y) % 3 for x in range(3) for y in range(3)}
    verdicts = []
    for twist in _z3_twists(random.Random(20071130), 60):
        b = cocycle_bicategory("z3", [0, 1, 2], op, 0, [0, 1, 2], dict(op), 0, twist)
        verdicts.append(brute_z2_twist_ok(twist, n=3))
        assert validate_bicategory(b).ok == verdicts[-1], twist
    assert sum(verdicts) >= len(verdicts) / 3
    assert not all(verdicts)


def coherence_tables(b):
    """Every (associator, left unitor, right unitor) table on b's cells and
    composition: the leaves of the search over its declaration, run on b
    with its coherence tables emptied."""
    b.associator, b.left_unitor, b.right_unitor = {}, {}, {}
    plan = compile_plan(coherence_variables(b), bicategory_laws(b))
    return [(dict(b.associator), dict(b.left_unitor), dict(b.right_unitor))
            for _ in run(plan, b)]


def test_the_coherence_search_on_z2_finds_the_twists_the_oracle_accepts():
    """The coherence tables of the Z/2 delooping with Z/2 coefficients: 16,
    of which 2 have identity unitors, and the twists of those 2 are the
    tables among all 256 that `brute_z2_twist_ok` accepts."""
    op = {(x, y): (x + y) % 2 for x in (0, 1) for y in (0, 1)}
    b = cocycle_bicategory("z2", [0, 1], op, 0, [0, 1], dict(op), 0, {})
    tables = coherence_tables(b)
    assert len(tables) == 16
    identities = {f: b.id2(f) for f in b.one_cells()}
    twists = [{t: cell[1] for t, cell in assoc.items()}
              for assoc, left, right in tables if left == right == identities]
    triples = sorted(itertools.product((0, 1), repeat=3))
    accepted = [twist for twist in (dict(zip(triples, bits))
                                    for bits in itertools.product((0, 1), repeat=8))
                if brute_z2_twist_ok(twist, n=2)]
    assert len(twists) == 2
    assert sorted(map(sorted, map(dict.items, twists))) == \
        sorted(map(sorted, map(dict.items, accepted)))

def test_middle_four_interchange():
    for b in (corpus.sigma_idem(), corpus.cocycle_twisted()):
        for d1 in b.two_cells():
            for c1 in b.two_cells():
                if b.home2(c1)[1] != b.home2(d1)[0]:
                    continue
                for d2 in b.two_cells():
                    if b.src2(d2) != b.tgt2(d1):
                        continue
                    for c2 in b.two_cells():
                        if b.src2(c2) != b.tgt2(c1):
                            continue
                        lhs = b.vcomp(b.hcomp(d2, c2), b.hcomp(d1, c1))
                        rhs = b.hcomp(b.vcomp(d2, d1), b.vcomp(c2, c1))
                        assert lhs == rhs


def test_horizontal_composite_factors_through_whiskers():
    for b in (corpus.sigma_idem(), corpus.walking_two_cell()):
        for d in b.two_cells():
            for c in b.two_cells():
                if b.home2(c)[1] != b.home2(d)[0]:
                    continue
                both = b.hcomp(d, c)
                late_first = b.vcomp(b.whisker_right(d, b.tgt2(c)),
                                     b.whisker_left(b.src2(d), c))
                early_first = b.vcomp(b.whisker_left(b.tgt2(d), c),
                                      b.whisker_right(d, b.src2(c)))
                assert both == late_first == early_first


def test_unitor_corruption_detected():
    b = corpus.parallel_pair()
    b.left_unitor["p"] = b.id2("q")
    rep = validate_bicategory(b)
    assert not rep.ok
    assert rep.first("left-unitor-endpoints") is not None


def test_noninvertible_associator_detected():
    b = corpus.sigma_idem()
    b.associator[("s", "s", "s")] = "k"
    rep = validate_bicategory(b)
    assert not rep.ok
    assert rep.first("associator-not-invertible") is not None


def test_cell_id_clash_detected():
    b = corpus.parallel_pair()
    b.homs[("a", "b")] = corpus.hom_category("pp-ab", ["p", "1a"])
    rep = validate_bicategory(b)
    assert not rep.ok
    assert rep.first("1-cell-clash") is not None
    assert rep.structural_failure


def test_missing_hom_detected():
    b = corpus.walking_arrow()
    del b.homs[(0, 1)]
    rep = validate_bicategory(b)
    assert rep.first("missing-hom") is not None


# ---------------------------------------------------------------------------
# composition functors, checked from their two homs

def _listing(fun, variables, laws):
    """A listing of a functor's variables and laws as plain values, with each
    domain and law evaluated on `fun`."""
    return ([(field, key, reads, tuple(domain(fun)), cells, checks)
             for field, key, reads, domain, cells, checks in variables],
            [(holds(fun, *cells), cells, reads, kind, message)
             for holds, cells, reads, kind, message in laws])


def test_the_composition_listing_is_the_functor_listing_over_the_product():
    """At every triple of objects of every corpus bicategory and search
    input, the variables and law instances read off hom(y, z) and hom(x, y)
    are those listed over their product, entry for entry and in order."""
    bicats = {name: build() for name, build in sorted(corpus.BICATEGORIES.items())}
    bicats.update(search_inputs())
    count = 0
    for name, b in bicats.items():
        for x, y, z in itertools.product(b.sorted_objects, repeat=3):
            left, right, target = b.homs[(y, z)], b.homs[(x, y)], b.homs[(x, z)]
            eager = eager_product_category(left, right)
            stored = b.comp[(x, y, z)]
            fun = Functor(stored.name, (left, right), target, stored.object_map,
                          stored.morphism_map)
            mine = _listing(fun, bifunctor_variables(left, right),
                            bifunctor_laws(left, right))
            assert mine == _listing(fun, functor_variables(eager),
                                    functor_laws(eager)), (name, x, y, z)
            count += 1
    assert count > 100


_DROP = object()


def _comp_edits(b, key):
    """(field, cell, value) edits of b.comp[key], each corrupting one entry:
    an object image dropped, dangling, or moved to another object; a
    morphism image dropped, dangling, or moved to one with other endpoints;
    and the first and the last morphism image that has a parallel one
    moved to it."""
    fun, target = b.comp[key], b.homs[(key[0], key[2])]
    omap, mmap = fun.object_map, fun.morphism_map
    a = sorted_ids(omap)[len(omap) // 2]
    m = sorted_ids(mmap)[len(mmap) // 2]
    yield "object_map", a, _DROP
    yield "object_map", a, "nowhere"
    yield from (("object_map", a, o) for o in target.sorted_objects[:2] if o != omap[a])
    yield "morphism_map", m, _DROP
    yield "morphism_map", m, "nowhere"
    ends = target.morphisms[mmap[m]]
    yield from [("morphism_map", m, n) for n in target.sorted_morphisms
                if target.morphisms[n] != ends][:1]
    parallel = [("morphism_map", m, n) for m in sorted_ids(mmap)
                for n in target.hom(*target.morphisms[mmap[m]]) if n != mmap[m]]
    yield from parallel[:1] + parallel[-1:]


def _product_comp_report(b):
    """The [comp: violations as they are found by `validate_functor` on each
    composition functor, given the product of its two homs as source."""
    rep = ValidationReport(b.name)
    for key in itertools.product(b.sorted_objects, repeat=3):
        x, y, z = key
        fun = b.comp[key]
        rebuilt = Functor(f"comp{key!r}", eager_product_category(b.homs[(y, z)], b.homs[(x, y)]),
                          b.homs[(x, z)], fun.object_map, fun.morphism_map)
        rep.include(validate_functor(rebuilt), "comp:", f"comp{key!r}: ")
    return rep.violations


def test_composition_violations_are_those_of_the_functor_out_of_the_product():
    """For one corrupted entry of a composition functor of each corpus
    bicategory, `validate_bicategory` reports the [comp: violations that
    `validate_functor` finds over the product of the two homs."""
    kinds = set()
    for name, build in sorted(corpus.BICATEGORIES.items()):
        b = build()
        key = max(itertools.product(b.sorted_objects, repeat=3),
                  key=lambda k: len(b.comp[k].morphism_map))
        for field, cell, value in _comp_edits(b, key):
            b = build()
            table = getattr(b.comp[key], field)
            if value is _DROP:
                del table[cell]
            else:
                table[cell] = value
            found = [v for v in validate_bicategory(b).violations if v.kind.startswith("comp:")]
            assert found == _product_comp_report(b), (name, field, cell, value)
            kinds.update(v.kind for v in found)
    assert kinds == {"comp:missing-object-image", "comp:dangling-object-image",
                     "comp:missing-morphism-image", "comp:dangling-morphism-image",
                     "comp:endpoints", "comp:identity", "comp:composition"}


def test_separately_built_bicategories_are_equal_until_a_hom_table_is_edited():
    """`==` on bicategories, which composing lax functors reads through
    `f.target != g.source`, holds between two builds of each corpus
    bicategory and fails once one hom table of one of them is edited."""
    for name, build in sorted(corpus.BICATEGORIES.items()):
        b, c = build(), build()
        assert b == c and not b != c, name
        table = next(c.homs[pair].table for pair in c.sorted_homs if c.homs[pair].table)
        table[next(iter(table))] = "edited"
        assert b != c and not b == c, name
