"""The backtracking search kernel and the enumerators declared on it.

Every enumerator must return exactly what the generate-and-test loops in
`reference_enumerators` return: the same structures (dataclass equality, so
names and maps too) in the same order, because the seeded samplers of the
acceptance suite index into these lists.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_enumerators as ref
from bicatkit import corpus
from bicatkit.acceptance import BATTERY_BASES, _law_universe
from bicatkit.bicat import Magma, codiscrete_bicategory, from_category
from bicatkit.catcore import FiniteCategory, enumerate_functors, enumerate_nats
from bicatkit.icon import enumerate_icons
from bicatkit.laxfun import enumerate_lax_functors, enumerate_two_functors
from bicatkit.nerve import enumerate_simplices, ordinal_as_bicategory
from bicatkit.oplax import DEFAULT_BATTERY_TARGET_NAMES, enumerate_oplax
from bicatkit.search import search


# ---------------------------------------------------------------------------
# the kernel

def test_search_runs_in_lexicographic_order_of_the_variables():
    slot = {}
    variables = [(slot, "x", (), lambda: [2, 0, 1]),
                 (slot, "y", (), lambda: "ba")]
    got = [dict(slot) for _ in search(variables)]
    assert got == [{"x": x, "y": y} for x in [2, 0, 1] for y in "ba"]


def test_search_prunes_on_constraints_and_empty_domains():
    slot, calls = {}, []

    def below_x():
        calls.append(slot["x"])
        return list(range(slot["x"]))

    variables = [(slot, "x", (), lambda: [0, 1, 2, 3]),
                 (slot, "y", ((slot, "x"),), below_x),
                 (slot, "z", (), lambda: [0, 1])]
    laws = [(((slot, "x"),), lambda: slot["x"] != 2),
            (((slot, "y"), (slot, "z")), lambda: slot["y"] + slot["z"] != 1)]
    got = [(slot["x"], slot["y"], slot["z"]) for _ in search(variables, laws)]
    assert got == [(1, 0, 0), (3, 0, 0), (3, 1, 1), (3, 2, 0), (3, 2, 1)]
    # each domain is computed once per binding of what it reads, and never
    # for a value a constraint on x has already refused
    assert calls == [0, 1, 3]


def test_search_with_no_variables_yields_once():
    assert len(list(search([]))) == 1
    assert list(search([], [((), lambda: False)])) == []


# ---------------------------------------------------------------------------
# reference equality over the corpus

def test_lax_functors_and_icons_of_the_law_universe():
    bics, fams, icons = _law_universe()
    assert len(fams) == 121
    for (s, t), funs in fams.items():
        assert funs == list(ref.enumerate_lax_functors(bics[s], bics[t])), (s, t)
        by_pair = {}
        for i, j, ic in icons[(s, t)]:
            by_pair.setdefault((i, j), []).append(ic)
        for i, f in enumerate(funs):
            for j, g in enumerate(funs):
                assert by_pair.get((i, j), []) == list(ref.enumerate_icons(f, g))


def _strict_corpus():
    return [b for b in (corpus.get("bicategory", name) for name in sorted(corpus.BICATEGORIES))
            if b.is_strict()]


def test_two_functors_between_strict_corpus_structures_and_ordinals():
    pairs = [(s, t) for s in _strict_corpus() for t in _strict_corpus()]
    pairs += [(ordinal_as_bicategory(m), ordinal_as_bicategory(n))
              for m in range(4) for n in range(4)]
    for s, t in pairs:
        assert list(enumerate_two_functors(s, t)) == \
            list(ref.enumerate_two_functors(s, t)), (s.name, t.name)


def test_functors_and_nats_between_corpus_hom_categories():
    cats = [h for name in sorted(corpus.BICATEGORIES)
            for h in corpus.get("bicategory", name).homs.values()]
    checked = 0
    for s in cats:
        for t in cats:
            funs = list(enumerate_functors(s, t))
            assert funs == list(ref.enumerate_functors(s, t)), (s.name, t.name)
            for f in funs[:6]:
                for g in funs[:6]:
                    assert list(enumerate_nats(f, g)) == list(ref.enumerate_nats(f, g))
                    checked += 1
    assert checked > 1000


@pytest.mark.parametrize("name", ["ordinal-2", "walking-two-cell", "cocycle-twisted",
                                  "sigma-idem"])
def test_simplices(name):
    b = corpus.get("bicategory", name)
    for k in range(4):
        assert list(enumerate_simplices(b, k)) == list(ref.enumerate_simplices(b, k))


def test_oplax_over_the_battery_pairs():
    """Every pair of strict functors from each strict corpus structure with
    at most three objects (the battery bases among them) into each battery
    target."""
    bases = [b for b in _strict_corpus() if len(b.objects) <= 3]
    assert set(BATTERY_BASES) <= {b.name for b in bases}
    found = 0
    for b in bases:
        for name in DEFAULT_BATTERY_TARGET_NAMES:
            funs = list(enumerate_two_functors(b, corpus.get("bicategory", name)))
            for h in funs:
                for k in funs:
                    got = list(enumerate_oplax(h, k))
                    assert got == list(ref.enumerate_oplax(h, k)), (b.name, name)
                    found += len(got)
    assert found > 500


# ---------------------------------------------------------------------------
# differential tests on generated posets and magmas

@st.composite
def posets(draw, max_size=4):
    """A random partial order on 0..n-1 (n <= max_size), with i <= j only if
    i <= j as integers: the transitive closure of random covering pairs."""
    n = draw(st.integers(1, max_size))
    leq = {(i, i) for i in range(n)}
    leq |= {p for p in itertools.combinations(range(n), 2) if draw(st.booleans())}
    while True:
        more = {(a, d) for a, b in leq for c, d in leq if b == c} - leq
        if not more:
            return n, leq
        leq |= more


def poset_bicategory(p, name):
    n, leq = p
    cat = FiniteCategory(
        name, list(range(n)), {("le", a, b): (a, b) for a, b in sorted(leq)},
        {a: ("le", a, a) for a in range(n)},
        {(("le", a, b), ("le", b, d)): ("le", a, d)
         for a, b in leq for c, d in leq if b == c})
    return from_category(cat, name)


@st.composite
def magmas(draw):
    """A random 2- or 3-element magma with two-sided unit 0."""
    elements = list(range(draw(st.integers(2, 3))))
    table = {(x, y): x + y if 0 in (x, y) else draw(st.sampled_from(elements))
             for x in elements for y in elements}
    return Magma(elements, table, 0)


def monotone_maps(p, q):
    (n, leq), (m, leq2) = p, q
    return sum(all((phi[a], phi[b]) in leq2 for a, b in leq)
               for phi in itertools.product(range(m), repeat=n))


def _agrees_with_reference(s, t):
    funs = list(enumerate_lax_functors(s, t))
    assert funs == list(ref.enumerate_lax_functors(s, t))
    assert list(enumerate_two_functors(s, t)) == list(ref.enumerate_two_functors(s, t))
    for f in funs[:16]:
        for g in funs[:16]:
            assert list(enumerate_icons(f, g)) == list(ref.enumerate_icons(f, g))
    return funs


@settings(max_examples=60, deadline=None)
@given(posets(), posets())
def test_poset_lax_functors_are_the_monotone_maps(p, q):
    funs = _agrees_with_reference(poset_bicategory(p, "P"), poset_bicategory(q, "Q"))
    assert len(funs) == monotone_maps(p, q)


@settings(max_examples=40, deadline=None)
@given(st.one_of(posets(max_size=3), magmas()), st.one_of(posets(), magmas()))
def test_posets_and_codiscrete_magmas(source, target):
    """Posets feeding a codiscrete target have at most three elements: the
    reference loops try every labelling of the relations by the magma."""
    def build(x, name):
        if isinstance(x, Magma):
            return codiscrete_bicategory(name, x)
        return poset_bicategory(x, name)

    _agrees_with_reference(build(source, "S"), build(target, "T"))
