"""The backtracking search kernel and the enumerators declared on it.

Every enumerator must return exactly what the generate-and-test loops in
`reference_enumerators` return: the same structures (dataclass equality, so
names and maps too) in the same order, because the seeded samplers of the
acceptance suite index into these lists.  The enumerators validate none of
their results, so the corpus tests also run the full validator on each.
"""

import collections
import copy
import gc
import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_enumerators as ref
from law_universe import universe_icons
from search_inputs import search_inputs
from bicatkit import corpus
from bicatkit.acceptance import BATTERY_BASES, _law_universe
from bicatkit.bicat import (Magma, bicategory_laws, codiscrete_bicategory, coherence_variables,
                            from_category)
from bicatkit.catcore import (FiniteCategory, category_laws, category_variables,
                              enumerate_functors, enumerate_nats)
from bicatkit import icon, laxfun, nerve
from bicatkit.icon import enumerate_icons, validate_icon, validate_icon_pair
from bicatkit.laxfun import (comparison_cells, enumerate_lax_functors, enumerate_two_functors,
                             lax_laws, lax_variables, unit_cells, validate_lax_functor)
from bicatkit.nerve import (enumerate_simplices, ordinal_as_bicategory, ordinal_map_functor,
                            two_nerve, validate_simplex)
from bicatkit.oplax import (DEFAULT_BATTERY_TARGET_NAMES, enumerate_oplax, oplax_plan,
                            validate_oplax)
from bicatkit.report import ValidationReport
from bicatkit.search import compile_plan, run


# ---------------------------------------------------------------------------
# the kernel

def _draft():
    """A fresh subject with one dict field, as a search fills it in."""
    return SimpleNamespace(slot={})


def test_search_runs_in_lexicographic_order_of_the_variables():
    """The same on each of two fresh subjects run on one compiled plan."""
    plan = compile_plan([("slot", "x", (), lambda _: [2, 0, 1]),
                         ("slot", "y", (), lambda _: "ba")])
    want = [{"x": x, "y": y} for x in [2, 0, 1] for y in "ba"]
    for draft in (_draft(), _draft()):
        assert [dict(draft.slot) for _ in run(plan, draft)] == want


def test_search_prunes_on_constraints_and_empty_domains():
    """The same bindings and the same domain calls on each of two runs of
    one compiled plan, each on a fresh subject."""
    calls = []

    def below_x(draft):
        calls.append(draft.slot["x"])
        return list(range(draft.slot["x"]))

    plan = compile_plan(
        [("slot", "x", (), lambda _: [0, 1, 2, 3]),
         ("slot", "y", (("slot", "x"),), below_x),
         ("slot", "z", (), lambda _: [0, 1])],
        [(lambda draft: draft.slot["x"] != 2, (), (("slot", "x"),), "x", "x is 2"),
         (lambda draft, total: draft.slot["y"] + draft.slot["z"] != total, (1,),
          (("slot", "y"), ("slot", "z")), "sum", "y + z is {}")])
    want = [(1, 0, 0), (3, 0, 0), (3, 1, 1), (3, 2, 0), (3, 2, 1)]
    for draft in (_draft(), _draft()):
        assert [(draft.slot["x"], draft.slot["y"], draft.slot["z"])
                for _ in run(plan, draft)] == want
    # each domain is computed once per binding of what it reads, and never
    # for a value a constraint on x has already refused, on each run
    assert calls == [0, 1, 3] * 2


def test_search_with_no_variables_yields_once():
    assert len(list(run(compile_plan([]), _draft()))) == 1
    never = (lambda draft: False, (), (), "never", "never holds")
    assert list(run(compile_plan([], [never]), _draft())) == []


def test_a_compiled_plan_runs_on_fresh_slots_each_time():
    """Two runs of one plan advanced in alternation keep their bindings
    apart, each in the fields of its own subject."""
    plan = compile_plan([("slot", "x", (), lambda _: [0, 1]), ("slot", "y", (), lambda _: "ab")],
                        [(lambda draft: draft.slot["y"] != "ab"[draft.slot["x"]], (),
                          (("slot", "x"), ("slot", "y")), "diagonal", "y is the x-th letter")])
    first, second = _draft(), _draft()
    a, b = run(plan, first), run(plan, second)
    seen = []
    for _ in range(2):
        next(a)
        seen.append(dict(first.slot))
        next(b)
        seen.append(dict(second.slot))
    assert seen == [{"x": 0, "y": "b"}, {"x": 0, "y": "b"},
                    {"x": 1, "y": "a"}, {"x": 1, "y": "a"}]


def _cyclic_garbage(action):
    """The number of objects that `action` leaves to the cyclic collector,
    counted with the collector off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        action()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def test_runs_free_their_state_when_they_end_or_are_closed():
    """A finished 2-nerve, an exhausted icon search and a run dropped after
    its first leaf leave nothing for the cyclic collector: each run's
    draft, domains and closures are freed when it ends or is closed."""
    b = corpus.get("bicategory", "ordinal-2")
    f = laxfun.identity_lax(b)
    plan = compile_plan([("slot", "x", (), lambda _: [0, 1]), ("slot", "y", (), lambda _: "ab")])
    assert _cyclic_garbage(lambda: two_nerve(b, 3)) == 0
    assert _cyclic_garbage(lambda: list(enumerate_icons(f, f))) == 0
    assert _cyclic_garbage(lambda: next(run(plan, _draft()))) == 0
    assert _cyclic_garbage(lambda: next(enumerate_lax_functors(b, b))) == 0


# A declared slot: its value must lie in 0..9 (else dangling) and in the
# variable's domain (else outside).  Its cells, the witness that the
# messages name, are the key written twice.
_CHECKS = (("missing", "no value at {!r}"), lambda draft, c: range(10),
           ("dangling", "value at {!r} is not a digit"),
           ("outside", "value at {0!r} is not in the domain of {0!r}", False))


def _declared(key, domain, checks=_CHECKS):
    return ("slot", key, (), lambda draft: domain, (key * 2,), checks)


def test_check_values_reports_the_first_failing_check_in_listing_order():
    """missing before dangling before outside, each once per variable, in
    the order of the listing, not of the subject's dict."""
    variables = [_declared("d", [1]), _declared("c", [1]), _declared("b", [1]),
                 _declared("a", [1])]
    draft = SimpleNamespace(slot={"a": 1, "b": 2, "c": 11})  # "d" has no value
    rep = ValidationReport("draft")
    rep.check_values(draft, variables)
    assert [(v.kind, v.witness, v.structural) for v in rep.violations] == [
        ("missing", ("dd",), True), ("dangling", ("cc",), True), ("outside", ("bb",), False)]
    assert [v.message for v in rep.violations] == [
        "no value at 'dd'", "value at 'cc' is not a digit",
        "value at 'bb' is not in the domain of 'bb'"]


def test_check_values_without_domains_skips_the_outside_check():
    draft = SimpleNamespace(slot={"a": 2})
    rep = ValidationReport("draft")
    rep.check_values(draft, [_declared("a", [1]), _declared("b", [1])], domains=False)
    assert [(v.kind, v.witness) for v in rep.violations] == [("missing", ("bb",))]


def test_check_values_counts_only_an_absent_key_as_missing():
    """Ids may be None, so a None value is checked like any value: it
    passes where the cells hold None and dangles where they do not."""
    holds_none = (_CHECKS[0], lambda draft, c: {None}, *_CHECKS[2:])
    draft = SimpleNamespace(slot={"a": None, "b": None})
    rep = ValidationReport("draft")
    rep.check_values(draft, [_declared("a", [None]), _declared("b", [None], holds_none),
                             _declared("c", [None], holds_none)])
    assert [(v.kind, v.witness) for v in rep.violations] == [("dangling", ("aa",)),
                                                             ("missing", ("cc",))]


# ---------------------------------------------------------------------------
# the stage at which each law and domain runs

class _Logged(dict):
    """A dict field of a subject that logs each key looked up in it as
    ``(field, key)``; reading the whole field is refused, since no stage
    could be given to it."""

    def __init__(self, field, entries, log):
        super().__init__(entries)
        self.field, self.log = field, log

    def __getitem__(self, key):
        self.log.append((self.field, key))
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.log.append((self.field, key))
        return super().get(key, default)

    def __contains__(self, key):
        self.log.append((self.field, key))
        return super().__contains__(key)

    def _whole(self, *_):
        raise AssertionError(f"{self.field} read whole")

    __iter__ = keys = values = items = _whole


def _late_reads(plan, subject):
    """Each entry that a law or a domain of `plan`, run on a copy of the
    complete `subject` whose variable fields log their reads, reads and
    that is bound after the stage `compile_plan` runs it at, as (the law's
    cells or the domain's variable, stage, entry); a domain run at or after
    its own variable's binding is listed with the variable as its entry.
    The variable at position i is bound at stage i + 1."""
    log, late = [], []
    logged = copy.copy(subject)
    for field in {field for field, _, _ in plan.variables}:
        setattr(logged, field, _Logged(field, getattr(subject, field), log))
    bound = {(field, key): i + 1 for i, (field, key, _) in enumerate(plan.variables)}
    for step, checks in enumerate(plan.checks):
        for holds, cells in checks:
            log.clear()
            assert holds(logged, *cells), cells
            late += [(cells, step, entry) for entry in log if bound[entry] > step]
    for step, opens in enumerate(plan.opens):
        for i in opens:
            field, key, domain = plan.variables[i]
            log.clear()
            assert domain(logged), (field, key)
            late += [((field, key), step, entry) for entry in log if bound[entry] > step]
            if step > i:
                late.append(((field, key), step, (field, key)))
    return late


def _corpus_plans():
    """(label, plan, subject): each hom category of each corpus bicategory
    under the category listing and the bicategory under the coherence
    listing, then each corpus lax functor, icon and oplax transformation
    under the listing its enumerator searches."""
    for name in sorted(corpus.BICATEGORIES):
        b = corpus.get("bicategory", name)
        for pair in b.sorted_homs:
            c = b.homs[pair]
            yield (f"category {name} {pair}",
                   compile_plan(category_variables(c), category_laws(c)), c)
        yield f"coherence {name}", compile_plan(coherence_variables(b), bicategory_laws(b)), b
    for name in sorted(corpus.LAX_FUNCTORS):
        f = corpus.get("laxfunctor", name)
        variables = lax_variables(f.source, f.target, comparison_cells, unit_cells)
        yield f"lax {name}", compile_plan(variables, lax_laws(f.source)), f
    for name in sorted(corpus.ICONS):
        ic = corpus.get("icon", name)
        yield f"icon {name}", ic.source.source.icon_plan.search, ic
    for name in sorted(corpus.OPLAX):
        u = corpus.get("oplax", name)
        yield f"oplax {name}", oplax_plan(u.source.source), u


def test_every_read_is_bound_by_the_stage_it_runs_at():
    """A search checks each law at the stage of the last entry its
    ``reads`` lists, and computes each domain at the stage of the last of
    its own.  An entry it reads but does not list, bound later, would hold
    a stale value there, one an earlier branch left on the draft.  So each
    entry each law and domain of the category, coherence, lax, icon and
    oplax listings actually reads, on the corpus structures, is bound by
    then, and each domain is computed before its variable is bound."""
    labels = collections.Counter()
    for label, plan, subject in _corpus_plans():
        assert _late_reads(plan, subject) == [], label
        labels[label.split()[0]] += 1
    assert labels == {"category": 57, "coherence": 14, "lax": 10, "icon": 4, "oplax": 6}


# ---------------------------------------------------------------------------
# reference equality over the corpus

def test_lax_functors_and_icons_of_the_law_universe():
    """Each family's lax functors, and its icons rebuilt as the Icons
    `enumerate_icons` yields, against the reference enumerators."""
    bics, fams, icons = universe_icons()
    assert len(fams) == 121
    for (s, t), funs in fams.items():
        assert all(validate_lax_functor(f).ok for f in funs), (s, t)
        assert all(validate_icon(ic).ok for _, _, ic in icons[(s, t)]), (s, t)
        assert funs == list(ref.enumerate_lax_functors(bics[s], bics[t])), (s, t)
        by_pair = {}
        for i, j, ic in icons[(s, t)]:
            by_pair.setdefault((i, j), []).append(ic)
        for i, f in enumerate(funs):
            for j, g in enumerate(funs):
                assert by_pair.get((i, j), []) == list(ref.enumerate_icons(f, g))


def test_icon_plan_is_compiled_once_per_source(monkeypatch):
    """Every pair of lax functors of a family runs the one plan cached on
    their source, which no other source shares."""
    compiled = []

    def counted(s):
        compiled.append(s.name)
        return real(s)

    real = icon.icon_plan
    monkeypatch.setattr(icon, "icon_plan", counted)
    s, t = corpus.get("bicategory", "parallel-pair"), corpus.get("bicategory", "cocycle-twisted")
    funs = list(enumerate_lax_functors(s, t))
    found = sum(len(list(enumerate_icons(f, g))) for f in funs for g in funs)
    assert (len(funs), found) == (16, 256)
    assert compiled == ["parallel-pair"]
    plan = s.icon_plan
    assert plan is s.icon_plan
    assert corpus.get("bicategory", "parallel-pair").icon_plan is not plan
    assert compiled == ["parallel-pair"] * 2


def test_icon_cells_are_the_cells_of_the_enumerated_icons():
    """`icon_cells(f, g)` yields the row of each icon that the reference
    `enumerate_icons(f, g)` lists, its cells in its source's `one_cells`
    order, in its order, for every ordered pair of lax functors of the law
    universe's families with at most 81 icons."""
    bics, fams, icons = _law_universe()
    small = [key for key, fam in icons.items() if len(fam) <= 81]
    found = 0
    for key in small:
        s = bics[key[0]]
        for f in fams[key]:
            for g in fams[key]:
                rows = list(icon.icon_cells(f, g))
                assert rows == [tuple(ic.cells[x] for x in s.one_cells())
                                for ic in ref.enumerate_icons(f, g)], key
                found += len(rows)
    assert len(small) > 100
    assert found == sum(len(icons[key]) for key in small)


def test_icon_cells_of_a_failing_pair_never_read_the_plan(monkeypatch):
    """A pair that fails `validate_icon_pair` (different object maps, or a
    target with no comparisons) yields no cell table, and its source's
    `icon_plan` is not compiled; the first pair that passes compiles it."""
    compiled = []

    def counted(s):
        compiled.append(s.name)
        return real(s)

    real = icon.icon_plan
    monkeypatch.setattr(icon, "icon_plan", counted)
    s, t = corpus.get("bicategory", "walking-arrow"), corpus.get("bicategory", "walking-arrow")
    funs = list(enumerate_lax_functors(s, t))
    f = funs[0]
    g = next(g for g in funs if g.object_map != f.object_map)
    broken = laxfun.LaxFunctor("broken", s, t, f.object_map, f.hom_functors, {},
                               f.unit_constraints)
    for pair in ((f, g), (g, f), (f, broken)):
        assert not validate_icon_pair(*pair).ok
        assert list(icon.icon_cells(*pair)) == []
    assert compiled == []
    assert list(icon.icon_cells(f, f)) == [tuple(ic.cells[x] for x in s.one_cells())
                                           for ic in enumerate_icons(f, f)] != []
    assert compiled == ["walking-arrow"]


def test_every_member_of_the_law_universe_is_a_plain_dict():
    """The law universe holds each icon as its row, ``(i, j, row)``, a
    tuple with one 2-cell per 1-cell of the source, and no Icon."""
    bics, fams, icons = _law_universe()
    members = [m for fam in icons.values() for m in fam]
    assert len(members) == 23987
    for key, fam in icons.items():
        n, width = len(fams[key]), len(bics[key[0]].one_cells())
        for i, j, row in fam:
            assert type(row) is tuple and len(row) == width, key
            assert 0 <= i < n and 0 <= j < n, key


def _rebuilt_verdicts(funs):
    """For each lax functor, whether its verdict was preset, and its
    `own_violations` recomputed on a plain copy of its fields."""
    return [("own_violations" in vars(f),
             laxfun.LaxFunctor(f.name, f.source, f.target, f.object_map, f.hom_functors,
                               f.comp_constraints, f.unit_constraints).own_violations)
            for f in funs]


def test_a_preset_verdict_is_the_verdict_recomputed_on_a_rebuilt_copy(monkeypatch):
    """Every lax functor that `enumerate_lax_functors` yields, for every
    ordered pair of the law universe's bicategories and of the search
    inputs, and every simplex lax functor of `two_nerve` on every corpus
    bicategory up to truncation 2, the one `simplex_functors` hands out,
    comes with `own_violations` set, and a plain copy of it finds none."""
    _, fams, _ = _law_universe()
    inputs = search_inputs()
    funs = [f for fam in fams.values() for f in fam]
    funs += [f for s in inputs.values() for t in inputs.values()
             for f in enumerate_lax_functors(s, t)]
    simplices = []

    def recorded(b, n):
        for fun in real(b, n):
            simplices.append(fun)
            yield fun

    real = nerve.simplex_functors
    monkeypatch.setattr(nerve, "simplex_functors", recorded)
    for name in sorted(corpus.BICATEGORIES):
        two_nerve(corpus.get("bicategory", name), 2)
    assert (len(fams), len(funs), len(simplices)) == (121, 1158, 202)
    assert set(_rebuilt_verdicts(funs + simplices)) == {(True, ())}


def _count_hom_functor_searches(monkeypatch, s, t):
    """Count the calls of `laxfun.enumerate_functors` by key (a, b, x, y):
    the hom of `s` at (a, b) mapped into the hom of `t` at (x, y)."""
    homs = {id(cat): pair for b in (s, t) for pair, cat in b.homs.items()}
    assert len(homs) == len(s.homs) + len(t.homs)
    calls = collections.Counter()

    def counted(cat, tcat):
        calls[homs[id(cat)] + homs[id(tcat)]] += 1
        return enumerate_functors(cat, tcat)

    monkeypatch.setattr(laxfun, "enumerate_functors", counted)
    return calls


def test_hom_functors_are_enumerated_once_per_key_and_search(monkeypatch):
    """A search over lax functors lists the functors between two homs once
    for each (a, b, F a, F b) it reaches, and the next search lists them
    afresh; the same holds for the simplex search, and each ordinal map is
    built once per process."""
    s, t = corpus.get("bicategory", "collapsed-two-cell"), corpus.get("bicategory", "walking-two-cell")
    calls = _count_hom_functor_searches(monkeypatch, s, t)
    assert len(list(enumerate_lax_functors(s, t))) == 9
    assert len(calls) == 18 and set(calls.values()) == {1}
    assert len(list(enumerate_lax_functors(s, t))) == 9
    assert len(calls) == 18 and set(calls.values()) == {2}

    b = corpus.get("bicategory", "thickened-arrow")
    calls = _count_hom_functor_searches(monkeypatch, ordinal_as_bicategory(2), b)
    assert len(list(enumerate_simplices(b, 2))) == 10
    assert len(calls) == 18 and set(calls.values()) == {1}

    assert ordinal_map_functor((0, 0), 1) is ordinal_map_functor((0, 0), 1)


def test_icon_searches_on_one_plan_advanced_in_alternation():
    """Every pair of a family, each search advanced one icon at a time in
    turn: each finds the reference's list, and no icon found earlier has
    its cells changed by the searches that run on after it."""
    s, t = corpus.get("bicategory", "parallel-pair"), corpus.get("bicategory", "cocycle-twisted")
    funs = list(enumerate_lax_functors(s, t))
    pairs = [(f, g) for f in funs for g in funs]
    searches = [enumerate_icons(f, g) for f, g in pairs]
    found = [[] for _ in pairs]
    live = list(range(len(pairs)))
    while live:
        for i in list(live):
            ic = next(searches[i], None)
            if ic is None:
                live.remove(i)
            else:
                found[i].append((ic, dict(ic.cells)))
    assert sum(map(len, found)) == 256
    for (f, g), got in zip(pairs, found):
        assert [ic for ic, _ in got] == list(ref.enumerate_icons(f, g))
        assert all(ic.cells == cells for ic, cells in got)


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
        sims = list(enumerate_simplices(b, k))
        assert all(validate_simplex(s).ok for s in sims), (name, k)
        assert sims == list(ref.enumerate_simplices(b, k))


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
                    assert all(validate_oplax(u).ok for u in got), (b.name, name)
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
