import itertools
import pathlib

import hypothesis.strategies as st
import pytest
from hypothesis import given

from bicatkit import corpus
from bicatkit import fileformat as ff
from bicatkit.catcore import (
    FiniteCategory,
    Functor,
    NatTrans,
    category_laws,
    category_variables,
    chain_category,
    codiscrete_category,
    compose_functors,
    discrete_category,
    enumerate_functors,
    enumerate_nats,
    is_essentially_surjective,
    is_fully_faithful,
    validate_category,
    validate_functor,
    validate_nat,
)
from bicatkit.search import compile_plan, run
import reference_enumerators as ref
from reference_product import eager_product_category
from search_inputs import search_inputs

DATA = pathlib.Path(ff.__file__).parent / "data"


def terminal_category():
    return discrete_category("terminal", ["*"])


def monoid_category(name, elements, op_table, unit, obj="*"):
    """One object; morphisms are the monoid elements, composition is the monoid op.

    op_table[(x, y)] must be "x then y" in diagrammatic order, i.e. the
    categorical composite y.x.
    """
    morphisms = {x: (obj, obj) for x in elements}
    table = {(x, y): op_table[(x, y)] for x in elements for y in elements}
    return FiniteCategory(name, [obj], morphisms, {obj: unit}, table)


def identity_functor(c: FiniteCategory) -> Functor:
    return Functor(f"1_{c.name}", c, c,
                   {a: a for a in c.objects}, {f: f for f in c.morphisms})


def is_equivalence_functor(fun: Functor) -> bool:
    """Full, faithful, and essentially surjective — which, everything being
    finite, is the same as having a quasi-inverse."""
    return is_fully_faithful(fun)[0] and is_essentially_surjective(fun)[0]


def cyclic(n):
    table = {(x, y): (x + y) % n for x in range(n) for y in range(n)}
    return monoid_category(f"Z{n}", list(range(n)), table, 0)


def iso_pair():
    """Two objects connected by a pair of mutually inverse morphisms."""
    morphisms = {"1x": ("X", "X"), "1y": ("Y", "Y"), "u": ("X", "Y"), "v": ("Y", "X")}
    table = {
        ("1x", "1x"): "1x", ("1y", "1y"): "1y",
        ("1x", "u"): "u", ("u", "1y"): "u",
        ("1y", "v"): "v", ("v", "1x"): "v",
        ("u", "v"): "1x", ("v", "u"): "1y",
    }
    return FiniteCategory("isopair", ["X", "Y"], morphisms, {"X": "1x", "Y": "1y"}, table)


def test_terminal_is_valid():
    assert validate_category(terminal_category()).ok


def test_chain_is_valid():
    assert validate_category(chain_category(2)).ok


def test_codiscrete_is_valid():
    assert validate_category(codiscrete_category("c", ["a", "b", "c"])).ok


def test_cyclic_monoid_is_valid():
    assert validate_category(cyclic(3)).ok


def test_corrupted_composite_is_caught():
    c = chain_category(2)
    c.table[(("le", 0, 1), ("le", 1, 2))] = ("le", 1, 2)
    rep = validate_category(c)
    assert not rep.ok
    assert rep.first().kind == "composite-endpoints"


def test_corrupted_identity_is_caught():
    c = cyclic(3)
    c.table[(0, 1)] = 2
    rep = validate_category(c)
    assert not rep.ok
    assert any(v.kind in ("left-identity", "right-identity") for v in rep.violations)


def test_missing_composite_is_structural():
    c = chain_category(1)
    del c.table[(("le", 0, 1), ("le", 1, 1))]
    rep = validate_category(c)
    assert rep.structural_failure
    assert rep.first().kind == "missing-composite"


def test_entries_at_keys_the_category_lacks_are_refused():
    """An identity at a non-object and a composite at a pair that is not
    composable are structural, each with its key as witness, field by
    field; the laws are not checked."""
    c = chain_category(1)
    c.identity["zz"] = ("le", 0, 0)
    c.table[(("le", 0, 1), ("le", 0, 1))] = ("le", 0, 1)
    assert [(v.kind, v.witness, v.structural) for v in validate_category(c).violations] == [
        ("spurious-identity", ("zz",), True),
        ("spurious-table", ((("le", 0, 1), ("le", 0, 1)),), True)]


def _brute_monoids(n):
    """Every (identity, table) on the one-object graph with morphisms
    0..n-1 that makes it a category, i.e. a monoid: every identity choice
    and every table, with the laws checked here."""
    found = set()
    pairs = [(x, y) for x in range(n) for y in range(n)]
    for e in range(n):
        for values in itertools.product(range(n), repeat=len(pairs)):
            t = dict(zip(pairs, values))
            if all(t[(e, x)] == x == t[(x, e)] for x in range(n)) and all(
                    t[(t[(x, y)], z)] == t[(x, t[(y, z)])]
                    for x in range(n) for y in range(n) for z in range(n)):
                found.add((e, tuple(sorted(t.items()))))
    return found


@pytest.mark.parametrize("n, count", [(1, 1), (2, 4), (3, 33)])
def test_the_category_listing_is_a_search(n, count):
    """The listing `validate_category` checks, run as a search on the
    one-object graph with n morphisms, meets each category on it once: the
    1, 4 and 33 monoid structures on a set of 1, 2 and 3 elements."""
    draft = FiniteCategory("g", ["*"], {x: ("*", "*") for x in range(n)}, {}, {})
    found = [(draft.identity["*"], tuple(sorted(draft.table.items())))
             for _ in run(compile_plan(category_variables(draft), category_laws(draft)), draft)]
    assert len(found) == len(set(found)) == count
    assert set(found) == _brute_monoids(n)


def test_product_counts():
    """The reference product, which the composition listing of
    `validate_bicategory` is checked against, is a category."""
    p = eager_product_category(chain_category(1), chain_category(1))
    assert len(p.objects) == 4
    assert len(p.morphisms) == 9
    assert validate_category(p).ok


def test_a_composition_functor_s_source_is_the_pair_of_its_homs():
    """Every stored composition functor, built in code or read from the
    bundled files, has as source the pair (hom(y, z), hom(x, y)) and as
    target hom(x, z): the bicategory's own hom categories, not copies."""
    bicats = [corpus.get("bicategory", name) for name in sorted(corpus.BICATEGORIES)]
    bicats.extend(search_inputs().values())
    sf = ff.StructureFile()
    for path in sorted(DATA.glob("*.bc")):
        ff.parse_path(path, into=sf)
    bicats.extend(sf.bicategories.values())
    count = 0
    for b in bicats:
        for (x, y, z), fun in b.comp.items():
            left, right = fun.source
            assert left is b.homs[(y, z)] and right is b.homs[(x, y)], (b.name, x, y, z)
            assert fun.target is b.homs[(x, z)], (b.name, x, y, z)
            count += 1
    assert count > 100


def test_iso_inverse():
    c = iso_pair()
    assert validate_category(c).ok
    assert c.iso_inverse("u") == "v"
    assert c.iso_inverse("1x") == "1x"
    d = chain_category(1)
    assert d.iso_inverse(("le", 0, 1)) is None


def test_identity_functor_validates():
    assert validate_functor(identity_functor(cyclic(4))).ok


def test_functor_composition_law_is_checked():
    z2, z4 = cyclic(2), cyclic(4)
    bad = Functor("bad", z2, z4, {"*": "*"}, {0: 0, 1: 1})
    rep = validate_functor(bad)
    assert not rep.ok
    assert rep.first().kind == "composition"
    good = Functor("dbl", z2, z4, {"*": "*"}, {0: 0, 1: 2})
    assert validate_functor(good).ok


def test_a_none_value_is_an_id_and_only_an_absent_key_is_missing():
    """Ids may be None, so a None image or component is checked as an id
    like any other value, and only an absent key counts as missing."""
    c = chain_category(1)
    one = identity_functor(c)
    one.object_map[0] = None
    assert [str(v) for v in validate_functor(one).violations] == [
        "[dangling-object-image] image of 0 is not a target object"]
    pointed = FiniteCategory("pointed", [None], {"i": (None, None)}, {None: "i"},
                             {("i", "i"): "i"})
    to_none = Functor("to-none", c, pointed, {0: None, 1: None},
                      {m: "i" for m in c.morphisms})
    assert validate_functor(to_none).ok
    nt = NatTrans("n", identity_functor(c), identity_functor(c),
                  {0: ("le", 0, 0), 1: None})
    assert [str(v) for v in validate_nat(nt).violations] == [
        "[dangling-component] component at 1 is not a target morphism"]
    del nt.components[1]
    assert [str(v) for v in validate_nat(nt).violations] == [
        "[missing-component] no component at 1"]


def test_a_component_at_a_key_the_source_lacks_is_refused():
    c = chain_category(1)
    nt = NatTrans("n", identity_functor(c), identity_functor(c),
                  {0: ("le", 0, 0), 1: ("le", 1, 1), "zz": ("le", 0, 0)})
    assert [(v.kind, v.witness, v.structural) for v in validate_nat(nt).violations] == [
        ("spurious-components", ("zz",), True)]


def _arrow_with_none_id():
    """Objects a, b and one morphism a -> b besides the identities, whose id is None."""
    return FiniteCategory("none-arrow", ["a", "b"],
                          {"1a": ("a", "a"), "1b": ("b", "b"), None: ("a", "b")},
                          {"a": "1a", "b": "1b"},
                          {("1a", "1a"): "1a", ("1b", "1b"): "1b",
                           ("1a", None): None, (None, "1b"): None})


def test_enumerated_transformations_with_a_none_component_pass_validate_nat():
    c = _arrow_with_none_id()
    assert validate_category(c).ok
    funs = list(enumerate_functors(terminal_category(), c))
    assert [f.object_map["*"] for f in funs] == ["a", "b"]
    found = [nt for f in funs for g in funs for nt in enumerate_nats(f, g)]
    assert [nt.components["*"] for nt in found] == ["1a", None, "1b"]
    assert all(validate_nat(nt).ok for nt in found)


def test_a_none_identity_is_an_id_and_only_an_absent_one_is_missing():
    c = _arrow_with_none_id()
    c.identity["a"] = None
    assert [str(v) for v in validate_category(c).violations] == [
        "[bad-identity] identity of 'a' is not an endomorphism of it"]
    del c.identity["a"]
    assert [str(v) for v in validate_category(c).violations] == [
        "[missing-identity] object 'a' has no identity"]


def test_equivalence_detection():
    inc = Functor("inc", terminal_category(), iso_pair(),
                  {"*": "X"}, {("id", "*"): "1x"})
    assert validate_functor(inc).ok
    assert is_fully_faithful(inc)[0]
    assert is_essentially_surjective(inc)[0]

    skel = Functor("skel", terminal_category(), discrete_category("2", ["a", "b"]),
                   {"*": "a"}, {("id", "*"): ("id", "a")})
    ok, witness = is_essentially_surjective(skel)
    assert not ok and witness == ("not-essentially-surjective", "b")


def test_not_full_detected():
    inc = Functor("inc", discrete_category("1", ["*"]), cyclic(2),
                  {"*": "*"}, {("id", "*"): 0})
    ok, witness = is_fully_faithful(inc)
    assert not ok and witness[0] == "not-full"


def test_enumerate_functors_chain():
    fs = list(enumerate_functors(chain_category(1), chain_category(1)))
    assert len(fs) == 3  # the three monotone maps of the 2-element poset
    for f in fs:
        assert validate_functor(f).ok


def test_functor_plans_are_compiled_once_per_source_category(monkeypatch):
    """Two lax searches between two poset bicategories compile the functor
    plan of each source hom once, in the first search.  One category's plan
    serves two targets, each search advanced in turn, and each gives the
    reference's list."""
    from bicatkit import catcore
    from bicatkit.bicat import from_category
    from bicatkit.laxfun import enumerate_lax_functors

    compiled = []

    def counted(variables, laws=()):
        compiled.append(variables)
        return real(variables, laws)

    real = catcore.compile_plan
    monkeypatch.setattr(catcore, "compile_plan", counted)
    s, t = search_inputs()["poset"], from_category(chain_category(2), "chain2")
    homs = [cat for cat in s.homs.values() if cat.objects]
    first = list(enumerate_lax_functors(s, t))
    assert len(first) == 14 and len(compiled) == len(homs) == 5
    assert all("functor_plan" in vars(cat) for cat in homs)
    assert list(enumerate_lax_functors(s, t)) == first
    assert len(compiled) == len(homs)

    c, targets = chain_category(1), (chain_category(2), codiscrete_category("ab", "ab"))
    found = [[], []]
    for pair in itertools.zip_longest(*(enumerate_functors(c, d) for d in targets)):
        for got, fun in zip(found, pair):
            if fun is not None:
                got.append(fun)
    assert found == [list(ref.enumerate_functors(c, d)) for d in targets]
    assert [len(got) for got in found] == [6, 4]
    assert len(compiled) == len(homs) + 1


def test_enumerate_nats_identity():
    one = identity_functor(chain_category(1))
    nts = list(enumerate_nats(one, one))
    assert len(nts) == 1
    assert validate_nat(nts[0]).ok


def test_naturality_failure_detected():
    z2 = cyclic(2)
    one = identity_functor(z2)
    # the nonidentity component commutes with everything in an abelian group,
    # so corrupt the functor pair instead: constant-at-0 vs identity
    collapse = Functor("c", chain_category(1), chain_category(1),
                       {0: 0, 1: 0}, {("le", 0, 0): ("le", 0, 0),
                                      ("le", 1, 1): ("le", 0, 0),
                                      ("le", 0, 1): ("le", 0, 0)})
    assert validate_functor(collapse).ok
    nt = NatTrans("n", collapse, identity_functor(chain_category(1)),
                  {0: ("le", 0, 0), 1: ("le", 0, 1)})
    assert validate_nat(nt).ok
    bad = NatTrans("n2", identity_functor(chain_category(1)), collapse,
                   {0: ("le", 0, 0), 1: ("le", 0, 0)})
    rep = validate_nat(bad)
    assert not rep.ok
    assert rep.first().kind == "component-endpoints"


def brute_monoid_laws(table, n):
    """Direct law check on an n-element one-object table, written independently
    of the validator so the two can disagree."""
    if any(table[(0, x)] != x or table[(x, 0)] != x for x in range(n)):
        return False
    return all(table[(table[(x, y)], z)] == table[(x, table[(y, z)])]
               for x in range(n) for y in range(n) for z in range(n))


@given(st.integers(2, 4), st.data())
def test_validator_agrees_with_brute_force_under_corruption(n, data):
    # one corrupted entry can still land on a valid monoid (e.g. Z2 -> OR),
    # so the property is agreement with an oracle, not blanket rejection
    c = cyclic(n)
    key = data.draw(st.sampled_from(sorted(c.table)))
    wrong = data.draw(st.sampled_from([m for m in range(n) if m != c.table[key]]))
    c.table[key] = wrong
    assert validate_category(c).ok == brute_monoid_laws(c.table, n)


def functor_quasi_inverse(fun):
    """Search every functor the other way for one whose two composites are
    naturally isomorphic to the identity functors."""

    def identity_of(c):
        return Functor(f"id[{c.name}]", c, c, {o: o for o in c.objects},
                       {m: m for m in c.morphisms})

    def iso_to_identity(f):
        for nat in enumerate_nats(f, identity_of(f.source)):
            if all(f.source.is_iso(c) for c in nat.components.values()):
                return nat
        return None

    for g in enumerate_functors(fun.target, fun.source):
        if iso_to_identity(compose_functors(g, fun)) is not None and \
                iso_to_identity(compose_functors(fun, g)) is not None:
            return g
    return None


def test_equivalence_functor_matches_inverse_search():
    from bicatkit.corpus import thickened_arrow

    point = chain_category(0)
    thick = thickened_arrow().homs[("a", "b")]
    include = Functor("pick-f", point, thick,
                      {0: "f"}, {("le", 0, 0): ("i", "f")})
    assert validate_functor(include).ok
    assert is_equivalence_functor(include)
    assert functor_quasi_inverse(include) is not None

    two = chain_category(1)
    const = Functor("const-0", point, two,
                    {0: 0}, {("le", 0, 0): ("le", 0, 0)})
    assert validate_functor(const).ok
    assert not is_equivalence_functor(const)
    assert functor_quasi_inverse(const) is None
