import hypothesis.strategies as st
from hypothesis import given

from bicatkit.catcore import (
    FiniteCategory,
    Functor,
    NatTrans,
    chain_category,
    codiscrete_category,
    discrete_category,
    enumerate_functors,
    enumerate_nats,
    is_essentially_surjective,
    is_fully_faithful,
    product_category,
    validate_category,
    validate_functor,
    validate_nat,
)


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


def test_product_counts():
    p = product_category(chain_category(1), chain_category(1))
    assert len(p.objects) == 4
    assert len(p.morphisms) == 9
    assert validate_category(p).ok


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


def test_equivalence_functor_matches_inverse_search():
    from bicatkit.corpus import thickened_arrow
    from bicatkit.oracles import functor_quasi_inverse

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
