"""A small zoo of named finite structures used by the tests and the CLI.

Every builder returns a fresh, hand-checkable instance.  The zoo is the
package's common ground: unit tests, the acceptance suite, `corpus run-all`
and the CLI's bundled names all draw from here, so each structure is built
once, by name, in one place: `get(kind, name)` over the tables of `TABLES`.

Only the bicategory and category modules load with the zoo.  A builder of a
lax functor, an icon, a monoidal functor or an oplax transformation imports
the module of what it builds when it is called, so a command that builds a
bicategory loads none of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .bicat import (
    FiniteBicategory,
    Magma,
    MonoidalCategory,
    codiscrete_bicategory,
    cocycle_bicategory,
    from_category,
    strict_bicategory,
)
from .catcore import FiniteCategory, Functor, chain_category

if TYPE_CHECKING:  # the annotations' types; each builder imports what it calls
    from .icon import Icon
    from .laxfun import LaxFunctor, MonoidalFunctor
    from .oplax import OplaxNat


# ---------------------------------------------------------------------------
# hom-category helper

def hom_category(name, objects, arrows=None, composites=None) -> FiniteCategory:
    """A finite category with identity ids ("i", x), the given named arrows
    (mid -> (src, tgt)), and a composition table auto-completed with identity
    laws.  `composites` supplies the remaining pairs, keyed (first, second).
    """
    arrows = dict(arrows or {})
    morphisms = {("i", x): (x, x) for x in objects}
    morphisms.update(arrows)
    identity = {x: ("i", x) for x in objects}
    table = {}
    for m, (s, t) in morphisms.items():
        table[(identity[s], m)] = m
        table[(m, identity[t])] = m
    for key, value in (composites or {}).items():
        table[key] = value
    return FiniteCategory(name, list(objects), morphisms, identity, table)


def _unit_absorbing_comp(units):
    """comp1/comp2 callables for 2-categories whose only composable overlaps
    involve unit 1-cells."""
    unitset = set(units)
    idset = {("i", u) for u in units}

    def comp1(g, f):
        if f in unitset:
            return g
        if g in unitset:
            return f
        raise ValueError(f"no composite defined for ({g!r}, {f!r})")

    def comp2(d, c):
        if c in idset:
            return d
        if d in idset:
            return c
        raise ValueError(f"no composite defined for ({d!r}, {c!r})")

    return comp1, comp2


# ---------------------------------------------------------------------------
# basic bicategories

def terminal_bicategory() -> FiniteBicategory:
    """One object, one 1-cell, one 2-cell."""
    hom = hom_category("terminal-hom", ["1*"])
    comp1, comp2 = _unit_absorbing_comp(["1*"])
    return strict_bicategory("terminal", ["*"], {("*", "*"): hom}, {"*": "1*"},
                             comp1, comp2)


def walking_arrow() -> FiniteBicategory:
    """Two objects and a single 1-cell between them, as a 2-category."""
    return from_category(chain_category(1), "walking-arrow")


def walking_two_cell() -> FiniteBicategory:
    """Two objects, two parallel 1-cells f0, f1, one non-invertible 2-cell
    "up": f0 => f1."""
    homs = {
        ("a", "a"): hom_category("w2-aa", ["1a"]),
        ("b", "b"): hom_category("w2-bb", ["1b"]),
        ("a", "b"): hom_category("w2-ab", ["f0", "f1"], {"up": ("f0", "f1")}),
        ("b", "a"): hom_category("w2-ba", []),
    }
    comp1, comp2 = _unit_absorbing_comp(["1a", "1b"])
    return strict_bicategory("walking-two-cell", ["a", "b"], homs,
                             {"a": "1a", "b": "1b"}, comp1, comp2)


def thickened_arrow() -> FiniteBicategory:
    """Like the walking arrow, but with two isomorphic parallel 1-cells."""
    ab = hom_category("thick-ab", ["f", "f2"],
                      {"m": ("f", "f2"), "w": ("f2", "f")},
                      {("m", "w"): ("i", "f"), ("w", "m"): ("i", "f2")})
    homs = {
        ("a", "a"): hom_category("thick-aa", ["1a"]),
        ("b", "b"): hom_category("thick-bb", ["1b"]),
        ("a", "b"): ab,
        ("b", "a"): hom_category("thick-ba", []),
    }
    comp1, comp2 = _unit_absorbing_comp(["1a", "1b"])
    return strict_bicategory("thickened-arrow", ["a", "b"], homs,
                             {"a": "1a", "b": "1b"}, comp1, comp2)


def parallel_pair() -> FiniteBicategory:
    """Two objects and two parallel 1-cells with no 2-cells between them."""
    homs = {
        ("a", "a"): hom_category("pp-aa", ["1a"]),
        ("b", "b"): hom_category("pp-bb", ["1b"]),
        ("a", "b"): hom_category("pp-ab", ["p", "q"]),
        ("b", "a"): hom_category("pp-ba", []),
    }
    comp1, comp2 = _unit_absorbing_comp(["1a", "1b"])
    return strict_bicategory("parallel-pair", ["a", "b"], homs,
                             {"a": "1a", "b": "1b"}, comp1, comp2)


def collapsed_two_cell() -> FiniteBicategory:
    """The walking 2-cell with a sink object glued on the far end: a single
    1-cell q out of b, so pasting q onto "up" collapses it to an identity."""
    homs = {
        ("a", "a"): hom_category("c2-aa", ["1a"]),
        ("b", "b"): hom_category("c2-bb", ["1b"]),
        ("t", "t"): hom_category("c2-tt", ["1t"]),
        ("a", "b"): hom_category("c2-ab", ["f0", "f1"], {"up": ("f0", "f1")}),
        ("b", "t"): hom_category("c2-bt", ["q"]),
        ("a", "t"): hom_category("c2-at", ["r"]),
        ("b", "a"): hom_category("c2-ba", []),
        ("t", "a"): hom_category("c2-ta", []),
        ("t", "b"): hom_category("c2-tb", []),
    }
    base1, base2 = _unit_absorbing_comp(["1a", "1b", "1t"])

    def comp1(g, f):
        if g == "q" and f in ("f0", "f1"):
            return "r"
        return base1(g, f)

    def comp2(d, c):
        if d == ("i", "q") and c in (("i", "f0"), ("i", "f1"), "up"):
            return ("i", "r")
        return base2(d, c)

    return strict_bicategory("collapsed-two-cell", ["a", "b", "t"], homs,
                             {"a": "1a", "b": "1b", "t": "1t"}, comp1, comp2)


def ordinal(n: int) -> FiniteBicategory:
    """The linear order 0 < 1 < ... < n as a locally discrete 2-category."""
    return from_category(chain_category(n), f"ordinal-{n}")


# ---------------------------------------------------------------------------
# one-object examples

def sigma_z2() -> FiniteBicategory:
    """Delooping of the group of order two with discrete hom-category."""
    xor = {(x, y): x ^ y for x in (0, 1) for y in (0, 1)}
    trivial = {(0, 0): 0}
    b = cocycle_bicategory("sigma-z2", [0, 1], xor, 0, [0], trivial, 0, {})
    return b


def z2_twist_instance(name, twist) -> FiniteBicategory:
    """Group Z/2, abelian coefficient group Z/2, and the given twist table."""
    xor = {(x, y): x ^ y for x in (0, 1) for y in (0, 1)}
    return cocycle_bicategory(name, [0, 1], xor, 0, [0, 1], dict(xor), 0, twist)


def cocycle_trivial() -> FiniteBicategory:
    return z2_twist_instance("cocycle-trivial", {})


def cocycle_twisted() -> FiniteBicategory:
    """The twist that is 1 exactly on the triple (1, 1, 1); this is the
    classical non-trivial associator on the delooping of Z/2."""
    return z2_twist_instance("cocycle-twisted", {(1, 1, 1): 1})


def magma3() -> Magma:
    """Three elements with a two-sided unit but a genuinely non-associative
    multiplication: (a.a).a = e while a.(a.a) = a."""
    table = {
        ("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
        ("a", "e"): "a", ("a", "a"): "b", ("a", "b"): "a",
        ("b", "e"): "b", ("b", "a"): "e", ("b", "b"): "e",
    }
    return Magma(["e", "a", "b"], table, "e")


def codiscrete3() -> FiniteBicategory:
    """Codiscrete delooping of the non-associative three-element magma.  The
    go-to example of a bicategory with no strict replacement on the nose."""
    return codiscrete_bicategory("codiscrete3", magma3())


def sigma_idem() -> FiniteBicategory:
    """One object; 1-cells u (the unit) and s; a single non-identity 2-cell
    k: s => s with k.k = k.  Strict, yet it carries lax endofunctors whose
    comparison cells are the non-invertible k."""
    hom = hom_category("idem-hom", ["u", "s"], {"k": ("s", "s")},
                       {("k", "k"): "k"})

    def comp1(g, f):
        return "u" if (g, f) == ("u", "u") else "s"

    def comp2(d, c):
        if d == "k" or c == "k":
            return "k"
        return ("i", "u") if (d, c) == (("i", "u"), ("i", "u")) else ("i", "s")

    return strict_bicategory("sigma-idem", ["*"], {("*", "*"): hom},
                             {"*": "u"}, comp1, comp2)


def sigma_maxposet() -> FiniteBicategory:
    """One object; 1-cells j (the unit) and s with a single 2-cell
    eta: j => s; composition is "max".  Posetal homs, so every diagram of
    2-cells commutes; eta is not invertible."""
    hom = hom_category("maxposet-hom", ["j", "s"], {"eta": ("j", "s")})
    cells = {("i", "j"): ("j", "j"), ("i", "s"): ("s", "s"), "eta": ("j", "s")}

    def comp1(g, f):
        return "j" if (g, f) == ("j", "j") else "s"

    def comp2(d, c):
        s0 = comp1(cells[d][0], cells[c][0])
        t0 = comp1(cells[d][1], cells[c][1])
        if s0 == t0:
            return ("i", s0)
        return "eta"

    return strict_bicategory("sigma-maxposet", ["*"], {("*", "*"): hom},
                             {"*": "j"}, comp1, comp2)


# ---------------------------------------------------------------------------
# lax functors

def collapse_to_terminal(b: FiniteBicategory) -> LaxFunctor:
    """The unique strict functor from b to the terminal bicategory."""
    from .laxfun import two_functor
    t = terminal_bicategory()
    cell1 = {f: "1*" for f in b.one_cells()}
    cell2 = {c: ("i", "1*") for c in b.two_cells()}
    return two_functor(f"collapse[{b.name}]", b, t,
                       {a: "*" for a in b.objects}, cell1, cell2)


def idem_laxonly() -> LaxFunctor:
    """Endofunctor of sigma_idem that is the identity on every cell but whose
    comparison at (s, s) is the non-invertible idempotent k.  Lax, and not a
    homomorphism."""
    from .laxfun import identity_lax
    b = sigma_idem()
    fun = identity_lax(b)
    fun.name = "idem-laxonly"
    fun.comp_constraints[("s", "s")] = "k"
    return fun


def idem_flatten() -> LaxFunctor:
    """Strict endofunctor of sigma_idem killing the 2-cell k."""
    from .laxfun import two_functor
    b = sigma_idem()
    cell1 = {"u": "u", "s": "s"}
    cell2 = {("i", "u"): ("i", "u"), ("i", "s"): ("i", "s"), "k": ("i", "s")}
    return two_functor("idem-flatten", b, b, {"*": "*"}, cell1, cell2)


def maxposet_unit_witness() -> LaxFunctor:
    """Lax functor from the terminal bicategory into sigma_maxposet picking
    the non-unit 1-cell s; its unit comparison is the non-invertible eta, so
    it is lax and nothing stronger."""
    from .laxfun import LaxFunctor
    s = terminal_bicategory()
    t = sigma_maxposet()
    hom = Functor("pick-s", s.homs[("*", "*")], t.homs[("*", "*")],
                  {"1*": "s"}, {("i", "1*"): ("i", "s")})
    return LaxFunctor("maxposet-unit-witness", s, t, {"*": "*"},
                      {("*", "*"): hom},
                      {("1*", "1*"): ("i", "s")}, {"*": "eta"})


def twisted_identity(base: FiniteBicategory | None = None) -> LaxFunctor:
    """Endo-homomorphism of the twisted delooping of Z/2 that is the identity
    on cells, with every comparison cell carrying the non-trivial coefficient.
    Its comparisons are invertible but not identities."""
    from .laxfun import identity_lax
    b = base or cocycle_twisted()
    fun = identity_lax(b)
    fun.name = "twisted-identity"
    for g in (0, 1):
        for f in (0, 1):
            fun.comp_constraints[(g, f)] = (g ^ f, 1)
    fun.unit_constraints["*"] = (0, 1)
    return fun


def arrow_thickening_inclusion() -> LaxFunctor:
    """The walking arrow sitting inside its thickened version: bijective on
    objects and an equivalence on homs without being surjective on 1-cells."""
    from .laxfun import two_functor
    s, t = walking_arrow(), thickened_arrow()
    cell1 = {("le", 0, 0): "1a", ("le", 0, 1): "f", ("le", 1, 1): "1b"}
    cell2 = {("id", f): ("i", cell1[f]) for f in s.one_cells()}
    return two_functor("arrow-thickening-inclusion", s, t,
                       {0: "a", 1: "b"}, cell1, cell2)


def const_at_basepoint(base: FiniteBicategory | None = None) -> LaxFunctor:
    """Endofunctor of the codiscrete delooping constant at the unit 1-cell.
    Identity comparisons work because parallel 2-cells there are equal."""
    from .laxfun import two_functor
    b = base or codiscrete3()
    e = b.unit["*"]
    cell1 = {f: e for f in b.one_cells()}
    cell2 = {c: ("to", e, e) for c in b.two_cells()}
    return two_functor("const-at-unit", b, b, {"*": "*"}, cell1, cell2)


def _identity_on(build):
    """The builder of the identity lax functor on the bicategory `build()`."""
    def identity():
        from .laxfun import identity_lax
        return identity_lax(build())
    return identity


LAX_FUNCTORS = {
    "id-walking-arrow": _identity_on(walking_arrow),
    "id-sigma-idem": _identity_on(sigma_idem),
    "id-cocycle-twisted": _identity_on(cocycle_twisted),
    "collapse-walking-two-cell": lambda: collapse_to_terminal(walking_two_cell()),
    "idem-laxonly": idem_laxonly,
    "idem-flatten": idem_flatten,
    "maxposet-unit-witness": maxposet_unit_witness,
    "twisted-identity": twisted_identity,
    "const-at-unit": const_at_basepoint,
    "arrow-thickening-inclusion": arrow_thickening_inclusion,
}


# ---------------------------------------------------------------------------
# icons

def idem_icon_k() -> Icon:
    """Self-icon of the identity on sigma_idem whose component at s is the
    non-invertible idempotent k.  The standard example of a non-invertible
    icon whose underlying functors are as strict as can be."""
    from .icon import Icon
    from .laxfun import identity_lax
    b = sigma_idem()
    one = identity_lax(b)
    return Icon("idem-icon-k", one, one, {"u": ("i", "u"), "s": "k"},
                {("*", "*"): "k-family"})


def twisted_icon(c1: int) -> Icon:
    """One of the two icons from the identity of the twisted delooping to the
    twisted-identity homomorphism; c1 picks the free coefficient."""
    from .icon import monoidal_to_icon
    from .laxfun import identity_lax
    b = cocycle_twisted()
    one = identity_lax(b)
    tw = twisted_identity(b)
    return monoidal_to_icon(f"twisted-icon-{c1}", {0: (0, 1), 1: (1, c1)}, one, tw)


def id_on_id_idem() -> Icon:
    """The identity icon of the identity lax functor on sigma_idem."""
    from .icon import identity_icon
    from .laxfun import identity_lax
    return identity_icon(identity_lax(sigma_idem()))


ICONS = {
    "id-on-id-idem": id_on_id_idem,
    "idem-icon-k": idem_icon_k,
    "twisted-icon-0": lambda: twisted_icon(0),
    "twisted-icon-1": lambda: twisted_icon(1),
}


# ---------------------------------------------------------------------------
# monoidal functors and their deloopings

def delooping_monoidal(b: FiniteBicategory) -> MonoidalCategory:
    """The monoidal category carried by the single hom of a one-object
    bicategory: tensor is 1-cell composition (later factor first in the key),
    coherence morphisms are the structure cells."""
    if len(b.objects) != 1:
        raise ValueError(f"{b.name} has {len(b.objects)} objects, need 1")
    star = b.objects[0]
    hom = b.homs[(star, star)]
    cells = hom.objects
    tensor_obj = {(x, y): b.compose1(x, y) for x in cells for y in cells}
    tensor_mor = {(f, g): b.hcomp(f, g)
                  for f in hom.morphisms for g in hom.morphisms}
    associator = {(x, y, z): b.assoc(x, y, z)
                  for x in cells for y in cells for z in cells}
    left_unitor = {x: b.lunit(x) for x in cells}
    right_unitor = {x: b.runit(x) for x in cells}
    return MonoidalCategory(f"mon[{b.name}]", hom, tensor_obj,
                            tensor_mor, b.unit[star], associator,
                            left_unitor, right_unitor)


def monoidal_identity_functor(m: MonoidalCategory) -> MonoidalFunctor:
    """Identity on cells, with identity comparison morphisms."""
    from .laxfun import MonoidalFunctor
    fun = Functor(f"id[{m.name}]", m.cat, m.cat,
                  {x: x for x in m.cat.objects},
                  {f: f for f in m.cat.morphisms})
    comp = {(x, y): m.cat.identity[m.tensor_obj[(x, y)]]
            for x in m.cat.objects for y in m.cat.objects}
    return MonoidalFunctor(f"monoidal-id[{m.name}]", m, m, fun, comp,
                           m.cat.identity[m.unit_obj])


def twisted_monoidal_identity(m: MonoidalCategory) -> MonoidalFunctor:
    """Monoidal self-functor of the twisted Z/2 delooping: identity on cells,
    every comparison morphism carrying the non-trivial coefficient."""
    from .laxfun import MonoidalFunctor
    base = monoidal_identity_functor(m)
    comp = {(x, y): (x ^ y, 1) for x in (0, 1) for y in (0, 1)}
    return MonoidalFunctor("twisted-monoidal-id", m, m, base.functor,
                           comp, (0, 1))


def monoidal_pair_twisted():
    """Identity and twisted identity on the twisted Z/2 delooping, together
    with the bicategory both delooped functors act on.

    Two monoidal transformations in the forward direction; their delooped
    icons are the two twisted icons."""
    b = cocycle_twisted()
    m = delooping_monoidal(b)
    return monoidal_identity_functor(m), twisted_monoidal_identity(m), b


def monoidal_pair_idem():
    """The identity pair on the idempotent delooping; two monoidal
    transformations (coefficient 1 or k at s), matching the two self-icons
    of the identity."""
    b = sigma_idem()
    m = delooping_monoidal(b)
    one = monoidal_identity_functor(m)
    return one, one, b


MONOIDAL_PAIRS = {
    "twisted-pair": monoidal_pair_twisted,
    "idem-pair": monoidal_pair_idem,
}


# ---------------------------------------------------------------------------
# oplax transformations

def codiscrete_shift(elem: str) -> OplaxNat:
    """Self-transformation of the constant endofunctor of the codiscrete
    delooping whose single component is `elem`.  Vertical composites of these
    multiply components with the underlying (non-associative!) operation —
    the standing demonstration that oplax transformations between fixed
    functors do not form a category."""
    from .oplax import OplaxNat
    b = codiscrete3()
    fun = const_at_basepoint(b)
    cons = {f: ("to", elem, elem) for f in b.one_cells()}
    return OplaxNat(f"shift[{elem}]", fun, fun, {"*": elem}, cons)


def idem_general_oplax() -> OplaxNat:
    """Self-transformation of the identity on sigma_idem with component s and
    the non-invertible k as its constraint at s: neither strict, nor
    pseudonatural, nor an icon."""
    from .laxfun import identity_lax
    from .oplax import OplaxNat
    b = sigma_idem()
    one = identity_lax(b)
    return OplaxNat("idem-general", one, one, {"*": "s"},
                    {"u": ("i", "s"), "s": "k"})


def arrow_shift() -> OplaxNat:
    """The arrow witness of the walking arrow's own non-identity 1-cell: a
    strict transformation whose component at 0 is that 1-cell."""
    from .oplax import arrow_witness
    return arrow_witness(walking_arrow(), ("le", 0, 1))


def probe_at_s() -> OplaxNat:
    """The arrow-style probe of sigma_idem at its generating 1-cell: pairing
    it with any transformation whose constraint at s is not an identity makes
    interchange fail, with s in the witness."""
    from .oplax import arrow_witness
    return arrow_witness(sigma_idem(), "s")


def id_oplax_idem() -> OplaxNat:
    """The identity transformation of the identity lax functor on sigma_idem."""
    from .laxfun import identity_lax
    from .oplax import identity_oplax
    return identity_oplax(identity_lax(sigma_idem()))


def icon_as_oplax_k() -> OplaxNat:
    """The icon idem-icon-k read as an oplax transformation."""
    from .oplax import icon_as_oplax
    return icon_as_oplax(idem_icon_k())


OPLAX = {
    "id-oplax-idem": id_oplax_idem,
    "idem-general": idem_general_oplax,
    "arrow-shift": arrow_shift,
    "icon-as-oplax-k": icon_as_oplax_k,
    "codiscrete-shift-a": lambda: codiscrete_shift("a"),
    "probe-at-s": probe_at_s,
}


# ---------------------------------------------------------------------------
# registry

BICATEGORIES = {
    "terminal": terminal_bicategory,
    "walking-arrow": walking_arrow,
    "walking-two-cell": walking_two_cell,
    "thickened-arrow": thickened_arrow,
    "parallel-pair": parallel_pair,
    "collapsed-two-cell": collapsed_two_cell,
    "sigma-z2": sigma_z2,
    "cocycle-trivial": cocycle_trivial,
    "cocycle-twisted": cocycle_twisted,
    "codiscrete3": codiscrete3,
    "sigma-idem": sigma_idem,
    "sigma-maxposet": sigma_maxposet,
    "ordinal-2": lambda: ordinal(2),
    "ordinal-3": lambda: ordinal(3),
}

# the one registry: kind -> name -> builder.  The CLI looks a name up in the
# tables of the kinds it shares with the file format.
TABLES = {
    "bicategory": BICATEGORIES,
    "laxfunctor": LAX_FUNCTORS,
    "icon": ICONS,
    "oplax": OPLAX,
    "monoidal-pair": MONOIDAL_PAIRS,
}


def get(kind: str, name: str):
    """A fresh instance of the corpus structure `name` of the given kind (a
    monoidal pair is a tuple: two monoidal functors and their bicategory)."""
    table = TABLES[kind]
    if name not in table:
        raise KeyError(f"unknown corpus {kind} {name!r}; choose from {sorted(table)}")
    return table[name]()
