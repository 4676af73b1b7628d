"""Finite bicategories: weak two-dimensional categories given by explicit tables.

A bicategory here is a finite set of objects, a finite hom-category for every
ordered pair of objects, composition functors, unit 1-cells, and the three
families of coherence 2-cells.  Conventions, fixed once and used everywhere:

* ``compose1(g, f)`` is "g after f": f runs A -> B first, then g runs B -> C.
  Composition-functor tables are keyed by the pair ``(g, f)`` in that order.
* The associator ``assoc(h, g, f)`` points from ``(h.g).f`` to ``h.(g.f)``.
* ``lunit(f)`` points from ``unit.f`` to ``f``; ``runit(f)`` from ``f.unit``
  to ``f``.
* Vertical composition ``vcomp(d, c)`` is "d after c" inside one hom-category.

One strengthening beyond the bare shape of the data: 1-cell ids must be
globally unique across hom-categories, and likewise 2-cell ids.  All builders
in this package produce such ids, and the validator enforces it; it is what
lets every operation take bare cell ids instead of (hom, id) pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .catcore import (
    FiniteCategory,
    Functor,
    codiscrete_category,
    discrete_category,
    product_category,
    validate_category,
    validate_functor,
)
from .report import ValidationReport, sorted_ids


class UnsupportedSettingError(Exception):
    """Raised by operations that are only defined in a stricter setting than
    the one they were handed (e.g. whiskering oplax transformations over a
    genuinely weak bicategory)."""


@dataclass
class FiniteBicategory:
    name: str
    objects: list
    homs: dict           # (A, B) -> FiniteCategory of 1-cells and 2-cells
    comp: dict           # (A, B, C) -> Functor: hom(B,C) x hom(A,B) -> hom(A,C)
    unit: dict           # A -> 1-cell id in hom(A, A)
    associator: dict     # (h, g, f) -> 2-cell: (h.g).f => h.(g.f)
    left_unitor: dict    # f -> 2-cell: unit.f => f
    right_unitor: dict   # f -> 2-cell: f.unit => f
    _home1: dict = field(default_factory=dict, repr=False, compare=False)
    _home2: dict = field(default_factory=dict, repr=False, compare=False)
    # (earlier, later) -> vertical composite, over every hom-category
    _vcomp: dict = field(default_factory=dict, repr=False, compare=False)

    # -- indexes -----------------------------------------------------------
    def _build_indexes(self):
        for pair, cat in self.homs.items():
            for f in cat.objects:
                self._home1[f] = pair
            for c in cat.morphisms:
                self._home2[c] = pair
            self._vcomp.update(cat.table)

    def home1(self, f):
        """The (source object, target object) pair of a 1-cell."""
        if not self._home1:
            self._build_indexes()
        return self._home1[f]

    def home2(self, c):
        if not self._home2:
            self._build_indexes()
        return self._home2[c]

    def one_cells(self):
        for pair in sorted_ids(self.homs):
            yield from sorted_ids(self.homs[pair].objects)

    def two_cells(self):
        for pair in sorted_ids(self.homs):
            yield from sorted_ids(self.homs[pair].morphisms)

    # -- cell operations ---------------------------------------------------
    def src2(self, c):
        return self.homs[self.home2(c)].src(c)

    def tgt2(self, c):
        return self.homs[self.home2(c)].tgt(c)

    def id2(self, f):
        return self.homs[self.home1(f)].identity[f]

    def inv2(self, c):
        return self.homs[self.home2(c)].iso_inverse(c)

    def vcomp(self, later, earlier):
        """Vertical composite inside one hom-category ("later" runs second)."""
        if not self._vcomp:
            self._build_indexes()
        return self._vcomp[(earlier, later)]

    def compose1(self, g, f):
        a, b = self.home1(f)
        b2, c = self.home1(g)
        if b != b2:
            raise ValueError(f"1-cells {g!r} after {f!r} are not composable")
        return self.comp[(a, b, c)].object_map[(g, f)]

    def hcomp(self, d, c):
        """Horizontal composite of 2-cells: d (over the later 1-cells) beside c."""
        a, b = self.home2(c)
        b2, cc = self.home2(d)
        if b != b2:
            raise ValueError(f"2-cells {d!r} beside {c!r} are not composable")
        return self.comp[(a, b, cc)].morphism_map[(d, c)]

    def whisker_left(self, g, c):
        """g . c : whisker the 2-cell c by the 1-cell g on the later side."""
        return self.hcomp(self.id2(g), c)

    def whisker_right(self, c, f):
        """c . f : whisker the 2-cell c by the 1-cell f on the earlier side."""
        return self.hcomp(c, self.id2(f))

    def assoc(self, h, g, f):
        return self.associator[(h, g, f)]

    def assoc_inv(self, h, g, f):
        return self.inv2(self.associator[(h, g, f)])

    def lunit(self, f):
        return self.left_unitor[f]

    def lunit_inv(self, f):
        return self.inv2(self.left_unitor[f])

    def runit(self, f):
        return self.right_unitor[f]

    def runit_inv(self, f):
        return self.inv2(self.right_unitor[f])

    def is_strict(self):
        """True when every coherence cell is an identity 2-cell."""
        cells = itertools.chain(self.associator.values(),
                                self.left_unitor.values(),
                                self.right_unitor.values())
        return all(self.src2(c) == self.tgt2(c)
                   and c == self.id2(self.src2(c)) for c in cells)


def validate_bicategory(b: FiniteBicategory) -> ValidationReport:
    rep = ValidationReport(f"bicategory {b.name}")
    objset = set(b.objects)
    if len(objset) != len(b.objects):
        rep.add("duplicate-object", "object list has repeats", structural=True)

    pairs = [(x, y) for x in sorted_ids(objset) for y in sorted_ids(objset)]
    for pair in pairs:
        if pair not in b.homs:
            rep.add("missing-hom", f"no hom-category for {pair!r}", pair, structural=True)
    for pair in sorted_ids(set(b.homs) - set(pairs)):
        rep.add("spurious-hom", f"hom-category at {pair!r} has unknown endpoints",
                pair, structural=True)
    if rep.structural_failure:
        return rep

    for pair in pairs:
        sub = validate_category(b.homs[pair])
        for v in sub.violations:
            rep.add("hom:" + v.kind, f"hom{pair!r}: {v.message}", v.witness, v.structural)
    if rep.violations:
        return rep

    seen1, seen2 = {}, {}
    for pair in pairs:
        cat = b.homs[pair]
        for f in sorted_ids(cat.objects):
            if f in seen1:
                rep.add("1-cell-clash",
                        f"1-cell id {f!r} appears in hom{seen1[f]!r} and hom{pair!r}",
                        (f,), structural=True)
            seen1[f] = pair
        for c in sorted_ids(cat.morphisms):
            if c in seen2:
                rep.add("2-cell-clash",
                        f"2-cell id {c!r} appears in hom{seen2[c]!r} and hom{pair!r}",
                        (c,), structural=True)
            seen2[c] = pair

    for a in sorted_ids(objset):
        j = b.unit.get(a)
        if j is None:
            rep.add("missing-unit", f"object {a!r} has no unit 1-cell", (a,), structural=True)
        elif j not in set(b.homs[(a, a)].objects):
            rep.add("dangling-unit", f"unit of {a!r} is not an endo-1-cell of it",
                    (a,), structural=True)
    if rep.structural_failure:
        return rep

    # composition functors, rebuilt over the expected product so we never
    # trust a stored source category
    for x, y, z in itertools.product(sorted_ids(objset), repeat=3):
        key = (x, y, z)
        fun = b.comp.get(key)
        if fun is None:
            rep.add("missing-comp", f"no composition functor for {key!r}", key,
                    structural=True)
            continue
        expected = product_category(b.homs[(y, z)], b.homs[(x, y)])
        rebuilt = Functor(f"comp{key!r}", expected, b.homs[(x, z)],
                          fun.object_map, fun.morphism_map)
        sub = validate_functor(rebuilt)
        for v in sub.violations:
            rep.add("comp:" + v.kind, f"comp{key!r}: {v.message}", v.witness, v.structural)
    if rep.violations:
        return rep

    # coherence cells: presence, endpoints, invertibility
    triples = [(h, g, f)
               for f in b.one_cells() for g in b.one_cells() for h in b.one_cells()
               if b.home1(f)[1] == b.home1(g)[0] and b.home1(g)[1] == b.home1(h)[0]]
    for t in triples:
        h, g, f = t
        cell = b.associator.get(t)
        if cell is None:
            rep.add("missing-associator", f"no associator at {t!r}", t, structural=True)
            continue
        a, _ = b.home1(f)
        _, d = b.home1(h)
        cat = b.homs[(a, d)]
        if cell not in cat.morphisms:
            rep.add("dangling-associator", f"associator at {t!r} is not a 2-cell "
                    f"of hom{(a, d)!r}", t, structural=True)
            continue
        want = (b.compose1(b.compose1(h, g), f), b.compose1(h, b.compose1(g, f)))
        if cat.morphisms[cell] != want:
            rep.add("associator-endpoints",
                    f"associator at {t!r} must run (h.g).f => h.(g.f)", t)
        elif not cat.is_iso(cell):
            rep.add("associator-not-invertible", f"associator at {t!r} has no inverse", t)

    for f in b.one_cells():
        a, bb = b.home1(f)
        cat = b.homs[(a, bb)]
        for store, label, src in (
            (b.left_unitor, "left-unitor", lambda: b.compose1(b.unit[bb], f)),
            (b.right_unitor, "right-unitor", lambda: b.compose1(f, b.unit[a])),
        ):
            cell = store.get(f)
            if cell is None:
                rep.add(f"missing-{label}", f"no {label} at {f!r}", (f,), structural=True)
            elif cell not in cat.morphisms:
                rep.add(f"dangling-{label}", f"{label} at {f!r} is not a 2-cell of its hom",
                        (f,), structural=True)
            elif cat.morphisms[cell] != (src(), f):
                rep.add(f"{label}-endpoints", f"{label} at {f!r} has the wrong endpoints",
                        (f,))
            elif not cat.is_iso(cell):
                rep.add(f"{label}-not-invertible", f"{label} at {f!r} has no inverse", (f,))
    if rep.violations:
        return rep

    # naturality, one variable at a time (joint naturality follows because the
    # composition functors were already checked to be functorial)
    for h, g, f in triples:
        hpair, gpair, fpair = b.home1(h), b.home1(g), b.home1(f)
        for slot, cells in (("later", b.homs[hpair].morphisms),
                            ("middle", b.homs[gpair].morphisms),
                            ("earlier", b.homs[fpair].morphisms)):
            for c in sorted_ids(cells):
                if slot == "later":
                    if b.src2(c) != h:
                        continue
                    h2, g2, f2 = b.tgt2(c), g, f
                    top = b.hcomp(b.hcomp(c, b.id2(g)), b.id2(f))
                    bot = b.hcomp(c, b.id2(b.compose1(g, f)))
                elif slot == "middle":
                    if b.src2(c) != g:
                        continue
                    h2, g2, f2 = h, b.tgt2(c), f
                    top = b.hcomp(b.hcomp(b.id2(h), c), b.id2(f))
                    bot = b.hcomp(b.id2(h), b.hcomp(c, b.id2(f)))
                else:
                    if b.src2(c) != f:
                        continue
                    h2, g2, f2 = h, g, b.tgt2(c)
                    top = b.hcomp(b.hcomp(b.id2(h), b.id2(g)), c)
                    bot = b.hcomp(b.id2(h), b.hcomp(b.id2(g), c))
                lhs = b.vcomp(b.associator[(h2, g2, f2)], top)
                rhs = b.vcomp(bot, b.associator[(h, g, f)])
                if lhs != rhs:
                    rep.add("associator-naturality",
                            f"associator is not natural in the {slot} slot at "
                            f"({h!r}, {g!r}, {f!r}) under {c!r}", (h, g, f, c))

    for c in b.two_cells():
        f, f2 = b.src2(c), b.tgt2(c)
        a, bb = b.home2(c)
        lhs = b.vcomp(b.left_unitor[f2], b.hcomp(b.id2(b.unit[bb]), c))
        rhs = b.vcomp(c, b.left_unitor[f])
        if lhs != rhs:
            rep.add("left-unitor-naturality", f"left unitor is not natural under {c!r}", (c,))
        lhs = b.vcomp(b.right_unitor[f2], b.hcomp(c, b.id2(b.unit[a])))
        rhs = b.vcomp(c, b.right_unitor[f])
        if lhs != rhs:
            rep.add("right-unitor-naturality", f"right unitor is not natural under {c!r}", (c,))

    for k in b.one_cells():
        for h, g, f in triples:
            if b.home1(h)[1] != b.home1(k)[0]:
                continue
            lhs = b.vcomp(b.associator[(k, h, b.compose1(g, f))],
                          b.associator[(b.compose1(k, h), g, f)])
            rhs = b.vcomp(b.whisker_left(k, b.associator[(h, g, f)]),
                          b.vcomp(b.associator[(k, b.compose1(h, g), f)],
                                  b.whisker_right(b.associator[(k, h, g)], f)))
            if lhs != rhs:
                rep.add("pentagon", f"pentagon fails at ({k!r}, {h!r}, {g!r}, {f!r})",
                        (k, h, g, f))

    for g in b.one_cells():
        for f in b.one_cells():
            if b.home1(f)[1] != b.home1(g)[0]:
                continue
            mid = b.home1(g)[0]
            lhs = b.vcomp(b.whisker_left(g, b.left_unitor[f]),
                          b.associator[(g, b.unit[mid], f)])
            rhs = b.whisker_right(b.right_unitor[g], f)
            if lhs != rhs:
                rep.add("triangle", f"triangle fails at ({g!r}, {f!r})", (g, f))
    return rep


# ---------------------------------------------------------------------------
# builders

def strict_bicategory(name, objects, homs, unit, comp1, comp2) -> FiniteBicategory:
    """Assemble a strict 2-category: composites from the two callables,
    identity coherence cells throughout.

    comp1(g, f) must return the composite 1-cell "g after f"; comp2(d, c) the
    horizontal composite 2-cell.  Both must be strictly associative and
    strictly unital — that is asserted while the coherence cells are built.
    """
    b = FiniteBicategory(name, list(objects), dict(homs), {}, dict(unit), {}, {}, {})
    objs = list(objects)
    for x, y, z in itertools.product(objs, repeat=3):
        left, right = homs[(y, z)], homs[(x, y)]
        prod = product_category(left, right)
        omap = {(g, f): comp1(g, f) for g in left.objects for f in right.objects}
        mmap = {(d, c): comp2(d, c) for d in left.morphisms for c in right.morphisms}
        b.comp[(x, y, z)] = Functor(f"comp({x},{y},{z})", prod, homs[(x, z)], omap, mmap)
    for f in b.one_cells():
        a, bb = b.home1(f)
        for g in b.one_cells():
            if b.home1(g)[0] != bb:
                continue
            for h in b.one_cells():
                if b.home1(h)[0] != b.home1(g)[1]:
                    continue
                lhs = comp1(comp1(h, g), f)
                rhs = comp1(h, comp1(g, f))
                if lhs != rhs:
                    raise ValueError(f"comp1 is not strictly associative at "
                                     f"({h!r}, {g!r}, {f!r})")
                b.associator[(h, g, f)] = b.id2(lhs)
        if comp1(unit[bb], f) != f or comp1(f, unit[a]) != f:
            raise ValueError(f"comp1 is not strictly unital at {f!r}")
        b.left_unitor[f] = b.id2(f)
        b.right_unitor[f] = b.id2(f)
    return b


def from_category(c: FiniteCategory, name=None) -> FiniteBicategory:
    """View an ordinary category as a strict 2-category with only identity 2-cells."""
    homs = {}
    for a in c.objects:
        for bb in c.objects:
            homs[(a, bb)] = discrete_category(f"{c.name}({a},{bb})", c.hom(a, bb))

    def comp1(g, f):
        return c.table[(f, g)]

    def comp2(d, cc):
        return ("id", comp1(d[1], cc[1]))

    return strict_bicategory(name or f"disc[{c.name}]", list(c.objects), homs,
                             dict(c.identity), comp1, comp2)


@dataclass
class Magma:
    """A finite binary operation, not assumed associative or unital.

    table[(x, y)] is read "x beside y" and becomes the composite 1-cell
    "x after y" in the codiscrete delooping.
    """
    elements: list
    table: dict
    basepoint: object    # element used as the unit 1-cell of the delooping

    def is_associative(self):
        return all(self.table[(self.table[(x, y)], z)] == self.table[(x, self.table[(y, z)])]
                   for x in self.elements for y in self.elements for z in self.elements)

    def associativity_failure(self):
        for x in self.elements:
            for y in self.elements:
                for z in self.elements:
                    if self.table[(self.table[(x, y)], z)] != self.table[(x, self.table[(y, z)])]:
                        return (x, y, z)
        return None


def codiscrete_bicategory(name, magma: Magma) -> FiniteBicategory:
    """One object; 1-cells are the magma elements; exactly one 2-cell between
    any two 1-cells.  Every coherence diagram commutes for free, so this is a
    bicategory even when the magma is wildly non-associative — and when it is,
    the result is genuinely weak: no choice of associators could be identities.

    The basepoint must be a two-sided unit of the magma (the delooping's unit
    1-cell); associativity is NOT required.
    """
    e = magma.basepoint
    for x in magma.elements:
        if magma.table[(e, x)] != x or magma.table[(x, e)] != x:
            raise ValueError(f"basepoint {e!r} is not a two-sided unit "
                             f"(fails at {x!r})")
    star = "*"
    hom = codiscrete_category(f"{name}-hom", list(magma.elements))
    omap = {(g, f): magma.table[(g, f)] for g in magma.elements for f in magma.elements}
    mmap = {}
    for d in hom.morphisms:
        for c in hom.morphisms:
            _, g, g2 = d
            _, f, f2 = c
            mmap[(d, c)] = ("to", magma.table[(g, f)], magma.table[(g2, f2)])
    prod = product_category(hom, hom)
    comp = {(star, star, star): Functor(f"{name}-comp", prod, hom, omap, mmap)}
    b = FiniteBicategory(name, [star], {(star, star): hom}, comp,
                         {star: e}, {}, {}, {})
    for f in magma.elements:
        b.left_unitor[f] = ("to", magma.table[(e, f)], f)
        b.right_unitor[f] = ("to", magma.table[(f, e)], f)
        for g in magma.elements:
            for h in magma.elements:
                b.associator[(h, g, f)] = ("to",
                                           magma.table[(magma.table[(h, g)], f)],
                                           magma.table[(h, magma.table[(g, f)])])
    return b


# ---------------------------------------------------------------------------
# monoidal categories and their one-object deloopings

@dataclass
class MonoidalCategory:
    """Tensor data on a finite category.  tensor_obj[(x, y)] is "x tensor y",
    with x the later factor under the delooping's composition convention."""
    name: str
    cat: FiniteCategory
    tensor_obj: dict       # (x, y) -> object
    tensor_mor: dict       # (f, g) -> morphism
    unit_obj: object
    associator: dict       # (x, y, z) -> morphism (x@y)@z -> x@(y@z)
    left_unitor: dict      # x -> morphism unit@x -> x
    right_unitor: dict     # x -> morphism x@unit -> x


def sigma_bicategory(m: MonoidalCategory) -> FiniteBicategory:
    """The one-object bicategory whose hom-category is the monoidal category,
    with 1-cell composition given by the tensor."""
    star = "*"
    prod = product_category(m.cat, m.cat)
    comp = Functor(f"{m.name}-tensor", prod, m.cat, dict(m.tensor_obj), dict(m.tensor_mor))
    return FiniteBicategory(
        f"sigma[{m.name}]", [star], {(star, star): m.cat}, {(star, star, star): comp},
        {star: m.unit_obj}, dict(m.associator), dict(m.left_unitor), dict(m.right_unitor))


def validate_monoidal(m: MonoidalCategory) -> ValidationReport:
    """A monoidal structure is exactly a one-object bicategory; validate that."""
    rep = validate_bicategory(sigma_bicategory(m))
    rep.subject = f"monoidal category {m.name}"
    return rep


def cocycle_monoidal(name, g_elements, g_op, g_unit,
                     a_elements, a_op, a_unit, twist) -> MonoidalCategory:
    """The monoidal category underlying a twist delooping: objects a finite
    group, endomorphisms of each object a finite abelian group, tensor given
    by both group operations, associator twisted by a function of three group
    elements.

    No precondition is placed on the twist: the construction always returns a
    candidate structure, and the validator passes exactly when the twist
    satisfies the usual normalized closure equations — running the validator
    IS the twist test.  Missing twist entries default to the abelian unit.
    """
    morphisms = {(g, a): (g, g) for g in g_elements for a in a_elements}
    identity = {g: (g, a_unit) for g in g_elements}
    table = {}
    for g in g_elements:
        for a1 in a_elements:
            for a2 in a_elements:
                table[((g, a1), (g, a2))] = (g, a_op[(a1, a2)])
    hom = FiniteCategory(f"{name}-hom", list(g_elements), morphisms, identity, table)

    tensor_obj = {(g, h): g_op[(g, h)] for g in g_elements for h in g_elements}
    tensor_mor = {}
    for (g, a) in morphisms:
        for (h, b) in morphisms:
            tensor_mor[((g, a), (h, b))] = (g_op[(g, h)], a_op[(a, b)])

    def tw(x, y, z):
        return twist.get((x, y, z), a_unit)

    associator = {}
    for x in g_elements:
        for y in g_elements:
            for z in g_elements:
                associator[(x, y, z)] = (g_op[(g_op[(x, y)], z)], tw(x, y, z))
    left_unitor = {g: (g, a_unit) for g in g_elements}
    right_unitor = {g: (g, a_unit) for g in g_elements}
    return MonoidalCategory(name, hom, tensor_obj, tensor_mor, g_unit,
                            associator, left_unitor, right_unitor)


def cocycle_bicategory(name, g_elements, g_op, g_unit,
                       a_elements, a_op, a_unit, twist) -> FiniteBicategory:
    """Delooping of cocycle_monoidal; see there for the validity story."""
    b = sigma_bicategory(cocycle_monoidal(name, g_elements, g_op, g_unit,
                                          a_elements, a_op, a_unit, twist))
    b.name = name
    return b
