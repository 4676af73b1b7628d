"""Finite bicategories: weak two-dimensional categories given by explicit tables.

A bicategory here is a finite set of objects, a finite hom-category for every
ordered pair of objects, composition functors, unit 1-cells, and the three
families of coherence 2-cells.  The composition functor at (A, B, C) runs
from hom(B,C) x hom(A,B) to hom(A,C); its source is stored as the pair of
the two homs, and no product category is built.  Conventions, fixed once
and used everywhere:

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

A bicategory hands out its cells, homs and composable pairs and triples of
1-cells in canonical order (`sorted_ids`), computed once, on first read, from
its cell sets: ``objects`` and ``homs`` with their objects and morphisms.  So
the cell sets are fixed once it is built; the hom tables, ``comp``, ``unit``
and the coherence tables may still be filled in or edited in place.  Two
exceptions: its ``icon_plan`` and its ``oplax_plan``, each compiled on first
read, hold the composite of every composable pair of 1-cells and the unit
at every object.  So the object maps of ``comp`` and ``unit`` are fixed too
once an icon search, an icon validation or an oplax search has run out of
the bicategory.  Likewise the hom tables are
fixed once an icon has been composed in it, since `vcomp_table` holds them.

Four flat tables, each built on first read and kept, let a check read one
dict or set per question: `vcomp_table` of every vertical composite,
`hcomp_table` of every horizontal one, `id2_table` of every identity 2-cell
and `identity_cells`, the set of those identities, which the strictness
tests read.  The law checks of lax functors and icons into the bicategory
read the first three, so its hom tables, the morphism maps of ``comp`` and
the identities are fixed once a lax functor into it has been searched or
checked; they are fixed too once `identity_cells` has been read, by
`is_strict` or by a classification of a functor or transformation into it.

The coherence data is a declaration over the composition data:
`coherence_variables` lists an associator per composable triple and a left
and a right unitor per 1-cell, each ranging over the invertible 2-cells
with its endpoints, and `bicategory_laws` lists the naturality, pentagon
and triangle instances.  `validate_bicategory` checks the hom categories,
the ids, the units and the composition functors, each against
`bifunctor_variables` and `bifunctor_laws` of its two homs, then runs the
coherence listing; `search.run` enumerates that listing on a draft whose
coherence tables are empty.
Validation reads the live hom tables, ``comp`` and ``unit``, never the flat
tables, so it holds on a bicategory still being built or edited.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property, partial

from .catcore import (
    FiniteCategory,
    Functor,
    bifunctor_laws,
    bifunctor_variables,
    check_functor,
    codiscrete_category,
    discrete_category,
    grouped,
    validate_category,
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
    comp: dict           # (A, B, C) -> Functor: (hom(B,C), hom(A,B)) -> hom(A,C)
    unit: dict           # A -> 1-cell id in hom(A, A)
    associator: dict     # (h, g, f) -> 2-cell: (h.g).f => h.(g.f)
    left_unitor: dict    # f -> 2-cell: unit.f => f
    right_unitor: dict   # f -> 2-cell: f.unit => f

    # -- canonical views ---------------------------------------------------
    @cached_property
    def sorted_objects(self):
        """The objects, each once, in canonical order."""
        return tuple(sorted_ids(dict.fromkeys(self.objects)))

    @cached_property
    def sorted_homs(self):
        """The (source, target) pairs of the hom-categories, in canonical order."""
        return tuple(sorted_ids(self.homs))

    @cached_property
    def _home1(self):
        """1-cell -> (source, target), in the order of `one_cells`."""
        return {f: pair for pair in self.sorted_homs for f in self.homs[pair].sorted_objects}

    @cached_property
    def _home2(self):
        """2-cell -> (source, target), in the order of `two_cells`."""
        return {c: pair for pair in self.sorted_homs for c in self.homs[pair].sorted_morphisms}

    @cached_property
    def _out(self):
        return grouped(self._home1, lambda f: self._home1[f][0])

    @cached_property
    def _into(self):
        return grouped(self._home1, lambda f: self._home1[f][1])

    def home1(self, f):
        """The (source object, target object) pair of a 1-cell."""
        return self._home1[f]

    def home2(self, c):
        return self._home2[c]

    def one_cells(self):
        """The 1-cells, hom by hom, in canonical order."""
        return tuple(self._home1)

    def two_cells(self):
        """The 2-cells, hom by hom, in canonical order."""
        return tuple(self._home2)

    def composable_pairs(self):
        """The pairs (g, f) of 1-cells with g after f defined, f slowest."""
        for f in self._home1:
            for g in self._out.get(self._home1[f][1], ()):
                yield g, f

    def composable_pairs_by_later(self):
        """The same pairs (g, f), g slowest."""
        for g in self._home1:
            for f in self._into.get(self._home1[g][0], ()):
                yield g, f

    def composable_triples(self):
        """The triples (h, g, f) with h after g after f defined, f slowest,
        then g."""
        for g, f in self.composable_pairs():
            for h in self._out.get(self._home1[g][1], ()):
                yield h, g, f

    @cached_property
    def vcomp_table(self):
        """``{(earlier, later): composite}``: the tables of every hom in one,
        built on first read, which 2-cell ids unique across the homs allow.
        `vcomp` still reads the hom tables; the icon algebra and the law
        checks read this."""
        return {key: c for hom in self.homs.values() for key, c in hom.table.items()}

    @cached_property
    def hcomp_table(self):
        """``{(d, c): composite}``: the morphism maps of every ``comp``
        functor in one, built on first read, which 2-cell ids unique across
        the homs allow.  `hcomp` still reads the functors; the law checks of
        lax functors and icons into this bicategory read this."""
        return {key: x for fun in self.comp.values() for key, x in fun.morphism_map.items()}

    @cached_property
    def id2_table(self):
        """``{1-cell: identity 2-cell}`` over every hom, built on first read."""
        return {f: i for hom in self.homs.values() for f, i in hom.identity.items()}

    @cached_property
    def identity_cells(self):
        """The identity 2-cells, built on first read from `id2_table`: each
        ``id2(f)`` that is a 2-cell from f to f.  So ``c in identity_cells``
        says whether c is a 2-cell whose source and target agree and which is
        the identity there, and is False for an id that is no 2-cell."""
        return frozenset(i for f, i in self.id2_table.items()
                         if i in self._home2 and self.src2(i) == f == self.tgt2(i))

    @cached_property
    def icon_plan(self):
        """The icon search out of this bicategory, compiled on first read
        (see `bicatkit.icon.icon_plan`)."""
        from .icon import icon_plan
        return icon_plan(self)

    @cached_property
    def oplax_plan(self):
        """The compiled search of oplax transformations out of this
        bicategory, compiled on first read (see `bicatkit.oplax.oplax_plan`)."""
        from .oplax import oplax_plan
        return oplax_plan(self)

    # -- cell operations ---------------------------------------------------
    def src2(self, c):
        return self.homs[self._home2[c]].morphisms[c][0]

    def tgt2(self, c):
        return self.homs[self._home2[c]].morphisms[c][1]

    def id2(self, f):
        return self.homs[self._home1[f]].identity[f]

    def inv2(self, c):
        return self.homs[self._home2[c]].iso_inverse(c)

    def vcomp(self, later, earlier):
        """Vertical composite inside one hom-category ("later" runs second)."""
        return self.homs[self._home2[earlier]].table[(earlier, later)]

    def compose1(self, g, f):
        a, b = self._home1[f]
        b2, c = self._home1[g]
        if b != b2:
            raise ValueError(f"1-cells {g!r} after {f!r} are not composable")
        return self.comp[(a, b, c)].object_map[(g, f)]

    def hcomp(self, d, c):
        """Horizontal composite of 2-cells: d (over the later 1-cells) beside c."""
        a, b = self._home2[c]
        b2, cc = self._home2[d]
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
        """True when every coherence cell is an identity 2-cell.  The answer
        is not kept: the coherence tables may still be edited in place."""
        return self.identity_cells.issuperset(itertools.chain(
            self.associator.values(), self.left_unitor.values(),
            self.right_unitor.values()))


def validate_bicategory(b: FiniteBicategory) -> ValidationReport:
    rep = ValidationReport(f"bicategory {b.name}")
    objset = set(b.objects)
    if len(objset) != len(b.objects):
        rep.add("duplicate-object", "object list has repeats", structural=True)

    objs = b.sorted_objects
    pairs = [(x, y) for x in objs for y in objs]
    for pair in pairs:
        if pair not in b.homs:
            rep.add("missing-hom", f"no hom-category for {pair!r}", pair, structural=True)
    for pair in b.sorted_homs:
        if pair not in pairs:
            rep.add("spurious-hom", f"hom-category at {pair!r} has unknown endpoints",
                    pair, structural=True)
    if rep.structural_failure:
        return rep

    for pair in pairs:
        rep.include(validate_category(b.homs[pair]), "hom:", f"hom{pair!r}: ")
    if rep.violations:
        return rep

    seen = {1: {}, 2: {}}
    for pair in pairs:
        for n, cells in ((1, b.homs[pair].sorted_objects), (2, b.homs[pair].sorted_morphisms)):
            for x in cells:
                if x in seen[n]:
                    rep.add(f"{n}-cell-clash", f"{n}-cell id {x!r} appears in "
                            f"hom{seen[n][x]!r} and hom{pair!r}", (x,), structural=True)
                seen[n][x] = pair

    rep.check_values(b, [("unit", a, (), None, (a,), _UNIT) for a in objs])
    if rep.structural_failure:
        return rep

    # composition functors, each checked as a functor out of the product of
    # its two homs, listed from the homs themselves: the stored source and
    # target are never read
    for x, y, z in itertools.product(objs, repeat=3):
        key = (x, y, z)
        fun = b.comp.get(key)
        if fun is None:
            rep.add("missing-comp", f"no composition functor for {key!r}", key,
                    structural=True)
            continue
        left, right, target = b.homs[(y, z)], b.homs[(x, y)], b.homs[(x, z)]
        checked = Functor(f"comp{key!r}", (left, right), target,
                          fun.object_map, fun.morphism_map)
        rep.include(check_functor(checked, bifunctor_variables(left, right),
                                  bifunctor_laws(left, right)), "comp:", f"comp{key!r}: ")
    if rep.violations:
        return rep

    rep.check_values(b, coherence_variables(b))
    if rep.violations:
        return rep
    rep.check_laws(b, bicategory_laws(b))
    return rep


# The checks of a bicategory's units and coherence cells.
_UNIT = (("missing-unit", "object {!r} has no unit 1-cell"),
         lambda b, a: b.homs[(a, a)].objects,
         ("dangling-unit", "unit of {!r} is not an endo-1-cell of it"), None)


def _invertible(between, b):
    """The invertible ones of the 2-cells `between`: a coherence cell's domain."""
    return [c for c in between if b.inv2(c) is not None]


def _coherence_variable(b, field, key, cells, pair, ends, at, where, endpoints):
    """The variable ``field[key]`` of b's coherence cells: a 2-cell of the hom
    at `pair` with the endpoints `ends`, which composition fixes, and an
    inverse.  Its checks name the cell `at`, a format of `cells`, and its
    hom `where`, and say what its endpoints must be."""
    label, between = field.replace("_", "-"), b.homs[pair].hom(*ends)
    return (field, key, (), partial(_invertible, between), cells,
            ((f"missing-{label}", f"no {label} at {at}"),
             lambda b, *cells: b.homs[pair].morphisms,
             (f"dangling-{label}", f"{label} at {at} is not a 2-cell of {where}"),
             (f"{label}-not-invertible", f"{label} at {at} has no inverse", False,
              lambda b, *cells: between,
              (f"{label}-endpoints", f"{label} at {at} {endpoints}", False))))


def coherence_variables(b):
    """The search variables of b's coherence cells: the associator at each
    composable triple, then the left and the right unitor at each 1-cell,
    each ranging over the invertible 2-cells with the endpoints that
    composition fixes.  They read b's hom tables, units and composition
    functors, and no other variable."""
    variables = []
    for t in b.composable_triples():
        h, g, f = t
        pair = (b.home1(f)[0], b.home1(h)[1])
        hom = "hom" + repr(pair).replace("{", "{{").replace("}", "}}")  # a literal in a format
        variables.append(_coherence_variable(
            b, "associator", t, t, pair, (b.compose1(b.compose1(h, g), f),
                                          b.compose1(h, b.compose1(g, f))),
            "({!r}, {!r}, {!r})", hom, "must run (h.g).f => h.(g.f)"))
    for f in b.one_cells():
        a, c = pair = b.home1(f)
        for field, ends in (("left_unitor", (b.compose1(b.unit[c], f), f)),
                            ("right_unitor", (b.compose1(f, b.unit[a]), f))):
            variables.append(_coherence_variable(b, field, f, (f,), pair, ends, "{!r}",
                                                 "its hom", "has the wrong endpoints"))
    return variables


# Each law below takes what `bicategory_laws` binds first, then the
# bicategory and the cells of the instance; it reads the coherence cells it
# names and composes with b's own `vcomp` and `hcomp`.

def _associator_natural(moved, t, top, bottom, b, *cells):
    return b.vcomp(b.associator[moved], top) == b.vcomp(bottom, b.associator[t])


def _unitor_natural(field, f, f2, whiskered, b, c):
    unitor = getattr(b, field)
    return b.vcomp(unitor[f2], whiskered) == b.vcomp(c, unitor[f])


def _pentagon(k_h_gf, kh_g_f, h_g_f, k_hg_f, k_h_g, id_k, id_f, b, *cells):
    a = b.associator
    return b.vcomp(a[k_h_gf], a[kh_g_f]) == b.vcomp(
        b.hcomp(id_k, a[h_g_f]), b.vcomp(a[k_hg_f], b.hcomp(a[k_h_g], id_f)))


def _triangle(g_u_f, id_g, id_f, b, g, f):
    return (b.vcomp(b.hcomp(id_g, b.left_unitor[f]), b.associator[g_u_f])
            == b.hcomp(b.right_unitor[g], id_f))


_NATURAL = tuple(f"associator is not natural in the {slot} slot at "
                 "({!r}, {!r}, {!r}) under {!r}" for slot in ("later", "middle", "earlier"))


def bicategory_laws(b):
    """Naturality of the associator, one slot at a time (joint naturality
    follows from functorial composition), naturality of the left and the
    right unitor, the pentagon and the triangle, as law instances (see
    `ValidationReport.check_laws`) over `coherence_variables(b)`.

    Each ``holds`` is a partial that binds what composition alone fixes:
    the keys of the coherence cells it reads, and
    - naturality: the horizontal composites of the moved 2-cell with the
      identities on the other 1-cells, or with the unit's identity;
    - the pentagon and the triangle: the identities it whiskers by."""
    at = {t: ("associator", t) for t in b.composable_triples()}
    hcomp = cache(b.hcomp)  # each pair composed once per listing
    for t in at:
        ids = tuple(map(b.id2, t))
        for i, message in enumerate(_NATURAL):
            for c in b.homs[b.home1(t[i])].out_of(t[i]):
                ch, cg, cf = ids[:i] + (c,) + ids[i + 1:]
                moved = t[:i] + (b.tgt2(c),) + t[i + 1:]
                yield (partial(_associator_natural, moved, t, hcomp(hcomp(ch, cg), cf),
                               hcomp(ch, hcomp(cg, cf))),
                       t + (c,), (at[moved], at[t]), "associator-naturality", message)
    for c in b.two_cells():
        f, f2 = b.src2(c), b.tgt2(c)
        a, bb = b.home2(c)
        for side, whiskered in (("left", b.hcomp(b.id2(b.unit[bb]), c)),
                                ("right", b.hcomp(c, b.id2(b.unit[a])))):
            field = f"{side}_unitor"
            yield (partial(_unitor_natural, field, f, f2, whiskered), (c,),
                   ((field, f2), (field, f)), f"{side}-unitor-naturality",
                   f"{side} unitor is not natural under {{!r}}")
    ending = grouped(at, lambda t: b.home1(t[0])[1])
    for k in b.one_cells():
        for h, g, f in ending.get(b.home1(k)[0], ()):
            keys = ((k, h, b.compose1(g, f)), (b.compose1(k, h), g, f), (h, g, f),
                    (k, b.compose1(h, g), f), (k, h, g))
            yield (partial(_pentagon, *keys, b.id2(k), b.id2(f)), (k, h, g, f),
                   tuple(map(at.__getitem__, keys)), "pentagon",
                   "pentagon fails at ({!r}, {!r}, {!r}, {!r})")
    for g, f in b.composable_pairs_by_later():
        g_u_f = (g, b.unit[b.home1(g)[0]], f)
        yield (partial(_triangle, g_u_f, b.id2(g), b.id2(f)), (g, f),
               (("left_unitor", f), at[g_u_f], ("right_unitor", g)), "triangle",
               "triangle fails at ({!r}, {!r})")


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
    for x, y, z in itertools.product(b.objects, repeat=3):
        left, right = homs[(y, z)], homs[(x, y)]
        omap = {(g, f): comp1(g, f) for g in left.objects for f in right.objects}
        mmap = {(d, c): comp2(d, c) for d in left.morphisms for c in right.morphisms}
        b.comp[(x, y, z)] = Functor(f"comp({x},{y},{z})", (left, right), homs[(x, z)],
                                    omap, mmap)
    for h, g, f in b.composable_triples():
        lhs = comp1(comp1(h, g), f)
        if lhs != comp1(h, comp1(g, f)):
            raise ValueError(f"comp1 is not strictly associative at ({h!r}, {g!r}, {f!r})")
        b.associator[(h, g, f)] = b.id2(lhs)
    for f in b.one_cells():
        a, bb = b.home1(f)
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
        return self.associativity_failure() is None

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
    comp = {(star, star, star): Functor(f"{name}-comp", (hom, hom), hom, omap, mmap)}
    b = FiniteBicategory(name, [star], {(star, star): hom}, comp,
                         {star: e}, {}, {}, {})
    for f in magma.elements:
        b.left_unitor[f] = ("to", magma.table[(e, f)], f)
        b.right_unitor[f] = ("to", magma.table[(f, e)], f)
    for h, g, f in b.composable_triples():
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
    comp = Functor(f"{m.name}-tensor", (m.cat, m.cat), m.cat,
                   dict(m.tensor_obj), dict(m.tensor_mor))
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
