"""The laws of a lax functor and of an icon, written through the cell
operations of the bicategory.

These are the law checks the package used before each law instance bound
the source's half of its equation at declaration, kept verbatim as the
reference the tests compare against: each check recomputes the source's
composites, unitors and associators and composes the target's cells with
`vcomp`, `hcomp` and the whiskers, reading the lax functor through `on_1`
and `on_2`.  The listings must give the same instances, in the same order,
with the same verdicts.
"""

from __future__ import annotations


def _natural(fun, d, c):
    s, t, comp = fun.source, fun.target, fun.comp_constraints
    lhs = t.vcomp(comp[(s.tgt2(d), s.tgt2(c))], t.hcomp(fun.on_2(d), fun.on_2(c)))
    rhs = t.vcomp(fun.on_2(s.hcomp(d, c)), comp[(s.src2(d), s.src2(c))])
    return lhs == rhs


def _coherent(fun, h, g, f):
    s, t, comp = fun.source, fun.target, fun.comp_constraints
    fh, fg, ff = fun.on_1(h), fun.on_1(g), fun.on_1(f)
    lhs = t.vcomp(comp[(h, s.compose1(g, f))],
                  t.vcomp(t.whisker_left(fh, comp[(g, f)]), t.assoc(fh, fg, ff)))
    rhs = t.vcomp(fun.on_2(s.assoc(h, g, f)),
                  t.vcomp(comp[(s.compose1(h, g), f)],
                          t.whisker_right(comp[(h, g)], ff)))
    return lhs == rhs


def _left_unital(fun, f):
    s, t, ff = fun.source, fun.target, fun.on_1(f)
    b = s.home1(f)[1]
    return t.lunit(ff) == t.vcomp(
        fun.on_2(s.lunit(f)),
        t.vcomp(fun.comp_constraints[(s.unit[b], f)],
                t.whisker_right(fun.unit_constraints[b], ff)))


def _right_unital(fun, f):
    s, t, ff = fun.source, fun.target, fun.on_1(f)
    a = s.home1(f)[0]
    return t.runit(ff) == t.vcomp(
        fun.on_2(s.runit(f)),
        t.vcomp(fun.comp_constraints[(f, s.unit[a])],
                t.whisker_left(ff, fun.unit_constraints[a])))


def lax_laws(s):
    """Naturality and associativity of the comparison and the two unit
    axioms out of `s`, as law instances (see `ValidationReport.check_laws`)."""
    homs, comp, unit = "hom_functors", "comp_constraints", "unit_constraints"
    for d in s.two_cells():
        b, e = s.home2(d)
        for a in s.sorted_objects:
            for c in s.homs[(a, b)].sorted_morphisms:
                yield (_natural, (d, c), ((homs, (a, b)), (homs, (b, e)), (homs, (a, e)),
                                          (comp, (s.tgt2(d), s.tgt2(c))),
                                          (comp, (s.src2(d), s.src2(c)))),
                       "comp-constraint-naturality",
                       "comparison is not natural under ({!r}, {!r})")
    for h, g, f in s.composable_triples():
        (a, b), (c, e) = s.home1(f), s.home1(h)
        yield (_coherent, (h, g, f),
               ((homs, (a, b)), (homs, (b, c)), (homs, (c, e)), (homs, (a, e)),
                (comp, (h, s.compose1(g, f))), (comp, (g, f)),
                (comp, (s.compose1(h, g), f)), (comp, (h, g))),
               "comp-coherence",
               "the two comparison pastings disagree at ({!r}, {!r}, {!r})")
    for f in s.one_cells():
        a, b = s.home1(f)
        yield (_left_unital, (f,), ((homs, (a, b)), (comp, (s.unit[b], f)), (unit, b)),
               "left-unit-coherence", "left unit axiom fails at {!r}")
        yield (_right_unital, (f,), ((homs, (a, b)), (comp, (f, s.unit[a])), (unit, a)),
               "right-unit-coherence", "right unit axiom fails at {!r}")


def _composition_compatible(icon, x, y):
    f, g, t, cells = icon.source, icon.target, icon.source.target, icon.cells
    lhs = t.vcomp(g.comp_constraints[(x, y)], t.hcomp(cells[x], cells[y]))
    return lhs == t.vcomp(cells[f.source.compose1(x, y)], f.comp_constraints[(x, y)])


def _unit_compatible(icon, a):
    f, t = icon.source, icon.source.target
    lhs = t.vcomp(icon.cells[f.source.unit[a]], f.unit_constraints[a])
    return lhs == icon.target.unit_constraints[a]


def icon_laws(s):
    """Compatibility with the comparisons and with the unit comparisons, as
    law instances (see `ValidationReport.check_laws`) of an icon out of `s`."""
    for x, y in s.composable_pairs_by_later():
        yield (_composition_compatible, (x, y),
               (("cells", x), ("cells", y), ("cells", s.compose1(x, y))),
               "composition-compat",
               "components do not commute with the comparison at ({!r}, {!r})")
    for a in s.sorted_objects:
        yield (_unit_compatible, (a,), (("cells", s.unit[a]),),
               "unit-compat", "components do not commute with the unit comparison at {!r}")
