"""Lax functors between finite bicategories.

A lax functor carries an object map, a functor between each pair of
hom-categories, a comparison 2-cell ``comp_constraints[(g, f)]`` from
``F(g) . F(f)`` to ``F(g.f)`` for every composable pair, and a comparison
``unit_constraints[A]`` from the target's unit at ``F(A)`` to ``F`` of the
source's unit.  Nothing is assumed invertible; ``classify`` reports how strict
a given functor actually is.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .bicat import FiniteBicategory, MonoidalCategory, sigma_bicategory
from .catcore import Functor, compose_functors, enumerate_functors, validate_functor
from .report import ValidationReport, sorted_ids
from .search import constraints, search


class Lazy:
    """Lets a dataclass instance leave fields unset until they are first
    read: with ``_lazy = (builders, args)`` set, a missing field ``attr``
    is built as ``builders[attr](*args)`` and then kept."""

    def __getattr__(self, attr):
        # reached only for an attribute that is not set
        lazy = self.__dict__.get("_lazy")
        if lazy is None or attr not in lazy[0]:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {attr!r}")
        value = self.__dict__[attr] = lazy[0][attr](*lazy[1])
        return value


def lazy(cls, builders, args, **fields):
    """An instance of the `Lazy` dataclass `cls` with `fields` set and the
    fields named in `builders` left to be built from `args` when read."""
    obj = cls.__new__(cls)
    fields["_lazy"] = (builders, args)
    obj.__dict__ = fields
    return obj


@dataclass
class LaxFunctor(Lazy):
    name: str
    source: FiniteBicategory
    target: FiniteBicategory
    object_map: dict        # object -> object
    hom_functors: dict      # (A, B) -> Functor hom(A,B) -> hom(FA, FB)
    comp_constraints: dict  # (g, f) -> 2-cell F(g).F(f) => F(g.f)
    unit_constraints: dict  # A -> 2-cell unit_{FA} => F(unit_A)

    def on_obj(self, a):
        return self.object_map[a]

    def on_1(self, f):
        return self.hom_functors[self.source.home1(f)].object_map[f]

    def on_2(self, c):
        return self.hom_functors[self.source.home2(c)].morphism_map[c]


def validate_lax_functor(fun: LaxFunctor) -> ValidationReport:
    rep = ValidationReport(f"lax functor {fun.name}")
    s, t = fun.source, fun.target
    tobj = set(t.objects)
    for a in sorted_ids(s.objects):
        x = fun.object_map.get(a)
        if x is None:
            rep.add("missing-object-image", f"no image for object {a!r}", (a,),
                    structural=True)
        elif x not in tobj:
            rep.add("dangling-object-image", f"image of {a!r} is not a target object",
                    (a,), structural=True)
    if rep.structural_failure:
        return rep

    for a in sorted_ids(s.objects):
        for b in sorted_ids(s.objects):
            hf = fun.hom_functors.get((a, b))
            if hf is None:
                rep.add("missing-hom-functor", f"no hom functor at {(a, b)!r}", (a, b),
                        structural=True)
                continue
            rebuilt = Functor(f"{fun.name}({a},{b})", s.homs[(a, b)],
                              t.homs[(fun.object_map[a], fun.object_map[b])],
                              hf.object_map, hf.morphism_map)
            sub = validate_functor(rebuilt)
            for v in sub.violations:
                rep.add("hom-functor:" + v.kind, f"hom functor {(a, b)!r}: {v.message}",
                        v.witness, v.structural)
    if rep.violations:
        return rep

    for g, f in _composable_pairs(s):
        cat = t.homs[(fun.object_map[s.home1(f)[0]], fun.object_map[s.home1(g)[1]])]
        cell = fun.comp_constraints.get((g, f))
        if cell is None:
            rep.add("missing-comp-constraint", f"no comparison for the pair ({g!r}, {f!r})",
                    (g, f), structural=True)
        elif cell not in cat.morphisms:
            rep.add("dangling-comp-constraint",
                    f"comparison at ({g!r}, {f!r}) is not a 2-cell of its hom", (g, f),
                    structural=True)
        elif cell not in comparison_cells(fun, g, f):
            rep.add("comp-constraint-endpoints",
                    f"comparison at ({g!r}, {f!r}) must run F{g!r}.F{f!r} => F(g.f)",
                    (g, f))
    for a in sorted_ids(s.objects):
        fa = fun.object_map[a]
        cat = t.homs[(fa, fa)]
        cell = fun.unit_constraints.get(a)
        if cell is None:
            rep.add("missing-unit-constraint", f"no unit comparison at {a!r}", (a,),
                    structural=True)
        elif cell not in cat.morphisms:
            rep.add("dangling-unit-constraint",
                    f"unit comparison at {a!r} is not a 2-cell of its hom", (a,),
                    structural=True)
        elif cat.morphisms[cell] != (t.unit[fa], fun.on_1(s.unit[a])):
            rep.add("unit-constraint-endpoints",
                    f"unit comparison at {a!r} must run from the target unit to the "
                    f"image of the source unit", (a,))
    if rep.violations:
        return rep

    rep.check_laws(fun, lax_laws(fun))
    return rep


def _composable_pairs(s):
    """The pairs (g, f) of 1-cells with g after f defined, f slowest."""
    cells = list(s.one_cells())
    return [(g, f) for f in cells for g in cells if s.home1(f)[1] == s.home1(g)[0]]


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


def lax_laws(fun):
    """Naturality and associativity of the comparison and the two unit
    axioms, as law instances (see `ValidationReport.check_laws`) of `fun`."""
    s = fun.source
    homs, comp, unit = fun.hom_functors, fun.comp_constraints, fun.unit_constraints
    cells1, cells2 = list(s.one_cells()), list(s.two_cells())
    for d in cells2:
        for c in cells2:
            (a, b), (b2, e) = s.home2(c), s.home2(d)
            if b == b2:
                yield (_natural, (d, c), ((homs, (a, b)), (homs, (b, e)), (homs, (a, e)),
                                          (comp, (s.tgt2(d), s.tgt2(c))),
                                          (comp, (s.src2(d), s.src2(c)))),
                       "comp-constraint-naturality",
                       "comparison is not natural under ({!r}, {!r})")
    for g, f in _composable_pairs(s):
        for h in cells1:
            a, b = s.home1(f)
            c, (c2, e) = s.home1(g)[1], s.home1(h)
            if c2 == c:
                yield (_coherent, (h, g, f),
                       ((homs, (a, b)), (homs, (b, c)), (homs, (c, e)), (homs, (a, e)),
                        (comp, (h, s.compose1(g, f))), (comp, (g, f)),
                        (comp, (s.compose1(h, g), f)), (comp, (h, g))),
                       "comp-coherence",
                       "the two comparison pastings disagree at ({!r}, {!r}, {!r})")
    for f in cells1:
        a, b = s.home1(f)
        yield (_left_unital, (f,), ((homs, (a, b)), (comp, (s.unit[b], f)), (unit, b)),
               "left-unit-coherence", "left unit axiom fails at {!r}")
        yield (_right_unital, (f,), ((homs, (a, b)), (comp, (f, s.unit[a])), (unit, a)),
               "right-unit-coherence", "right unit axiom fails at {!r}")


# ---------------------------------------------------------------------------
# classification

@dataclass(frozen=True)
class LaxClass:
    comp_identity: bool
    comp_invertible: bool
    unit_identity: bool
    unit_invertible: bool

    @property
    def is_strict(self):
        return self.comp_identity and self.unit_identity

    @property
    def is_normal(self):
        """Unit comparisons are identities and the rest is invertible."""
        return self.unit_identity and self.comp_invertible

    @property
    def is_homomorphism(self):
        return self.comp_invertible and self.unit_invertible

    @property
    def label(self):
        if self.is_strict:
            return "strict"
        if self.is_normal:
            return "normal homomorphism"
        if self.is_homomorphism:
            return "homomorphism"
        return "lax"


def classify(fun: LaxFunctor) -> LaxClass:
    t = fun.target

    def is_id(cell):
        return cell == t.id2(t.src2(cell))

    comps = list(fun.comp_constraints.values())
    units = list(fun.unit_constraints.values())
    return LaxClass(
        comp_identity=all(is_id(c) for c in comps),
        comp_invertible=all(t.inv2(c) is not None for c in comps),
        unit_identity=all(is_id(c) for c in units),
        unit_invertible=all(t.inv2(c) is not None for c in units),
    )


# ---------------------------------------------------------------------------
# identity / composition / builders

def identity_lax(b: FiniteBicategory) -> LaxFunctor:
    homs = {}
    for pair in b.homs:
        cat = b.homs[pair]
        homs[pair] = Functor(f"1{pair!r}", cat, cat,
                             {x: x for x in cat.objects},
                             {m: m for m in cat.morphisms})
    comp = {(g, f): b.id2(b.compose1(g, f)) for g, f in _composable_pairs(b)}
    unit = {a: b.id2(b.unit[a]) for a in b.objects}
    return LaxFunctor(f"1_{b.name}", b, b,
                      {a: a for a in b.objects}, homs, comp, unit)


def compose_lax(later: LaxFunctor, earlier: LaxFunctor) -> LaxFunctor:
    """The composite "later after earlier"; comparisons are pasted, and the
    result of pasting two lax functors is again lax on the nose.

    Only the name and the object map are built here.  The hom functors, the
    comparisons and the unit comparisons are each built from the two
    functors the first time they are read, so the composite shares those
    functors: neither may be mutated while the composite is in use."""
    return lazy(LaxFunctor, _COMPOSITE_FIELDS, (later, earlier),
                name=f"{later.name}.{earlier.name}", source=earlier.source, target=later.target,
                object_map={a: later.object_map[earlier.object_map[a]]
                            for a in earlier.source.objects})


def _composite_homs(g, f):
    return {(a, b): compose_functors(g.hom_functors[(f.object_map[a], f.object_map[b])], hf)
            for (a, b), hf in f.hom_functors.items()}


def _composite_comparisons(g, f):
    t = g.target
    return {(x, y): t.vcomp(g.on_2(cell), g.comp_constraints[(f.on_1(x), f.on_1(y))])
            for (x, y), cell in f.comp_constraints.items()}


def _composite_units(g, f):
    t = g.target
    return {a: t.vcomp(g.on_2(cell), g.unit_constraints[f.object_map[a]])
            for a, cell in f.unit_constraints.items()}


# the fields of a composite that are built on first access, and their builders
_COMPOSITE_FIELDS = {"hom_functors": _composite_homs,
                     "comp_constraints": _composite_comparisons,
                     "unit_constraints": _composite_units}


def two_functor(name, s: FiniteBicategory, t: FiniteBicategory,
                object_map, cell1_map, cell2_map) -> LaxFunctor:
    """A strict functor of bicategories given by raw cell maps.  Raises if the
    maps are not strictly compatible with units and composition — use a
    hand-built LaxFunctor when genuine comparison cells are needed."""
    homs = {}
    for a in s.objects:
        for b_ in s.objects:
            cat = s.homs[(a, b_)]
            homs[(a, b_)] = Functor(
                f"{name}({a},{b_})", cat,
                t.homs[(object_map[a], object_map[b_])],
                {x: cell1_map[x] for x in cat.objects},
                {m: cell2_map[m] for m in cat.morphisms})
    fun = LaxFunctor(name, s, t, dict(object_map), homs, {}, {})
    for g, f in _composable_pairs(s):
        if not _preserves_composite(fun, g, f):
            raise ValueError(f"{name} does not strictly preserve the composite "
                             f"of ({g!r}, {f!r})")
        fun.comp_constraints[(g, f)] = t.id2(cell1_map[s.compose1(g, f)])
    for a in s.objects:
        if not _preserves_unit(fun, a):
            raise ValueError(f"{name} does not strictly preserve the unit at {a!r}")
        fun.unit_constraints[a] = t.id2(t.unit[object_map[a]])
    return fun


def _preserves_composite(fun, g, f):
    s = fun.source
    return fun.target.compose1(fun.on_1(g), fun.on_1(f)) == fun.on_1(s.compose1(g, f))


def _preserves_unit(fun, a):
    return fun.on_1(fun.source.unit[a]) == fun.target.unit[fun.object_map[a]]


def lax_variables(fun, comparisons, units):
    """The search variables of a lax functor, bound into the draft `fun`
    (empty dicts to start with): object images, hom functors, comparisons
    at the composable pairs and unit comparisons, each family in sorted
    order.  `comparisons(g, f)` and `units(a)` list the candidate 2-cells."""
    s, t = fun.source, fun.target
    omap, homs = fun.object_map, fun.hom_functors
    objs, targets = sorted_ids(s.objects), sorted_ids(t.objects)

    def hom_functors(a, b):
        cat, tcat = s.homs[(a, b)], t.homs[(omap[a], omap[b])]
        if not cat.objects:
            return [Functor("empty", cat, tcat, {}, {})]
        return list(enumerate_functors(cat, tcat))

    variables = [(omap, a, (), lambda: targets) for a in objs]
    variables += [(homs, (a, b), ((omap, a), (omap, b)), functools.partial(hom_functors, a, b))
                  for a in objs for b in objs]
    for g, f in _composable_pairs(s):
        (a, b), c = s.home1(f), s.home1(g)[1]
        variables.append((fun.comp_constraints, (g, f),
                          ((homs, (a, b)), (homs, (b, c)), (homs, (a, c))),
                          functools.partial(comparisons, g, f)))
    variables += [(fun.unit_constraints, a, ((omap, a), (homs, (a, a))),
                   functools.partial(units, a)) for a in objs]
    return variables


def comparison_cells(fun, g, f):
    """The 2-cells F(g).F(f) => F(g.f), candidates for a comparison."""
    s, t = fun.source, fun.target
    cat = t.homs[(fun.object_map[s.home1(f)[0]], fun.object_map[s.home1(g)[1]])]
    return cat.hom(t.compose1(fun.on_1(g), fun.on_1(f)), fun.on_1(s.compose1(g, f)))


def enumerate_two_functors(s: FiniteBicategory, t: FiniteBicategory):
    """All strict functors s -> t, for finite strict search settings: the
    lax functors whose comparisons are identities, so that units and
    composites are preserved on the nose, checked for naturality, which
    then says that horizontal composites are preserved too."""
    draft = LaxFunctor("enum", s, t, {}, {}, {}, {})

    def identity_comparison(g, f):
        ok = _preserves_composite(draft, g, f)
        return [t.id2(draft.on_1(s.compose1(g, f)))] if ok else []

    def identity_unit(a):
        return [t.id2(t.unit[draft.object_map[a]])] if _preserves_unit(draft, a) else []

    natural = [law for law in lax_laws(draft) if law[0] is _natural]
    variables = lax_variables(draft, identity_comparison, identity_unit)
    for _ in search(variables, constraints(draft, natural)):
        cell1, cell2 = {}, {}
        for hf in draft.hom_functors.values():
            cell1.update(hf.object_map)
            cell2.update(hf.morphism_map)
        yield two_functor("enum", s, t, draft.object_map, cell1, cell2)


def enumerate_lax_functors(s: FiniteBicategory, t: FiniteBicategory):
    """All lax functors s -> t.  Exhaustive; meant for very small instances."""
    draft = LaxFunctor("enum", s, t, {}, {}, {}, {})

    def unit_cells(a):
        x = draft.object_map[a]
        return t.homs[(x, x)].hom(t.unit[x], draft.on_1(s.unit[a]))

    variables = lax_variables(draft, functools.partial(comparison_cells, draft), unit_cells)
    for _ in search(variables, constraints(draft, lax_laws(draft))):
        cand = LaxFunctor("enum", s, t, dict(draft.object_map), dict(draft.hom_functors),
                          dict(draft.comp_constraints), dict(draft.unit_constraints))
        if validate_lax_functor(cand).ok:
            yield cand


# ---------------------------------------------------------------------------
# monoidal functors, as lax functors between one-object deloopings

@dataclass
class MonoidalFunctor:
    name: str
    source: MonoidalCategory
    target: MonoidalCategory
    functor: Functor        # between the underlying categories
    comp: dict              # (x, y) -> morphism F(x) tensor F(y) -> F(x tensor y)
    unit: object            # morphism: target unit object -> F(source unit object)


def sigma_functor(mf: MonoidalFunctor, source_bicat=None, target_bicat=None) -> LaxFunctor:
    """Transport a (lax) monoidal functor to a lax functor of deloopings."""
    s = source_bicat or sigma_bicategory(mf.source)
    t = target_bicat or sigma_bicategory(mf.target)
    star_s, star_t = s.objects[0], t.objects[0]
    hom = Functor(f"{mf.name}-hom", s.homs[(star_s, star_s)],
                  t.homs[(star_t, star_t)],
                  dict(mf.functor.object_map), dict(mf.functor.morphism_map))
    return LaxFunctor(f"sigma[{mf.name}]", s, t, {star_s: star_t},
                      {(star_s, star_s): hom}, dict(mf.comp), {star_s: mf.unit})
