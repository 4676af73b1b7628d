"""Lax functors between finite bicategories.

A lax functor carries an object map, a functor between each pair of
hom-categories, a comparison 2-cell ``comp_constraints[(g, f)]`` from
``F(g) . F(f)`` to ``F(g.f)`` for every composable pair, and a comparison
``unit_constraints[A]`` from the target's unit at ``F(A)`` to ``F`` of the
source's unit.  Nothing is assumed invertible; ``classify`` reports how strict
a given functor actually is.

A lax functor keeps the verdict of the checks that read it alone,
``own_violations``, once it is first read.  The enumerators that search the
lax listing hand it out with their results instead (`searched`): what their
search bound lies inside that listing, so it holds by construction and is
not checked again.  So a lax functor yielded by `enumerate_lax_functors`, or
by `bicatkit.nerve.simplex_functors`, is not mutated from the moment it is
yielded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

from .bicat import FiniteBicategory, MonoidalCategory
from .catcore import (OBJECT_IMAGE, Functor, compose_functors, enumerate_functors,
                      validate_functor, validate_images)
from .report import ValidationReport
from .search import compile_plan, run


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

    @cached_property
    def cell_maps(self):
        """``(positions, {2-cell: image})``: what the icon algebra reads of
        this lax functor, built on first read and kept (see
        `bicatkit.icon.cell_maps`), so the hom functors are fixed once the
        lax functor has been whiskered.  `on_1` and `on_2` read the hom
        functors themselves, which a search rebinds on its draft."""
        from .icon import cell_maps
        return cell_maps(self)

    @cached_property
    def own_violations(self):
        """What every icon into or out of this lax functor needs of it
        alone, as ``(pair, report)`` for each part that fails: the report of
        `validate_images` on the hom functor at each source hom with 1-cells,
        and, if none fails, ``(None, report)`` on the comparisons and unit
        comparisons, checked as `validate_lax_functor` checks them; empty
        when all hold.  `validate_icon_pair` reads it once it has checked
        the object images and that a hom functor stands at each such hom.
        Like `cell_maps`, it is built on first read and kept, so a lax
        functor is not mutated once an icon into or out of it has been
        checked or searched.  A lax functor that a search yields comes with
        it already set, empty (see `searched`), so one of those is not
        mutated from the moment it is yielded."""
        s, t, omap = self.source, self.target, self.object_map
        found = []
        for a, b in s.sorted_homs:
            if s.homs[(a, b)].objects:
                hf = self.hom_functors[(a, b)]
                images = validate_images(Functor(hf.name, s.homs[(a, b)],
                                                 t.homs[(omap[a], omap[b])],
                                                 hf.object_map, hf.morphism_map))
                if images.violations:
                    found.append(((a, b), images))
        if not found:
            constraints = ValidationReport(self.name)
            constraints.check_values(self, constraint_variables(s, comparison_cells, unit_cells))
            if constraints.violations:
                found.append((None, constraints))
        return tuple(found)

    @cached_property
    def icon_ready(self):
        """Whether this lax functor passes every check of `validate_icon_pair`
        that reads it alone: an object image at each source object, a
        target object; a hom functor at each source hom with 1-cells; each
        hom functor a `Functor`; and `own_violations` empty.  When both lax
        functors of a pair are, the pair is checked on what it shares alone.
        Kept like `own_violations`, under the same rule."""
        s, objects = self.source, self.target.objects
        omap, homs = self.object_map, self.hom_functors
        return (all(a in omap and omap[a] in objects for a in s.objects)
                and all(pair in homs for pair, cat in s.homs.items() if cat.objects)
                and all(isinstance(hf, Functor) for hf in homs.values())
                and not self.own_violations)


def validate_lax_functor(fun: LaxFunctor) -> ValidationReport:
    rep = ValidationReport(f"lax functor {fun.name}")
    s, t = fun.source, fun.target
    n = len(s.sorted_objects)
    variables = lax_variables(s, t, comparison_cells, unit_cells)
    rep.check_values(fun, variables[:n])
    if rep.structural_failure:
        return rep

    for var in variables[n:n + n * n]:
        rep.check_values(fun, [var])
        (a, b), hf = var[1], fun.hom_functors.get(var[1])
        if isinstance(hf, Functor):
            rebuilt = Functor(f"{fun.name}({a},{b})", s.homs[(a, b)],
                              t.homs[(fun.object_map[a], fun.object_map[b])],
                              hf.object_map, hf.morphism_map)
            rep.include(validate_functor(rebuilt), "hom-functor:", f"hom functor {(a, b)!r}: ")
    if rep.violations:
        return rep

    rep.check_values(fun, variables[n + n * n:])
    if rep.violations:
        return rep
    rep.check_laws(fun, lax_laws(s))
    return rep


# Each law below takes the source data that `lax_laws` binds first, then the
# lax functor and the cells of the instance.  It reads the hom functors at
# the bound hom pairs and one entry of the target's `vcomp_table`,
# `hcomp_table` or `id2_table` per composite; ``vcomp(later, earlier)`` is
# ``vcomp_table[(earlier, later)]``.

def _natural(ab, be, ae, top, bottom, dc, fun, d, c):
    homs, comp, t = fun.hom_functors, fun.comp_constraints, fun.target
    vcomp = t.vcomp_table
    lhs = vcomp[(t.hcomp_table[(homs[be].morphism_map[d], homs[ab].morphism_map[c])], comp[top])]
    return lhs == vcomp[(comp[bottom], homs[ae].morphism_map[dc])]


def _coherent(ab, bc, ce, ae, h_gf, hg_f, alpha, fun, h, g, f):
    homs, comp, t = fun.hom_functors, fun.comp_constraints, fun.target
    vcomp, hcomp, id2 = t.vcomp_table, t.hcomp_table, t.id2_table
    fh, fg, ff = homs[ce].object_map[h], homs[bc].object_map[g], homs[ab].object_map[f]
    lhs = vcomp[(vcomp[(t.associator[(fh, fg, ff)], hcomp[(id2[fh], comp[(g, f)])])],
                 comp[h_gf])]
    rhs = vcomp[(vcomp[(hcomp[(comp[(h, g)], id2[ff])], comp[hg_f])],
                 homs[ae].morphism_map[alpha])]
    return lhs == rhs


def _left_unital(ab, ub_f, b, lam, fun, f):
    hf, t = fun.hom_functors[ab], fun.target
    ff, vcomp = hf.object_map[f], t.vcomp_table
    whiskered = t.hcomp_table[(fun.unit_constraints[b], t.id2_table[ff])]
    return t.left_unitor[ff] == vcomp[(vcomp[(whiskered, fun.comp_constraints[ub_f])],
                                       hf.morphism_map[lam])]


def _right_unital(ab, f_ua, a, rho, fun, f):
    hf, t = fun.hom_functors[ab], fun.target
    ff, vcomp = hf.object_map[f], t.vcomp_table
    whiskered = t.hcomp_table[(t.id2_table[ff], fun.unit_constraints[a])]
    return t.right_unitor[ff] == vcomp[(vcomp[(whiskered, fun.comp_constraints[f_ua])],
                                        hf.morphism_map[rho])]


def lax_laws(s):
    """Naturality and associativity of the comparison and the two unit
    axioms out of `s`, as law instances (see `ValidationReport.check_laws`).

    Each ``holds`` is a partial that binds the half of its equation that
    `s` alone fixes: the hom pairs of the hom functors it reads, and
    - naturality at (d, c): the keys of the comparisons at the targets and
      at the sources of d and c, and ``s.hcomp(d, c)``;
    - coherence at (h, g, f): the keys ``(h, g.f)`` and ``(h.g, f)`` of two
      of its comparisons, and ``s.assoc(h, g, f)``;
    - the unit axioms at f: the key of the comparison with the unit, the
      object of the unit comparison, and ``s.lunit(f)`` or ``s.runit(f)``."""
    homs, comp, unit = "hom_functors", "comp_constraints", "unit_constraints"
    for d in s.two_cells():
        b, e = s.home2(d)
        d0, d1 = s.src2(d), s.tgt2(d)
        for a in s.sorted_objects:
            ab, be, ae = (a, b), (b, e), (a, e)
            for c in s.homs[ab].sorted_morphisms:
                top, bottom = (d1, s.tgt2(c)), (d0, s.src2(c))
                yield (partial(_natural, ab, be, ae, top, bottom, s.hcomp(d, c)),
                       (d, c), ((homs, ab), (homs, be), (homs, ae), (comp, top), (comp, bottom)),
                       "comp-constraint-naturality",
                       "comparison is not natural under ({!r}, {!r})")
    for h, g, f in s.composable_triples():
        (a, b), (c, e) = s.home1(f), s.home1(h)
        ab, bc, ce, ae = (a, b), (b, c), (c, e), (a, e)
        h_gf, hg_f = (h, s.compose1(g, f)), (s.compose1(h, g), f)
        yield (partial(_coherent, ab, bc, ce, ae, h_gf, hg_f, s.assoc(h, g, f)),
               (h, g, f),
               ((homs, ab), (homs, bc), (homs, ce), (homs, ae),
                (comp, h_gf), (comp, (g, f)), (comp, hg_f), (comp, (h, g))),
               "comp-coherence",
               "the two comparison pastings disagree at ({!r}, {!r}, {!r})")
    for f in s.one_cells():
        ab = a, b = s.home1(f)
        ub_f, f_ua = (s.unit[b], f), (f, s.unit[a])
        yield (partial(_left_unital, ab, ub_f, b, s.lunit(f)), (f,),
               ((homs, ab), (comp, ub_f), (unit, b)),
               "left-unit-coherence", "left unit axiom fails at {!r}")
        yield (partial(_right_unital, ab, f_ua, a, s.runit(f)), (f,),
               ((homs, ab), (comp, f_ua), (unit, a)),
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
    comps = list(fun.comp_constraints.values())
    units = list(fun.unit_constraints.values())
    return LaxClass(
        comp_identity=t.identity_cells.issuperset(comps),
        comp_invertible=all(t.inv2(c) is not None for c in comps),
        unit_identity=t.identity_cells.issuperset(units),
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
    comp = {(g, f): b.id2(b.compose1(g, f)) for g, f in b.composable_pairs()}
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
    fun = LaxFunctor(name, s, t, dict(object_map),
                     _strict_homs(name, s, t, object_map, cell1_map, cell2_map), {}, {})
    for g, f in s.composable_pairs():
        if not _preserves_composite(fun, g, f):
            raise ValueError(f"{name} does not strictly preserve the composite "
                             f"of ({g!r}, {f!r})")
        fun.comp_constraints[(g, f)] = t.id2(cell1_map[s.compose1(g, f)])
    for a in s.objects:
        if not _preserves_unit(fun, a):
            raise ValueError(f"{name} does not strictly preserve the unit at {a!r}")
        fun.unit_constraints[a] = t.id2(t.unit[object_map[a]])
    return fun


def _strict_homs(name, s, t, object_map, cell1_map, cell2_map):
    """The hom functors of `two_functor`: at each pair of objects, the
    restrictions of the cell maps to that hom, each named after `name`."""
    homs = {}
    for a in s.objects:
        for b in s.objects:
            cat = s.homs[(a, b)]
            homs[(a, b)] = Functor(f"{name}({a},{b})", cat,
                                   t.homs[(object_map[a], object_map[b])],
                                   {x: cell1_map[x] for x in cat.objects},
                                   {m: cell2_map[m] for m in cat.morphisms})
    return homs


def _preserves_composite(fun, g, f):
    s = fun.source
    return fun.target.compose1(fun.on_1(g), fun.on_1(f)) == fun.on_1(s.compose1(g, f))


def _preserves_unit(fun, a):
    return fun.on_1(fun.source.unit[a]) == fun.target.unit[fun.object_map[a]]


def _functor_at(fun, a, b):
    """The hom functor of `fun` at (a, b), alone in a list, if it is a functor."""
    hf = fun.hom_functors[(a, b)]
    return [hf] if isinstance(hf, Functor) else []


# The checks of a lax functor's entries.
_HOM_FUNCTOR = (("missing-hom-functor", "no hom functor at ({!r}, {!r})"),
                _functor_at,
                ("dangling-hom-functor", "hom functor at ({!r}, {!r}) is not a functor"), None)
_COMPARISON = (("missing-comp-constraint", "no comparison for the pair ({!r}, {!r})"),
               lambda fun, g, f: _comparison_hom(fun, g, f).morphisms,
               ("dangling-comp-constraint",
                "comparison at ({!r}, {!r}) is not a 2-cell of its hom"),
               ("comp-constraint-endpoints",
                "comparison at ({0!r}, {1!r}) must run F{0!r}.F{1!r} => F(g.f)", False))
_UNIT = (("missing-unit-constraint", "no unit comparison at {!r}"),
         lambda fun, a: fun.target.homs[(fun.object_map[a], fun.object_map[a])].morphisms,
         ("dangling-unit-constraint", "unit comparison at {!r} is not a 2-cell of its hom"),
         ("unit-constraint-endpoints",
          "unit comparison at {!r} must run from the target unit to the image of the "
          "source unit", False))


def lax_variables(s, t, comparisons, units):
    """The search variables of a lax functor s -> t: object images, hom
    functors, comparisons at the composable pairs and unit comparisons,
    each family in sorted order.  `comparisons(fun, g, f)` and
    `units(fun, a)` list the candidate 2-cells of the draft `fun`.

    The hom functors at (a, b) range over the functors between s's hom
    there and t's hom at (F a, F b), enumerated once per listing for each
    such key, so the lax functors that a search over one listing yields
    share hom functors: none of them may be mutated."""
    objs, targets = s.sorted_objects, t.sorted_objects
    found = {}  # (a, b, F a, F b) -> the functors between the two homs

    def hom_functors(fun, a, b):
        key = (a, b, fun.object_map[a], fun.object_map[b])
        if key not in found:
            cat, tcat = s.homs[(a, b)], t.homs[key[2:]]
            found[key] = [Functor("empty", cat, tcat, {}, {})] if not cat.objects \
                else list(enumerate_functors(cat, tcat))
        return found[key]

    omap, homs = "object_map", "hom_functors"
    variables = [(omap, a, (), lambda fun: targets, (a,), OBJECT_IMAGE) for a in objs]
    variables += [(homs, (a, b), ((omap, a), (omap, b)),
                   lambda fun, a=a, b=b: hom_functors(fun, a, b), (a, b), _HOM_FUNCTOR)
                  for a in objs for b in objs]
    return variables + constraint_variables(s, comparisons, units)


def constraint_variables(s, comparisons, units):
    """The last variables of `lax_variables`, which need no target: the
    comparisons at the composable pairs of `s`, then the unit comparisons."""
    omap, homs = "object_map", "hom_functors"
    variables = []
    for g, f in s.composable_pairs():
        (a, b), c = s.home1(f), s.home1(g)[1]
        variables.append(("comp_constraints", (g, f),
                          ((homs, (a, b)), (homs, (b, c)), (homs, (a, c))),
                          lambda fun, g=g, f=f: comparisons(fun, g, f), (g, f), _COMPARISON))
    return variables + [("unit_constraints", a, ((omap, a), (homs, (a, a))),
                         lambda fun, a=a: units(fun, a), (a,), _UNIT) for a in s.sorted_objects]


def _comparison_hom(fun, g, f):
    """The hom of F's comparison at (g, f)."""
    s = fun.source
    return fun.target.homs[(fun.object_map[s.home1(f)[0]], fun.object_map[s.home1(g)[1]])]


def comparison_cells(fun, g, f):
    """The 2-cells F(g).F(f) => F(g.f), candidates for a comparison."""
    s, t = fun.source, fun.target
    return _comparison_hom(fun, g, f).hom(t.compose1(fun.on_1(g), fun.on_1(f)),
                                          fun.on_1(s.compose1(g, f)))


def unit_cells(fun, a):
    """The 2-cells from the target's unit at F(a) to F of the source's unit
    at a, candidates for a unit comparison."""
    t, x = fun.target, fun.object_map[a]
    return t.homs[(x, x)].hom(t.unit[x], fun.on_1(fun.source.unit[a]))


def enumerate_two_functors(s: FiniteBicategory, t: FiniteBicategory):
    """All strict functors s -> t, for finite strict search settings: the
    lax functors whose comparisons are identities, so that units and
    composites are preserved on the nose, checked for naturality, which
    then says that horizontal composites are preserved too.

    Each one is built from the search's draft as `two_functor` builds it
    from the same cell maps, with hom functors of its own named as that
    names them, since the search shares hom functors between its candidates
    (see `lax_variables`).  `two_functor`'s composite and unit checks are
    not run again: a candidate's identity comparisons and identity units
    exist only where they pass."""
    def identity_comparison(fun, g, f):
        ok = _preserves_composite(fun, g, f)
        return [t.id2(fun.on_1(s.compose1(g, f)))] if ok else []

    def identity_unit(fun, a):
        return [t.id2(t.unit[fun.object_map[a]])] if _preserves_unit(fun, a) else []

    natural = [law for law in lax_laws(s) if law[3] == "comp-constraint-naturality"]
    plan = compile_plan(lax_variables(s, t, identity_comparison, identity_unit), natural)
    draft = LaxFunctor("enum", s, t, {}, {}, {}, {})
    for _ in run(plan, draft):
        cell1, cell2 = {}, {}
        for hf in draft.hom_functors.values():
            cell1.update(hf.object_map)
            cell2.update(hf.morphism_map)
        yield LaxFunctor("enum", s, t, dict(draft.object_map),
                         _strict_homs("enum", s, t, draft.object_map, cell1, cell2),
                         dict(draft.comp_constraints),
                         {a: draft.unit_constraints[a] for a in s.objects})


def enumerate_lax_functors(s: FiniteBicategory, t: FiniteBicategory):
    """All lax functors s -> t.  Exhaustive; meant for very small instances.

    Every one found passes `validate_lax_functor`, which checks the same
    declaration, and comes with its `own_violations`, empty: the search
    binds each hom functor from `enumerate_functors` between the homs that
    listing checks it against, each comparison from `comparison_cells` and
    each unit comparison from `unit_cells`.  The lax functors yielded share
    hom functors (see `lax_variables`), so none of them may be mutated."""
    plan = compile_plan(lax_variables(s, t, comparison_cells, unit_cells), lax_laws(s))
    draft = LaxFunctor("enum", s, t, {}, {}, {}, {})
    for _ in run(plan, draft):
        yield searched(LaxFunctor("enum", s, t, dict(draft.object_map),
                                  dict(draft.hom_functors), dict(draft.comp_constraints),
                                  dict(draft.unit_constraints)))


def searched(fun: LaxFunctor) -> LaxFunctor:
    """`fun` with its `own_violations` set to empty, the verdict of a search
    whose every candidate lies inside that listing: hom functors from
    `enumerate_functors` between the homs it checks them against,
    comparisons from `comparison_cells` and units from `unit_cells`."""
    fun.own_violations = ()
    return fun


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


def sigma_functor(mf: MonoidalFunctor, s: FiniteBicategory, t: FiniteBicategory) -> LaxFunctor:
    """Transport a (lax) monoidal functor to a lax functor between the
    deloopings s of its source and t of its target."""
    star_s, star_t = s.objects[0], t.objects[0]
    hom = Functor(f"{mf.name}-hom", s.homs[(star_s, star_s)],
                  t.homs[(star_t, star_t)],
                  dict(mf.functor.object_map), dict(mf.functor.morphism_map))
    return LaxFunctor(f"sigma[{mf.name}]", s, t, {star_s: star_t},
                      {(star_s, star_s): hom}, dict(mf.comp), {star_s: mf.unit})
