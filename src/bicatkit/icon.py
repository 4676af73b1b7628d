"""Icons: identity-component transformations between lax functors.

An icon from F to G exists only when F and G agree on objects.  It has no
1-cell components at all: its data is one 2-cell F(f) => G(f) for every
1-cell f of the source, stored as one flat table `{f: 2-cell}`.  Grouped by
hom-pair, these cells form one natural transformation between F's and G's
hom functors; `Icon.components` builds that per-hom view on demand, with
each family under its own name.  Two compatibility conditions tie the cells
to the comparison cells of F and G: one over composable pairs of 1-cells
and one over units.

Icons compose vertically and horizontally on the nose, which is what makes
the collection of bicategories, lax functors, and icons a *strict*
2-category; the tests drive exactly those laws.  They compose componentwise
(Lack, *Icons*): each composite is one pass over the table, and it builds
its source and target lax functors and its family names only when they are
read, so checking a law on cells composes no lax functors.

The icon declaration depends on the source bicategory alone: for each hom,
one variable per 1-cell names a cell of the icon, under the naturality
squares of that hom, and the compatibility laws of `icon_laws` tie the homs
together.  The source builds it once, as its ``icon_plan``.  `enumerate_icons`
runs its compiled search on a fresh draft icon per pair of lax functors, and
`validate_icon` checks its listing on a given icon, so the icons the search
finds pass the validator by construction and none is validated again.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import SimpleNamespace

from .bicat import UnsupportedSettingError
from .catcore import _COMPONENT, OBJECT_IMAGE, Functor, NatTrans
from .laxfun import _HOM_FUNCTOR, LaxFunctor, Lazy, compose_lax, lazy
from .report import ValidationReport, sorted_ids
from .search import compile_plan, run


@dataclass
class Icon(Lazy):
    name: str
    source: LaxFunctor
    target: LaxFunctor
    cells: dict       # 1-cell f -> 2-cell F(f) => G(f)
    families: dict    # (A, B) -> name of the component family on hom(A, B)

    def at(self, f):
        """The component 2-cell F(f) => G(f) at a 1-cell f."""
        return self.cells[f]

    @functools.cached_property
    def bicategory(self):
        """The bicategory the cells live in, the target of both lax functors.
        A composite is given it by its factors, so reading it there composes
        no lax functors."""
        return self.source.target

    @property
    def components(self):
        """The per-hom view: (A, B) -> the natural transformation between the
        two hom functors whose components are the cells over hom(A, B); a
        family at a key that names no hom of the source holds no cells."""
        f, g, cells, homs = self.source, self.target, self.cells, self.source.source.homs
        return {pair: NatTrans(name, f.hom_functors[pair], g.hom_functors[pair],
                               {x: cells[x] for x in (homs[pair].objects if pair in homs else ())
                                if x in cells})
                for pair, name in self.families.items()}

    @classmethod
    def from_components(cls, name, source, target, components):
        """The icon whose per-hom view is `components`, whose families each
        hold cells of their own hom only."""
        return cls(name, source, target,
                   {x: c for nt in components.values() for x, c in nt.components.items()},
                   {pair: nt.name for pair, nt in components.items()})


def validate_icon(icon: Icon) -> ValidationReport:
    """The source's `icon_plan` on a given icon: after `validate_icon_pair`,
    family by family, the cells of its hom and then, if they are clean, its
    naturality squares, reported under ``component:``; then `icon_laws`."""
    rep = ValidationReport(f"icon {icon.name}")
    f, g = icon.source, icon.target
    rep.include(validate_icon_pair(f, g))
    if rep.violations:
        return rep

    plan = f.source.icon_plan
    for pair in _families(f):
        if pair not in icon.families:
            rep.add("missing-hom-component", f"no component family at {pair!r}", pair,
                    structural=True)
            continue
        variables, squares = plan.families.get(pair, ((), ()))
        family = ValidationReport(f"family {pair!r}")
        family.check_values(icon, variables)
        if family.ok:
            family.check_laws(icon, squares)
        rep.include(family, "component:", f"at {pair!r}: ")
    if rep.violations:
        return rep

    rep.check_laws(icon, plan.laws)
    return rep


def validate_icon_pair(f: LaxFunctor, g: LaxFunctor) -> ValidationReport:
    """The checks of `validate_icon` that read no cell, so hold or fail for
    every icon f => g alike, all structural: parallel lax functors, object
    maps defined and equal on every object, a hom functor of each at every
    hom with 1-cells, hom functors keyed alike, the witness of a difference
    being the first key of one that the other lacks, and each of them a
    functor.  A missing object image and a hom functor that is not a functor
    are reported as `validate_lax_functor` reports them."""
    rep = ValidationReport(f"icons {f.name} => {g.name}")
    if f.source is not g.source and f.source != g.source:
        rep.add("parallel", "the two lax functors do not share a source", structural=True)
        return rep
    if f.target is not g.target and f.target != g.target:
        rep.add("parallel", "the two lax functors do not share a target", structural=True)
        return rep
    for a in f.source.sorted_objects:
        if a not in f.object_map or a not in g.object_map:
            kind, message = OBJECT_IMAGE[0]
            rep.add(kind, message.format(a), (a,), structural=True)
        elif f.object_map[a] != g.object_map[a]:
            rep.add("object-maps-differ",
                    f"an icon needs equal object maps; they differ at {a!r}", (a,),
                    structural=True)
    if rep.structural_failure:
        return rep
    for pair in f.source.sorted_homs:
        if f.source.homs[pair].objects and not (pair in f.hom_functors and pair in g.hom_functors):
            rep.add("missing-hom-functor", f"no hom functor at {pair!r}, whose hom has 1-cells",
                    pair, structural=True)
    if rep.violations:
        return rep
    if f.hom_functors.keys() != g.hom_functors.keys():
        pair = sorted_ids(f.hom_functors.keys() ^ g.hom_functors.keys())[0]
        rep.add("hom-functor-keys-differ",
                f"only one of the two lax functors has a hom functor at {pair!r}", pair,
                structural=True)
        return rep
    kind, message = _HOM_FUNCTOR[2]
    for pair in _families(f):
        if not (isinstance(f.hom_functors[pair], Functor) and
                isinstance(g.hom_functors[pair], Functor)):
            rep.add(kind, message.format(*pair), pair, structural=True)
    return rep


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


def identity_icon(fun: LaxFunctor) -> Icon:
    homs = fun.hom_functors.values()
    return Icon(f"id:{fun.name}", fun, fun,
                {x: hf.target.identity[hf.object_map[x]] for hf in homs for x in hf.source.objects},
                {pair: f"id:{hf.name}" for pair, hf in fun.hom_functors.items()})


# The composites below compute their cells at once; their source, target and
# family names are built from the two factors when first read (see `Lazy`).
_VCOMP = {
    "source": lambda later, earlier: earlier.source,
    "target": lambda later, earlier: later.target,
    "families": lambda later, earlier: {pair: f"{later.families[pair]}.{name}"
                                        for pair, name in earlier.families.items()},
}
# A pasted icon runs between the composites of the sources and of the
# targets of its two factors, where a lax functor stands for its identity.
_PASTED = {
    "source": lambda later, earlier: compose_lax(_source(later), _source(earlier)),
    "target": lambda later, earlier: compose_lax(_target(later), _target(earlier)),
    "families": lambda later, earlier: {pair: f"h{pair!r}"
                                        for pair in _source(earlier).hom_functors},
}


def _source(x):
    return x if isinstance(x, LaxFunctor) else x.source


def _target(x):
    return x if isinstance(x, LaxFunctor) else x.target


def vcomp_icons(later: Icon, earlier: Icon) -> Icon:
    """Componentwise vertical composite ("later" runs second)."""
    t, cells = later.bicategory, later.cells
    return lazy(Icon, _VCOMP, (later, earlier), name=f"{later.name}.{earlier.name}",
                cells={x: t.vcomp(cells[x], c) for x, c in earlier.cells.items()}, bicategory=t)


def hcomp_icons(later: Icon, earlier: Icon) -> Icon:
    """Horizontal composite along composition of lax functors.

    The two pastings (act on the component, then shift, or the other way
    round) agree by naturality; this builds the shift-after-act order.
    """
    t, cells, on_1, on_2 = later.bicategory, later.cells, earlier.target.on_1, later.source.on_2
    return lazy(Icon, _PASTED, (later, earlier), name=f"{later.name}*{earlier.name}",
                cells={x: t.vcomp(cells[on_1(x)], on_2(c)) for x, c in earlier.cells.items()},
                bicategory=t)


def whisker_icon_left(fun: LaxFunctor, icon: Icon) -> Icon:
    """Post-compose every functor in sight with `fun`: the component at f is
    `fun` applied to the component of `icon` at f.  This is
    `hcomp_icons(identity_icon(fun), icon)`, whose pasting composes that
    cell with an identity."""
    on_2 = fun.on_2
    return lazy(Icon, _PASTED, (fun, icon), name=f"id:{fun.name}*{icon.name}",
                cells={x: on_2(c) for x, c in icon.cells.items()}, bicategory=fun.target)


def whisker_icon_right(icon: Icon, fun: LaxFunctor) -> Icon:
    """Pre-compose every functor in sight with `fun`: the component at f is
    the component of `icon` at fun(f), a pure reindexing.  This is
    `hcomp_icons(icon, identity_icon(fun))`, whose pasting composes that
    cell with the image of an identity."""
    cells = icon.cells
    return lazy(Icon, _PASTED, (icon, fun), name=f"{icon.name}*id:{fun.name}",
                cells={x: cells[y] for hf in fun.hom_functors.values()
                       for x, y in hf.object_map.items()}, bicategory=icon.bicategory)


def is_invertible_icon(icon: Icon):
    """Return (flag, inverse).  An icon is invertible exactly when every
    component 2-cell is; the inverse is built cellwise and validated."""
    t = icon.bicategory
    cells = {x: t.inv2(c) for x, c in icon.cells.items()}
    if None in cells.values():
        return False, None
    inverse = Icon(f"{icon.name}^-1", icon.target, icon.source, cells,
                   {pair: f"inv{pair!r}" for pair in icon.families})
    if not validate_icon(inverse).ok:
        return False, None
    return True, inverse


def _families(f: LaxFunctor):
    """The hom pairs of f's hom functors, in canonical order: its source's
    `sorted_homs` when they are exactly the source's homs."""
    s = f.source
    return s.sorted_homs if f.hom_functors.keys() == s.homs.keys() else sorted_ids(f.hom_functors)


# The partials of the icon listing take the icon last, and a square's
# holds takes the 2-cell the square is at after it.  Each reads the hom
# functors of the icon's lax functors at the family's pair.

def _component_cells(pair, x, icon):
    """The candidate components at the 1-cell x: the 2-cells F(x) => G(x)."""
    f, g = icon.source.hom_functors[pair], icon.target.hom_functors[pair]
    return f.target.hom(f.object_map[x], g.object_map[x])


def _target_cells(pair, icon, x):
    return icon.source.hom_functors[pair].target.morphisms


def _natural_in_family(pair, a, b, icon, m):
    f, g, cells = icon.source.hom_functors[pair], icon.target.hom_functors[pair], icon.cells
    return (f.target.compose(cells[b], f.morphism_map[m])
            == f.target.compose(g.morphism_map[m], cells[a]))


def _family(pair, cat):
    """The listing of the family at `pair` over the hom `cat`: one variable
    per 1-cell, checked as a natural transformation's component is, and the
    naturality square at each 2-cell."""
    checks = (_COMPONENT[0], functools.partial(_target_cells, pair), *_COMPONENT[2:])
    variables = tuple(("cells", x, (), functools.partial(_component_cells, pair, x), (x,),
                       checks) for x in cat.sorted_objects)
    squares = tuple((functools.partial(_natural_in_family, pair, *cat.morphisms[m]), (m,),
                     tuple(("cells", x) for x in cat.morphisms[m]),
                     "naturality", "naturality square at {!r} does not commute")
                    for m in cat.sorted_morphisms)
    return variables, squares


def icon_plan(s):
    """The icon declaration out of `s`, for any pair of lax functors:
    ``families``, the listing of each hom pair of `s` (`_family`);
    ``laws``, the instances of `icon_laws` in order; and ``search``, the
    plan that binds the draft's ``cells`` family by family under the
    ``laws`` and the naturality squares."""
    families = {pair: _family(pair, s.homs[pair]) for pair in s.sorted_homs}
    laws = tuple(icon_laws(s))
    variables = [v for listed, _ in families.values() for v in listed]
    squares = tuple(sq for _, listed in families.values() for sq in listed)
    return SimpleNamespace(families=families, laws=laws,
                           search=compile_plan(variables, laws + squares))


def enumerate_icons(f: LaxFunctor, g: LaxFunctor):
    """All icons f => g, in deterministic order; none when `validate_icon_pair`
    fails.  One run of the source's `icon_plan` binds every component 2-cell,
    hom pair by hom pair, under the naturality of each family and the icon
    laws; it meets the icons in the order of their families, each in
    `enumerate_nats` order.

    Every icon found passes `validate_icon`, which checks the same
    declaration."""
    if not validate_icon_pair(f, g).ok:
        return
    draft = Icon("enum", f, g, {}, dict.fromkeys(_families(f), "enum"))
    for _ in run(f.source.icon_plan.search, draft):
        yield Icon("enum", f, g, dict(draft.cells), dict(draft.families))


# ---------------------------------------------------------------------------
# the one-object dictionary: monoidal natural transformations

def monoidal_to_icon(name, components, f: LaxFunctor, g: LaxFunctor) -> Icon:
    """Wrap a family {object -> morphism} — the data of a monoidal natural
    transformation — as an icon between one-object lax functors."""
    if len(f.source.objects) != 1:
        raise UnsupportedSettingError("only defined for one-object sources")
    star = f.source.objects[0]
    return Icon(name, f, g, dict(components), {(star, star): name})


def icon_to_monoidal(icon: Icon) -> dict:
    """The underlying {object -> morphism} family of a one-object icon."""
    if len(icon.source.source.objects) != 1:
        raise UnsupportedSettingError("only defined for one-object sources")
    return dict(icon.cells)
