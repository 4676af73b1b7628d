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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .bicat import UnsupportedSettingError
from .catcore import NatTrans, nat_laws, nat_variables, validate_nat
from .laxfun import LaxFunctor, Lazy, compose_lax, lazy
from .report import ValidationReport, sorted_ids
from .search import constraints, search


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
        two hom functors whose components are the cells over hom(A, B)."""
        f, g, cells = self.source, self.target, self.cells
        return {pair: NatTrans(name, f.hom_functors[pair], g.hom_functors[pair],
                               {x: cells[x] for x in f.source.homs[pair].objects if x in cells})
                for pair, name in self.families.items()}

    @classmethod
    def from_components(cls, name, source, target, components):
        """The icon whose per-hom view is `components`, whose families each
        hold cells of their own hom only."""
        return cls(name, source, target,
                   {x: c for nt in components.values() for x, c in nt.components.items()},
                   {pair: nt.name for pair, nt in components.items()})


def validate_icon(icon: Icon) -> ValidationReport:
    rep = ValidationReport(f"icon {icon.name}")
    f, g = icon.source, icon.target
    if f.source is not g.source and f.source != g.source:
        rep.add("parallel", "the two lax functors do not share a source", structural=True)
        return rep
    if f.target is not g.target and f.target != g.target:
        rep.add("parallel", "the two lax functors do not share a target", structural=True)
        return rep
    s, t = f.source, f.target
    for a in sorted_ids(s.objects):
        if f.object_map[a] != g.object_map[a]:
            rep.add("object-maps-differ",
                    f"an icon needs equal object maps; they differ at {a!r}", (a,),
                    structural=True)
    if rep.structural_failure:
        return rep

    for pair in sorted_ids(f.hom_functors):
        if pair not in icon.families:
            rep.add("missing-hom-component", f"no component family at {pair!r}", pair,
                    structural=True)
            continue
        sub = validate_nat(NatTrans(icon.families[pair], f.hom_functors[pair],
                                    g.hom_functors[pair], icon.cells))
        for v in sub.violations:
            rep.add("component:" + v.kind, f"at {pair!r}: {v.message}", v.witness,
                    v.structural)
    if rep.violations:
        return rep

    rep.check_laws(icon, icon_laws(icon))
    return rep


def _composition_compatible(icon, x, y):
    f, g, t = icon.source, icon.target, icon.source.target
    lhs = t.vcomp(g.comp_constraints[(x, y)], t.hcomp(icon.at(x), icon.at(y)))
    return lhs == t.vcomp(icon.at(f.source.compose1(x, y)), f.comp_constraints[(x, y)])


def _unit_compatible(icon, a):
    f, t = icon.source, icon.source.target
    lhs = t.vcomp(icon.at(f.source.unit[a]), f.unit_constraints[a])
    return lhs == icon.target.unit_constraints[a]


def icon_laws(icon):
    """Compatibility with the comparisons and with the unit comparisons, as
    law instances (see `ValidationReport.check_laws`) of `icon`."""
    s, cells = icon.source.source, icon.cells
    homs = sorted_ids(s.homs)
    ones = {p: sorted_ids(s.homs[p].objects) for p in homs}
    for b, c in homs:
        for x in ones[(b, c)]:
            for a in [p[0] for p in homs if p[1] == b]:
                for y in ones[(a, b)]:
                    yield (_composition_compatible, (x, y),
                           ((cells, x), (cells, y), (cells, s.compose1(x, y))),
                           "composition-compat",
                           "components do not commute with the comparison at ({!r}, {!r})")
    for a in sorted_ids(s.objects):
        yield (_unit_compatible, (a,), ((cells, s.unit[a]),),
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


def enumerate_icons(f: LaxFunctor, g: LaxFunctor):
    """All icons f => g, in deterministic order; empty when the object maps
    differ.  One search binds every component 2-cell, hom pair by hom pair,
    under the naturality of each family and the icon laws; it meets the
    icons in the order of their families, each in `enumerate_nats` order."""
    if (f.source is not g.source and f.source != g.source) or \
            (f.target is not g.target and f.target != g.target):
        return
    if any(f.object_map[a] != g.object_map[a] for a in f.source.objects):
        return
    pairs = sorted_ids(f.hom_functors)
    draft = Icon("enum", f, g, {}, dict.fromkeys(pairs, "enum"))
    variables, laws = [], constraints(draft, icon_laws(draft))
    for p in pairs:
        nt = NatTrans("enum", f.hom_functors[p], g.hom_functors[p], draft.cells)
        variables += nat_variables(nt)
        laws += constraints(nt, nat_laws(nt))
    for _ in search(variables, laws):
        cand = Icon("enum", f, g, dict(draft.cells), dict(draft.families))
        if validate_icon(cand).ok:
            yield cand


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
