"""Icons: identity-component transformations between lax functors.

An icon from F to G exists only when F and G agree on objects.  It consists
of one natural transformation per hom-pair, from F's hom functor to G's, with
no 1-cell components at all — the data lives entirely in 2-cells F(f) => G(f).
Two compatibility conditions tie the components to the comparison cells of F
and G: one over composable pairs of 1-cells and one over units.

Icons compose vertically and horizontally on the nose, which is what makes
the collection of bicategories, lax functors, and icons a *strict* 2-category;
the tests drive exactly those laws.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bicat import UnsupportedSettingError
from .catcore import (NatTrans, identity_nat, nat_laws, nat_variables, validate_nat,
                      vcomp_nat)
from .laxfun import LaxFunctor, compose_lax
from .report import ValidationReport, sorted_ids
from .search import constraints, search


@dataclass
class Icon:
    name: str
    source: LaxFunctor
    target: LaxFunctor
    components: dict     # (A, B) -> NatTrans between the two hom functors

    def at(self, f):
        """The component 2-cell F(f) => G(f) at a 1-cell f."""
        return self.components[self.source.source.home1(f)].at(f)


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
        nt = icon.components.get(pair)
        if nt is None:
            rep.add("missing-hom-component", f"no component family at {pair!r}", pair,
                    structural=True)
            continue
        rebuilt = NatTrans(f"{icon.name}{pair!r}", f.hom_functors[pair],
                           g.hom_functors[pair], nt.components)
        sub = validate_nat(rebuilt)
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
    s, comps = icon.source.source, icon.components
    homs = sorted_ids(s.homs)
    cells = {p: sorted_ids(s.homs[p].objects) for p in homs}
    for b, c in homs:
        for x in cells[(b, c)]:
            for a in [p[0] for p in homs if p[1] == b]:
                at_x, at_y = comps[(b, c)].components, comps[(a, b)].components
                for y in cells[(a, b)]:
                    yield (_composition_compatible, (x, y),
                           ((at_x, x), (at_y, y), (comps[(a, c)].components, s.compose1(x, y))),
                           "composition-compat",
                           "components do not commute with the comparison at ({!r}, {!r})")
    for a in sorted_ids(s.objects):
        yield (_unit_compatible, (a,), ((comps[(a, a)].components, s.unit[a]),),
               "unit-compat", "components do not commute with the unit comparison at {!r}")


def identity_icon(fun: LaxFunctor) -> Icon:
    return Icon(f"id:{fun.name}", fun, fun,
                {pair: identity_nat(hf) for pair, hf in fun.hom_functors.items()})


def vcomp_icons(later: Icon, earlier: Icon) -> Icon:
    """Componentwise vertical composite ("later" runs second)."""
    comps = {pair: vcomp_nat(later.components[pair], earlier.components[pair])
             for pair in earlier.components}
    return Icon(f"{later.name}.{earlier.name}", earlier.source, later.target, comps)


def hcomp_icons(later: Icon, earlier: Icon) -> Icon:
    """Horizontal composite along composition of lax functors.

    The two pastings (act on the component, then shift, or the other way
    round) agree by naturality; this builds the shift-after-act order.
    """
    src = compose_lax(later.source, earlier.source)
    tgt = compose_lax(later.target, earlier.target)
    t = later.source.target
    comps = {}
    for pair, hf in src.hom_functors.items():
        cells = {}
        for f in earlier.source.hom_functors[pair].object_map:
            gf = earlier.target.on_1(f)
            cells[f] = t.vcomp(later.at(gf), later.source.on_2(earlier.at(f)))
        comps[pair] = NatTrans(f"h{pair!r}", hf, tgt.hom_functors[pair], cells)
    return Icon(f"{later.name}*{earlier.name}", src, tgt, comps)


def whisker_icon_left(fun: LaxFunctor, icon: Icon) -> Icon:
    """Post-compose every functor in sight with `fun`."""
    return hcomp_icons(identity_icon(fun), icon)


def whisker_icon_right(icon: Icon, fun: LaxFunctor) -> Icon:
    """Pre-compose every functor in sight with `fun`."""
    return hcomp_icons(icon, identity_icon(fun))


def is_invertible_icon(icon: Icon):
    """Return (flag, inverse).  An icon is invertible exactly when every
    component 2-cell is; the inverse is built cellwise and validated."""
    f, g = icon.source, icon.target
    t = f.target
    comps = {}
    for pair, nt in icon.components.items():
        inv_cells = {}
        for x, cell in nt.components.items():
            inv = t.inv2(cell)
            if inv is None:
                return False, None
            inv_cells[x] = inv
        comps[pair] = NatTrans(f"inv{pair!r}", g.hom_functors[pair],
                               f.hom_functors[pair], inv_cells)
    inverse = Icon(f"{icon.name}^-1", g, f, comps)
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
    draft = Icon("enum", f, g, {p: NatTrans("enum", f.hom_functors[p], g.hom_functors[p], {})
                                for p in sorted_ids(f.hom_functors)})
    variables, laws = [], constraints(draft, icon_laws(draft))
    for nt in draft.components.values():
        variables += nat_variables(nt)
        laws += constraints(nt, nat_laws(nt))
    for _ in search(variables, laws):
        cand = Icon("enum", f, g, {p: NatTrans("enum", nt.source, nt.target, dict(nt.components))
                                   for p, nt in draft.components.items()})
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
    pair = (star, star)
    nt = NatTrans(name, f.hom_functors[pair], g.hom_functors[pair], dict(components))
    return Icon(name, f, g, {pair: nt})


def icon_to_monoidal(icon: Icon) -> dict:
    """The underlying {object -> morphism} family of a one-object icon."""
    if len(icon.source.source.objects) != 1:
        raise UnsupportedSettingError("only defined for one-object sources")
    star = icon.source.source.objects[0]
    return dict(icon.components[(star, star)].components)
