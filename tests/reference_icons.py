"""The icon algebra on per-hom natural-transformation families.

This is the algebra the package used before icons became one flat table
`{1-cell: 2-cell}`, kept verbatim as the reference the tests compare
against: an icon holds one `NatTrans` per hom pair, composites are built
family by family, and `compose_lax` builds every field of a composite at
once (and keeps the most recent few).  The flat algebra must give the same
names, the same cell at every 1-cell, the same family names and composites
with the same fields.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass

from bicatkit.catcore import NatTrans, compose_functors, identity_nat, vcomp_nat
from bicatkit.laxfun import LaxFunctor


@dataclass
class Icon:
    name: str
    source: LaxFunctor
    target: LaxFunctor
    components: dict     # (A, B) -> NatTrans between the two hom functors

    def at(self, f):
        """The component 2-cell F(f) => G(f) at a 1-cell f."""
        return self.components[self.source.source.home1(f)].at(f)


def identity_icon(fun: LaxFunctor) -> Icon:
    return Icon(f"id:{fun.name}", fun, fun,
                {pair: identity_nat(hf) for pair, hf in fun.hom_functors.items()})


def vcomp_icons(later: Icon, earlier: Icon) -> Icon:
    """Componentwise vertical composite ("later" runs second)."""
    comps = {pair: vcomp_nat(later.components[pair], earlier.components[pair])
             for pair in earlier.components}
    return Icon(f"{later.name}.{earlier.name}", earlier.source, later.target, comps)


def _pasted(name, src: LaxFunctor, tgt: LaxFunctor, cell) -> Icon:
    """The icon src => tgt, between two composites, whose component at each
    1-cell f of their source is `cell(f)`."""
    return Icon(name, src, tgt, {
        pair: NatTrans(f"h{pair!r}", hf, tgt.hom_functors[pair],
                       {f: cell(f) for f in hf.object_map})
        for pair, hf in src.hom_functors.items()})


def hcomp_icons(later: Icon, earlier: Icon) -> Icon:
    """Horizontal composite along composition of lax functors.

    The two pastings (act on the component, then shift, or the other way
    round) agree by naturality; this builds the shift-after-act order.
    """
    t = later.source.target
    return _pasted(f"{later.name}*{earlier.name}",
                   compose_lax(later.source, earlier.source),
                   compose_lax(later.target, earlier.target),
                   lambda f: t.vcomp(later.at(earlier.target.on_1(f)),
                                     later.source.on_2(earlier.at(f))))


def whisker_icon_left(fun: LaxFunctor, icon: Icon) -> Icon:
    """Post-compose every functor in sight with `fun`: the component at f is
    `fun` applied to the component of `icon` at f.  This is
    `hcomp_icons(identity_icon(fun), icon)`, whose pasting composes that
    cell with an identity."""
    return _pasted(f"id:{fun.name}*{icon.name}", compose_lax(fun, icon.source),
                   compose_lax(fun, icon.target), lambda f: fun.on_2(icon.at(f)))


def whisker_icon_right(icon: Icon, fun: LaxFunctor) -> Icon:
    """Pre-compose every functor in sight with `fun`: the component at f is
    the component of `icon` at fun(f), a pure reindexing.  This is
    `hcomp_icons(icon, identity_icon(fun))`, whose pasting composes that
    cell with the image of an identity."""
    return _pasted(f"{icon.name}*id:{fun.name}", compose_lax(icon.source, fun),
                   compose_lax(icon.target, fun), lambda f: icon.at(fun.on_1(f)))


# The law checks compose the same few pairs of functors over and over, mostly
# within one law instance; composites over the larger bicategories are big,
# so only the most recent few are kept.
COMPOSITE_MEMO_SIZE = 8
# (id(later), id(earlier)) -> (later, earlier, composite); an entry holds both
# functors, so neither id can be reused while the entry lives
_composites = collections.OrderedDict()


def compose_lax(later: LaxFunctor, earlier: LaxFunctor) -> LaxFunctor:
    """The composite "later after earlier"; comparisons are pasted, and the
    result of pasting two lax functors is again lax on the nose.

    The most recent composites are remembered by the identity of both
    functors, so a repeated call returns the same object: the composite is
    shared and must not be mutated, and neither may a functor once composed."""
    key = (id(later), id(earlier))
    entry = _composites.get(key)
    if entry is not None and entry[0] is later and entry[1] is earlier:
        _composites.move_to_end(key)
        return entry[2]
    composite = _compose_lax(later, earlier)
    _composites[key] = (later, earlier, composite)
    if len(_composites) > COMPOSITE_MEMO_SIZE:
        _composites.popitem(last=False)
    return composite


def _compose_lax(later, earlier):
    f, g = earlier, later
    t = g.target
    omap = {a: g.object_map[f.object_map[a]] for a in f.source.objects}
    homs = {}
    for (a, b_) in f.hom_functors:
        inner = f.hom_functors[(a, b_)]
        outer = g.hom_functors[(f.object_map[a], f.object_map[b_])]
        homs[(a, b_)] = compose_functors(outer, inner)
    comp = {}
    for (x, y), cell in f.comp_constraints.items():
        comp[(x, y)] = t.vcomp(g.on_2(cell),
                               g.comp_constraints[(f.on_1(x), f.on_1(y))])
    unit = {}
    for a, cell in f.unit_constraints.items():
        unit[a] = t.vcomp(g.on_2(cell), g.unit_constraints[f.object_map[a]])
    return LaxFunctor(f"{g.name}.{f.name}", f.source, g.target, omap, homs, comp, unit)
