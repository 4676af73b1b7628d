"""`validate_icon_pair` as it was before a pair of lax functors could be
passed on the verdicts of its two sides: every pair runs every loop.  Kept
verbatim as the reference the tests compare report texts against."""

from __future__ import annotations

from bicatkit.catcore import OBJECT_IMAGE, Functor
from bicatkit.icon import _families
from bicatkit.laxfun import _HOM_FUNCTOR, LaxFunctor
from bicatkit.report import ValidationReport, sorted_ids


def validate_icon_pair(f: LaxFunctor, g: LaxFunctor) -> ValidationReport:
    rep = ValidationReport(f"icons {f.name} => {g.name}")
    s, t = f.source, f.target
    if s is not g.source and s != g.source:
        rep.add("parallel", "the two lax functors do not share a source", structural=True)
        return rep
    if t is not g.target and t != g.target:
        rep.add("parallel", "the two lax functors do not share a target", structural=True)
        return rep
    omap = f.object_map
    for a in s.sorted_objects:
        if a not in omap or a not in g.object_map:
            kind, message = OBJECT_IMAGE[0]
            rep.add(kind, message.format(a), (a,), structural=True)
        elif omap[a] != g.object_map[a]:
            rep.add("object-maps-differ",
                    f"an icon needs equal object maps; they differ at {a!r}", (a,),
                    structural=True)
        elif omap[a] not in t.objects:
            kind, message = OBJECT_IMAGE[2]
            rep.add(kind, message.format(a), (a,), structural=True)
    if rep.violations:
        return rep
    for pair in s.sorted_homs:
        if s.homs[pair].objects and not (pair in f.hom_functors and pair in g.hom_functors):
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
        if not (isinstance(f.hom_functors[pair], Functor)
                and isinstance(g.hom_functors[pair], Functor)):
            rep.add(kind, message.format(*pair), pair, structural=True)
    if rep.violations:
        return rep
    sides = (("source", f), ("target", g))[:1 if g is f else 2]
    found = [(side, pair, part) for side, fun in sides for pair, part in fun.own_violations]
    images = sorted((x for x in found if x[1] is not None),
                    key=lambda x: s.sorted_homs.index(x[1]))
    for side, pair, part in images:
        rep.include(part, "hom-functor:", f"hom functor {pair!r} of the {side}: ")
    for side, _, part in () if images else found:
        rep.include(part, "", f"{side} lax functor: ")
    return rep
