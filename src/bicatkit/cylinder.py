"""The cylinder over a strict 2-category: two disjoint levels joined by a
freely added crossing.

The total 2-category has objects (0, X) and (1, X).  Each level is a relabeled
copy of the base; there is nothing from level 1 back to level 0; and a 1-cell
(0, X) -> (1, Y) is a pair (h, g) of base 1-cells X -> W -> Y, recorded as
("x", h, g).  A 2-cell (h, g) => (h', g') is an equivalence class of triples

    (k, sigma, tau)   with   k: W' -> W,  sigma: g => k.g',  tau: h.k => h',

composed middle-to-middle, modulo sliding a 2-cell kappa: k => k' across the
middle: (k, sigma, tau'.(h.kappa)) ~ (k', (kappa.g').sigma, tau').  Each
crossing hom is built in one pass over its ordered pairs of objects: the raw
triples are listed and each slid pair is joined by union-find; every class is
named by its least member, and one lookup keyed by (source pair, target pair,
raw triple) gives the 2-cell of any raw triple.  The composition table is then
audited: composition must be constant on classes, which the construction
guarantees and the audit confirms on every raw pair.

The two level inclusions plus the tautological crossing (components
("x", 1_X, 1_X)) form the universal non-icon transformation: its interchange
against a transformation with a non-unit component always fails, which is
what `costrict_refutation` packages up.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bicat import FiniteBicategory, UnsupportedSettingError, strict_bicategory
from .catcore import FiniteCategory
from .laxfun import LaxFunctor, two_functor
from .oplax import OplaxNat, _require_strict_setting, interchange_check
from .report import ValidationReport, canon_key


class DisjointSets:
    """Union-find over arbitrary hashable keys."""

    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        if p != x:
            p = self.parent[x] = self.find(p)
        return p

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx
        return rx

    def classes(self):
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


def _relabel_hom(cat: FiniteCategory, level: int, name: str) -> FiniteCategory:
    tag = lambda x: (level, x)
    return FiniteCategory(
        name,
        [tag(o) for o in cat.objects],
        {tag(m): (tag(s), tag(t)) for m, (s, t) in cat.morphisms.items()},
        {tag(o): tag(m) for o, m in cat.identity.items()},
        {(tag(m1), tag(m2)): tag(v) for (m1, m2), v in cat.table.items()},
    )


@dataclass
class Cylinder:
    base: FiniteBicategory
    total: FiniteBicategory
    bottom: LaxFunctor   # level-0 inclusion
    top: LaxFunctor      # level-1 inclusion
    crossing: OplaxNat   # bottom => top, components ("x", 1_X, 1_X)


def _crossing_hom(b: FiniteBicategory, x, y, name):
    """The crossing hom (0,x) -> (1,y), and the 2-cell each raw triple names,
    keyed by (p, q, triple): the pairs p and q already fix x and y."""
    pairs = {(h, g): w for w in b.objects
             for h in b.homs[(w, y)].objects for g in b.homs[(x, w)].objects}
    raw, dsu = {}, DisjointSets()
    for (h, g), w in pairs.items():
        down = b.homs[(x, w)]
        for (h2, g2), w2 in pairs.items():
            mid, up, key = b.homs[(w2, w)], b.homs[(w2, y)], ((h, g), (h2, g2))
            raw[key] = [(k, sig, tau) for k in mid.objects
                        for sig in down.hom(g, b.compose1(k, g2))
                        for tau in up.hom(b.compose1(h, k), h2)]
            for t in raw[key]:
                dsu.find(key + (t,))
            # slide each kappa: k => k' across the middle
            for kap in mid.morphisms:
                k, k2 = mid.src(kap), mid.tgt(kap)
                for sig in down.hom(g, b.compose1(k, g2)):
                    for tau2 in up.hom(b.compose1(h, k2), h2):
                        dsu.union(key + ((k, sig, b.vcomp(tau2, b.whisker_left(h, kap))),),
                                  key + ((k2, b.vcomp(b.whisker_right(kap, g2), sig), tau2),))
    least = {root: min((m[2] for m in members), key=canon_key)
             for root, members in dsu.classes().items()}
    cell = {key + (t,): ("x2",) + key + (least[dsu.find(key + (t,))],)
            for key, triples in raw.items() for t in triples}
    morphisms = {m: (("x",) + m[1], ("x",) + m[2]) for m in cell.values()}
    identity = {("x",) + p: cell[(p, p, (b.unit[w], b.id2(p[1]), b.id2(p[0])))]
                for p, w in pairs.items()}
    # composition on classes, audited over every raw pair
    table = {}
    for (p, q), firsts in raw.items():
        for r in pairs:
            for t1 in firsts:
                m1 = cell[(p, q, t1)]
                for t2 in raw[(q, r)]:
                    m = (m1, cell[(q, r, t2)])
                    comp = cell[(p, r, _raw_compose(b, t1, t2))]
                    if table.setdefault(m, comp) != comp:
                        raise RuntimeError(
                            f"crossing composition is not constant on classes at {m}")
    return FiniteCategory(name, [("x",) + p for p in pairs], morphisms, identity,
                          table), cell


def _raw_compose(b: FiniteBicategory, t1, t2):
    """Composite of raw triples, t1 then t2 (middle 1-cells multiply)."""
    k1, sig1, tau1 = t1
    k2, sig2, tau2 = t2
    return (b.compose1(k1, k2),
            b.vcomp(b.whisker_left(k1, sig2), sig1),
            b.vcomp(tau2, b.whisker_right(tau1, k2)))


def lax_cylinder(b: FiniteBicategory) -> Cylinder:
    if not b.is_strict():
        raise UnsupportedSettingError(
            f"the cylinder is only constructed over strict 2-categories; "
            f"{b.name} is not strict")

    levels = (0, 1)
    objects = [(i, a) for i in levels for a in b.objects]
    homs = {}
    for a in b.objects:
        for a2 in b.objects:
            for i in levels:
                homs[((i, a), (i, a2))] = _relabel_hom(
                    b.homs[(a, a2)], i, f"cyl{i}({a!r},{a2!r})")
            homs[((1, a), (0, a2))] = FiniteCategory(
                f"cyl-none({a!r},{a2!r})", [], {}, {}, {})
    cross = {}    # (p, q, raw triple) -> crossing 2-cell
    for x in b.objects:
        for y in b.objects:
            homs[((0, x), (1, y))], cells = _crossing_hom(b, x, y, f"cylx({x!r},{y!r})")
            cross.update(cells)
    unit = {(i, a): (i, b.unit[a]) for i in levels for a in b.objects}

    def comp1(g, f):
        if g[0] == "x":
            # f is a level-0 cell
            return ("x", g[1], b.compose1(g[2], f[1]))
        if f[0] == "x":
            # g is a level-1 cell
            return ("x", b.compose1(g[1], f[1]), f[2])
        return (g[0], b.compose1(g[1], f[1]))

    def comp2(d, c):
        if d[0] == "x2" and c[0] == "x2":
            raise ValueError("crossing 2-cells are never beside one another")
        if d[0] == "x2":
            # c = (0, gamma): act on the inner factor of the pair
            _, (h, g), (h2, g2), (k, sig, tau) = d
            gam = c[1]
            return cross[((h, b.compose1(g, b.src2(gam))), (h2, b.compose1(g2, b.tgt2(gam))),
                          (k, b.hcomp(sig, gam), tau))]
        if c[0] == "x2":
            # d = (1, delta): act on the outer factor of the pair
            _, (h, g), (h2, g2), (k, sig, tau) = c
            dl = d[1]
            return cross[((b.compose1(b.src2(dl), h), g), (b.compose1(b.tgt2(dl), h2), g2),
                          (k, sig, b.hcomp(dl, tau)))]
        return (d[0], b.hcomp(d[1], c[1]))

    total = strict_bicategory(f"cyl[{b.name}]", objects, homs, unit,
                              comp1, comp2)
    bottom, top = (two_functor(f"cyl{i}[{b.name}]", b, total,
                               {a: (i, a) for a in b.objects},
                               {f: (i, f) for f in b.one_cells()},
                               {c: (i, c) for c in b.two_cells()})
                   for i in levels)
    comps = {a: ("x", b.unit[a], b.unit[a]) for a in b.objects}
    cons = {}
    for g in b.one_cells():
        x, y = b.home1(g)
        cons[g] = cross[((b.unit[y], g), (g, b.unit[x]), (g, b.id2(g), b.id2(g)))]
    crossing = OplaxNat(f"cross[{b.name}]", bottom, top, comps, cons)
    return Cylinder(b, total, bottom, top, crossing)


@dataclass
class Refutation:
    """A replayable witness that a transformation is not costrict: the
    crossing of the cylinder over its target, against which interchange
    fails, together with the first cell of disagreement."""
    cylinder: Cylinder
    beta: OplaxNat
    alpha: OplaxNat
    witness: object
    report: ValidationReport

    def replay(self) -> ValidationReport:
        return interchange_check(self.beta, self.alpha)


def costrict_refutation(alpha: OplaxNat):
    """A refutation for a transformation with some non-unit component, or
    None when alpha is icon-shaped (no refutation exists)."""
    _require_strict_setting("costrictness refutation",
                            (alpha.source.source, alpha.source.target),
                            (alpha.source, alpha.target))
    cyl = lax_cylinder(alpha.source.target)
    rep = interchange_check(cyl.crossing, alpha)
    if rep.ok:
        return None
    return Refutation(cyl, cyl.crossing, alpha, rep.first().witness[0], rep)
