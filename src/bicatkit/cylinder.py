"""The cylinder over a strict 2-category: two disjoint levels joined by a
freely added crossing.

The total 2-category has objects (0, X) and (1, X).  Each level is a relabeled
copy of the base; there is nothing from level 1 back to level 0; and a 1-cell
(0, X) -> (1, Y) is a pair (h, g) of base 1-cells X -> W -> Y, recorded as
("x", h, g).  A 2-cell (h, g) => (h', g') is an equivalence class of triples

    (k, sigma, tau)   with   k: W' -> W,  sigma: g => k.g',  tau: h.k => h',

composed middle-to-middle, modulo sliding a 2-cell kappa: k => k' across the
middle: (k, sigma, tau'.(h.kappa)) ~ (k', (kappa.g').sigma, tau').  The
quotient is computed by union-find and then audited: composition must be
constant on classes, which the construction guarantees and the audit confirms
on every raw pair.

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


def _cross_data(b: FiniteBicategory, x, y):
    """Objects and raw 2-cell triples of the crossing hom (0,x) -> (1,y)."""
    pairs = []
    for w in b.objects:
        for h in b.homs[(w, y)].objects:
            for g in b.homs[(x, w)].objects:
                pairs.append((h, g))

    def middle(pair):
        return b.home1(pair[1])[1]

    raw = {}       # (P, Q) -> list of raw triples
    for p in pairs:
        for q in pairs:
            w, w2 = middle(p), middle(q)
            h, g = p
            h2, g2 = q
            triples = []
            for k in b.homs[(w2, w)].objects:
                for sig in b.homs[(x, w)].hom(g, b.compose1(k, g2)):
                    for tau in b.homs[(w2, y)].hom(b.compose1(h, k), h2):
                        triples.append((k, sig, tau))
            raw[(p, q)] = triples
    return pairs, raw


def _cross_quotient(b: FiniteBicategory, x, y, pairs, raw):
    """Union-find closure of the sliding relation on raw triples."""
    dsu = DisjointSets()
    for key, triples in raw.items():
        for t in triples:
            dsu.find((key, t))

    def middle(pair):
        return b.home1(pair[1])[1]

    for p in pairs:
        for q in pairs:
            w, w2 = middle(p), middle(q)
            h, g = p
            h2, g2 = q
            for kap in b.homs[(w2, w)].morphisms:
                k = b.homs[(w2, w)].src(kap)
                k2 = b.homs[(w2, w)].tgt(kap)
                for sig in b.homs[(x, w)].hom(g, b.compose1(k, g2)):
                    for tau2 in b.homs[(w2, y)].hom(b.compose1(h, k2), h2):
                        left = (k, sig, b.vcomp(tau2, b.whisker_left(h, kap)))
                        right = (k2, b.vcomp(b.whisker_right(kap, g2), sig), tau2)
                        dsu.union(((p, q), left), ((p, q), right))
    return dsu


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

    objects = [(0, a) for a in b.objects] + [(1, a) for a in b.objects]
    homs = {}
    for a in b.objects:
        for a2 in b.objects:
            homs[((0, a), (0, a2))] = _relabel_hom(
                b.homs[(a, a2)], 0, f"cyl0({a!r},{a2!r})")
            homs[((1, a), (1, a2))] = _relabel_hom(
                b.homs[(a, a2)], 1, f"cyl1({a!r},{a2!r})")
            homs[((1, a), (0, a2))] = FiniteCategory(
                f"cyl-none({a!r},{a2!r})", [], {}, {}, {})

    # crossing homs: build the quotient and a class-id lookup per raw triple
    cls_of_raw = {}    # (x, y, P, Q, triple) -> morphism id
    for x in b.objects:
        for y in b.objects:
            pairs, raw = _cross_data(b, x, y)
            dsu = _cross_quotient(b, x, y, pairs, raw)
            classes = dsu.classes()
            rep_of_root = {root: min((t for (_, t) in members), key=canon_key)
                           for root, members in classes.items()}
            objs = [("x",) + p for p in pairs]
            morphisms, identity, table = {}, {}, {}
            mid_of = {}
            for (p, q), triples in raw.items():
                for t in triples:
                    root = dsu.find(((p, q), t))
                    mid = ("x2", p, q, rep_of_root[root])
                    mid_of[((p, q), t)] = mid
                    cls_of_raw[(x, y, p, q, t)] = mid
                    morphisms[mid] = (("x",) + p, ("x",) + q)
            for p in pairs:
                w = b.home1(p[1])[1]
                identity[("x",) + p] = mid_of[
                    ((p, p), (b.unit[w], b.id2(p[1]), b.id2(p[0])))]
            # composition on classes, audited over every raw pair
            for p in pairs:
                for q in pairs:
                    for r in pairs:
                        seen = {}
                        for t1 in raw[(p, q)]:
                            for t2 in raw[(q, r)]:
                                m1 = mid_of[((p, q), t1)]
                                m2 = mid_of[((q, r), t2)]
                                comp = mid_of[((p, r), _raw_compose(b, t1, t2))]
                                if (m1, m2) in seen and seen[(m1, m2)] != comp:
                                    raise RuntimeError(
                                        "crossing composition is not constant "
                                        f"on classes at {(m1, m2)}")
                                seen[(m1, m2)] = comp
                                table[(m1, m2)] = comp
            homs[((0, x), (1, y))] = FiniteCategory(
                f"cylx({x!r},{y!r})", objs, morphisms, identity, table)

    unit = {(0, a): (0, b.unit[a]) for a in b.objects}
    unit.update({(1, a): (1, b.unit[a]) for a in b.objects})

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
            _, p, q, (k, sig, tau) = d
            gam = c[1]
            p2 = (p[0], b.compose1(p[1], b.src2(gam)))
            q2 = (q[0], b.compose1(q[1], b.tgt2(gam)))
            x = b.home2(gam)[0]
            y = b.home1(p[0])[1]
            return cls_of_raw[(x, y, p2, q2, (k, b.hcomp(sig, gam), tau))]
        if c[0] == "x2":
            # d = (1, delta): act on the outer factor of the pair
            _, p, q, (k, sig, tau) = c
            dl = d[1]
            p2 = (b.compose1(b.src2(dl), p[0]), p[1])
            q2 = (b.compose1(b.tgt2(dl), q[0]), q[1])
            x = b.home1(p[1])[0]
            y = b.home2(dl)[1]
            return cls_of_raw[(x, y, p2, q2, (k, sig, b.hcomp(dl, tau)))]
        return (d[0], b.hcomp(d[1], c[1]))

    total = strict_bicategory(f"cyl[{b.name}]", objects, homs, unit,
                              comp1, comp2)

    bottom = two_functor(f"cyl0[{b.name}]", b, total,
                         {a: (0, a) for a in b.objects},
                         {f: (0, f) for f in b.one_cells()},
                         {c: (0, c) for c in b.two_cells()})
    top = two_functor(f"cyl1[{b.name}]", b, total,
                      {a: (1, a) for a in b.objects},
                      {f: (1, f) for f in b.one_cells()},
                      {c: (1, c) for c in b.two_cells()})

    comps = {a: ("x", b.unit[a], b.unit[a]) for a in b.objects}
    cons = {}
    for g in b.one_cells():
        x, y = b.home1(g)
        cons[g] = cls_of_raw[(x, y, (b.unit[y], g), (g, b.unit[x]),
                              (g, b.id2(g), b.id2(g)))]
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
