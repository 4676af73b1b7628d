"""The enumerators as exhaustive generate-and-test loops.

These are the loops the package used before its enumerators were declared
on the backtracking search in `bicatkit.search`, kept verbatim as the
reference the tests compare against: each builds the Cartesian product of
its choices and keeps the candidates that pass the laws or the validator.
The search must return the same lists, in the same order.
"""

from __future__ import annotations

import itertools

from bicatkit.bicat import FiniteBicategory
from bicatkit.catcore import FiniteCategory, Functor, NatTrans
from bicatkit.icon import Icon, validate_icon
from bicatkit.laxfun import LaxFunctor, two_functor, validate_lax_functor
from bicatkit.nerve import SimplexData, validate_simplex
from bicatkit.oplax import OplaxNat, validate_oplax
from bicatkit.report import sorted_ids


def enumerate_functors(s: FiniteCategory, t: FiniteCategory):
    """All functors s -> t, in deterministic order."""
    objs = sorted_ids(s.objects)
    nonid = [m for m in sorted_ids(s.morphisms) if not s.is_identity(m)]
    for images in itertools.product(sorted_ids(t.objects), repeat=len(objs)):
        omap = dict(zip(objs, images))
        choices = [t.hom(omap[s.src(m)], omap[s.tgt(m)]) for m in nonid]
        if any(not c for c in choices):
            continue
        for picks in itertools.product(*choices):
            mmap = dict(zip(nonid, picks))
            for a in objs:
                mmap[s.identity[a]] = t.identity[omap[a]]
            cand = Functor("enum", s, t, omap, mmap)
            if all(mmap[s.table[(f, g)]] == t.table[(mmap[f], mmap[g])]
                   for f, g in s.composable_pairs()):
                yield cand


def enumerate_nats(f: Functor, g: Functor):
    """All natural transformations f => g, in deterministic order."""
    cat, tcat = f.source, f.target
    objs = sorted_ids(cat.objects)
    choices = [tcat.hom(f.object_map[a], g.object_map[a]) for a in objs]
    if any(not c for c in choices):
        return
    for picks in itertools.product(*choices):
        comp = dict(zip(objs, picks))
        ok = True
        for m in cat.morphisms:
            a, b = cat.morphisms[m]
            if tcat.compose(comp[b], f.morphism_map[m]) != tcat.compose(g.morphism_map[m], comp[a]):
                ok = False
                break
        if ok:
            yield NatTrans("enum", f, g, comp)


def enumerate_two_functors(s: FiniteBicategory, t: FiniteBicategory):
    """All strict functors s -> t, for finite strict search settings."""
    objs = sorted_ids(s.objects)
    pairs = [(a, b) for a in objs for b in objs]
    for images in itertools.product(sorted_ids(t.objects), repeat=len(objs)):
        omap = dict(zip(objs, images))
        per_pair = []
        ok = True
        for (a, b_) in pairs:
            cands = list(enumerate_functors(s.homs[(a, b_)],
                                            t.homs[(omap[a], omap[b_])]))
            if s.homs[(a, b_)].objects and not cands:
                ok = False
                break
            per_pair.append((cands if s.homs[(a, b_)].objects else [None]))
        if not ok:
            continue
        for combo in itertools.product(*per_pair):
            cell1, cell2 = {}, {}
            for (a, b_), hf in zip(pairs, combo):
                if hf is None:
                    continue
                cell1.update(hf.object_map)
                cell2.update(hf.morphism_map)
            if any(cell1[s.unit[a]] != t.unit[omap[a]] for a in objs):
                continue
            good = True
            for f in s.one_cells():
                for g in s.one_cells():
                    if s.home1(f)[1] != s.home1(g)[0]:
                        continue
                    if t.compose1(cell1[g], cell1[f]) != cell1[s.compose1(g, f)]:
                        good = False
                        break
                if not good:
                    break
            if good:
                for d in s.two_cells():
                    for c in s.two_cells():
                        if s.home2(c)[1] != s.home2(d)[0]:
                            continue
                        if t.hcomp(cell2[d], cell2[c]) != cell2[s.hcomp(d, c)]:
                            good = False
                            break
                    if not good:
                        break
            if good:
                yield two_functor("enum", s, t, omap, cell1, cell2)


def enumerate_lax_functors(s: FiniteBicategory, t: FiniteBicategory):
    """All lax functors s -> t.  Exhaustive; meant for very small instances."""
    objs = sorted_ids(s.objects)
    pairs = [(a, b) for a in objs for b in objs]
    comp_pairs = [(g, f) for f in s.one_cells() for g in s.one_cells()
                  if s.home1(f)[1] == s.home1(g)[0]]
    for images in itertools.product(sorted_ids(t.objects), repeat=len(objs)):
        omap = dict(zip(objs, images))
        per_pair = []
        dead = False
        for (a, b_) in pairs:
            cands = list(enumerate_functors(s.homs[(a, b_)],
                                            t.homs[(omap[a], omap[b_])]))
            if s.homs[(a, b_)].objects and not cands:
                dead = True
                break
            per_pair.append(cands if s.homs[(a, b_)].objects else [None])
        if dead:
            continue
        for combo in itertools.product(*per_pair):
            homs = {}
            for (a, b_), hf in zip(pairs, combo):
                cat = s.homs[(a, b_)]
                if hf is None:
                    homs[(a, b_)] = Functor("empty", cat, t.homs[(omap[a], omap[b_])],
                                            {}, {})
                else:
                    homs[(a, b_)] = hf
            draft = LaxFunctor("enum", s, t, omap, homs, {}, {})
            comp_opts = []
            for g, f in comp_pairs:
                a = s.home1(f)[0]
                c_ = s.home1(g)[1]
                cat = t.homs[(omap[a], omap[c_])]
                comp_opts.append(cat.hom(t.compose1(draft.on_1(g), draft.on_1(f)),
                                         draft.on_1(s.compose1(g, f))))
            unit_opts = []
            for a in objs:
                cat = t.homs[(omap[a], omap[a])]
                unit_opts.append(cat.hom(t.unit[omap[a]], draft.on_1(s.unit[a])))
            if any(not o for o in comp_opts) or any(not o for o in unit_opts):
                continue
            for comp_pick in itertools.product(*comp_opts):
                for unit_pick in itertools.product(*unit_opts):
                    cand = LaxFunctor("enum", s, t, omap, homs,
                                      dict(zip(comp_pairs, comp_pick)),
                                      dict(zip(objs, unit_pick)))
                    if validate_lax_functor(cand).ok:
                        yield cand


def enumerate_icons(f: LaxFunctor, g: LaxFunctor):
    """All icons f => g, in deterministic order; empty when the object maps
    differ."""
    if f.source != g.source or f.target != g.target:
        return
    if any(f.object_map[a] != g.object_map[a] for a in f.source.objects):
        return
    pairs = sorted_ids(f.hom_functors)
    per_pair = [list(enumerate_nats(f.hom_functors[p], g.hom_functors[p]))
                for p in pairs]
    if any(not opts for opts in per_pair):
        return
    for combo in itertools.product(*per_pair):
        cand = Icon.from_components("enum", f, g, dict(zip(pairs, combo)))
        if validate_icon(cand).ok:
            yield cand


def enumerate_oplax(f: LaxFunctor, g: LaxFunctor):
    """All oplax transformations f => g, exhaustively; tiny inputs only."""
    import itertools

    if f.source != g.source or f.target != g.target:
        return
    s, t = f.source, f.target
    objs = sorted_ids(s.objects)
    comp_opts = [sorted_ids(t.homs[(f.object_map[a], g.object_map[a])].objects)
                 for a in objs]
    if any(not opts for opts in comp_opts):
        return
    cells = list(s.one_cells())
    for picks in itertools.product(*comp_opts):
        comps = dict(zip(objs, picks))
        con_opts = []
        for w in cells:
            a, b = s.home1(w)
            src = t.compose1(comps[b], f.on_1(w))
            tgt = t.compose1(g.on_1(w), comps[a])
            con_opts.append(t.homs[t.home1(src)].hom(src, tgt))
        if any(not opts for opts in con_opts):
            continue
        for cons in itertools.product(*con_opts):
            cand = OplaxNat("enum", f, g, comps, dict(zip(cells, cons)))
            if validate_oplax(cand).ok:
                yield cand


def enumerate_simplices(b: FiniteBicategory, n: int):
    """All n-simplices in b, by exhaustive choice of vertices, edges, and
    invertible triangle comparisons, keeping the ones that cohere."""
    idx = list(range(n + 1))
    edges = [(i, j) for i in idx for j in idx if i < j]
    tris = [(i, j, k) for i in idx for j in idx for k in idx if i < j < k]
    for objs in itertools.product(sorted_ids(b.objects), repeat=n + 1):
        objects = dict(enumerate(objs))
        cell_opts = [sorted_ids(b.homs[(objs[i], objs[j])].objects)
                     for (i, j) in edges]
        if any(not o for o in cell_opts):
            continue
        for picks in itertools.product(*cell_opts):
            cells = dict(zip(edges, picks))
            con_opts = []
            for (i, j, k) in tris:
                cat = b.homs[(objs[i], objs[k])]
                src = b.compose1(cells[(j, k)], cells[(i, j)])
                opts = [c for c in cat.hom(src, cells[(i, k)])
                        if cat.iso_inverse(c) is not None]
                con_opts.append(opts)
            if any(not o for o in con_opts):
                continue
            for cons in itertools.product(*con_opts):
                s = SimplexData(n, b, objects, cells, dict(zip(tris, cons)))
                if validate_simplex(s).ok:
                    yield s
