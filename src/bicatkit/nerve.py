"""Simplices in a bicategory and the truncated 2-nerve.

An n-simplex is a normal homomorphism out of the linear order 0 < ... < n
(viewed as a locally discrete 2-category): a choice of objects, of 1-cells
between them, and of invertible comparison 2-cells for the genuinely
composite triangles; the degenerate triangles carry unitors and are not free
data.  Morphisms of simplices are icons, so each nerve level is a finite
category, and reindexing along a monotone map is just composition of lax
functors — faces and degeneracies come out as functors between levels, and
the simplicial identities can be checked as equalities of functors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .bicat import FiniteBicategory, from_category
from .catcore import Functor, FiniteCategory, chain_category, compose_functors
from .icon import Icon, enumerate_icons, identity_icon
from .laxfun import (LaxFunctor, comparison_cells, compose_lax, lax_laws, lax_variables,
                     two_functor, validate_lax_functor)
from .report import ValidationReport, sorted_ids
from .search import compile_plan, run


@functools.lru_cache(maxsize=None)
def ordinal_as_bicategory(n: int) -> FiniteBicategory:
    return from_category(chain_category(n), f"ordinal-{n}")


@dataclass
class SimplexData:
    """An n-simplex: objects at the vertices, 1-cells over the edges (i < j),
    and an invertible comparison 2-cell over each triangle i < j < k, running
    from the composite edge(j,k) . edge(i,j) to edge(i,k)."""
    n: int
    base: FiniteBicategory
    objects: dict        # i -> object
    cells: dict          # (i, j) -> 1-cell, i < j
    constraints: dict    # (i, j, k) -> invertible 2-cell, i < j < k

    def cell(self, i, j):
        if i == j:
            return self.base.unit[self.objects[i]]
        return self.cells[(i, j)]

    def key(self):
        return ("sx", self.n, tuple(self.objects[i] for i in range(self.n + 1)),
                tuple(sorted(self.cells.items())),
                tuple(sorted(self.constraints.items())))


def as_lax_functor(s: SimplexData) -> LaxFunctor:
    """The normal homomorphism the simplex data describes: units map to
    units with identity constraints, degenerate triangles to unitors."""
    src = ordinal_as_bicategory(s.n)
    b = s.base
    homs = {}
    for i in range(s.n + 1):
        for j in range(s.n + 1):
            cat = src.homs[(i, j)]
            omap = {f: s.cell(i, j) for f in cat.objects}
            mmap = {m: b.id2(s.cell(i, j)) for m in cat.morphisms}
            pair_tgt = (s.objects[i], s.objects[j])
            homs[(i, j)] = Functor(f"simplex({i},{j})", cat,
                                   b.homs[pair_tgt], omap, mmap)
    comp = {}
    for i in range(s.n + 1):
        for j in range(i, s.n + 1):
            for k in range(j, s.n + 1):
                comp[(("le", j, k), ("le", i, j))] = s.constraints[(i, j, k)] \
                    if i < j < k else _degenerate_comparison(b, s.cell, i, j, k)
    units = {i: b.id2(b.unit[s.objects[i]]) for i in range(s.n + 1)}
    return LaxFunctor(f"simplex{s.key()[1:3]!r}", src, b,
                      dict(s.objects), homs, comp, units)


def _degenerate_comparison(b, cell, i, j, k):
    """The unitor over a degenerate triangle i <= j <= k (not i < j < k);
    `cell(i, j)` gives the edges."""
    if i == j < k:
        return b.runit(cell(j, k))
    if i < j == k:
        return b.lunit(cell(i, j))
    return b.lunit(cell(i, i))


def simplex_from_lax(fun: LaxFunctor) -> SimplexData:
    """Read simplex data back off a normal homomorphism out of an ordinal."""
    n = max(fun.source.objects)
    objects = {i: fun.object_map[i] for i in range(n + 1)}
    cells = {(i, j): fun.on_1(("le", i, j))
             for i in range(n + 1) for j in range(i + 1, n + 1)}
    cons = {(i, j, k): fun.comp_constraints[(("le", j, k), ("le", i, j))]
            for i in range(n + 1) for j in range(i + 1, n + 1)
            for k in range(j + 1, n + 1)}
    return SimplexData(n, fun.target, objects, cells, cons)


def validate_simplex(s: SimplexData) -> ValidationReport:
    """`validate_lax_functor` on the simplex's lax functor, whose unit
    comparisons are identities, then whether each of its comparisons, over
    the triangle i <= j <= k, is invertible."""
    rep = ValidationReport(f"simplex over {s.base.name}")
    fun = as_lax_functor(s)
    rep.include(validate_lax_functor(fun))
    if rep.ok:
        for ((_, j, k), (_, i, _)), c in fun.comp_constraints.items():
            if s.base.inv2(c) is None:
                rep.add("constraint-not-invertible",
                        f"comparison at {(i, j, k)} is not invertible", (i, j, k))
    return rep


def enumerate_simplices(b: FiniteBicategory, n: int):
    """All n-simplices in b: the normal homomorphisms out of [n] with
    invertible comparisons, searched as lax functors whose units are
    identities and whose degenerate triangles carry unitors.  Ordered by
    vertices, then edges, then triangle comparisons.

    Every simplex found passes `validate_simplex`, which is not run on it.
    The search is the declaration of `validate_lax_functor` out of [n] with
    two narrowings.  A unit edge must be b's unit, with its identity 2-cell
    as the unit comparison, as `as_lax_functor` builds it.  A comparison
    must be invertible, as `validate_simplex` checks: one of
    `comparison_cells` over a genuine triangle, and b's unitor over a
    degenerate one, which is one of them in a valid b.  So the simplex read
    off a leaf gives the leaf back as its lax functor.

    The lax functors the search runs through share hom functors (see
    `lax_variables`), which must not be mutated; a simplex holds only the
    cells read off them.
    """
    src = ordinal_as_bicategory(n)

    def comparisons(fun, g, f):
        (_, i, j), k = f, g[2]
        if i < j < k:
            return [c for c in comparison_cells(fun, g, f) if b.inv2(c) is not None]
        unitor = _degenerate_comparison(b, lambda i, j: fun.on_1(("le", i, j)), i, j, k)
        return [unitor] if b.inv2(unitor) is not None else []

    def units(fun, i):
        unit = b.unit[fun.object_map[i]]
        return [b.id2(unit)] if fun.on_1(("le", i, i)) == unit else []

    plan = compile_plan(lax_variables(src, b, comparisons, units), lax_laws(src))
    draft = LaxFunctor("simplex", src, b, {}, {}, {}, {})
    for _ in run(plan, draft):
        yield simplex_from_lax(draft)


@functools.lru_cache(maxsize=None)
def ordinal_map_functor(theta, n: int) -> LaxFunctor:
    """A monotone map [m] -> [n], given as the tuple of its values, as a
    strict functor between the ordinal 2-categories.  Built once per
    process for each (theta, n) and shared by every caller, so it must not
    be mutated."""
    m = len(theta) - 1
    if any(theta[i] > theta[i + 1] for i in range(m)) or \
            any(not 0 <= v <= n for v in theta):
        raise ValueError(f"{theta!r} is not a monotone map into [{n}]")
    src, tgt = ordinal_as_bicategory(m), ordinal_as_bicategory(n)
    cell1 = {f: ("le", theta[f[1]], theta[f[2]]) for f in src.one_cells()}
    cell2 = {c: ("id", cell1[c[1]]) for c in src.two_cells()}
    return two_functor(f"ordmap{tuple(theta)!r}", src, tgt,
                       {i: theta[i] for i in range(m + 1)}, cell1, cell2)


def reindex_simplex(s: SimplexData, theta) -> SimplexData:
    """Restrict a simplex along a monotone map; faces and degeneracies are
    the instances at the coface and codegeneracy maps."""
    return simplex_from_lax(compose_lax(as_lax_functor(s),
                                        ordinal_map_functor(theta, s.n)))


# ---------------------------------------------------------------------------
# the truncated 2-nerve

def _icon_flat(icon: Icon, n: int):
    """The component 2-cells of a simplex morphism, in edge order."""
    return tuple(icon.at(("le", i, j))
                 for i in range(n + 1) for j in range(i, n + 1))


def _level_category(b: FiniteBicategory, k: int, sims):
    keys = {}
    for s in sims:
        keys[s.key()] = s
    objects = sorted_ids(keys)
    funs = {sk: as_lax_functor(keys[sk]) for sk in objects}
    morphisms, identity, table = {}, {}, {}
    out = {sk: [] for sk in objects}    # simplex -> (mid, flat cells) leaving it
    for sk in objects:
        for tk in objects:
            for icon in enumerate_icons(funs[sk], funs[tk]):
                flat = _icon_flat(icon, k)
                mid = ("ic", sk, tk, flat)
                morphisms[mid] = (sk, tk)
                out[sk].append((mid, flat))
        identity[sk] = ("ic", sk, sk, _icon_flat(identity_icon(funs[sk]), k))
    for sk in objects:
        for m1, flat1 in out[sk]:
            t1 = morphisms[m1][1]
            for m2, flat2 in out[t1]:
                flat = tuple(b.vcomp(c2, c1) for c1, c2 in zip(flat1, flat2))
                table[(m1, m2)] = ("ic", sk, morphisms[m2][1], flat)
    cat = FiniteCategory(f"nerve-{k}[{b.name}]", objects, morphisms,
                         identity, table)
    return cat, keys


def _level_functor(nerve, k: int, k2: int, theta, name):
    """Reindexing along theta: [k2] -> [k] as a functor between levels.

    Whiskering an icon along theta only reindexes its components: the one
    at edge (i, j) of [k2] is the one at (theta(i), theta(j)) of [k], since
    vcomp(c, id) = c in a validated hom."""
    src_cat, src_sims = nerve.levels[k], nerve.simplices[k]
    omap, mmap = {}, {}
    for sk, s in src_sims.items():
        omap[sk] = reindex_simplex(s, theta).key()
    edges = [(i, j) for i in range(k + 1) for j in range(i, k + 1)]
    picks = [edges.index((theta[i], theta[j]))
             for i in range(k2 + 1) for j in range(i, k2 + 1)]
    for mid in src_cat.morphisms:
        _, sk, tk, flat = mid
        mmap[mid] = ("ic", omap[sk], omap[tk], tuple(flat[p] for p in picks))
    return Functor(name, src_cat, nerve.levels[k2], omap, mmap)


@dataclass
class TwoNerve:
    base: FiniteBicategory
    truncation: int
    levels: dict                        # k -> FiniteCategory
    simplices: dict                     # k -> key -> SimplexData
    face: dict = field(default_factory=dict)        # (k, i): level k -> k-1
    degeneracy: dict = field(default_factory=dict)  # (k, i): level k -> k+1
    report: ValidationReport | None = None


def _functors_equal(f: Functor, g: Functor) -> bool:
    return f.object_map == g.object_map and f.morphism_map == g.morphism_map


def two_nerve(b: FiniteBicategory, truncation: int = 3) -> TwoNerve:
    """Levels 0..truncation of the simplex categories, with face and
    degeneracy functors and a certification report for every simplicial
    identity expressible inside the truncation."""
    if not 0 <= truncation <= 4:
        raise ValueError("truncation must be between 0 and 4")
    nerve = TwoNerve(b, truncation, {}, {})
    for k in range(truncation + 1):
        cat, sims = _level_category(b, k, enumerate_simplices(b, k))
        nerve.levels[k], nerve.simplices[k] = cat, sims

    def coface(k, i):      # the injection [k-1] -> [k] missing i
        return tuple(v if v < i else v + 1 for v in range(k))

    def codegeneracy(k, i):  # the surjection [k+1] -> [k] hitting i twice
        return tuple(v if v <= i else v - 1 for v in range(k + 2))

    for k in range(1, truncation + 1):
        for i in range(k + 1):
            nerve.face[(k, i)] = _level_functor(
                nerve, k, k - 1, coface(k, i), f"face({k},{i})")
    for k in range(truncation):
        for i in range(k + 1):
            nerve.degeneracy[(k, i)] = _level_functor(
                nerve, k, k + 1, codegeneracy(k, i), f"degeneracy({k},{i})")

    rep = ValidationReport(f"2-nerve of {b.name} to level {truncation}")
    t = truncation
    for k in range(2, t + 1):
        for j in range(k + 1):
            for i in range(j):
                lhs = compose_functors(nerve.face[(k - 1, i)], nerve.face[(k, j)])
                rhs = compose_functors(nerve.face[(k - 1, j - 1)], nerve.face[(k, i)])
                if not _functors_equal(lhs, rhs):
                    rep.add("face-face", f"d{i} d{j} != d{j - 1} d{i}", (k, i, j))
    for k in range(t - 1):
        for j in range(k + 1):
            for i in range(j + 1):
                lhs = compose_functors(nerve.degeneracy[(k + 1, i)],
                                       nerve.degeneracy[(k, j)])
                rhs = compose_functors(nerve.degeneracy[(k + 1, j + 1)],
                                       nerve.degeneracy[(k, i)])
                if not _functors_equal(lhs, rhs):
                    rep.add("degeneracy-degeneracy",
                            f"s{i} s{j} != s{j + 1} s{i}", (k, i, j))
    for k in range(t):
        for j in range(k + 1):
            for i in range(k + 2):
                lhs = compose_functors(nerve.face[(k + 1, i)],
                                       nerve.degeneracy[(k, j)])
                if i == j or i == j + 1:
                    ident = Functor("id", nerve.levels[k], nerve.levels[k],
                                    {o: o for o in nerve.levels[k].objects},
                                    {m: m for m in nerve.levels[k].morphisms})
                    if not _functors_equal(lhs, ident):
                        rep.add("face-degeneracy", f"d{i} s{j} != id", (k, i, j))
                elif i < j:
                    rhs = compose_functors(nerve.degeneracy[(k - 1, j - 1)],
                                           nerve.face[(k, i)]) if k else None
                    if rhs is None or not _functors_equal(lhs, rhs):
                        rep.add("face-degeneracy",
                                f"d{i} s{j} != s{j - 1} d{i}", (k, i, j))
                else:
                    rhs = compose_functors(nerve.degeneracy[(k - 1, j)],
                                           nerve.face[(k, i - 1)]) if k else None
                    if rhs is None or not _functors_equal(lhs, rhs):
                        rep.add("face-degeneracy",
                                f"d{i} s{j} != s{j} d{i - 1}", (k, i, j))
    nerve.report = rep
    return nerve
