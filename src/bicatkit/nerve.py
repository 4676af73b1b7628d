"""Simplices in a bicategory and the truncated 2-nerve.

An n-simplex is a normal homomorphism out of the linear order 0 < ... < n
(viewed as a locally discrete 2-category): a choice of objects, of 1-cells
between them, and of invertible comparison 2-cells for the genuinely
composite triangles; the degenerate triangles carry unitors and are not free
data.  Morphisms of simplices are icons, so each nerve level is a finite
category.  Reindexing along a monotone map theta reads a simplex at
theta's values, a unit over each edge and a unitor over each triangle that
theta collapses (`reindex_simplex`): the restriction of its normal
homomorphism along theta.  Faces and degeneracies come out as functors
between levels, and the simplicial identities can be checked as equalities
of functors.

The simplex search hands out the lax functors it binds
(`simplex_functors`); `enumerate_simplices` reads a `SimplexData` off
each, and `two_nerve` searches the level's icons between the lax
functors as rows (`icon_cells`, so no Icon is built): a row holds an
icon's components in the source's 1-cell order, which for an ordinal is
edge order, (0, 0), (0, 1), ..., (n, n), and names the morphism in the
level.  Their composites are the icon algebra's
`vcomp_cells`.  The face and degeneracy maps are listed once, each with
its ordinal map: each reindexes the rows by `whisker_right_cells` along
that map, and the simplices by `reindex_simplex`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .bicat import FiniteBicategory, from_category
from .catcore import Functor, FiniteCategory, chain_category, compose_functors
from .icon import icon_cells, icon_row, identity_icon, vcomp_cells, whisker_right_cells
from .laxfun import (LaxFunctor, comparison_cells, lax_laws, lax_variables, searched,
                     two_functor, unit_cells, validate_lax_functor)
from .report import ValidationReport, sorted_ids
from .search import compile_plan, run


@functools.lru_cache(maxsize=None)
def ordinal_as_bicategory(n: int) -> FiniteBicategory:
    """The ordinal [n] as a locally discrete 2-category, built once per
    process for each n and shared by every caller.  Its key does not
    depend on a base, and `two_nerve` reads it for n up to its truncation,
    at most 4, so the nerve keeps at most 5 entries here."""
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

    def constraint(self, i, j, k):
        """The comparison over i <= j <= k: the given one over a triangle
        i < j < k, the unitor over a degenerate one."""
        if i < j < k:
            return self.constraints[(i, j, k)]
        return _degenerate_comparison(self.base, self.cell, i, j, k)

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
                comp[(("le", j, k), ("le", i, j))] = s.constraint(i, j, k)
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


# The checks of a simplex's own data: present, and a cell of its base.
_VERTEX = (("missing-vertex", "no object at vertex {!r}"),
           lambda s, i: s.base.objects,
           ("dangling-vertex", "vertex {!r} is not an object of the base"), None)
_EDGE = (("missing-edge", "no 1-cell over the edge ({!r}, {!r})"),
         lambda s, i, j: s.base.one_cells(),
         ("dangling-edge", "edge ({!r}, {!r}) is not a 1-cell of the base"), None)
_TRIANGLE = (("missing-comparison", "no comparison over the triangle ({!r}, {!r}, {!r})"),
             lambda s, i, j, k: s.base.two_cells(),
             ("dangling-comparison",
              "comparison over the triangle ({!r}, {!r}, {!r}) is not a 2-cell of the base"),
             None)


def simplex_variables(n: int):
    """The data of an n-simplex as search variables, each checked for being
    present and a cell of the base: a vertex per i, an edge per i < j and a
    comparison per triangle i < j < k, in that order."""
    idx = range(n + 1)
    return ([("objects", i, (), None, (i,), _VERTEX) for i in idx]
            + [("cells", (i, j), (), None, (i, j), _EDGE)
               for i in idx for j in idx if i < j]
            + [("constraints", (i, j, k), (), None, (i, j, k), _TRIANGLE)
               for i in idx for j in idx for k in idx if i < j < k])


def validate_simplex(s: SimplexData) -> ValidationReport:
    """The simplex's own data (`simplex_variables`), all structural; then
    `validate_lax_functor` on the simplex's lax functor, whose unit
    comparisons are identities; then whether each of its comparisons, over
    the triangle i <= j <= k, is invertible."""
    rep = ValidationReport(f"simplex over {s.base.name}")
    rep.check_values(s, simplex_variables(s.n))
    if rep.violations:
        return rep
    fun = as_lax_functor(s)
    rep.include(validate_lax_functor(fun))
    if rep.ok:
        for ((_, j, k), (_, i, _)), c in fun.comp_constraints.items():
            if s.base.inv2(c) is None:
                rep.add("constraint-not-invertible",
                        f"comparison at {(i, j, k)} is not invertible", (i, j, k))
    return rep


def enumerate_simplices(b: FiniteBicategory, n: int):
    """All n-simplices in b, read off the lax functors of
    `simplex_functors`, in their order."""
    return map(simplex_from_lax, simplex_functors(b, n))


def simplex_functors(b: FiniteBicategory, n: int):
    """The lax functors of all n-simplices in b: the normal homomorphisms
    out of [n] with invertible comparisons, searched as lax functors whose
    units are identities and whose degenerate triangles carry unitors.
    Ordered by vertices, then edges, then triangle comparisons.

    The simplex read off each passes `validate_simplex`, which is not run
    on it.  The search is the declaration of `validate_lax_functor` out of
    [n] with two narrowings, each to a subset of that listing's candidates.
    A unit edge must be b's unit, with its identity 2-cell as the unit
    comparison, as `as_lax_functor` builds it, if that is one of
    `unit_cells`.  A comparison must be invertible, as `validate_simplex`
    checks, and one of `comparison_cells`: any such one over a genuine
    triangle, and b's unitor over a degenerate one, which in a valid b
    always is.  So the simplex read off a leaf gives the leaf back as its
    lax functor, and that lax functor passes the checks of its
    `own_violations` by construction.  Each lax functor yielded is the
    leaf's fields copied off the search's draft, with its `own_violations`
    preset, empty (see `searched`).

    The lax functors the search runs through share hom functors (see
    `lax_variables`), which must not be mutated.
    """
    src = ordinal_as_bicategory(n)

    def comparisons(fun, g, f):
        (_, i, j), k = f, g[2]
        cells = comparison_cells(fun, g, f)
        if i < j < k:
            return [c for c in cells if b.inv2(c) is not None]
        unitor = _degenerate_comparison(b, lambda i, j: fun.on_1(("le", i, j)), i, j, k)
        return [unitor] if unitor in cells and b.inv2(unitor) is not None else []

    def units(fun, i):
        unit = b.unit[fun.object_map[i]]
        cell = b.id2(unit)
        return [cell] if fun.on_1(("le", i, i)) == unit and cell in unit_cells(fun, i) else []

    plan = compile_plan(lax_variables(src, b, comparisons, units), lax_laws(src))
    draft = LaxFunctor("simplex", src, b, {}, {}, {}, {})
    for _ in run(plan, draft):
        yield searched(LaxFunctor(
            f"simplex{(n, tuple(draft.object_map[i] for i in range(n + 1)))!r}", src, b,
            dict(draft.object_map), dict(draft.hom_functors),
            dict(draft.comp_constraints), dict(draft.unit_constraints)))


def _domain(theta, n: int) -> int:
    """The m of a monotone map theta: [m] -> [n], given as the tuple of its
    values; raises ValueError if theta is no such map."""
    if any(a > b for a, b in zip(theta, theta[1:])) or any(not 0 <= v <= n for v in theta):
        raise ValueError(f"{theta!r} is not a monotone map into [{n}]")
    return len(theta) - 1


@functools.lru_cache(maxsize=None)
def ordinal_map_functor(theta, n: int) -> LaxFunctor:
    """A monotone map [m] -> [n], given as the tuple of its values, as a
    strict functor between the ordinal 2-categories.  Built once per
    process for each (theta, n) and shared by every caller, so it must not
    be mutated.  Its key does not depend on a base, and `two_nerve` reads
    it at the coface and codegeneracy maps among [0]..[4] alone, 14 and
    10, so the nerve keeps at most 24 entries here."""
    m = _domain(theta, n)
    src, tgt = ordinal_as_bicategory(m), ordinal_as_bicategory(n)
    cell1 = {f: ("le", theta[f[1]], theta[f[2]]) for f in src.one_cells()}
    cell2 = {c: ("id", cell1[c[1]]) for c in src.two_cells()}
    return two_functor(f"ordmap{tuple(theta)!r}", src, tgt,
                       {i: theta[i] for i in range(m + 1)}, cell1, cell2)


def reindex_simplex(s: SimplexData, theta) -> SimplexData:
    """Restrict a simplex along a monotone map theta: [m] -> [n], given as
    the tuple of its values: vertex i is s's vertex theta(i), edge (i, j)
    is `s.cell` at (theta(i), theta(j)) and triangle (i, j, k) is
    `s.constraint` at (theta(i), theta(j), theta(k)), so a unit or a
    unitor where theta collapses it.  Faces and degeneracies are the
    instances at the coface and codegeneracy maps.

    s is expected to pass `validate_simplex`.  Then this is the simplex of
    its lax functor composed with `ordinal_map_functor(theta, n)`, whose
    comparisons paste s's with identities."""
    idx = range(_domain(theta, s.n) + 1)
    return SimplexData(len(idx) - 1, s.base, {i: s.objects[theta[i]] for i in idx},
                       {(i, j): s.cell(theta[i], theta[j]) for i in idx for j in idx if i < j},
                       {(i, j, k): s.constraint(theta[i], theta[j], theta[k])
                        for i in idx for j in idx for k in idx if i < j < k})


# ---------------------------------------------------------------------------
# the truncated 2-nerve

def _level_category(b: FiniteBicategory, k: int, funs):
    """Level k: the simplices as objects, by key in canonical order, with
    `funs` their lax functors; the icons between those as morphisms, each
    ``("ic", source key, target key, row)``, composed by `vcomp_cells`."""
    objects = list(funs)
    morphisms, identity, table = {}, {}, {}
    out = {sk: [] for sk in objects}    # simplex -> (mid, row) leaving it
    for sk in objects:
        for tk in objects:
            for row in icon_cells(funs[sk], funs[tk]):
                mid = ("ic", sk, tk, row)
                morphisms[mid] = (sk, tk)
                out[sk].append((mid, row))
        identity[sk] = ("ic", sk, sk, icon_row(identity_icon(funs[sk])))
    for sk in objects:
        for m1, row1 in out[sk]:
            t1 = morphisms[m1][1]
            for m2, row2 in out[t1]:
                table[(m1, m2)] = ("ic", sk, morphisms[m2][1], vcomp_cells(b, row2, row1))
    return FiniteCategory(f"nerve-{k}[{b.name}]", objects, morphisms, identity, table)


@dataclass
class TwoNerve:
    base: FiniteBicategory
    truncation: int
    levels: dict                        # k -> FiniteCategory
    simplices: dict                     # k -> key -> SimplexData
    face: dict = field(default_factory=dict)        # (k, i): level k -> k-1
    degeneracy: dict = field(default_factory=dict)  # (k, i): level k -> k+1
    report: ValidationReport | None = None


def _equal_or_identity(f: Functor, g: Functor | None) -> bool:
    """Whether f equals g, or is the identity where g is None."""
    if g is None:
        return all(x == y for table in (f.object_map, f.morphism_map) for x, y in table.items())
    return f.object_map == g.object_map and f.morphism_map == g.morphism_map


def _simplicial_identities(d, s, t: int):
    """The simplicial identities inside truncation t, with `d` and `s` the
    face and degeneracy functors by (k, i), each as ``(kind, message,
    witness, lhs, rhs)``: the composite of the functor pair `lhs`, outer
    first, equals that of `rhs`, or the identity where `rhs` is None."""
    for k in range(2, t + 1):
        for j in range(k + 1):
            for i in range(j):
                yield ("face-face", f"d{i} d{j} != d{j - 1} d{i}", (k, i, j),
                       (d[(k - 1, i)], d[(k, j)]), (d[(k - 1, j - 1)], d[(k, i)]))
    for k in range(t - 1):
        for j in range(k + 1):
            for i in range(j + 1):
                yield ("degeneracy-degeneracy", f"s{i} s{j} != s{j + 1} s{i}", (k, i, j),
                       (s[(k + 1, i)], s[(k, j)]), (s[(k + 1, j + 1)], s[(k, i)]))
    for k in range(t):
        for j in range(k + 1):
            for i in range(k + 2):
                lhs = (d[(k + 1, i)], s[(k, j)])
                if i in (j, j + 1):
                    yield "face-degeneracy", f"d{i} s{j} != id", (k, i, j), lhs, None
                elif i < j:
                    yield ("face-degeneracy", f"d{i} s{j} != s{j - 1} d{i}", (k, i, j), lhs,
                           (s[(k - 1, j - 1)], d[(k, i)]))
                else:
                    yield ("face-degeneracy", f"d{i} s{j} != s{j} d{i - 1}", (k, i, j), lhs,
                           (s[(k - 1, j)], d[(k, i - 1)]))


def two_nerve(b: FiniteBicategory, truncation: int = 3) -> TwoNerve:
    """Levels 0..truncation of the simplex categories, with face and
    degeneracy functors and a certification report for every simplicial
    identity expressible inside the truncation."""
    if not 0 <= truncation <= 4:
        raise ValueError("truncation must be between 0 and 4")
    t = truncation
    nerve = TwoNerve(b, t, {}, {})
    # ((k, i), k2, theta): the face or degeneracy (k, i) from level k to
    # level k2 reindexes along theta: [k2] -> [k], the injection missing i
    # or the surjection hitting i twice
    maps = [((k, i), k - 1, tuple(v if v < i else v + 1 for v in range(k)))
            for k in range(1, t + 1) for i in range(k + 1)]
    maps += [((k, i), k + 1, tuple(v if v <= i else v - 1 for v in range(k + 2)))
             for k in range(t) for i in range(k + 1)]

    for k in range(t + 1):
        sims, funs = {}, {}
        for fun in simplex_functors(b, k):
            s = simplex_from_lax(fun)
            sk = s.key()
            sims[sk], funs[sk] = s, fun
        funs = {sk: funs[sk] for sk in sorted_ids(funs)}
        nerve.levels[k], nerve.simplices[k] = _level_category(b, k, funs), sims

    # Whiskering an icon along theta only reindexes its components, the
    # right whisker of its row by theta's strict functor: the one at edge
    # (i, j) of [k2] is the one at (theta(i), theta(j)) of [k], since
    # vcomp(c, id) = c in a validated hom.
    for (k, i), k2, theta in maps:
        omap = {sk: reindex_simplex(s, theta).key() for sk, s in nerve.simplices[k].items()}
        along = ordinal_map_functor(theta, k)
        mmap = {mid: ("ic", omap[mid[1]], omap[mid[2]], whisker_right_cells(mid[3], along))
                for mid in nerve.levels[k].morphisms}
        table, name = (nerve.face, "face") if k2 < k else (nerve.degeneracy, "degeneracy")
        table[(k, i)] = Functor(f"{name}({k},{i})", nerve.levels[k], nerve.levels[k2],
                                omap, mmap)

    rep = ValidationReport(f"2-nerve of {b.name} to level {t}")
    for kind, message, witness, lhs, rhs in _simplicial_identities(
            nerve.face, nerve.degeneracy, t):
        if not _equal_or_identity(compose_functors(*lhs), rhs and compose_functors(*rhs)):
            rep.add(kind, message, witness)
    nerve.report = rep
    return nerve
