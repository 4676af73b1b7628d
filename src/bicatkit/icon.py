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
(Lack, *Icons*), so the algebra works on an icon's *row*: its cells as one
tuple, in the order of its source's 1-cells, ``s.one_cells()``, which
`row_order` names and which is the order the icon search binds them in.
The four cell kernels, `vcomp_cells`, `hcomp_cells`, `whisker_left_cells`
and `whisker_right_cells`, each map over rows, one pass from rows to the
composite's row.  They take rows and the lax functors they read, not
Icons: a left whisker reads the whiskering functor's images of 2-cells, a
right whisker its positions (where each source 1-cell's image sits in the
target's row), and `hcomp_cells(over, later, earlier, under)` reads both,
of later's source `over` and earlier's target `under`.  An Icon keeps its
cells as a table `{f: 2-cell}`: `icon_row` reads its row, and the Icon
operations `vcomp_icons`, `hcomp_icons`, `whisker_icon_left` and
`whisker_icon_right` convert their factors' tables to rows, run the
kernel and read the composite's table back.  A law between composites is
an equation between two rows, so acceptance criterion 2 checks it on the
kernels alone, over the rows of the icons it enumerates, and builds no
Icon and no cell table at all.

Each kernel reads flat tables, one lookup per cell: the bicategory's
`vcomp_table` of every vertical composite, and a lax functor's
`cell_maps`, its positions and its images of all 2-cells.  Both are
built on first read and kept, so a bicategory's hom tables are fixed once
an icon has been composed in it, and a lax functor is not mutated once it
has been whiskered or pasted.

The icon declaration depends on the source bicategory alone: for each hom,
one variable per 1-cell names a cell of the icon, under the naturality
squares of that hom, and the compatibility laws of `icon_laws` tie the homs
together.  The source builds it once, as its ``icon_plan``.  `icon_cells`
runs its compiled search on a fresh draft per pair of lax functors and
yields the row of each icon it meets; `enumerate_icons` is the same
search, each row read back as the cell table of an Icon.  `validate_icon`
checks the listing on a given icon, so the icons the search finds pass the
validator by construction and none is validated again.

Before either, `validate_icon_pair` checks what the listing reads.  Of
that, only the object maps and the keys of the hom functors concern the
pair; the rest reads one lax functor at a time (its object images, its hom
functors and their images, its comparisons and unit comparisons), so each
lax functor checks it once, as its ``own_violations`` and its verdict
``icon_ready``, kept for every icon into or out of it.  A pair of ready lax
functors with the same source and target, equal object maps and hom
functors keyed alike passes at once; any other pair runs every check.  So
a lax functor is not mutated once an icon into or out of it has been
checked or searched.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import SimpleNamespace

from .bicat import UnsupportedSettingError
from .catcore import _COMPONENT, OBJECT_IMAGE, Functor, NatTrans
from .laxfun import _HOM_FUNCTOR, LaxFunctor, compose_lax
from .report import ValidationReport, sorted_ids
from .search import compile_plan, run


@dataclass
class Icon:
    name: str
    source: LaxFunctor
    target: LaxFunctor
    cells: dict       # 1-cell f -> 2-cell F(f) => G(f)
    families: dict    # (A, B) -> name of the component family on hom(A, B)

    def at(self, f):
        """The component 2-cell F(f) => G(f) at a 1-cell f."""
        return self.cells[f]

    @property
    def bicategory(self):
        """The bicategory the cells live in, the target of both lax functors."""
        return self.source.target

    @property
    def components(self):
        """The per-hom view: (A, B) -> the natural transformation between the
        two hom functors whose components are the cells over hom(A, B).  A
        family stands at a key of the hom functors, or `validate_icon`
        refuses it; one at a key that names no hom of the source holds no
        cells."""
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
    rep.check_keys(icon, [*plan.variables, *(("families", pair) for pair in f.hom_functors)])
    if rep.violations:
        return rep

    rep.check_laws(icon, plan.laws)
    return rep


def validate_icon_pair(f: LaxFunctor, g: LaxFunctor) -> ValidationReport:
    """The checks of `validate_icon` that read no cell, so hold or fail for
    every icon f => g alike: parallel lax functors, object maps defined,
    equal and into the target's objects on every object, a hom functor of
    each at every hom with 1-cells, hom functors keyed alike, the witness of
    a difference being the first key of one that the other lacks, and each
    of them a functor.  Then what the naturality squares and `icon_laws`
    read, which depends on one lax functor alone and is checked once per
    lax functor, as its `own_violations`: each hom functor's images of the
    cells of its hom, hom by hom and source before target, and, if those
    are clean, each side's comparisons and unit comparisons, present,
    2-cells of their homs and with the right endpoints.  A check that
    `validate_lax_functor` makes too is reported as it reports it; the
    endpoint checks are not structural, the others are.

    A pair that shares its source and target (by identity), its object map
    and the keys of its hom functors, of two lax functors whose
    `icon_ready` verdicts hold, passes all of these, and its empty report
    is returned before any loop runs."""
    rep = ValidationReport(f"icons {f.name} => {g.name}")
    s, t = f.source, f.target
    if (s is g.source and t is g.target and f.object_map == g.object_map
            and f.hom_functors.keys() == g.hom_functors.keys()
            and f.icon_ready and g.icon_ready):
        return rep
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


# Each law below takes the source data that `icon_laws` binds first, then
# the icon and the cells of the instance, and reads the flat tables of the
# target bicategory (see `bicatkit.laxfun.lax_laws`).

def _composition_compatible(xy, icon, x, y):
    f, g, t, cells = icon.source, icon.target, icon.source.target, icon.cells
    vcomp = t.vcomp_table
    lhs = vcomp[(t.hcomp_table[(cells[x], cells[y])], g.comp_constraints[(x, y)])]
    return lhs == vcomp[(f.comp_constraints[(x, y)], cells[xy])]


def _unit_compatible(u, icon, a):
    f = icon.source
    return f.target.vcomp_table[(f.unit_constraints[a], icon.cells[u])] \
        == icon.target.unit_constraints[a]


def icon_laws(s):
    """Compatibility with the comparisons and with the unit comparisons, as
    law instances (see `ValidationReport.check_laws`) of an icon out of `s`.
    Each ``holds`` is a partial that binds what `s` alone fixes: the
    composite ``s.compose1(x, y)`` at (x, y), and the unit ``s.unit[a]``
    at a."""
    for x, y in s.composable_pairs_by_later():
        xy = s.compose1(x, y)
        yield (functools.partial(_composition_compatible, xy), (x, y),
               (("cells", x), ("cells", y), ("cells", xy)),
               "composition-compat",
               "components do not commute with the comparison at ({!r}, {!r})")
    for a in s.sorted_objects:
        u = s.unit[a]
        yield (functools.partial(_unit_compatible, u), (a,), (("cells", u),),
               "unit-compat", "components do not commute with the unit comparison at {!r}")


def identity_icon(fun: LaxFunctor) -> Icon:
    homs = fun.hom_functors.values()
    return Icon(f"id:{fun.name}", fun, fun,
                {x: hf.target.identity[hf.object_map[x]] for hf in homs for x in hf.source.objects},
                {pair: f"id:{hf.name}" for pair, hf in fun.hom_functors.items()})


def _source(x):
    return x if isinstance(x, LaxFunctor) else x.source


def _target(x):
    return x if isinstance(x, LaxFunctor) else x.target


def _pasted(name, later, earlier, cells):
    """The pasted icon `name` with `cells`, between the composites of the
    sources and of the targets of its two factors, where a lax functor
    stands for its identity icon."""
    return Icon(name, compose_lax(_source(later), _source(earlier)),
                compose_lax(_target(later), _target(earlier)), cells,
                {pair: f"h{pair!r}" for pair in _source(earlier).hom_functors})


# An icon's row and the four cell kernels of the icon algebra over rows,
# then the Icon operations that wrap them (see the module docstring).

def row_order(s):
    """The 1-cells of `s` in the order of a row of an icon out of `s`:
    ``s.one_cells()``, hom pair by hom pair in `sorted_homs` order, which
    is the order in which `icon_plan` binds an icon's cells."""
    return s.one_cells()


def _row(icon: Icon, order) -> tuple:
    """The cells of `icon` at the 1-cells `order`, as a row."""
    return tuple(map(icon.cells.__getitem__, order))


def icon_row(icon: Icon) -> tuple:
    """The row of `icon`: its cells in `row_order` of its source."""
    return _row(icon, row_order(icon.source.source))


def cell_maps(fun: LaxFunctor) -> tuple:
    """What the kernels read of `fun`, as ``(positions, {2-cell: image})``:
    for each 1-cell of its source, in `row_order`, the position in the
    target's `row_order` of its image, which is how a right whisker by
    `fun` reindexes a row; and its images of all 2-cells in one table.
    Read as ``fun.cell_maps``, built once per lax functor."""
    at = {x: n for n, x in enumerate(row_order(fun.target))}
    homs = fun.hom_functors.values()
    on_1 = {x: y for hf in homs for x, y in hf.object_map.items()}
    return (tuple(at[on_1[x]] for x in row_order(fun.source)),
            {c: d for hf in homs for c, d in hf.morphism_map.items()})


def vcomp_cells(t, later: tuple, earlier: tuple) -> tuple:
    """The row of the vertical composite, in the bicategory `t`, of icons
    with rows `later` and `earlier` ("later" runs second)."""
    return tuple(map(t.vcomp_table.__getitem__, zip(earlier, later)))


def hcomp_cells(over: LaxFunctor, later: tuple, earlier: tuple, under: LaxFunctor) -> tuple:
    """The row of the horizontal composite of icons with rows `later` and
    `earlier`, where `over` is later's source and `under` earlier's target:
    at x, the image under `over` of earlier's cell at x, followed by
    later's cell at the image of x under `under`."""
    return tuple(map(over.target.vcomp_table.__getitem__,
                     zip(map(over.cell_maps[1].__getitem__, earlier),
                         map(later.__getitem__, under.cell_maps[0]))))


def whisker_left_cells(fun: LaxFunctor, row: tuple) -> tuple:
    """The row of an icon with row `row` whiskered on the left by `fun`:
    the image under `fun` of each cell."""
    return tuple(map(fun.cell_maps[1].__getitem__, row))


def whisker_right_cells(row: tuple, fun: LaxFunctor) -> tuple:
    """The row of an icon with row `row` whiskered on the right by `fun`:
    at x, the cell at `fun`'s image of x."""
    return tuple(map(row.__getitem__, fun.cell_maps[0]))


def vcomp_icons(later: Icon, earlier: Icon) -> Icon:
    """Componentwise vertical composite ("later" runs second)."""
    t, order = later.bicategory, tuple(earlier.cells)
    return Icon(f"{later.name}.{earlier.name}", earlier.source, later.target,
                dict(zip(order, vcomp_cells(t, _row(later, order), _row(earlier, order)))),
                {pair: f"{later.families[pair]}.{name}" for pair, name in earlier.families.items()})


def hcomp_icons(later: Icon, earlier: Icon) -> Icon:
    """Horizontal composite along composition of lax functors.

    The two pastings (act on the component, then shift, or the other way
    round) agree by naturality; this builds the shift-after-act order.
    """
    over, under = later.source, earlier.target
    order = row_order(under.source)
    row = hcomp_cells(over, _row(later, row_order(under.target)), _row(earlier, order), under)
    return _pasted(f"{later.name}*{earlier.name}", later, earlier, dict(zip(order, row)))


def whisker_icon_left(fun: LaxFunctor, icon: Icon) -> Icon:
    """Post-compose every functor in sight with `fun`: the component at f is
    `fun` applied to the component of `icon` at f.  This is
    `hcomp_icons(identity_icon(fun), icon)`, whose pasting composes that
    cell with an identity."""
    order = tuple(icon.cells)
    return _pasted(f"id:{fun.name}*{icon.name}", fun, icon,
                   dict(zip(order, whisker_left_cells(fun, _row(icon, order)))))


def whisker_icon_right(icon: Icon, fun: LaxFunctor) -> Icon:
    """Pre-compose every functor in sight with `fun`: the component at f is
    the component of `icon` at fun(f), a pure reindexing.  This is
    `hcomp_icons(icon, identity_icon(fun))`, whose pasting composes that
    cell with the image of an identity."""
    row = whisker_right_cells(_row(icon, row_order(fun.target)), fun)
    return _pasted(f"{icon.name}*id:{fun.name}", icon, fun, dict(zip(row_order(fun.source), row)))


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
    ``laws``, the instances of `icon_laws` in order; ``variables``, the
    families' listings in order, which `validate_icon` checks the icon's
    cell keys against; ``search``, the plan
    that binds the draft's ``cells`` family by family under the ``laws``
    and the naturality squares."""
    families = {pair: _family(pair, s.homs[pair]) for pair in s.sorted_homs}
    laws = tuple(icon_laws(s))
    variables = [v for listed, _ in families.values() for v in listed]
    squares = tuple(sq for _, listed in families.values() for sq in listed)
    return SimpleNamespace(families=families, laws=laws, variables=variables,
                           search=compile_plan(variables, laws + squares))


def icon_cells(f: LaxFunctor, g: LaxFunctor):
    """The row of each icon f => g, in deterministic order; none when
    `validate_icon_pair` fails, in which case the source's `icon_plan` is
    not read.  One run of that plan binds every component 2-cell, hom pair
    by hom pair, under the naturality of each family and the icon laws; it
    meets the icons in the order of their families, each in
    `enumerate_nats` order.  Each row is a tuple in `row_order` of the
    source."""
    if not validate_icon_pair(f, g).ok:
        return
    order = row_order(f.source)
    draft = SimpleNamespace(source=f, target=g, cells={})
    for _ in run(f.source.icon_plan.search, draft):
        yield tuple(map(draft.cells.__getitem__, order))


def enumerate_icons(f: LaxFunctor, g: LaxFunctor):
    """All icons f => g, one per row of `icon_cells(f, g)`, in its order,
    each row read back as a cell table.  Each icon is named "enum" and has
    a dict of its own that names each family "enum", at every hom pair of
    f's hom functors.

    Every icon found passes `validate_icon`, which checks the same
    declaration."""
    order, names = row_order(f.source), dict.fromkeys(_families(f), "enum")
    for row in icon_cells(f, g):
        yield Icon("enum", f, g, dict(zip(order, row)), dict(names))


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
