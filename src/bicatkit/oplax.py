"""Oplax natural transformations between lax functors.

The data: a component 1-cell per object and a constraint 2-cell per 1-cell,
``constraints[f]: compose1(comp[B], F(f)) => compose1(G(f), comp[A])`` for
f: A -> B.  Validation handles fully weak ambients by normalizing both sides
of every law to right-associated composites (associators inserted in a fixed
order).  Vertical composition is likewise defined in full generality — that
is what lets the non-associative codiscrete example demonstrate that these
transformations do NOT form the 2-cells of anything strict.

Whiskering, interchange, and the strictness/costrictness machinery are
deliberately restricted to strict 2-categories and strict functors; outside
that setting they raise UnsupportedSettingError rather than guess at one of
several inequivalent pastings.

Every arrow witness has the same source, the walking arrow, built once per
process and shared by all the probes (and the transformations composed
from them), so it must not be mutated.

The declaration depends on the source bicategory alone: `oplax_variables`
reads the two lax functors and their target off the transformation being
bound.  So `enumerate_oplax` runs one compiled search per source, its
``oplax_plan``, for every pair of lax functors out of it, and
`validate_oplax` checks the same listing on a given transformation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .bicat import FiniteBicategory, UnsupportedSettingError
from .laxfun import LaxFunctor, compose_lax, two_functor
from .report import ValidationReport
from .search import compile_plan, run

if TYPE_CHECKING:  # the annotations' type; the functions that build icons import it
    from .icon import Icon


@dataclass
class OplaxNat:
    name: str
    source: LaxFunctor
    target: LaxFunctor
    components: dict     # object A -> 1-cell F(A) -> G(A)
    constraints: dict    # 1-cell f -> 2-cell comp[B].F(f) => G(f).comp[A]


def validate_oplax(u: OplaxNat) -> ValidationReport:
    rep = ValidationReport(f"oplax transformation {u.name}")
    f, g = u.source, u.target
    if (f.source is not g.source and f.source != g.source) or \
       (f.target is not g.target and f.target != g.target):
        rep.add("parallel", "the two lax functors are not parallel", structural=True)
        return rep
    n = len(f.source.sorted_objects)
    variables = oplax_variables(f.source)
    for step in (variables[:n], variables[n:]):  # components, then constraints
        rep.check_values(u, step)
        if rep.violations:
            return rep
    rep.check_laws(u, oplax_laws(f.source))
    return rep


# The checks of an oplax transformation's entries; a component with the
# wrong ends is structural, as the constraints' ends are composed from it.
_COMPONENT = (("missing-component", "no component at {!r}"),
              lambda u, a: u.source.target.one_cells(),
              ("dangling-component", "component at {!r} is not a 1-cell"),
              ("component-endpoints",
               "component at {!r} must run from the first image to the second", True))
_CONSTRAINT = (("missing-constraint", "no constraint at {!r}"),
               lambda u, w: _constraint_hom(u, w).morphisms,
               ("dangling-constraint", "constraint at {!r} is not a 2-cell of its hom"),
               ("constraint-endpoints",
                "constraint at {0!r} must run comp.F{0!r} => G{0!r}.comp", False))


def oplax_variables(s):
    """The search variables of an oplax transformation f => g between lax
    functors out of `s`: a component 1-cell F(A) -> G(A) at every object A,
    from its hom, then a constraint at every 1-cell w, from the hom of
    2-cells comp[B].F(w) => G(w).comp[A], each family in sorted order.  The
    domains read f, g and their target off the transformation being bound,
    so the listing serves every pair."""
    variables = [("components", a, (), functools.partial(_component_cells, a), (a,), _COMPONENT)
                 for a in s.sorted_objects]
    variables += [("constraints", w, tuple(("components", a) for a in s.home1(w)),
                   functools.partial(_constraint_cells, w, *s.home1(w)), (w,), _CONSTRAINT)
                  for w in s.one_cells()]
    return variables


def _component_cells(a, u):
    f, g = u.source, u.target
    return f.target.homs[(f.object_map[a], g.object_map[a])].sorted_objects


def _constraint_cells(w, a, b, u):
    f, g, t, comps = u.source, u.target, u.source.target, u.components
    return _constraint_hom(u, w).hom(t.compose1(comps[b], f.on_1(w)),
                                     t.compose1(g.on_1(w), comps[a]))


def oplax_plan(s):
    """The compiled search of `enumerate_oplax` between lax functors out of
    `s`, for every pair: `oplax_variables` under `oplax_laws`."""
    return compile_plan(oplax_variables(s), oplax_laws(s))


def _constraint_hom(u, w):
    """The hom of u's constraint at the 1-cell w: A -> B, from F(A) to G(B)."""
    a, b = u.source.source.home1(w)
    return u.source.target.homs[(u.source.object_map[a], u.target.object_map[b])]


def _natural(u, c):
    f, g, s, t = u.source, u.target, u.source.source, u.source.target
    a, b = s.home2(c)
    lhs = t.vcomp(t.whisker_right(g.on_2(c), u.components[a]), u.constraints[s.src2(c)])
    rhs = t.vcomp(u.constraints[s.tgt2(c)], t.whisker_left(u.components[b], f.on_2(c)))
    return lhs == rhs


def _composition_compatible(u, x, y):
    f, g, s, t = u.source, u.target, u.source.source, u.source.target
    (a, b), c = s.home1(y), s.home1(x)[1]
    fx, fy, gx, gy = f.on_1(x), f.on_1(y), g.on_1(x), g.on_1(y)
    ca, cb, cc = u.components[a], u.components[b], u.components[c]
    lhs = t.vcomp(
        t.whisker_right(g.comp_constraints[(x, y)], ca),
        t.vcomp(
            t.assoc_inv(gx, gy, ca),
            t.vcomp(
                t.whisker_left(gx, u.constraints[y]),
                t.vcomp(
                    t.assoc(gx, cb, fy),
                    t.vcomp(t.whisker_right(u.constraints[x], fy),
                            t.assoc_inv(cc, fx, fy))))))
    rhs = t.vcomp(u.constraints[s.compose1(x, y)],
                  t.whisker_left(cc, f.comp_constraints[(x, y)]))
    return lhs == rhs


def _unit_compatible(u, a):
    f, g, s, t = u.source, u.target, u.source.source, u.source.target
    ca = u.components[a]
    lhs = t.vcomp(t.whisker_right(g.unit_constraints[a], ca),
                  t.vcomp(t.lunit_inv(ca), t.runit(ca)))
    return lhs == t.vcomp(u.constraints[s.unit[a]],
                          t.whisker_left(ca, f.unit_constraints[a]))


def oplax_laws(s):
    """Naturality (ON0), compatibility with composition, fully padded (ON1),
    and with units (ON2) out of `s`, as law instances (see `ValidationReport.check_laws`)."""
    comps, cons = "components", "constraints"
    for c in s.two_cells():
        a, b = s.home2(c)
        yield (_natural, (c,),
               ((comps, a), (comps, b), (cons, s.src2(c)), (cons, s.tgt2(c))),
               "naturality", "constraint family is not natural under {!r}")
    for x, y in s.composable_pairs_by_later():
        (a, b), c = s.home1(y), s.home1(x)[1]
        yield (_composition_compatible, (x, y),
               ((comps, a), (comps, b), (comps, c),
                (cons, x), (cons, y), (cons, s.compose1(x, y))),
               "composition-compat",
               "constraint pasting disagrees at the pair ({!r}, {!r})")
    for a in s.sorted_objects:
        yield (_unit_compatible, (a,), ((comps, a), (cons, s.unit[a])),
               "unit-compat", "unit constraint pasting disagrees at {!r}")


# ---------------------------------------------------------------------------
# classification

@dataclass(frozen=True)
class OplaxClass:
    strict: bool         # every constraint is an identity 2-cell
    pseudonatural: bool  # every constraint is invertible
    icon: bool           # every component is a unit 1-cell

    @property
    def labels(self):
        out = []
        if self.strict:
            out.append("strict")
        if self.pseudonatural:
            out.append("pseudonatural")
        if self.icon:
            out.append("icon")
        return tuple(out) if out else ("general",)

    @property
    def label(self):
        return "+".join(self.labels)


def classify_oplax(u: OplaxNat) -> OplaxClass:
    t = u.source.target
    cons = list(u.constraints.values())
    strict = t.identity_cells.issuperset(cons)
    pseudo = all(t.inv2(c) is not None for c in cons)
    icon = all(u.components[a] == t.unit[u.source.object_map[a]]
               for a in u.source.source.objects)
    return OplaxClass(strict, pseudo, icon)


# ---------------------------------------------------------------------------
# identity / vertical composition

def identity_oplax(fun: LaxFunctor) -> OplaxNat:
    t = fun.target
    comps = {a: t.unit[fun.object_map[a]] for a in fun.source.objects}
    cons = {}
    for w in fun.source.one_cells():
        fw = fun.on_1(w)
        cons[w] = t.vcomp(t.runit_inv(fw), t.lunit(fw))
    return OplaxNat(f"1_{fun.name}", fun, fun, comps, cons)


def vcomp_oplax(later: OplaxNat, earlier: OplaxNat) -> OplaxNat:
    """Vertical composite, valid in any ambient: components compose as
    1-cells, constraints paste with associator corrections."""
    u, v = earlier, later
    if u.target is not v.source and u.target != v.source:
        raise ValueError("transformations are not vertically composable")
    f, h = u.source, v.target
    t = f.target
    comps = {a: t.compose1(v.components[a], u.components[a])
             for a in f.source.objects}
    cons = {w: _pasted_constraint(v, u, w) for w in f.source.one_cells()}
    return OplaxNat(f"{v.name}.{u.name}", f, h, comps, cons)


def _pasted_constraint(later: OplaxNat, earlier: OplaxNat, w):
    """The constraint at the 1-cell w of the vertical composite of two
    composable transformations: their constraints at w pasted with
    associator corrections."""
    u, v = earlier, later
    f, g, h = u.source, u.target, v.target
    t = f.target
    a, b = f.source.home1(w)
    fw, gw, hw = f.on_1(w), g.on_1(w), h.on_1(w)
    ua, ub = u.components[a], u.components[b]
    va, vb = v.components[a], v.components[b]
    return t.vcomp(
        t.assoc(hw, va, ua),
        t.vcomp(
            t.whisker_right(v.constraints[w], ua),
            t.vcomp(
                t.assoc_inv(vb, gw, ua),
                t.vcomp(t.whisker_left(vb, u.constraints[w]),
                        t.assoc(vb, ub, fw)))))


# ---------------------------------------------------------------------------
# the strict setting: whiskering, interchange, strictness, costrictness

def _require_strict_setting(what, bicats=(), functors=()):
    for b in bicats:
        if not b.is_strict():
            raise UnsupportedSettingError(
                f"{what} is only defined over strict 2-categories; "
                f"{b.name} is not strict")
    for f in functors:
        ids = f.target.identity_cells
        if not (ids.issuperset(f.comp_constraints.values())
                and ids.issuperset(f.unit_constraints.values())):
            raise UnsupportedSettingError(
                f"{what} is only defined along strict functors; "
                f"{f.name} is not strict")


def whisker_oplax_left(fun: LaxFunctor, u: OplaxNat) -> OplaxNat:
    """Apply a strict functor after both sides of u."""
    _require_strict_setting("whiskering", (u.source.source, u.source.target,
                                           fun.target), (fun,))
    return _whisker_left(fun, u)


def whisker_oplax_right(u: OplaxNat, fun: LaxFunctor) -> OplaxNat:
    """Restrict u along a strict functor into its source."""
    _require_strict_setting("whiskering", (fun.source, u.source.source,
                                           u.source.target), (fun,))
    return _whisker_right(u, fun)


# The two whiskerings without their check of the strict setting, for
# `interchange_check`, which checks it once for all four of its whiskerings.

def _whisker_left(fun, u):
    comps = {a: fun.on_1(u.components[a]) for a in u.components}
    cons = {w: fun.on_2(u.constraints[w]) for w in u.constraints}
    return OplaxNat(f"{fun.name}.{u.name}", compose_lax(fun, u.source),
                    compose_lax(fun, u.target), comps, cons)


def _whisker_right(u, fun):
    comps = {a: u.components[fun.object_map[a]] for a in fun.source.objects}
    cons = {w: u.constraints[fun.on_1(w)] for w in fun.source.one_cells()}
    return OplaxNat(f"{u.name}.{fun.name}", compose_lax(u.source, fun),
                    compose_lax(u.target, fun), comps, cons)


def interchange_check(beta: OplaxNat, alpha: OplaxNat) -> ValidationReport:
    """Compare the two horizontal composites of beta (the later
    transformation) with alpha, component by component and constraint by
    constraint.  The law famously fails in general: it holds for all alpha
    exactly when beta's constraints are identities, and for all beta exactly
    when alpha's components are."""
    rep = ValidationReport(f"interchange of {beta.name} with {alpha.name}")
    for kind, message, witness in _interchange_differences(beta, alpha):
        rep.add(kind, message, witness)
    return rep


def _interchange_differences(beta: OplaxNat, alpha: OplaxNat):
    """Each difference between the two horizontal composites that
    `interchange_check` compares, as ``(kind, message, witness)``, made
    lazily: the components first, then the constraints, each pasted
    (`_pasted_constraint`) only when it is compared.  The two composites
    are those of `vcomp_oplax`, whose factors compose by construction.
    The checks of the setting raise when the generator is first advanced."""
    f, g = alpha.source, alpha.target
    h, k = beta.source, beta.target
    if h.source != f.target:
        raise ValueError("beta's source 2-category must be alpha's target")
    _require_strict_setting("interchange",
                            (f.source, f.target, h.target, g.source, k.target), (f, g, h, k))
    one = (_whisker_left(k, alpha), _whisker_right(beta, f))
    two = (_whisker_right(beta, g), _whisker_left(h, alpha))
    t = h.target
    for a in f.source.sorted_objects:
        if t.compose1(one[0].components[a], one[1].components[a]) \
                != t.compose1(two[0].components[a], two[1].components[a]):
            yield ("interchange-component",
                   f"the two composites have different components at {a!r}", (a,))
    for w in f.source.one_cells():
        if _pasted_constraint(*one, w) != _pasted_constraint(*two, w):
            yield ("interchange-constraint",
                   f"the two composites have different constraints at {w!r}", (w,))


@functools.cache
def _walking_arrow() -> FiniteBicategory:
    """The source of every arrow witness: built once per process and shared
    by every probe, so it must not be mutated."""
    from .corpus import walking_arrow  # deferred: an oplax document loads no corpus
    return walking_arrow()


def arrow_witness(b: FiniteBicategory, f) -> OplaxNat:
    """The universal probe for a 1-cell f: A -> B of a strict 2-category:
    a strict transformation between two functors out of the walking arrow,
    one constant at A, the other picking out f, with components (1_A, f)."""
    _require_strict_setting("the arrow witness", (b,))
    wa = _walking_arrow()
    a, bb = b.home1(f)
    ua, ub = b.unit[a], b.unit[bb]
    const = two_functor(f"const[{a!r}]", wa, b, {0: a, 1: a},
                        {w: ua for w in wa.one_cells()},
                        {c: b.id2(ua) for c in wa.two_cells()})
    u01 = ("le", 0, 1)
    pick = two_functor(f"pick[{f!r}]", wa, b, {0: a, 1: bb},
                       {("le", 0, 0): ua, u01: f, ("le", 1, 1): ub},
                       {("id", ("le", 0, 0)): b.id2(ua),
                        ("id", u01): b.id2(f),
                        ("id", ("le", 1, 1)): b.id2(ub)})
    cons = {("le", 0, 0): b.id2(ua), u01: b.id2(f), ("le", 1, 1): b.id2(f)}
    return OplaxNat(f"witness[{f!r}]", const, pick, {0: ua, 1: f}, cons)


@dataclass
class StrictnessVerdict:
    strict: bool
    witnesses: list      # 1-cells whose probe makes interchange fail

    @property
    def verdict(self):
        return "strict" if self.strict else "non-strict"


def strictness_by_witness(beta: OplaxNat) -> StrictnessVerdict:
    """Decide strictness of beta purely by running interchange against the
    arrow-witness probes, one per 1-cell of beta's source 2-category; a
    probe fails at the first difference of its two composites."""
    b = beta.source.source
    _require_strict_setting("strictness probing",
                            (b, beta.source.target), (beta.source, beta.target))
    bad = [f for f in b.one_cells()
           if next(_interchange_differences(beta, arrow_witness(b, f)), None) is not None]
    return StrictnessVerdict(not bad, bad)


# ---------------------------------------------------------------------------
# conversions with icons

def icon_as_oplax(icon: Icon) -> OplaxNat:
    """Pad an icon with unit components; the constraint at f becomes the
    component 2-cell conjugated by the unitors."""
    f, g = icon.source, icon.target
    t = f.target
    comps = {a: t.unit[f.object_map[a]] for a in f.source.objects}
    cons = {}
    for w in f.source.one_cells():
        fw, gw = f.on_1(w), g.on_1(w)
        cons[w] = t.vcomp(t.runit_inv(gw), t.vcomp(icon.at(w), t.lunit(fw)))
    return OplaxNat(f"oplax[{icon.name}]", f, g, comps, cons)


def oplax_is_icon(u: OplaxNat):
    """Strip an icon-shaped transformation (unit components) back to its
    icon; None when some component is not a unit 1-cell."""
    from .icon import Icon

    f, g = u.source, u.target
    t = f.target
    if not classify_oplax(u).icon:
        return None
    cells = {w: t.vcomp(t.runit(g.on_1(w)), t.vcomp(u.constraints[w], t.lunit_inv(f.on_1(w))))
             for hf in f.hom_functors.values() for w in hf.object_map}
    return Icon(f"icon[{u.name}]", f, g, cells,
                {pair: f"strip{pair!r}" for pair in f.hom_functors})


# ---------------------------------------------------------------------------
# enumeration and costrictness

def enumerate_oplax(f: LaxFunctor, g: LaxFunctor):
    """All oplax transformations f => g, exhaustively; tiny inputs only.

    Every one found passes `validate_oplax`, which checks the same
    declaration.  The search is compiled once per source bicategory, as its
    ``oplax_plan``, and runs for every pair of lax functors out of it."""
    if f.source != g.source or f.target != g.target:
        return
    draft = OplaxNat("enum", f, g, {}, {})
    for _ in run(f.source.oplax_plan, draft):
        yield OplaxNat("enum", f, g, dict(draft.components), dict(draft.constraints))


DEFAULT_BATTERY_TARGET_NAMES = ("terminal", "walking-two-cell", "sigma-idem")


def battery_transformations(b: FiniteBicategory):
    """The costrictness battery: every oplax transformation between every
    pair of strict functors from b into each (small, strict) named corpus
    target, plus the crossing of b's cylinder.  Deterministic order."""
    from . import corpus
    from .cylinder import lax_cylinder
    from .laxfun import enumerate_two_functors

    out = []
    for name in DEFAULT_BATTERY_TARGET_NAMES:
        tgt = corpus.get("bicategory", name)
        funs = list(enumerate_two_functors(b, tgt))
        for h in funs:
            for k in funs:
                out.extend(enumerate_oplax(h, k))
    out.append(lax_cylinder(b).crossing)
    return out


@dataclass
class CostrictVerdict:
    costrict: bool
    icon: Icon | None = None
    battery_checked: int = 0
    battery_failures: list = field(default_factory=list)
    refutation: object = None

    @property
    def verdict(self):
        return "costrict" if self.costrict else "not-costrict"


def is_costrict(u: OplaxNat) -> CostrictVerdict:
    """Decide whether u behaves as an icon: interchange with u holds against
    every transformation on its other side.  Positive answers are certified
    by stripping to a validated icon and sweeping the battery; negative ones
    by an explicit cylinder refutation that replays as a failing interchange."""
    from .cylinder import costrict_refutation
    from .icon import validate_icon

    _require_strict_setting("costrictness",
                            (u.source.source, u.source.target),
                            (u.source, u.target))
    stripped = oplax_is_icon(u)
    if stripped is None or not validate_icon(stripped).ok:
        return CostrictVerdict(False, refutation=costrict_refutation(u))
    betas = battery_transformations(u.source.target)
    failures = []
    for beta in betas:
        rep = interchange_check(beta, u)
        if not rep.ok:
            failures.append((beta.name, rep.first().kind, rep.first().witness))
    return CostrictVerdict(not failures, icon=stripped,
                           battery_checked=len(betas), battery_failures=failures)
