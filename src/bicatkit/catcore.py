"""Finite categories, functors, and natural transformations.

Everything is given by explicit finite tables.  A category stores its
composition table keyed diagrammatically: ``table[(f, g)]`` is defined exactly
when ``tgt(f) == src(g)`` and holds the composite "g after f".  The method
``compose(g, f)`` uses the usual applicative order, so
``compose(g, f) == table[(f, g)]``.

Ids (for objects and morphisms alike) are arbitrary hashable values — strings
in hand-written structures, nested tuples in the products and quotients built
by the rest of the package.  Validators never raise on bad data; they return a
ValidationReport with the smallest witness they found.

A category hands out its objects, morphisms, hom sets and composable pairs in
canonical order (`sorted_ids`), computed once, on first read, from its cell
sets ``objects`` and ``morphisms``.  So the cell sets are fixed once it is
built; ``identity`` and ``table`` may still be edited in place.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .report import ValidationReport, sorted_ids
from .search import compile_plan, run


@dataclass
class FiniteCategory:
    name: str
    objects: list
    morphisms: dict        # mid -> (src, tgt)
    identity: dict         # obj -> mid
    table: dict            # (f, g) -> composite "g after f", for tgt(f) == src(g)

    # -- canonical views ---------------------------------------------------
    @cached_property
    def sorted_objects(self):
        """The objects, each once, in canonical order."""
        return tuple(sorted_ids(dict.fromkeys(self.objects)))

    @cached_property
    def sorted_morphisms(self):
        return tuple(sorted_ids(self.morphisms))

    @cached_property
    def _hom_sets(self):
        return grouped(self.sorted_morphisms, self.morphisms.__getitem__)

    @cached_property
    def _out(self):
        return grouped(self.sorted_morphisms, self.src)

    def hom(self, a, b):
        """The morphisms from a to b, in canonical order."""
        return self._hom_sets.get((a, b), ())

    def out_of(self, a):
        """The morphisms with source a, in canonical order."""
        return self._out.get(a, ())

    def composable_pairs(self):
        """The pairs (f, g) with g after f defined, f slowest."""
        for f in self.sorted_morphisms:
            for g in self.out_of(self.tgt(f)):
                yield f, g

    def src(self, f):
        return self.morphisms[f][0]

    def tgt(self, f):
        return self.morphisms[f][1]

    def compose(self, g, f):
        """The composite "g after f" (f acts first)."""
        return self.table[(f, g)]

    def is_identity(self, f):
        s, t = self.morphisms[f]
        return s == t and self.identity.get(s) == f

    def iso_inverse(self, f):
        """Two-sided inverse of f, or None."""
        s, t = self.morphisms[f]
        for g in self.hom(t, s):
            if self.table[(f, g)] == self.identity[s] and self.table[(g, f)] == self.identity[t]:
                return g
        return None

    def is_iso(self, f):
        return self.iso_inverse(f) is not None


def grouped(cells, key):
    """{key(x): the cells x with that key, as a tuple in the given order}."""
    groups = {}
    for x in cells:
        groups.setdefault(key(x), []).append(x)
    return {k: tuple(xs) for k, xs in groups.items()}


def validate_category(c: FiniteCategory) -> ValidationReport:
    """Structural checks first (they suppress law checks), then category laws."""
    rep = ValidationReport(f"category {c.name}")
    objset = set(c.objects)
    if len(objset) != len(c.objects):
        rep.add("duplicate-object", "object list has repeats", structural=True)
    for m in c.sorted_morphisms:
        s, t = c.morphisms[m]
        if s not in objset:
            rep.add("dangling-source", f"morphism {m!r} has source {s!r} not in objects",
                    (m,), structural=True)
        if t not in objset:
            rep.add("dangling-target", f"morphism {m!r} has target {t!r} not in objects",
                    (m,), structural=True)
    for a in c.sorted_objects:
        i = c.identity.get(a)
        if a not in c.identity:
            rep.add("missing-identity", f"object {a!r} has no identity", (a,), structural=True)
        elif i not in c.morphisms:
            rep.add("missing-identity", f"identity of {a!r} is unknown morphism {i!r}",
                    (a,), structural=True)
        elif c.morphisms[i] != (a, a):
            rep.add("bad-identity", f"identity of {a!r} is not an endomorphism of it",
                    (a, i), structural=True)
    pairs = list(c.composable_pairs())
    for key in sorted_ids(set(c.table).difference(pairs)):
        rep.add("spurious-composite", f"table entry {key!r} is not a composable pair",
                key, structural=True)
    for key in pairs:
        if key not in c.table:
            rep.add("missing-composite", f"no composite for composable pair {key!r}",
                    key, structural=True)
    for key in [k for k in pairs if k in c.table]:
        f, g = key
        h = c.table[key]
        if h not in c.morphisms:
            rep.add("dangling-composite", f"composite of {key!r} is unknown morphism {h!r}",
                    key, structural=True)
        elif c.morphisms[h] != (c.morphisms[f][0], c.morphisms[g][1]):
            rep.add("composite-endpoints",
                    f"composite {h!r} of {key!r} has the wrong endpoints", key,
                    structural=True)
    if rep.structural_failure:
        return rep

    for f in c.sorted_morphisms:
        s, t = c.morphisms[f]
        if c.table[(c.identity[s], f)] != f:
            rep.add("left-identity", f"composing {f!r} after id_{s!r} is not {f!r}", (f,))
        if c.table[(f, c.identity[t])] != f:
            rep.add("right-identity", f"composing id_{t!r} after {f!r} is not {f!r}", (f,))
    for f, g in pairs:
        for h in c.out_of(c.tgt(g)):
            if c.table[(c.table[(f, g)], h)] != c.table[(f, c.table[(g, h)])]:
                rep.add("associativity",
                        f"(h.g).f and h.(g.f) disagree for f={f!r} g={g!r} h={h!r}",
                        (f, g, h))
    return rep


# ---------------------------------------------------------------------------
# builders

def discrete_category(name, objects):
    objects = list(objects)
    morphisms = {("id", a): (a, a) for a in objects}
    identity = {a: ("id", a) for a in objects}
    table = {(i, i): i for i in morphisms}
    return FiniteCategory(name, objects, morphisms, identity, table)


def codiscrete_category(name, objects):
    """Exactly one morphism between every ordered pair of objects."""
    objects = list(objects)
    morphisms = {("to", a, b): (a, b) for a in objects for b in objects}
    identity = {a: ("to", a, a) for a in objects}
    table = {}
    for a, b, c_ in itertools.product(objects, repeat=3):
        table[(("to", a, b), ("to", b, c_))] = ("to", a, c_)
    return FiniteCategory(name, objects, morphisms, identity, table)


def chain_category(n):
    """The poset 0 <= 1 <= ... <= n viewed as a category."""
    objects = list(range(n + 1))
    morphisms = {("le", i, j): (i, j) for i in objects for j in objects if i <= j}
    identity = {i: ("le", i, i) for i in objects}
    table = {}
    for i in objects:
        for j in objects[i:]:
            for k in objects[j:]:
                table[(("le", i, j), ("le", j, k))] = ("le", i, k)
    return FiniteCategory(f"chain{n}", objects, morphisms, identity, table)


def product_category(c: FiniteCategory, d: FiniteCategory) -> FiniteCategory:
    objects = [(a, b) for a in c.objects for b in d.objects]
    morphisms = {(f, g): ((c.morphisms[f][0], d.morphisms[g][0]),
                          (c.morphisms[f][1], d.morphisms[g][1]))
                 for f in c.morphisms for g in d.morphisms}
    identity = {(a, b): (c.identity[a], d.identity[b]) for a, b in objects}
    table = {((f1, g1), (f2, g2)): (c.table[(f1, f2)], d.table[(g1, g2)])
             for f1, f2 in c.composable_pairs() for g1, g2 in d.composable_pairs()}
    return FiniteCategory(f"({c.name})x({d.name})", objects, morphisms, identity, table)


# ---------------------------------------------------------------------------
# functors

@dataclass
class Functor:
    name: str
    source: FiniteCategory
    target: FiniteCategory
    object_map: dict
    morphism_map: dict


def validate_functor(fun: Functor) -> ValidationReport:
    rep = ValidationReport(f"functor {fun.name}")
    variables = functor_variables(fun.source, fun.target)
    for domains in (False, True):  # images present and cells, then their endpoints
        rep.check_values(fun, variables, domains)
        if rep.violations:
            return rep
    rep.check_laws(fun, functor_laws(fun.source))
    return rep


# The checks of a functor's images.
OBJECT_IMAGE = (("missing-object-image", "no image for object {!r}"),
                lambda fun, a: fun.target.objects,
                ("dangling-object-image", "image of {!r} is not a target object"), None)
_MORPHISM_IMAGE = (("missing-morphism-image", "no image for morphism {!r}"),
                   lambda fun, m: fun.target.morphisms,
                   ("dangling-morphism-image", "image of {!r} is not a target morphism"),
                   ("endpoints", "image of {!r} has the wrong endpoints", False))


def functor_variables(s, t):
    """The search variables of a functor s -> t: the image of each object,
    then of each morphism, each in sorted order, a morphism's ranging over
    the hom between the images of its ends."""
    omap, targets = "object_map", t.sorted_objects
    return [(omap, a, (), lambda fun: targets, (a,), OBJECT_IMAGE) for a in s.sorted_objects] + [
        ("morphism_map", m, ((omap, s.src(m)), (omap, s.tgt(m))),
         lambda fun, m=m: t.hom(fun.object_map[s.src(m)], fun.object_map[s.tgt(m)]),
         (m,), _MORPHISM_IMAGE) for m in s.sorted_morphisms]


def _preserves_identity(fun, a):
    return fun.morphism_map[fun.source.identity[a]] == fun.target.identity[fun.object_map[a]]


def _preserves_composite(fun, f, g):
    mm = fun.morphism_map
    return mm[fun.source.table[(f, g)]] == fun.target.table[(mm[f], mm[g])]


def functor_laws(s):
    """Preservation of identities, then of composites, as law instances
    (see `ValidationReport.check_laws`) of a functor out of `s`."""
    omap, mm = "object_map", "morphism_map"
    for a in s.sorted_objects:
        yield (_preserves_identity, (a,), ((omap, a), (mm, s.identity[a])),
               "identity", "identity of {!r} is not sent to an identity")
    for f, g in s.composable_pairs():
        yield (_preserves_composite, (f, g), ((mm, f), (mm, g), (mm, s.table[(f, g)])),
               "composition", "images of {1!r}.{0!r} disagree")


def compose_functors(g: Functor, f: Functor) -> Functor:
    """The composite "g after f"."""
    return Functor(f"{g.name}.{f.name}", f.source, g.target,
                   {a: g.object_map[f.object_map[a]] for a in f.source.objects},
                   {m: g.morphism_map[f.morphism_map[m]] for m in f.source.morphisms})


def is_fully_faithful(fun: Functor):
    """(ok, witness): each hom map must be a bijection onto the image hom set."""
    s, t = fun.source, fun.target
    for a in s.sorted_objects:
        for b in s.sorted_objects:
            dom = s.hom(a, b)
            images = [fun.morphism_map[f] for f in dom]
            if len(set(images)) != len(images):
                return False, ("not-faithful", a, b)
            cod = t.hom(fun.object_map[a], fun.object_map[b])
            if set(images) != set(cod):
                return False, ("not-full", a, b)
    return True, ()


def is_essentially_surjective(fun: Functor):
    """(ok, witness): every target object isomorphic to an object in the image."""
    t = fun.target
    image = {fun.object_map[a] for a in fun.source.objects}
    for x in t.sorted_objects:
        if x in image:
            continue
        if not any(t.is_iso(f) for y in sorted_ids(image) for f in t.hom(y, x)):
            return False, ("not-essentially-surjective", x)
    return True, ()


# ---------------------------------------------------------------------------
# natural transformations

@dataclass
class NatTrans:
    name: str
    source: Functor
    target: Functor
    components: dict       # obj of source category -> morphism of target category

    def at(self, a):
        return self.components[a]


def validate_nat(nt: NatTrans) -> ValidationReport:
    rep = ValidationReport(f"natural transformation {nt.name}")
    f, g = nt.source, nt.target
    if f.source is not g.source and f.source != g.source:
        rep.add("parallel", "source functors do not share a source category", structural=True)
        return rep
    if f.target is not g.target and f.target != g.target:
        rep.add("parallel", "source functors do not share a target category", structural=True)
        return rep
    rep.check_values(nt, nat_variables(f, g))
    if rep.violations:
        return rep
    rep.check_laws(nt, nat_laws(f.source))
    return rep


_COMPONENT = (("missing-component", "no component at {!r}"),
              lambda nt, a: nt.source.target.morphisms,
              ("dangling-component", "component at {!r} is not a target morphism"),
              ("component-endpoints",
               "component at {!r} must run from the first image to the second", False))


def nat_variables(f, g):
    """The search variables of a transformation f => g: one component per
    object in sorted order, each ranging over its hom."""
    return [("components", a, (), lambda nt, a=a: f.target.hom(f.object_map[a], g.object_map[a]),
             (a,), _COMPONENT) for a in f.source.sorted_objects]


def _natural_at(nt, m):
    f, g, comp, (a, b) = nt.source, nt.target, nt.components, nt.source.source.morphisms[m]
    return (f.target.compose(comp[b], f.morphism_map[m])
            == f.target.compose(g.morphism_map[m], comp[a]))


def nat_laws(cat):
    """Naturality at each morphism of `cat`, as law instances of a transformation."""
    for m in cat.sorted_morphisms:
        a, b = cat.morphisms[m]
        yield (_natural_at, (m,), (("components", a), ("components", b)),
               "naturality", "naturality square at {!r} does not commute")


def identity_nat(fun: Functor) -> NatTrans:
    return NatTrans(f"id:{fun.name}", fun, fun,
                    {a: fun.target.identity[fun.object_map[a]] for a in fun.source.objects})


def vcomp_nat(later: NatTrans, earlier: NatTrans) -> NatTrans:
    """Componentwise composite: earlier runs first."""
    t = earlier.source.target
    return NatTrans(f"{later.name}.{earlier.name}", earlier.source, later.target,
                    {a: t.compose(later.components[a], earlier.components[a])
                     for a in earlier.source.source.objects})


# ---------------------------------------------------------------------------
# exhaustive enumeration (all structures here are deliberately tiny)

def enumerate_functors(s: FiniteCategory, t: FiniteCategory):
    """All functors s -> t, in deterministic order: by the images of the
    objects, then of the morphisms, each in sorted order (an identity's
    image is fixed by its object's)."""
    draft = Functor("enum", s, t, {}, {})
    for _ in run(compile_plan(functor_variables(s, t), functor_laws(s)), draft):
        yield Functor("enum", s, t, dict(draft.object_map), dict(draft.morphism_map))


def enumerate_nats(f: Functor, g: Functor):
    """All natural transformations f => g, in deterministic order: one
    component per object in sorted order, each ranging over its hom."""
    draft = NatTrans("enum", f, g, {})
    for _ in run(compile_plan(nat_variables(f, g), nat_laws(f.source)), draft):
        yield NatTrans("enum", f, g, dict(draft.components))
