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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .report import ValidationReport, sorted_ids
from .search import constraints, search


@dataclass
class FiniteCategory:
    name: str
    objects: list
    morphisms: dict        # mid -> (src, tgt)
    identity: dict         # obj -> mid
    table: dict            # (f, g) -> composite "g after f", for tgt(f) == src(g)
    _homs: dict = field(default_factory=dict, repr=False, compare=False)

    def src(self, f):
        return self.morphisms[f][0]

    def tgt(self, f):
        return self.morphisms[f][1]

    def hom(self, a, b):
        """Sorted list of morphism ids from a to b."""
        key = (a, b)
        if key not in self._homs:
            self._homs[key] = sorted_ids(
                m for m, (s, t) in self.morphisms.items() if s == a and t == b
            )
        return self._homs[key]

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

    def composable_pairs(self):
        morphisms = sorted_ids(self.morphisms)
        for f in morphisms:
            for g in morphisms:
                if self.tgt(f) == self.src(g):
                    yield f, g


def validate_category(c: FiniteCategory) -> ValidationReport:
    """Structural checks first (they suppress law checks), then category laws."""
    rep = ValidationReport(f"category {c.name}")
    objset = set(c.objects)
    if len(objset) != len(c.objects):
        rep.add("duplicate-object", "object list has repeats", structural=True)
    for m in sorted_ids(c.morphisms):
        s, t = c.morphisms[m]
        if s not in objset:
            rep.add("dangling-source", f"morphism {m!r} has source {s!r} not in objects",
                    (m,), structural=True)
        if t not in objset:
            rep.add("dangling-target", f"morphism {m!r} has target {t!r} not in objects",
                    (m,), structural=True)
    for a in sorted_ids(objset):
        i = c.identity.get(a)
        if i is None:
            rep.add("missing-identity", f"object {a!r} has no identity", (a,), structural=True)
        elif i not in c.morphisms:
            rep.add("missing-identity", f"identity of {a!r} is unknown morphism {i!r}",
                    (a,), structural=True)
        elif c.morphisms[i] != (a, a):
            rep.add("bad-identity", f"identity of {a!r} is not an endomorphism of it",
                    (a, i), structural=True)
    expected = {(f, g) for f in c.morphisms for g in c.morphisms
                if c.morphisms[f][1] == c.morphisms[g][0]}
    for key in sorted_ids(set(c.table) - expected):
        rep.add("spurious-composite", f"table entry {key!r} is not a composable pair",
                key, structural=True)
    for key in sorted_ids(expected - set(c.table)):
        rep.add("missing-composite", f"no composite for composable pair {key!r}",
                key, structural=True)
    for key in sorted_ids(expected & set(c.table)):
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

    for f in sorted_ids(c.morphisms):
        s, t = c.morphisms[f]
        if c.table[(c.identity[s], f)] != f:
            rep.add("left-identity", f"composing {f!r} after id_{s!r} is not {f!r}", (f,))
        if c.table[(f, c.identity[t])] != f:
            rep.add("right-identity", f"composing id_{t!r} after {f!r} is not {f!r}", (f,))
    for f, g in c.composable_pairs():
        for h in sorted_ids(c.morphisms):
            if c.src(h) != c.tgt(g):
                continue
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
    table = {}
    for (f1, g1), (f2, g2) in itertools.product(morphisms, repeat=2):
        if c.morphisms[f1][1] == c.morphisms[f2][0] and d.morphisms[g1][1] == d.morphisms[g2][0]:
            table[((f1, g1), (f2, g2))] = (c.table[(f1, f2)], d.table[(g1, g2)])
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

    def on_obj(self, a):
        return self.object_map[a]


def validate_functor(fun: Functor) -> ValidationReport:
    rep = ValidationReport(f"functor {fun.name}")
    s, t = fun.source, fun.target
    for a in sorted_ids(s.objects):
        if a not in fun.object_map:
            rep.add("missing-object-image", f"no image for object {a!r}", (a,), structural=True)
        elif fun.object_map[a] not in set(t.objects):
            rep.add("dangling-object-image", f"image of {a!r} is not a target object",
                    (a,), structural=True)
    for f in sorted_ids(s.morphisms):
        if f not in fun.morphism_map:
            rep.add("missing-morphism-image", f"no image for morphism {f!r}", (f,),
                    structural=True)
        elif fun.morphism_map[f] not in t.morphisms:
            rep.add("dangling-morphism-image", f"image of {f!r} is not a target morphism",
                    (f,), structural=True)
    if rep.structural_failure:
        return rep

    for f in sorted_ids(s.morphisms):
        a, b = s.morphisms[f]
        if t.morphisms[fun.morphism_map[f]] != (fun.object_map[a], fun.object_map[b]):
            rep.add("endpoints", f"image of {f!r} has the wrong endpoints", (f,))
    if rep.violations:
        return rep
    for a in sorted_ids(s.objects):
        if fun.morphism_map[s.identity[a]] != t.identity[fun.object_map[a]]:
            rep.add("identity", f"identity of {a!r} is not sent to an identity", (a,))
    rep.check_laws(fun, functor_laws(fun))
    return rep


def _preserves_composite(fun, f, g):
    mm = fun.morphism_map
    return mm[fun.source.table[(f, g)]] == fun.target.table[(mm[f], mm[g])]


def functor_laws(fun):
    """Preservation of composites, as law instances (see
    `ValidationReport.check_laws`) of `fun`."""
    mm, table = fun.morphism_map, fun.source.table
    for f, g in fun.source.composable_pairs():
        yield (_preserves_composite, (f, g), ((mm, f), (mm, g), (mm, table[(f, g)])),
               "composition", "images of {1!r}.{0!r} disagree")


def compose_functors(g: Functor, f: Functor) -> Functor:
    """The composite "g after f"."""
    return Functor(f"{g.name}.{f.name}", f.source, g.target,
                   {a: g.object_map[f.object_map[a]] for a in f.source.objects},
                   {m: g.morphism_map[f.morphism_map[m]] for m in f.source.morphisms})


def is_fully_faithful(fun: Functor):
    """(ok, witness): each hom map must be a bijection onto the image hom set."""
    s, t = fun.source, fun.target
    for a in sorted_ids(s.objects):
        for b in sorted_ids(s.objects):
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
    for x in sorted_ids(t.objects):
        if x in image:
            continue
        if not any(_isomorphic(t, y, x) for y in sorted_ids(image)):
            return False, ("not-essentially-surjective", x)
    return True, ()


def _isomorphic(c: FiniteCategory, a, b):
    return any(c.is_iso(f) for f in c.hom(a, b))


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
    cat, tcat = f.source, f.target
    for a in sorted_ids(cat.objects):
        m = nt.components.get(a)
        if m is None:
            rep.add("missing-component", f"no component at {a!r}", (a,), structural=True)
        elif m not in tcat.morphisms:
            rep.add("dangling-component", f"component at {a!r} is not a target morphism",
                    (a,), structural=True)
        elif tcat.morphisms[m] != (f.object_map[a], g.object_map[a]):
            rep.add("component-endpoints",
                    f"component at {a!r} must run from the first image to the second", (a,))
    if rep.violations:
        return rep
    rep.check_laws(nt, nat_laws(nt))
    return rep


def _natural_at(nt, m):
    f, g, comp = nt.source, nt.target, nt.components
    a, b = f.source.morphisms[m]
    return (f.target.compose(comp[b], f.morphism_map[m])
            == f.target.compose(g.morphism_map[m], comp[a]))


def nat_laws(nt):
    """Naturality at each morphism, as law instances of `nt`."""
    comp, morphisms = nt.components, nt.source.source.morphisms
    for m in sorted_ids(morphisms):
        a, b = morphisms[m]
        yield (_natural_at, (m,), ((comp, a), (comp, b)),
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
    objects, then of the non-identity morphisms, each in sorted order."""
    objs, targets = sorted_ids(s.objects), sorted_ids(t.objects)
    draft = Functor("enum", s, t, {}, {})
    omap, mmap = draft.object_map, draft.morphism_map
    variables = [(omap, a, (), lambda: targets) for a in objs]
    variables += [(mmap, m, ((omap, s.src(m)), (omap, s.tgt(m))),
                   lambda m=m: t.hom(omap[s.src(m)], omap[s.tgt(m)]))
                  for m in sorted_ids(s.morphisms) if not s.is_identity(m)]
    variables += [(mmap, s.identity[a], ((omap, a),),
                   lambda a=a: (t.identity[omap[a]],)) for a in objs]
    for _ in search(variables, constraints(draft, functor_laws(draft))):
        yield Functor("enum", s, t, dict(omap), dict(mmap))


def nat_variables(nt: NatTrans):
    """Search variables for the components of the draft `nt`, one per
    object in sorted order, each ranging over its hom in order."""
    f, g = nt.source, nt.target
    return [(nt.components, a, (), lambda a=a: f.target.hom(f.object_map[a], g.object_map[a]))
            for a in sorted_ids(f.source.objects)]


def enumerate_nats(f: Functor, g: Functor):
    """All natural transformations f => g, in deterministic order."""
    draft = NatTrans("enum", f, g, {})
    for _ in search(nat_variables(draft), constraints(draft, nat_laws(draft))):
        yield NatTrans("enum", f, g, dict(draft.components))
