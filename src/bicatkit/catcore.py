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

Each structure is a declaration, a listing of search variables and law
instances (see `bicatkit.search`): `category_variables` and
`category_laws` for a category on given cell sets, `functor_variables` and
`functor_laws` for a functor, `nat_variables` and `nat_laws` for a
transformation.  A validator checks its listing on a given structure
through `ValidationReport`: the values (`check_values`), then that no
entry stands at a key the listing does not name (`check_keys`), then the
laws (`check_laws`).  `search.run` runs the same listings as searches:
`enumerate_functors` and `enumerate_nats` do, and so does a draft category
whose identity and table are empty.

A category hands out its objects, morphisms, hom sets and composable pairs in
canonical order (`sorted_ids`), computed once, on first read, from its cell
sets ``objects`` and ``morphisms``.  So the cell sets are fixed once it is
built; ``identity`` and ``table`` may still be edited in place.  One
exception: its ``functor_plan``, the search of `enumerate_functors` out of
it, compiled on first read and run for every target (its domains read the
target off the functor being bound), binds the identity of every object
and the composite of every composable pair into its laws and stages each
law by them.  So ``identity`` and ``table`` are fixed too once a functor
out of the category has been enumerated.  A law that reads the source's
identity and table off the subject leaves the plan depending on the cell
sets alone, which are fixed anyway: prefer that for a law whose stage the
cell sets fix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, partial

from .report import ValidationReport, literal, sorted_ids
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

    @cached_property
    def functor_plan(self):
        """The compiled search of `enumerate_functors` out of this category,
        for every target: `functor_variables` under `functor_laws`."""
        return compile_plan(functor_variables(self), functor_laws(self))


def grouped(cells, key):
    """{key(x): the cells x with that key, as a tuple in the given order}."""
    groups = {}
    for x in cells:
        groups.setdefault(key(x), []).append(x)
    return {k: tuple(xs) for k, xs in groups.items()}


def validate_category(c: FiniteCategory) -> ValidationReport:
    """The cell sets first: no repeated object, no morphism with an end
    that is no object.  Then `category_variables`, their values and the
    keys they name, all structural; a structural failure suppresses
    `category_laws`."""
    rep = ValidationReport(f"category {c.name}")
    objset = set(c.objects)
    if len(objset) != len(c.objects):
        rep.add("duplicate-object", "object list has repeats", structural=True)
    for m in c.sorted_morphisms:
        for end, x in zip(("source", "target"), c.morphisms[m]):
            if x not in objset:
                rep.add(f"dangling-{end}", f"morphism {m!r} has {end} {x!r} not in objects",
                        (m,), structural=True)
    variables = category_variables(c)
    # every missing composite first: the table's shape before its values
    rep.check_values(c, sorted(variables, key=lambda v: v[0] == "table" and v[1] in c.table))
    rep.check_keys(c, variables)
    if rep.structural_failure:
        return rep
    rep.check_laws(c, category_laws(c))
    return rep


def _hom(a, b, c):
    return c.hom(a, b)


# The checks of a category's identities and composites.
_IDENTITY = (("missing-identity", "object {!r} has no identity"), lambda c, a: c.morphisms,
             ("missing-identity", "identity of {!r} is unknown morphism {!r}"),
             ("bad-identity", "identity of {!r} is not an endomorphism of it", True, True))
_COMPOSITE = (("missing-composite", "no composite for composable pair ({!r}, {!r})"),
              lambda c, f, g: c.morphisms,
              ("dangling-composite", "composite of ({!r}, {!r}) is unknown morphism {!r}"),
              ("composite-endpoints", "composite {2!r} of ({0!r}, {1!r}) has the wrong endpoints",
               True))


def category_variables(c):
    """The search variables of a category on c's cell sets: the identity of
    each object, ranging over its endomorphisms, then the composite of each
    composable pair (f, g), f slowest, ranging over the hom from the source
    of f to the target of g."""
    return [("identity", a, (), partial(_hom, a, a), (a,), _IDENTITY)
            for a in c.sorted_objects] + [
        ("table", (f, g), (), partial(_hom, c.src(f), c.tgt(g)), (f, g), _COMPOSITE)
        for f, g in c.composable_pairs()]


def _left_identity(c, f):
    return c.table[(c.identity[c.morphisms[f][0]], f)] == f


def _right_identity(c, f):
    return c.table[(f, c.identity[c.morphisms[f][1]])] == f


def _associative(c, f, g, h):
    return c.table[(c.table[(f, g)], h)] == c.table[(f, c.table[(g, h)])]


def category_laws(c):
    """Left and right identity at each morphism, then associativity at each
    composable triple (f, g, h), f slowest, then g, as law instances (see
    `ValidationReport.check_laws`) over `category_variables(c)`.  Any
    endomorphism of an object may be its identity, so an identity law reads
    the composite of its morphism with each endomorphism of the end; and
    associativity reads the composite with h of each morphism from the
    source of f to the target of g, and with f of each from the source of g
    to the target of h."""
    hom, src, tgt = c.hom, c.src, c.tgt
    ends = {a: literal(a) for a in c.sorted_objects}
    for f in c.sorted_morphisms:
        s, t = c.morphisms[f]
        yield (_left_identity, (f,), (("identity", s), *[("table", (i, f)) for i in hom(s, s)]),
               "left-identity", f"composing {{0!r}} after id_{ends[s]} is not {{0!r}}")
        yield (_right_identity, (f,), (("identity", t), *[("table", (f, i)) for i in hom(t, t)]),
               "right-identity", f"composing id_{ends[t]} after {{0!r}} is not {{0!r}}")
    for f, g in c.composable_pairs():
        a, b = src(f), tgt(g)
        for h in c.out_of(b):
            yield (_associative, (f, g, h),
                   (("table", (f, g)), ("table", (g, h)), *[("table", (x, h)) for x in hom(a, b)],
                    *[("table", (f, y)) for y in hom(src(g), tgt(h))]),
                   "associativity", "(h.g).f and h.(g.f) disagree for f={!r} g={!r} h={!r}")


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


# ---------------------------------------------------------------------------
# functors

@dataclass
class Functor:
    name: str
    source: FiniteCategory  # a composition functor's: the pair of its factors
    target: FiniteCategory
    object_map: dict
    morphism_map: dict


def validate_functor(fun: Functor) -> ValidationReport:
    return check_functor(fun, functor_variables(fun.source), functor_laws(fun.source))


def validate_images(fun: Functor) -> ValidationReport:
    """The checks of `validate_functor` before its laws."""
    return check_functor(fun, functor_variables(fun.source))


def check_functor(fun, variables, laws=()) -> ValidationReport:
    """Check `fun` against a listing of its images and laws: every cell has
    an image that is a cell of the target, then no image stands at a key
    that is no cell, then every morphism's image runs between the images of
    its ends, then the laws hold."""
    rep = ValidationReport(f"functor {fun.name}")
    for check in (partial(rep.check_values, domains=False), rep.check_keys, rep.check_values):
        check(fun, variables)
        if rep.violations:
            return rep
    rep.check_laws(fun, laws)
    return rep


# The checks of a functor's images.
OBJECT_IMAGE = (("missing-object-image", "no image for object {!r}"),
                lambda fun, a: fun.target.objects,
                ("dangling-object-image", "image of {!r} is not a target object"), None)
_MORPHISM_IMAGE = (("missing-morphism-image", "no image for morphism {!r}"),
                   lambda fun, m: fun.target.morphisms,
                   ("dangling-morphism-image", "image of {!r} is not a target morphism"),
                   ("endpoints", "image of {!r} has the wrong endpoints", False))


def functor_variables(s):
    """The search variables of a functor out of s: the image of each object,
    then of each morphism, each in sorted order, a morphism's ranging over
    the hom between the images of its ends.  The domains read the target
    off the functor being bound, so the listing serves every target."""
    return _image_variables(s.sorted_objects,
                            ((m, s.morphisms[m]) for m in s.sorted_morphisms))


def bifunctor_variables(c, d):
    """`functor_variables` of a functor out of c x d, read off the factors:
    objects and morphisms are pairs, c's component slowest."""
    cm, dm = c.morphisms, d.morphisms
    return _image_variables(
        itertools.product(c.sorted_objects, d.sorted_objects),
        (((f, g), tuple(zip(cm[f], dm[g])))
         for f, g in itertools.product(c.sorted_morphisms, d.sorted_morphisms)))


def _object_images(fun):
    return fun.target.sorted_objects


def _morphism_images(a, b, fun):
    return fun.target.hom(fun.object_map[a], fun.object_map[b])


def _image_variables(objects, morphisms):
    """The image of each of the objects, then of each ``(m, (a, b))`` of the
    morphisms, ranging over the hom of the functor's target between the
    images of a and b."""
    omap = "object_map"
    return [(omap, a, (), _object_images, (a,), OBJECT_IMAGE) for a in objects] + [
        ("morphism_map", m, ((omap, a), (omap, b)), partial(_morphism_images, a, b),
         (m,), _MORPHISM_IMAGE) for m, (a, b) in morphisms]


def _preserves_identity(i, fun, a):
    return fun.morphism_map[i] == fun.target.identity[fun.object_map[a]]


def _preserves_composite(h, fun, f, g):
    mm = fun.morphism_map
    return mm[h] == fun.target.table[(mm[f], mm[g])]


def functor_laws(s):
    """Preservation of identities, then of composites, as law instances
    (see `ValidationReport.check_laws`) of a functor out of `s`."""
    return _functor_laws(((a, s.identity[a]) for a in s.sorted_objects),
                         ((f, g, s.table[(f, g)]) for f, g in s.composable_pairs()))


def bifunctor_laws(c, d):
    """`functor_laws` of c x d, read off the factors."""
    ci, di, ct, dt = c.identity, d.identity, c.table, d.table
    return _functor_laws(
        (((a, b), (ci[a], di[b]))
         for a, b in itertools.product(c.sorted_objects, d.sorted_objects)),
        ((p, q, (ct[(p[0], q[0])], dt[(p[1], q[1])]))
         for p in itertools.product(c.sorted_morphisms, d.sorted_morphisms)
         for q in itertools.product(c.out_of(c.tgt(p[0])), d.out_of(d.tgt(p[1])))))


def _functor_laws(identities, composites):
    """The law instances of each ``(a, identity of a)`` of the identities,
    then of each ``(f, g, g after f)`` of the composites."""
    omap, mm = "object_map", "morphism_map"
    for a, i in identities:
        yield (partial(_preserves_identity, i), (a,), ((omap, a), (mm, i)),
               "identity", "identity of {!r} is not sent to an identity")
    for f, g, h in composites:
        yield (partial(_preserves_composite, h), (f, g), ((mm, f), (mm, g), (mm, h)),
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
    variables = nat_variables(f, g)
    rep.check_values(nt, variables)
    rep.check_keys(nt, variables)
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


# ---------------------------------------------------------------------------
# exhaustive enumeration (all structures here are deliberately tiny)

def enumerate_functors(s: FiniteCategory, t: FiniteCategory):
    """All functors s -> t, in deterministic order: by the images of the
    objects, then of the morphisms, each in sorted order (an identity's
    image is fixed by its object's).  Runs s's ``functor_plan``, compiled
    once for every target."""
    draft = Functor("enum", s, t, {}, {})
    for _ in run(s.functor_plan, draft):
        yield Functor("enum", s, t, dict(draft.object_map), dict(draft.morphism_map))


def enumerate_nats(f: Functor, g: Functor):
    """All natural transformations f => g, in deterministic order: one
    component per object in sorted order, each ranging over its hom."""
    draft = NatTrans("enum", f, g, {})
    for _ in run(compile_plan(nat_variables(f, g), nat_laws(f.source)), draft):
        yield NatTrans("enum", f, g, dict(draft.components))
