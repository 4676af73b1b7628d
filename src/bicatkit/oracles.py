"""Independent oracles.

Each function here recomputes some answer the main modules also produce, but
by a deliberately different route (direct arithmetic, brute-force search, or a
classical construction).  Tests and the acceptance suite compare the two
routes; nothing in the main modules may import this one.
"""

from __future__ import annotations

import itertools


def brute_z2_twist_ok(twist, n=2) -> bool:
    """Decide, by direct mod-n arithmetic, whether a twist table over the
    cyclic group of order n (two by default), with coefficients in the same
    group, gives a valid delooping: the five-term alternating sum vanishes on
    every quadruple and the twist vanishes whenever the middle argument is
    the group unit.  Missing entries are 0."""

    def tw(x, y, z):
        return twist.get((x, y, z), 0) % n

    els = range(n)
    for k, h, g, f in itertools.product(els, repeat=4):
        lhs = tw(k, h, (g + f) % n) + tw((k + h) % n, g, f)
        rhs = tw(h, g, f) + tw(k, (h + g) % n, f) + tw(k, h, g)
        if (lhs - rhs) % n:
            return False
    for g, f in itertools.product(els, repeat=2):
        if tw(g, 0, f):
            return False
    return True

# ---------------------------------------------------------------------------
# free model of the crossing hom

class FreeCrossModel:
    """The crossing hom presented by generators and relations, built without
    reference to the closed form.

    Generators, between pairs (h, g) of base 1-cells x -> W -> y:

      L(tau; g): (h, g) -> (h', g)           for tau: h => h'
      R(sig; h): (h, g) -> (h, g')           for sig: g => g'
      X(h0, k, g0): (h0, k.g0) -> (h0.k, g0)

    modulo: L and R are functorial and commute with each other; X slides
    across L and R (with the appropriate whiskering); consecutive X's merge;
    X at a unit middle 1-cell is an identity.  Identity-valued generators are
    dropped up front (each is forced equal to an identity by the relations),
    and the quotient is computed by union-find over all words up to a length
    bound, closed under composition on both sides until stable.
    """

    def __init__(self, b, x, y, max_len=6):
        self.b, self.x, self.y, self.max_len = b, x, y, max_len
        self.objects = [(h, g) for w in b.objects
                        for h in b.homs[(w, y)].objects
                        for g in b.homs[(x, w)].objects]
        self._build_edges()
        self._build_words()
        self._seed_relations()
        self._congruence_closure()

    # -- generators ---------------------------------------------------------
    def _is_id2(self, c):
        return c == self.b.id2(self.b.src2(c))

    def _edge_ends(self, e):
        b = self.b
        if e[0] == "L":
            _, tau, g = e
            return (b.src2(tau), g), (b.tgt2(tau), g)
        if e[0] == "R":
            _, sig, h = e
            return (h, b.src2(sig)), (h, b.tgt2(sig))
        _, h0, k, g0 = e
        return (h0, b.compose1(k, g0)), (b.compose1(h0, k), g0)

    def _build_edges(self):
        b, x, y = self.b, self.x, self.y
        edges = []
        for w in b.objects:
            for tau in b.homs[(w, y)].morphisms:
                if not self._is_id2(tau):
                    for g in b.homs[(x, w)].objects:
                        edges.append(("L", tau, g))
            for sig in b.homs[(x, w)].morphisms:
                if not self._is_id2(sig):
                    for h in b.homs[(w, y)].objects:
                        edges.append(("R", sig, h))
            for w2 in b.objects:
                for k in b.homs[(w2, w)].objects:
                    if k == b.unit[w2] and w2 == w:
                        continue
                    for h0 in b.homs[(w, y)].objects:
                        for g0 in b.homs[(x, w2)].objects:
                            edges.append(("X", h0, k, g0))
        self.edges = edges
        self.out_edges = {}
        for e in edges:
            self.out_edges.setdefault(self._edge_ends(e)[0], []).append(e)

    def _reduce(self, edges):
        out = []
        for e in edges:
            if e[0] in ("L", "R") and self._is_id2(e[1]):
                continue
            if e[0] == "X" and e[2] == self.b.unit[self.b.home1(e[3])[1]]:
                continue
            out.append(e)
        return tuple(out)

    # -- words --------------------------------------------------------------
    def _word_tgt(self, word):
        p, es = word
        return self._edge_ends(es[-1])[1] if es else p

    def _build_words(self):
        words = set()
        frontier = [(p, ()) for p in self.objects]
        words.update(frontier)
        for _ in range(self.max_len):
            nxt = []
            for word in frontier:
                for e in self.out_edges.get(self._word_tgt(word), []):
                    w2 = (word[0], word[1] + (e,))
                    if w2 not in words:
                        words.add(w2)
                        nxt.append(w2)
            frontier = nxt
        self.words = words

    def _word(self, p, edges):
        return (p, self._reduce(edges))

    # -- relations ----------------------------------------------------------
    def _seed_relations(self):
        b, x, y = self.b, self.x, self.y
        self.parent = {w: w for w in self.words}
        rels = []

        for w in b.objects:
            up, down = b.homs[(w, y)], b.homs[(x, w)]
            # functoriality of L and of R
            for t1 in up.morphisms:
                for t2 in up.morphisms:
                    if up.src(t2) != up.tgt(t1):
                        continue
                    for g in down.objects:
                        p = (up.src(t1), g)
                        rels.append((self._word(p, (("L", t1, g), ("L", t2, g))),
                                     self._word(p, (("L", up.compose(t2, t1), g),))))
            for s1 in down.morphisms:
                for s2 in down.morphisms:
                    if down.src(s2) != down.tgt(s1):
                        continue
                    for h in up.objects:
                        p = (h, down.src(s1))
                        rels.append((self._word(p, (("R", s1, h), ("R", s2, h))),
                                     self._word(p, (("R", down.compose(s2, s1), h),))))
            # L and R commute
            for tau in up.morphisms:
                for sig in down.morphisms:
                    p = (up.src(tau), down.src(sig))
                    rels.append((self._word(p, (("R", sig, up.src(tau)),
                                                ("L", tau, down.tgt(sig)))),
                                 self._word(p, (("L", tau, down.src(sig)),
                                                ("R", sig, up.tgt(tau))))))

        for w in b.objects:
            for w2 in b.objects:
                mid = b.homs[(w2, w)]
                for h0 in b.homs[(w, y)].objects:
                    for g0 in b.homs[(x, w2)].objects:
                        # X slides across a 2-cell of the middle
                        for kap in mid.morphisms:
                            k, k2 = mid.src(kap), mid.tgt(kap)
                            p = (h0, b.compose1(k, g0))
                            rels.append((
                                self._word(p, (("X", h0, k, g0),
                                               ("L", b.whisker_left(h0, kap), g0))),
                                self._word(p, (("R", b.whisker_right(kap, g0), h0),
                                               ("X", h0, k2, g0)))))
                        # X commutes with L and with R
                        for k in mid.objects:
                            p = (h0, b.compose1(k, g0))
                            for tau in b.homs[(w, y)].morphisms:
                                if b.homs[(w, y)].src(tau) != h0:
                                    continue
                                h02 = b.homs[(w, y)].tgt(tau)
                                rels.append((
                                    self._word(p, (("X", h0, k, g0),
                                                   ("L", b.whisker_right(tau, k), g0))),
                                    self._word(p, (("L", tau, b.compose1(k, g0)),
                                                   ("X", h02, k, g0)))))
                            for sig in b.homs[(x, w2)].morphisms:
                                if b.homs[(x, w2)].src(sig) != g0:
                                    continue
                                g02 = b.homs[(x, w2)].tgt(sig)
                                rels.append((
                                    self._word(p, (("X", h0, k, g0),
                                                   ("R", sig, b.compose1(h0, k)))),
                                    self._word(p, (("R", b.whisker_left(k, sig), h0),
                                                   ("X", h0, k, g02)))))
                # consecutive X's merge
                for w3 in b.objects:
                    for k in b.homs[(w2, w)].objects:
                        for k2 in b.homs[(w3, w2)].objects:
                            for h0 in b.homs[(w, y)].objects:
                                for g0 in b.homs[(x, w3)].objects:
                                    p = (h0, b.compose1(k, b.compose1(k2, g0)))
                                    rels.append((
                                        self._word(p, (("X", h0, k, b.compose1(k2, g0)),
                                                       ("X", b.compose1(h0, k), k2, g0))),
                                        self._word(p, (("X", h0, b.compose1(k, k2), g0),))))

        for lhs, rhs in rels:
            if lhs in self.words and rhs in self.words:
                self._union(lhs, rhs)

    # -- union-find over words ------------------------------------------------
    def _find(self, w):
        parent = self.parent
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    def _union(self, a, c):
        self.parent[self._find(a)] = self._find(c)

    # -- congruence closure ---------------------------------------------------
    def _congruence_closure(self):
        changed = True
        while changed:
            changed = False
            groups = {}
            for w in self.words:
                groups.setdefault(self._find(w), []).append(w)
            for members in groups.values():
                if len(members) < 2:
                    continue
                post, pre = {}, {}
                for w in members:
                    if len(w[1]) < self.max_len:
                        for e in self.out_edges.get(self._word_tgt(w), []):
                            post.setdefault(e, []).append((w[0], w[1] + (e,)))
                        for e in self.edges:
                            if self._edge_ends(e)[1] == w[0]:
                                src = self._edge_ends(e)[0]
                                pre.setdefault(e, []).append((src, (e,) + w[1]))
                for exts in list(post.values()) + list(pre.values()):
                    exts = [w for w in exts if w in self.words]
                    for a, c in zip(exts, exts[1:]):
                        if self._find(a) != self._find(c):
                            self._union(a, c)
                            changed = True

    # -- interface ------------------------------------------------------------
    def class_of(self, p, edges):
        word = self._word(p, tuple(edges))
        if word not in self.words:
            raise ValueError(f"word longer than the bound: {word!r}")
        return self._find(word)

    def phi(self, p, q, triple):
        """Canonical image of a closed-form raw triple (k, sig, tau) from the
        pair p = (h, g) to the pair q = (h', g'): first reshape the inner
        factor with sig, then cross with X(h, k, g'), then reshape the outer
        factor with tau."""
        k, sig, tau = triple
        h, g2 = p[0], q[1]
        return self.class_of(p, (("R", sig, h), ("X", h, k, g2),
                                 ("L", tau, g2)))

    def classes_between(self, p, q):
        return {self._find(w) for w in self.words
                if w[0] == p and self._word_tgt(w) == q}


# ---------------------------------------------------------------------------
# the classical nerve of a category, for comparison with the 2-nerve of its
# locally discrete bicategory

def classical_chains(c, k: int):
    """All k-chains of composable morphisms, as (objects, morphisms) pairs:
    ((x0, ..., xk), (f1, ..., fk)) with each fi running from x(i-1) to xi."""
    from .report import sorted_ids

    chains = [((x,), ()) for x in sorted_ids(c.objects)]
    for _ in range(k):
        nxt = []
        for objs, mors in chains:
            for f in sorted_ids(c.morphisms):
                if c.src(f) == objs[-1]:
                    nxt.append((objs + (c.tgt(f),), mors + (f,)))
        chains = nxt
    return chains


def classical_face(c, chain, i: int):
    """Drop vertex i: compose the two surrounding morphisms, or discard the
    outermost one at the ends."""
    objs, mors = chain
    k = len(mors)
    if i == 0:
        return (objs[1:], mors[1:])
    if i == k:
        return (objs[:-1], mors[:-1])
    glued = c.compose(mors[i], mors[i - 1])
    return (objs[:i] + objs[i + 1:], mors[:i - 1] + (glued,) + mors[i + 1:])


def classical_degeneracy(c, chain, i: int):
    """Repeat vertex i by inserting its identity."""
    objs, mors = chain
    return (objs[:i + 1] + objs[i:],
            mors[:i] + (c.identity[objs[i]],) + mors[i:])


def chain_simplex_key(b, c, chain):
    """The simplex of the locally discrete bicategory b that a chain in its
    underlying category c describes: edge (i, j) carries the composite of the
    chain's factors between those vertices, every triangle the identity."""
    from .nerve import SimplexData

    objs, mors = chain
    k = len(mors)
    cells, cons = {}, {}
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            acc = mors[i]
            for t in range(i + 1, j):
                acc = c.compose(mors[t], acc)
            cells[(i, j)] = acc
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            for t in range(j + 1, k + 1):
                cons[(i, j, t)] = b.id2(cells[(i, t)])
    return SimplexData(k, b, dict(enumerate(objs)), cells, cons).key()


# ---------------------------------------------------------------------------
# quasi-inverses by exhaustive search

def icon_inverse_by_search(icon):
    """Two-sided inverse hunt among all icons running the other way."""
    from .icon import enumerate_icons, vcomp_icons

    f, g = icon.source, icon.target
    cells = list(f.source.one_cells())
    want_f = {w: f.target.id2(f.on_1(w)) for w in cells}
    want_g = {w: g.target.id2(g.on_1(w)) for w in cells}
    for cand in enumerate_icons(g, f):
        back = vcomp_icons(cand, icon)
        fore = vcomp_icons(icon, cand)
        if all(back.at(w) == want_f[w] for w in cells) and \
                all(fore.at(w) == want_g[w] for w in cells):
            return cand
    return None


def equivalence_by_inverse_search(fun):
    """Hunt for a functor back plus invertible icons connecting both
    composites to the identities; None certifies there is no such triple
    within the (finite) candidate space."""
    from .icon import enumerate_icons, is_invertible_icon
    from .laxfun import compose_lax, enumerate_lax_functors, identity_lax

    id_src = identity_lax(fun.source)
    id_tgt = identity_lax(fun.target)

    def connecting_icon(h, ident):
        for icon in enumerate_icons(h, ident):
            if is_invertible_icon(icon)[0]:
                return icon
        return None

    for g in enumerate_lax_functors(fun.target, fun.source):
        back = connecting_icon(compose_lax(g, fun), id_src)
        if back is None:
            continue
        fore = connecting_icon(compose_lax(fun, g), id_tgt)
        if fore is not None:
            return g, back, fore
    return None


# ---------------------------------------------------------------------------
# cartesian 2-cells straight from the factorization definition

def cartesian_by_definition(b, p, alpha) -> bool:
    """Transcribe the unique-factorization definition directly against the
    raw composition tables, with no shared helper calls."""
    pa, pb = b.home1(p)
    x, _ = b.home2(alpha)
    up, down = b.homs[(x, pa)], b.homs[(x, pb)]
    a_prime, a = up.morphisms[alpha]
    comp = b.comp[(x, pa, pb)]
    idp = b.homs[(pa, pb)].identity[p]

    def over(two_cell):
        return comp.morphism_map[(idp, two_cell)]

    def under(one_cell):
        return comp.object_map[(p, one_cell)]

    p_alpha = over(alpha)
    for c in up.objects:
        for gamma, ends in down.morphisms.items():
            if ends != (under(c), under(a_prime)):
                continue
            for delta, dends in up.morphisms.items():
                if dends != (c, a):
                    continue
                if down.table[(gamma, p_alpha)] != over(delta):
                    continue
                sols = [g for g, gends in up.morphisms.items()
                        if gends == (c, a_prime) and over(g) == gamma
                        and up.table[(g, alpha)] == delta]
                if len(sols) != 1:
                    return False
    return True


# ---------------------------------------------------------------------------
# fibrations straight from the two clauses

def fibration_by_definition(b, p):
    """None when the 1-cell p: A -> B of the strict bicategory b is a
    fibration, else a witness against one of the two clauses, transcribed
    against the raw composition tables with `cartesian_by_definition` as
    the only helper:
    - ``("no-cartesian-lift", x, a, b1, beta)``: no cartesian 2-cell
      alpha: a' => a of hom(x, A) lies over the 2-cell beta: b1 => p.a of
      hom(x, B), that is, has p.alpha == beta (which makes p.a' == b1);
    - ``("whisker-unstable", alpha, w)``: the cartesian alpha of hom(x, A)
      pasted with the 1-cell w: y -> x on its inner side is not
      cartesian."""
    pa, pb = b.home1(p)
    idp = b.homs[(pa, pb)].identity[p]
    for x in b.objects:
        up, down, comp = b.homs[(x, pa)], b.homs[(x, pb)], b.comp[(x, pa, pb)]
        for a in up.objects:
            for beta, (b1, end) in down.morphisms.items():
                if end == comp.object_map[(p, a)] and not any(
                        ends[1] == a and comp.morphism_map[(idp, alpha)] == beta
                        and cartesian_by_definition(b, p, alpha)
                        for alpha, ends in up.morphisms.items()):
                    return ("no-cartesian-lift", x, a, b1, beta)
    for x in b.objects:
        for alpha in b.homs[(x, pa)].morphisms:
            if not cartesian_by_definition(b, p, alpha):
                continue
            for y in b.objects:
                inner = b.homs[(y, x)]
                for w in inner.objects:
                    pasted = b.comp[(y, x, pa)].morphism_map[(alpha, inner.identity[w])]
                    if not cartesian_by_definition(b, p, pasted):
                        return ("whisker-unstable", alpha, w)
    return None


# ---------------------------------------------------------------------------
# monoidal natural transformations, by direct monoidal arithmetic

def enumerate_monoidal_nats(mf, mg):
    """All monoidal natural transformations mf => mg, found by filtering raw
    component families against naturality, the tensor-compatibility square,
    and the unit condition — never touching the delooping dictionary.

    Deterministic order; each result is a {source object -> morphism} dict.
    """
    m, n = mf.source, mf.target
    cat = n.cat
    objs = list(m.cat.objects)
    fo, go = mf.functor.object_map, mg.functor.object_map
    choices = [cat.hom(fo[x], go[x]) for x in objs]
    for combo in itertools.product(*choices):
        theta = dict(zip(objs, combo))
        if not _natural_for_monoidal(mf, mg, theta):
            continue
        if not _tensor_compatible(mf, mg, theta):
            continue
        unit_lhs = cat.compose(theta[m.unit_obj], mf.unit)
        if unit_lhs != mg.unit:
            continue
        yield theta


def _natural_for_monoidal(mf, mg, theta):
    cat = mf.target.cat
    for f, (x, y) in mf.source.cat.morphisms.items():
        lhs = cat.compose(theta[y], mf.functor.morphism_map[f])
        rhs = cat.compose(mg.functor.morphism_map[f], theta[x])
        if lhs != rhs:
            return False
    return True


def _tensor_compatible(mf, mg, theta):
    m, n = mf.source, mf.target
    cat = n.cat
    for x in m.cat.objects:
        for y in m.cat.objects:
            lhs = cat.compose(theta[m.tensor_obj[(x, y)]], mf.comp[(x, y)])
            rhs = cat.compose(mg.comp[(x, y)],
                              n.tensor_mor[(theta[x], theta[y])])
            if lhs != rhs:
                return False
    return True
