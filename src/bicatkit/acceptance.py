"""The bundled acceptance suite: ten numbered checks over the corpus.

Each check pits a main-route computation against an independent oracle or a
hand-established count and returns ``(ok, detail)``.  The test suite asserts
every check and the command line replays them via ``corpus run-all``; neither
weakens what is checked here.

Quantifiers over tuples (law instances need pairs and triples of icons) are
exhausted whenever the tuple space is small and otherwise driven by a
fixed-seed sample, so every run examines the same instances.  Each law of
criterion 2 is an equation between two rows, an icon's cells in its
source's 1-cell order, and each side is built by the cell kernels of the
icon algebra (`bicatkit.icon`), which map over rows and which the Icon
operations wrap.  The law universe holds each icon as its row, as
`icon_cells` finds it, so criterion 2 builds no Icon, neither per member
nor per composite, and no cell table.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random

from . import corpus
from .bicat import UnsupportedSettingError, from_category, validate_bicategory
from .catcore import chain_category
from .cylinder import lax_cylinder
from .icon import (
    enumerate_icons,
    hcomp_cells,
    icon_cells,
    icon_row,
    icon_to_monoidal,
    identity_icon,
    is_invertible_icon,
    monoidal_to_icon,
    validate_icon,
    vcomp_cells,
    vcomp_icons,
    whisker_left_cells,
    whisker_right_cells,
)
from .internal import (
    CartesianQuery,
    fibration_report,
    is_equivalence_in_bicat2,
    is_fibration,
    is_p_cartesian,
)
from .laxfun import enumerate_lax_functors, sigma_functor
from .nerve import two_nerve
from .oplax import (
    battery_transformations,
    icon_as_oplax,
    is_costrict,
    strictness_by_witness,
    validate_oplax,
    vcomp_oplax,
)

EXHAUSTIVE_CAP = 10_000
SAMPLE_SIZE = 1_500


# ---------------------------------------------------------------------------
# shared helpers

def _take(universe_size, exhaustive, sampler, rng):
    """All instances when the space is small, a fixed-seed sample otherwise."""
    if universe_size <= EXHAUSTIVE_CAP:
        return exhaustive()
    return itertools.islice(sampler(rng), SAMPLE_SIZE)


def _scoped(fn):
    """`fn(scope, x)`, built once per `x` while `scope` stays the same and
    forgotten when it changes (both compared by identity), so the loops of
    criterion 2 build each composite once per step of their outer loops
    while holding no more than one step's worth."""
    current, built = None, {}

    def call(scope, x):
        nonlocal current, built
        if scope is not current:
            current, built = scope, {}
        got = built.get(id(x))
        if got is None:
            got = built[id(x)] = fn(scope, x)
        return got
    return call


class _Concat:
    """The sequence of the members of `parts`, one part after another, each
    part a ``(length, member)`` pair whose ``member(n)`` builds its n-th
    member when asked: ``len``, indexing and iteration, all that
    ``rng.choice`` and a loop need, and no list of the members."""

    def __init__(self, parts):
        self.parts = [(n, member) for n, member in parts if n]
        self.ends = list(itertools.accumulate(n for n, _ in self.parts))

    def __len__(self):
        return self.ends[-1] if self.ends else 0

    def __getitem__(self, n):
        k = bisect.bisect_right(self.ends, n)
        return self.parts[k][1](n - self.ends[k] + self.parts[k][0])

    def __iter__(self):
        for n, member in self.parts:
            yield from map(member, range(n))


# ---------------------------------------------------------------------------
# 1. coherence of the corpus, pentagon witnesses under corruption

def criterion_1():
    good = []
    for name in sorted(corpus.BICATEGORIES):
        rep = validate_bicategory(corpus.get("bicategory", name))
        if not rep.ok:
            return False, f"corpus structure {name} failed validation: {rep.summary()}"
        good.append(name)

    # ten single-cell corruptions: flip one associator coefficient of a Z/2
    # twist instance, away from the one flip that lands on another valid twist
    sites = [t for t in itertools.product((0, 1), repeat=3) if t != (1, 1, 1)]
    corruptions = [({}, s) for s in sites] + \
                  [({(1, 1, 1): 1}, s) for s in sites[:3]]
    assert len(corruptions) == 10
    hit = 0
    for base, site in corruptions:
        twist = dict(base)
        twist[site] = 1 - twist.get(site, 0)
        rep = validate_bicategory(corpus.z2_twist_instance("corrupt", twist))
        wit = rep.first("pentagon")
        if rep.ok or wit is None or len(wit.witness) != 4:
            return False, f"corruption at {site} over {base} gave no pentagon witness"
        hit += 1
    return True, (f"{len(good)} corpus structures valid; "
                  f"{hit}/10 corruptions produced pentagon witnesses")


# ---------------------------------------------------------------------------
# 2. the composition laws of the 2-category of lax functors and icons

@functools.lru_cache(maxsize=None)
def _law_universe():
    """Lax functors and icons between every ordered pair of small corpus
    bicategories (at most 2 objects and at most 6 one-cells per hom), as
    ``(bics, fams, icons)``: the bicategories by name, the lax functors
    s -> t of each pair (s, t) in enumeration order, and the icons between
    them.  A member of ``icons[(s, t)]`` is ``(i, j, row)``: an icon from
    lax functor i to lax functor j of the family, as its row, the tuple of
    its 2-cells of t in `row_order` of s (``s.one_cells()``); members come
    in `enumerate_icons` order, pair (i, j) by pair."""
    bics = {}
    for name in sorted(corpus.BICATEGORIES):
        b = corpus.get("bicategory", name)
        if len(b.objects) <= 2 and all(len(h.objects) <= 6
                                       for h in b.homs.values()):
            bics[name] = b
    fams, icons = {}, {}
    for s in bics:
        for t in bics:
            funs = list(enumerate_lax_functors(bics[s], bics[t]))
            fam = []
            for i, f in enumerate(funs):
                for j, g in enumerate(funs):
                    for row in icon_cells(f, g):
                        fam.append((i, j, row))
            fams[(s, t)] = funs
            icons[(s, t)] = fam
    return bics, fams, icons


def _unit_laws(bics, fams, icons):
    """Both unit laws for every icon, on rows, against the identity icons
    of its source and target, each built once per lax functor."""
    for key, fam in icons.items():
        ids = [icon_row(identity_icon(f)) for f in fams[key]]
        t = bics[key[1]]
        for i, j, want in fam:
            if vcomp_cells(t, ids[j], want) != want or vcomp_cells(t, want, ids[i]) != want:
                return len(fam), f"unit law fails in {key}"
    return sum(2 * len(f) for f in icons.values()), None


def _vertical_associativity(bics, icons, rng):
    """Associativity of vertical composition, on rows, over the composable
    triples (a, mid, last) of each family, a outermost; the row of the
    inner composite ``mid . a`` is built once per (a, mid)."""
    checked = 0
    for key, fam in icons.items():
        out_of = {}
        for i, j, row in fam:
            out_of.setdefault(i, []).append((j, row))
        n_out = {i: len(v) for i, v in out_of.items()}
        pairs_from = {i: sum(n_out.get(k, 0) for k, _ in v)
                      for i, v in out_of.items()}
        triples = sum(pairs_from.get(j, 0) for _, j, _ in fam)
        if not triples:
            continue

        def exhaustive():
            for _, j, a in fam:
                for k, mid in out_of.get(j, ()):
                    for _, last in out_of.get(k, ()):
                        yield a, mid, last

        def sampler(rng):
            while True:
                _, j, a = rng.choice(fam)
                nxt = out_of.get(j)
                if not nxt:
                    continue
                k, mid = rng.choice(nxt)
                fol = out_of.get(k)
                if not fol:
                    continue
                yield a, mid, rng.choice(fol)[1]

        t = bics[key[1]]
        composite = _scoped(lambda a, mid: vcomp_cells(t, mid, a))
        for a, mid, last in _take(triples, exhaustive, sampler, rng):
            checked += 1
            lhs = vcomp_cells(t, last, composite(a, mid))
            rhs = vcomp_cells(t, vcomp_cells(t, last, mid), a)
            if lhs != rhs:
                return checked, f"vertical associativity fails in {key}"
    return checked, None


def _whisker_functoriality(bics, fams, icons, rng):
    """Whiskering by each lax functor h on either side preserves, on rows,
    vertical composites of the composable pairs (a, mid), a outermost and h
    innermost, and identity icons.  The row of ``mid . a`` is built once
    per (a, mid), and that of a whiskered once per (a, h), after the
    composite's whisker."""
    names = list(bics)
    checked = 0
    for (s, t), fam in icons.items():
        if not fam:
            continue
        lefts = [h for d in names for h in fams[(t, d)]]
        rights = [e for c in names for e in fams[(c, s)]]

        # whiskering the row of a composite equals composing the whiskered rows
        out_of = {}
        for i, j, row in fam:
            out_of.setdefault(i, []).append((j, row))
        pairs = sum(len(out_of.get(j, ())) for _, j, _ in fam)
        here = bics[t]
        for side, funs, apply in (("left", lefts, whisker_left_cells),
                                  ("right", rights, lambda h, c: whisker_right_cells(c, h))):
            if not funs or not pairs:
                continue

            def exhaustive():
                for _, j, a in fam:
                    for _, mid in out_of.get(j, ()):
                        for h in funs:
                            yield a, mid, h

            def sampler(rng):
                while True:
                    _, j, a = rng.choice(fam)
                    nxt = out_of.get(j)
                    if not nxt:
                        continue
                    yield a, rng.choice(nxt)[1], rng.choice(funs)

            composite = _scoped(lambda a, mid: vcomp_cells(here, mid, a))
            whiskered = _scoped(lambda a, h: apply(h, a))
            for a, mid, h in _take(pairs * len(funs), exhaustive, sampler, rng):
                checked += 1
                lhs = apply(h, composite(a, mid))
                rhs = vcomp_cells(h.target if side == "left" else here,
                                  apply(h, mid), whiskered(a, h))
                if lhs != rhs:
                    return checked, f"{side} whiskering not functorial in {s}->{t}"

        # whiskering the row of an identity icon yields identity cells
        for tgt, row in _identity_whiskers(fams[(s, t)], lefts, rights, rng):
            checked += 1
            if not tgt.identity_cells.issuperset(row):
                return checked, f"identity icon not preserved in {s}->{t}"
    return checked, None


def _identity_whiskers(funs, lefts, rights, rng):
    """The row of the identity icon on each lax functor of `funs`
    whiskered on the left by each of `lefts` and on the right by each of
    `rights`, each as (the bicategory it lives in, row).  The combinations
    ``(f, h, side)`` are drawn from a `_Concat` view, f slowest, left ones
    first."""
    def combo(whiskers, side):
        return lambda n: (funs[n // len(whiskers)], whiskers[n % len(whiskers)], side)

    combos = _Concat([(len(funs) * len(lefts), combo(lefts, "left")),
                      (len(funs) * len(rights), combo(rights, "right"))])

    def sampler(rng):
        while True:
            yield rng.choice(combos)

    ids = _scoped(lambda _, f: icon_row(identity_icon(f)))
    for f, h, side in _take(len(combos), lambda: iter(combos), sampler, rng):
        ident = ids(None, f)
        yield ((h.target, whisker_left_cells(h, ident)) if side == "left"
               else (f.target, whisker_right_cells(ident, h)))


def _middle_four(bics, fams, icons, rng):
    """The interchange law, on rows, over every pair (alpha, beta) of
    icons meeting at a middle bicategory, alpha outermost: both pastings of
    the two whiskered icons equal their horizontal composite.  The icons
    into and out of the middle are `_Concat` views over the families, which
    build each ``(f, g, row)`` and ``(f, g, there, row)`` when drawn.  The
    row of alpha whiskered by a lax functor is built once per (alpha,
    functor)."""
    def member(funs, fam, *there):
        def at(n):
            i, j, row = fam[n]
            return (funs[i], funs[j], *there, row)
        return at

    names = list(bics)
    checked = 0
    for t in names:
        ins = _Concat([(len(icons[(s, t)]), member(fams[(s, t)], icons[(s, t)]))
                       for s in names])
        outs = _Concat([(len(icons[(t, d)]), member(fams[(t, d)], icons[(t, d)], bics[d]))
                        for d in names])
        if not ins or not outs:
            continue

        def exhaustive():
            for alpha in ins:
                for beta in outs:
                    yield alpha, beta

        def sampler(rng):
            while True:
                yield rng.choice(ins), rng.choice(outs)

        left = _scoped(lambda alpha, g: whisker_left_cells(g, alpha))
        for (fi, fj, alpha), (gk, gl, d, beta) in _take(
                len(ins) * len(outs), exhaustive, sampler, rng):
            checked += 1
            side_a = vcomp_cells(d, whisker_right_cells(beta, fj), left(alpha, gk))
            side_b = vcomp_cells(d, left(alpha, gl), whisker_right_cells(beta, fi))
            both = hcomp_cells(gk, beta, alpha, fj)
            if not (side_a == side_b == both):
                return checked, f"middle-four interchange fails over middle {t}"
    return checked, None


def criterion_2():
    rng = random.Random(20260814)
    bics, fams, icons = _law_universe()
    n_icons = sum(map(len, icons.values()))
    total = 0
    for part in (lambda: _unit_laws(bics, fams, icons),
                 lambda: _vertical_associativity(bics, icons, rng),
                 lambda: _whisker_functoriality(bics, fams, icons, rng),
                 lambda: _middle_four(bics, fams, icons, rng)):
        checked, err = part()
        total += checked
        if err:
            return False, err
    return True, (f"{n_icons} icons over {len(fams)} functor families; "
                  f"{total} law instances hold "
                  f"(exhaustive up to {EXHAUSTIVE_CAP}, seeded samples beyond)")


# ---------------------------------------------------------------------------
# 3. vertical composition of general transformations is not associative

def criterion_3():
    shift = corpus.codiscrete_shift("a")
    left = vcomp_oplax(vcomp_oplax(shift, shift), shift)
    right = vcomp_oplax(shift, vcomp_oplax(shift, shift))
    if not (validate_oplax(left).ok and validate_oplax(right).ok):
        return False, "a triple composite of the codiscrete shift fails validation"
    got = (left.components["*"], right.components["*"])
    if set(got) != {"e", "a"}:
        return False, f"triple composites have components {got}, expected e and a"

    pool = list(enumerate_icons(shift.source, shift.source))
    if not pool:
        return False, "no icons on the constant endofunctor to compare against"
    for a, mid, last in itertools.product(pool, repeat=3):
        lhs = vcomp_icons(last, vcomp_icons(mid, a))
        rhs = vcomp_icons(vcomp_icons(last, mid), a)
        if lhs.cells != rhs.cells:
            return False, "icon transport is not associative"
    return True, (f"triple composites disagree ({got[0]} vs {got[1]}) yet both "
                  f"validate; all {len(pool)}^3 icon triples associate")


# ---------------------------------------------------------------------------
# 4. the one-object dictionary with monoidal transformations

def _canon_cells(icon):
    return repr(sorted(map(repr, icon.cells.items())))


def criterion_4():
    from .oracles import enumerate_monoidal_nats

    details = []
    for pname in sorted(corpus.MONOIDAL_PAIRS):
        mf, mg, b = corpus.get("monoidal-pair", pname)
        delooped = {0: sigma_functor(mf, b, b), 1: sigma_functor(mg, b, b)}
        monoidal = {0: mf, 1: mg}
        cat = mf.target.cat
        nats = {}
        for i, j in itertools.product((0, 1), repeat=2):
            nats[(i, j)] = list(enumerate_monoidal_nats(monoidal[i], monoidal[j]))
            icons = list(enumerate_icons(delooped[i], delooped[j]))
            if len(nats[(i, j)]) != len(icons):
                return False, (f"{pname}: {len(nats[(i, j)])} monoidal "
                               f"transformations vs {len(icons)} icons")
            mapped = []
            for theta in nats[(i, j)]:
                ic = monoidal_to_icon("t", theta, delooped[i], delooped[j])
                if not validate_icon(ic).ok or icon_to_monoidal(ic) != theta:
                    return False, f"{pname}: dictionary does not round-trip"
                mapped.append(_canon_cells(ic))
            if sorted(mapped) != sorted(_canon_cells(ic)
                                        for ic in icons):
                return False, f"{pname}: transported families miss some icon"

        # the dictionary preserves identities ...
        for i in (0, 1):
            idnat = {x: cat.identity[monoidal[i].functor.object_map[x]]
                     for x in monoidal[i].source.cat.objects}
            ic = monoidal_to_icon("id", idnat, delooped[i], delooped[i])
            if ic.cells != identity_icon(delooped[i]).cells:
                return False, f"{pname}: identity transformation not preserved"

        # ... and composition
        composites = 0
        for i, j, k in itertools.product((0, 1), repeat=3):
            for theta in nats[(i, j)]:
                for eta in nats[(j, k)]:
                    chi = {x: cat.compose(eta[x], theta[x]) for x in theta}
                    lhs = monoidal_to_icon("c", chi, delooped[i], delooped[k])
                    rhs = vcomp_icons(
                        monoidal_to_icon("e", eta, delooped[j], delooped[k]),
                        monoidal_to_icon("t", theta, delooped[i], delooped[j]))
                    if lhs.cells != rhs.cells:
                        return False, f"{pname}: composition not preserved"
                    composites += 1
        counts = sorted(len(v) for v in nats.values())
        details.append(f"{pname}: counts {counts}, {composites} composites")
    return True, "; ".join(details)


# ---------------------------------------------------------------------------
# 5. invertibility and equivalence against inverse-search oracles

EQUIVALENCE_POSITIVES = ("id-walking-arrow", "twisted-identity",
                         "arrow-thickening-inclusion")
EQUIVALENCE_NEGATIVES = (("collapse-walking-two-cell", "bijective-on-objects"),
                         ("idem-flatten", "hom-equivalences"),
                         ("idem-laxonly", "homomorphism"))


def criterion_5():
    from .oracles import equivalence_by_inverse_search, icon_inverse_by_search

    for name in sorted(corpus.ICONS):
        ic = corpus.get("icon", name)
        ok, inv = is_invertible_icon(ic)
        found = icon_inverse_by_search(ic)
        if ok != (found is not None):
            return False, f"invertibility disagreement on icon {name}"
        if ok and inv.cells != found.cells:
            return False, f"inverse mismatch on icon {name}"

    for name in EQUIVALENCE_POSITIVES:
        fun = corpus.get("laxfunctor", name)
        if not is_equivalence_in_bicat2(fun):
            return False, f"{name} should be an equivalence"
        if equivalence_by_inverse_search(fun) is None:
            return False, f"oracle found no weak inverse for {name}"
    for name, failing in EQUIVALENCE_NEGATIVES:
        fun = corpus.get("laxfunctor", name)
        verdict = is_equivalence_in_bicat2(fun)
        if verdict or verdict.failing != failing:
            return False, (f"{name} should fail the {failing} check, "
                           f"got {verdict.verdict}/{verdict.failing}")
        if equivalence_by_inverse_search(fun) is not None:
            return False, f"oracle found a spurious weak inverse for {name}"
    return True, (f"{len(corpus.ICONS)} icons agree with inverse search; "
                  f"3 equivalences and 3 refusals match the oracle")


# ---------------------------------------------------------------------------
# 6. strictness decided by probing equals strictness by inspection

BATTERY_BASES = ("walking-arrow", "walking-two-cell", "sigma-idem")


def _corpus_battery():
    betas = []
    for base in BATTERY_BASES:
        betas.extend(battery_transformations(corpus.get("bicategory", base)))
    for name in sorted(corpus.OPLAX):
        u = corpus.get("oplax", name)
        if u.source.source.is_strict() and u.source.target.is_strict():
            betas.append(u)
    return betas


def criterion_6():
    betas = _corpus_battery()
    n_strict = 0
    for beta in betas:
        plain = beta.source.target.identity_cells.issuperset(beta.constraints.values())
        verdict = strictness_by_witness(beta)
        if verdict.strict != plain:
            return False, (f"strictness disagreement on {beta.name}: "
                           f"probe says {verdict.verdict}, cells say {plain}")
        n_strict += verdict.strict
    return True, (f"{len(betas)} battery transformations, "
                  f"{n_strict} strict, zero disagreements")


# ---------------------------------------------------------------------------
# 7. icons are exactly the costrict transformations

def criterion_7():
    passed, gated = [], []
    for name in sorted(corpus.ICONS):
        u = icon_as_oplax(corpus.get("icon", name))
        try:
            verdict = is_costrict(u)
        except UnsupportedSettingError:
            gated.append(name)
            continue
        if not verdict.costrict or verdict.battery_failures or \
                verdict.battery_checked == 0:
            return False, f"icon {name} flunked the battery"
        passed.append(name)

    refuted = []
    for name in ("arrow-shift", "idem-general"):
        verdict = is_costrict(corpus.get("oplax", name))
        if verdict.costrict or verdict.refutation is None:
            return False, f"{name} should be refuted"
        if verdict.refutation.replay().ok:
            return False, f"refutation for {name} does not replay"
        refuted.append(name)
    return True, (f"icons {passed} pass the full battery "
                  f"({len(gated)} weak-setting icons gated); "
                  f"non-icons {refuted} get replayable refutations")


# ---------------------------------------------------------------------------
# 8. the cylinder closed form against generators-and-relations closure

def criterion_8():
    from .oracles import FreeCrossModel

    details = []
    for name in ("walking-arrow", "walking-two-cell"):
        b = corpus.get("bicategory", name)
        cyl = lax_cylinder(b)
        homs = cells = 0
        for x in b.objects:
            for y in b.objects:
                model = FreeCrossModel(b, x, y, max_len=5)
                cross = cyl.total.homs[((0, x), (1, y))]
                if sorted(map(repr, model.objects)) != \
                        sorted(repr(p[1:]) for p in cross.objects):
                    return False, f"{name}: object mismatch in hom {x}->{y}"
                for p in cross.objects:
                    for q in cross.objects:
                        want = len(model.classes_between(p[1:], q[1:]))
                        got = len(cross.hom(p, q))
                        if want != got:
                            return False, (f"{name}: hom {x}->{y} has {got} "
                                           f"cells {p}->{q}, free model {want}")
                        cells += got
                homs += 1
        details.append(f"{name}: {homs} crossing homs, {cells} cells agree")
    return True, "; ".join(details)


# ---------------------------------------------------------------------------
# 9. the 2-nerve against the classical nerve, and simplicial identities

def _classical_mismatch():
    """How the 2-nerve of the chain 0 < 1 < 2, to truncation 3, differs
    from its classical nerve (counts, then face and degeneracy tables), or
    None.  The nerve is freed when this returns."""
    from .oracles import (chain_simplex_key, classical_chains, classical_face,
                          classical_degeneracy)

    c = chain_category(2)
    b = from_category(c, "chain-three-objects")
    nerve = two_nerve(b, truncation=3)
    for k in range(4):
        want = math.comb(k + 3, 2)
        chains = classical_chains(c, k)
        keys = {repr(chain_simplex_key(b, c, ch)) for ch in chains}
        got = {repr(key) for key in nerve.levels[k].objects}
        if not (len(chains) == want and keys == got):
            return f"level {k}: {len(got)} simplices, classical {want}"
    for (k, i), fun in nerve.face.items():
        for ch in classical_chains(c, k):
            want = chain_simplex_key(b, c, classical_face(c, ch, i))
            if fun.object_map[chain_simplex_key(b, c, ch)] != want:
                return f"face table ({k},{i}) disagrees with classical"
    for (k, i), fun in nerve.degeneracy.items():
        for ch in classical_chains(c, k):
            want = chain_simplex_key(b, c, classical_degeneracy(c, ch, i))
            if fun.object_map[chain_simplex_key(b, c, ch)] != want:
                return f"degeneracy table ({k},{i}) disagrees"
    return None


def criterion_9():
    mismatch = _classical_mismatch()
    if mismatch:
        return False, mismatch

    for bic in (from_category(chain_category(2), "chain-again"),
                corpus.walking_two_cell()):
        rep = two_nerve(bic, truncation=4).report
        if not rep.ok:
            return False, f"simplicial identities fail on {bic.name}"

    twisted = two_nerve(corpus.cocycle_twisted(), truncation=2)
    n2 = len(twisted.levels[2].objects)
    if n2 != 8:
        return False, f"twisted delooping has {n2} 2-simplices, expected 8"
    return True, ("levels 0..3 match the classical nerve (counts and tables); "
                  "identities hold to truncation 4 on two structures; "
                  "twisted level-2 count is 8")


# ---------------------------------------------------------------------------
# 10. fibrations and cartesian 2-cells

def criterion_10():
    from .oracles import cartesian_by_definition

    n_objects = 0
    for name in sorted(corpus.BICATEGORIES):
        b = corpus.get("bicategory", name)
        if not b.is_strict():
            continue
        for x in b.objects:
            if not is_fibration(b, b.unit[x]):
                return False, f"identity on {x} in {name} is not a fibration"
            n_objects += 1

    rep = fibration_report(corpus.walking_two_cell(), "f1")
    wit = rep.first("no-cartesian-lift")
    if rep.ok or wit is None or wit.witness[3] != "up":
        return False, "the collapsing leg is not refused with the named 2-cell"

    agree = total = 0
    b = corpus.walking_two_cell()
    for p in sorted(b.one_cells(), key=repr):
        a_obj = b.home1(p)[0]
        for x in b.objects:
            for alpha in sorted(b.homs[(x, a_obj)].morphisms, key=repr):
                total += 1
                main = is_p_cartesian(CartesianQuery(b, p, alpha))
                if main == cartesian_by_definition(b, p, alpha):
                    agree += 1
    if agree != total:
        return False, f"cartesian oracle agrees on {agree}/{total} queries"
    return True, (f"identity fibrations on {n_objects} objects; named "
                  f"negative witness; oracle agreement {agree}/{total}")


# ---------------------------------------------------------------------------

CRITERIA = (
    (1, "coherence", criterion_1),
    (2, "icon-laws", criterion_2),
    (3, "nonassociative-composites", criterion_3),
    (4, "monoidal-dictionary", criterion_4),
    (5, "invertibility-equivalence", criterion_5),
    (6, "strictness", criterion_6),
    (7, "costrictness", criterion_7),
    (8, "cylinder-free-model", criterion_8),
    (9, "nerve", criterion_9),
    (10, "fibrations", criterion_10),
)


def run_all():
    """Run every check; a list of (number, slug, ok, detail) rows.  A check
    that raises fails with a detail naming the exception, and the checks
    after it still run."""
    rows = []
    for num, slug, fn in CRITERIA:
        try:
            rows.append((num, slug) + tuple(fn()))
        except Exception as e:
            rows.append((num, slug, False, f"raised {type(e).__name__}: {e}"))
    return rows
