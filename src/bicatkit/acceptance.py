"""The bundled acceptance suite: ten numbered checks over the corpus.

Each check pits a main-route computation against an independent oracle or a
hand-established count and returns ``(ok, detail)``.  The test suite asserts
every check and the command line replays them via ``corpus run-all``; neither
weakens what is checked here.

Quantifiers over tuples (law instances need pairs and triples of icons) are
exhausted whenever the tuple space is small and otherwise driven by a
fixed-seed sample, so every run examines the same instances.
"""

from __future__ import annotations

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
    hcomp_icons,
    icon_to_monoidal,
    identity_icon,
    is_invertible_icon,
    monoidal_to_icon,
    validate_icon,
    vcomp_icons,
    whisker_icon_left,
    whisker_icon_right,
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
    bicategories (at most 2 objects and at most 6 one-cells per hom)."""
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
                    for ic in enumerate_icons(f, g):
                        fam.append((i, j, ic))
            fams[(s, t)] = funs
            icons[(s, t)] = fam
    return bics, fams, icons


def _unit_laws(fams, icons):
    for key, fam in icons.items():
        ids = [identity_icon(f) for f in fams[key]]
        for i, j, ic in fam:
            want = ic.cells
            if vcomp_icons(ids[j], ic).cells != want or \
               vcomp_icons(ic, ids[i]).cells != want:
                return len(fam), f"unit law fails in {key}"
    return sum(2 * len(f) for f in icons.values()), None


def _vertical_associativity(icons, rng):
    checked = 0
    for key, fam in icons.items():
        out_of = {}
        for i, j, ic in fam:
            out_of.setdefault(i, []).append((j, ic))
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

        for a, mid, last in _take(triples, exhaustive, sampler, rng):
            checked += 1
            lhs = vcomp_icons(last, vcomp_icons(mid, a))
            rhs = vcomp_icons(vcomp_icons(last, mid), a)
            if lhs.cells != rhs.cells:
                return checked, f"vertical associativity fails in {key}"
    return checked, None


def _whisker_functoriality(bics, fams, icons, rng):
    names = list(bics)
    checked = 0
    for (s, t), fam in icons.items():
        if not fam:
            continue
        lefts = [h for d in names for h in fams[(t, d)]]
        rights = [e for c in names for e in fams[(c, s)]]

        # whiskering a composite icon equals composing the whiskered icons
        out_of = {}
        for i, j, ic in fam:
            out_of.setdefault(i, []).append((j, ic))
        pairs = sum(len(out_of.get(j, ())) for _, j, _ in fam)
        for side, funs, whisker in (("left", lefts, whisker_icon_left),
                                    ("right", rights, whisker_icon_right)):
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

            def apply(h, ic):
                return whisker(h, ic) if side == "left" else whisker(ic, h)

            for a, mid, h in _take(pairs * len(funs), exhaustive, sampler, rng):
                checked += 1
                lhs = apply(h, vcomp_icons(mid, a))
                rhs = vcomp_icons(apply(h, mid), apply(h, a))
                if lhs.cells != rhs.cells:
                    return checked, f"{side} whiskering not functorial in {s}->{t}"

        # whiskering an identity icon yields an identity icon
        for fun, whiskered in _identity_whiskers(fams[(s, t)], lefts, rights, rng):
            checked += 1
            tgt = whiskered.bicategory
            for c in whiskered.cells.values():
                if c != tgt.id2(tgt.src2(c)):
                    return checked, f"identity icon not preserved in {s}->{t}"
    return checked, None


def _identity_whiskers(funs, lefts, rights, rng):
    combos = [(f, h, "left") for f in funs for h in lefts] + \
             [(f, e, "right") for f in funs for e in rights]

    def exhaustive():
        return iter(combos)

    def sampler(rng):
        while True:
            yield rng.choice(combos)

    for f, h, side in _take(len(combos), exhaustive, sampler, rng):
        ident = identity_icon(f)
        yield f, (whisker_icon_left(h, ident) if side == "left"
                  else whisker_icon_right(ident, h))


def _middle_four(bics, fams, icons, rng):
    names = list(bics)
    checked = 0
    for t in names:
        ins, outs = [], []
        for s in names:
            funs = fams[(s, t)]
            ins += [(funs[i], funs[j], ic) for i, j, ic in icons[(s, t)]]
        for d in names:
            funs = fams[(t, d)]
            outs += [(funs[k], funs[l], ic) for k, l, ic in icons[(t, d)]]
        if not ins or not outs:
            continue

        def exhaustive():
            return itertools.product(ins, outs)

        def sampler(rng):
            while True:
                yield rng.choice(ins), rng.choice(outs)

        for (fi, fj, alpha), (gk, gl, beta) in _take(
                len(ins) * len(outs), exhaustive, sampler, rng):
            checked += 1
            side_a = vcomp_icons(whisker_icon_right(beta, fj),
                                 whisker_icon_left(gk, alpha))
            side_b = vcomp_icons(whisker_icon_left(gl, alpha),
                                 whisker_icon_right(beta, fi))
            both = hcomp_icons(beta, alpha)
            if not (side_a.cells == side_b.cells == both.cells):
                return checked, f"middle-four interchange fails over middle {t}"
    return checked, None


def criterion_2():
    rng = random.Random(20260814)
    bics, fams, icons = _law_universe()
    n_icons = sum(map(len, icons.values()))
    total = 0
    for part in (lambda: _unit_laws(fams, icons),
                 lambda: _vertical_associativity(icons, rng),
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
    got = (left.component("*"), right.component("*"))
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
        amb = beta.source.target
        plain = all(c == amb.id2(amb.src2(c))
                    for c in beta.constraints.values())
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

def criterion_9():
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
            return False, f"level {k}: {len(got)} simplices, classical {want}"
    for (k, i), fun in nerve.face.items():
        for ch in classical_chains(c, k):
            want = chain_simplex_key(b, c, classical_face(c, ch, i))
            if fun.object_map[chain_simplex_key(b, c, ch)] != want:
                return False, f"face table ({k},{i}) disagrees with classical"
    for (k, i), fun in nerve.degeneracy.items():
        for ch in classical_chains(c, k):
            want = chain_simplex_key(b, c, classical_degeneracy(c, ch, i))
            if fun.object_map[chain_simplex_key(b, c, ch)] != want:
                return False, f"degeneracy table ({k},{i}) disagrees"

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
    """Run every check; a list of (number, slug, ok, detail) rows."""
    return [(num, slug) + tuple(fn()) for num, slug, fn in CRITERIA]
