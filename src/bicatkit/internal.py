"""Equivalences of 2-dimensional functors, and lifting notions over a 1-cell.

A functor between bicategories is invertible up to invertible icons exactly
when its object map is a bijection, each hom functor is an equivalence of
categories, and its comparison cells are invertible; icons never move
objects, which is what pins the object map down.  Cartesian 2-cells and
fibrations are the representable factorization notions over a fixed 1-cell:
everything here is decided by exhaustive search over a finite strict ambient.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bicat import FiniteBicategory, UnsupportedSettingError
from .catcore import is_essentially_surjective, is_fully_faithful
from .laxfun import LaxFunctor, classify
from .report import ValidationReport, sorted_ids


@dataclass(frozen=True)
class EquivalenceVerdict:
    verdict: bool
    certified: tuple = ()        # the checks that passed, in order
    failing: str | None = None   # the first check that did not
    witness: tuple = ()

    def __bool__(self):
        return self.verdict


def is_equivalence_in_bicat2(fun: LaxFunctor) -> EquivalenceVerdict:
    """Decide invertibility up to invertible icons by the three-part
    characterization; the verdict names the first failing part, if any."""
    done = []
    images = [fun.object_map[a] for a in fun.source.sorted_objects]
    if len(set(images)) != len(images) or set(images) != set(fun.target.objects):
        return EquivalenceVerdict(False, tuple(done), "bijective-on-objects",
                                  tuple(images))
    done.append("bijective-on-objects")
    for pair in sorted_ids(fun.hom_functors):
        hf = fun.hom_functors[pair]
        ok, wit = is_fully_faithful(hf)
        if ok:
            ok, wit = is_essentially_surjective(hf)
        if not ok:
            return EquivalenceVerdict(False, tuple(done), "hom-equivalences",
                                      (pair,) + wit)
    done.append("hom-equivalences")
    cls = classify(fun)
    if not cls.is_homomorphism:
        bad = [c for c in sorted_ids(fun.comp_constraints.values())
               if fun.target.inv2(c) is None]
        bad += [c for c in sorted_ids(fun.unit_constraints.values())
                if fun.target.inv2(c) is None]
        return EquivalenceVerdict(False, tuple(done), "homomorphism",
                                  (bad[0],))
    done.append("homomorphism")
    return EquivalenceVerdict(True, tuple(done))


# ---------------------------------------------------------------------------
# cartesian 2-cells and fibrations over a 1-cell

@dataclass(frozen=True)
class CartesianQuery:
    ambient: FiniteBicategory
    p: object       # 1-cell A -> B
    alpha: object   # 2-cell a' => a between 1-cells X -> A


def _query_boundary(q: CartesianQuery):
    b = q.ambient
    if not b.is_strict():
        raise UnsupportedSettingError(
            "cartesianness is only decided over a strict ambient")
    pa, pb = b.home1(q.p)
    x, upper = b.home2(q.alpha)
    if upper != pa:
        raise ValueError(
            f"boundary mismatch: {q.alpha!r} lands in hom({x!r}, {upper!r}) "
            f"but {q.p!r} starts at {pa!r}")
    a_prime, a = b.homs[(x, upper)].morphisms[q.alpha]
    return x, pa, pb, a_prime, a


def cartesian_report(q: CartesianQuery) -> ValidationReport:
    """Exhaust every test cell c and every 2-cell pair (gamma, delta) lying
    over the composite the right way; each must factor uniquely."""
    b = q.ambient
    x, pa, pb, a_prime, a = _query_boundary(q)
    rep = ValidationReport(f"cartesianness of {q.alpha!r} over {q.p!r}")
    up, down = b.homs[(x, pa)], b.homs[(x, pb)]
    p_alpha = b.whisker_left(q.p, q.alpha)
    for c in up.sorted_objects:
        for gamma in down.hom(b.compose1(q.p, c), b.compose1(q.p, a_prime)):
            for delta in up.hom(c, a):
                if b.vcomp(p_alpha, gamma) != b.whisker_left(q.p, delta):
                    continue
                sols = [g for g in up.hom(c, a_prime)
                        if b.whisker_left(q.p, g) == gamma
                        and b.vcomp(q.alpha, g) == delta]
                if not sols:
                    rep.add("no-factorization",
                            f"({gamma!r}, {delta!r}) from {c!r} does not factor",
                            (c, gamma, delta))
                elif len(sols) > 1:
                    rep.add("ambiguous-factorization",
                            f"({gamma!r}, {delta!r}) from {c!r} factors "
                            f"{len(sols)} ways", (c, gamma, delta) + tuple(sols[:2]))
    return rep


def is_p_cartesian(q: CartesianQuery) -> bool:
    return cartesian_report(q).ok


def fibration_report(b: FiniteBicategory, p) -> ValidationReport:
    """Both fibration clauses, exhaustively: every 2-cell into a composite
    through p has a cartesian lift, and cartesian 2-cells stay cartesian
    after pasting any 1-cell on the inner side."""
    if not b.is_strict():
        raise UnsupportedSettingError(
            "fibrations are only decided over a strict ambient")
    pa, pb = b.home1(p)
    rep = ValidationReport(f"fibration clauses for {p!r} in {b.name}")
    for x in b.sorted_objects:
        up, down = b.homs[(x, pa)], b.homs[(x, pb)]
        for a in up.sorted_objects:
            for b1 in down.sorted_objects:
                for beta in down.hom(b1, b.compose1(p, a)):
                    if not _has_cartesian_lift(b, p, x, a, b1, beta):
                        rep.add("no-cartesian-lift",
                                f"no cartesian 2-cell over {beta!r} "
                                f"(from {b1!r} to the composite through {a!r})",
                                (x, a, b1, beta))
    for x in b.sorted_objects:
        up = b.homs[(x, pa)]
        for alpha in up.sorted_morphisms:
            if not is_p_cartesian(CartesianQuery(b, p, alpha)):
                continue
            for y in b.sorted_objects:
                for w in b.homs[(y, x)].sorted_objects:
                    moved = CartesianQuery(b, p, b.whisker_right(alpha, w))
                    if not is_p_cartesian(moved):
                        rep.add("whisker-unstable",
                                f"cartesian {alpha!r} loses cartesianness "
                                f"after pasting {w!r}", (alpha, w))
    return rep


def _has_cartesian_lift(b, p, x, a, b1, beta):
    up = b.homs[(x, b.home1(p)[0])]
    for a_prime in up.sorted_objects:
        if b.compose1(p, a_prime) != b1:
            continue
        for alpha in up.hom(a_prime, a):
            if b.whisker_left(p, alpha) == beta and \
                    is_p_cartesian(CartesianQuery(b, p, alpha)):
                return True
    return False


def is_fibration(b: FiniteBicategory, p) -> bool:
    return fibration_report(b, p).ok
