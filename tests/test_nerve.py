"""Simplices, reindexing, and the truncated 2-nerve."""

import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

from bicatkit import corpus
from bicatkit import nerve as nerve_module
from bicatkit.bicat import from_category
from bicatkit.catcore import (Functor, chain_category, compose_functors, validate_category,
                              validate_functor)
from bicatkit.icon import enumerate_icons, hcomp_icons, identity_icon
from bicatkit.laxfun import classify, enumerate_two_functors, validate_lax_functor
from bicatkit.nerve import (
    SimplexData,
    as_lax_functor,
    enumerate_simplices,
    ordinal_as_bicategory,
    ordinal_map_functor,
    reindex_simplex,
    simplex_from_lax,
    two_nerve,
    validate_simplex,
)
from bicatkit.oracles import (
    chain_simplex_key,
    classical_chains,
    classical_degeneracy,
    classical_face,
)
from bicatkit.report import ValidationReport


def test_ordinal_is_strict_and_locally_discrete():
    b = ordinal_as_bicategory(3)
    assert b.is_strict()
    assert len(list(b.one_cells())) == 10
    assert all(len(cat.morphisms) == len(cat.objects)
               for cat in b.homs.values())


def test_simplices_validate_and_round_trip():
    b = corpus.get("bicategory", "walking-two-cell")
    sims = list(enumerate_simplices(b, 2))
    assert sims
    for s in sims:
        assert validate_simplex(s).ok
        fun = as_lax_functor(s)
        assert classify(fun).is_normal
        assert simplex_from_lax(fun).key() == s.key()


def test_a_non_invertible_comparison_is_reported_at_its_triangle():
    """The 2-simplex candidate of sigma-idem with every edge s: with the
    comparison k: s.s => s, which has no inverse, it is a lax functor out
    of [2] but not a simplex; with the identity of s it is one."""
    b = corpus.get("bicategory", "sigma-idem")
    objects, edges = dict.fromkeys(range(3), "*"), dict.fromkeys([(0, 1), (1, 2), (0, 2)], "s")
    lax = SimplexData(2, b, objects, edges, {(0, 1, 2): "k"})
    assert validate_lax_functor(as_lax_functor(lax)).ok
    rep = validate_simplex(lax)
    line = "[constraint-not-invertible] comparison at (0, 1, 2) is not invertible"
    assert str(rep) == f"simplex over sigma-idem: FAIL {line}\n  {line}"
    assert rep.violations[0].witness == (0, 1, 2)
    assert validate_simplex(SimplexData(2, b, objects, edges, {(0, 1, 2): ("i", "s")})).ok


def test_a_missing_comparison_is_reported_not_raised():
    """The 2-simplex candidate of sigma-idem with every edge s and no
    comparison over its triangle, where validation used to raise
    KeyError((0, 1, 2))."""
    b = corpus.get("bicategory", "sigma-idem")
    objects, edges = dict.fromkeys(range(3), "*"), dict.fromkeys([(0, 1), (1, 2), (0, 2)], "s")
    rep = validate_simplex(SimplexData(2, b, objects, edges, {}))
    line = "[missing-comparison] no comparison over the triangle (0, 1, 2)"
    assert str(rep) == f"simplex over sigma-idem: FAIL {line}\n  {line}"
    assert rep.violations[0].witness == (0, 1, 2) and rep.structural_failure


def test_a_vertex_that_is_no_object_is_reported_not_raised():
    """A 1-simplex of sigma-idem with the vertex 'zz', where validation used
    to raise KeyError(('*', 'zz'))."""
    b = corpus.get("bicategory", "sigma-idem")
    rep = validate_simplex(SimplexData(1, b, {0: "*", 1: "zz"}, {(0, 1): "s"}, {}))
    line = "[dangling-vertex] vertex 1 is not an object of the base"
    assert str(rep) == f"simplex over sigma-idem: FAIL {line}\n  {line}"
    assert rep.violations[0].witness == (1,) and rep.structural_failure


def test_a_simplex_missing_its_data_reports_each_entry_in_order():
    """No vertices, edges or comparisons at all: each entry is reported,
    vertices first, then edges, then triangles; an edge that is no 1-cell
    dangles."""
    b = corpus.get("bicategory", "sigma-idem")
    rep = validate_simplex(SimplexData(2, b, {}, {(0, 1): "zz"}, {}))
    assert [(v.kind, v.witness) for v in rep.violations] == [
        ("missing-vertex", (0,)), ("missing-vertex", (1,)), ("missing-vertex", (2,)),
        ("dangling-edge", (0, 1)), ("missing-edge", (0, 2)), ("missing-edge", (1, 2)),
        ("missing-comparison", (0, 1, 2))]


@pytest.mark.parametrize("name", ["walking-two-cell", "sigma-idem"])
def test_low_level_counts(name):
    b = corpus.get("bicategory", name)
    assert len(list(enumerate_simplices(b, 0))) == len(b.objects)
    assert len(list(enumerate_simplices(b, 1))) == len(list(b.one_cells()))


def test_level_one_is_the_disjoint_union_of_the_homs():
    b = corpus.get("bicategory", "walking-two-cell")
    nerve = two_nerve(b, 1)
    lvl = nerve.levels[1]
    assert len(lvl.objects) == len(list(b.one_cells()))
    assert len(lvl.morphisms) == len(list(b.two_cells()))


def test_reindexing():
    b = corpus.get("bicategory", "walking-two-cell")
    s = next(s for s in enumerate_simplices(b, 1)
             if s.objects == {0: "a", 1: "b"})
    assert reindex_simplex(s, (0, 1)).key() == s.key()
    collapsed = reindex_simplex(s, (0, 0))
    assert validate_simplex(collapsed).ok
    assert collapsed.cells[(0, 1)] == b.unit["a"]
    with pytest.raises(ValueError):
        ordinal_map_functor((1, 0), 1)
    with pytest.raises(ValueError):
        ordinal_map_functor((0, 5), 1)


def _monotone_map(rng, m, n):
    """A random monotone map [m] -> [n], as the tuple of its values."""
    return tuple(sorted(rng.choices(range(n + 1), k=m + 1)))


@pytest.mark.parametrize("name", ["ordinal-2", "walking-two-cell", "cocycle-twisted",
                                  "sigma-idem"])
def test_reindexing_is_functorial(name):
    """Reindexing along theta: [m] -> [n] and then along phi: [k] -> [m]
    gives the simplex reindexed along theta.phi, and every simplex met on
    the way validates: up to 24 simplices of each level up to 3, four
    random pairs of maps each."""
    rng = random.Random(20261019)
    b = corpus.get("bicategory", name)
    for n in range(4):
        sims = list(enumerate_simplices(b, n))
        for s in rng.sample(sims, min(len(sims), 24)):
            for _ in range(4):
                m, k = rng.randrange(4), rng.randrange(4)
                theta, phi = _monotone_map(rng, m, n), _monotone_map(rng, k, m)
                once = reindex_simplex(s, theta)
                twice = reindex_simplex(once, phi)
                along = reindex_simplex(s, tuple(theta[i] for i in phi))
                assert twice.key() == along.key(), (s.key(), theta, phi)
                for r in (once, twice, along):
                    assert validate_simplex(r).ok, (s.key(), theta, phi)


def test_nerve_matches_the_classical_nerve_on_a_chain():
    c = chain_category(2)
    b = from_category(c)
    nerve = two_nerve(b, 3)
    for k in range(4):
        chains = classical_chains(c, k)
        keys = {chain: chain_simplex_key(b, c, chain) for chain in chains}
        assert sorted(map(repr, keys.values())) == sorted(
            map(repr, nerve.levels[k].objects))
        # a locally discrete base leaves no room for non-identity morphisms
        assert set(nerve.levels[k].morphisms) == set(
            nerve.levels[k].identity.values())
        for chain in chains:
            if k >= 1:
                for i in range(k + 1):
                    assert nerve.face[(k, i)].object_map[keys[chain]] == \
                        chain_simplex_key(b, c, classical_face(c, chain, i))
            if k <= 2:
                for i in range(k + 1):
                    assert nerve.degeneracy[(k, i)].object_map[keys[chain]] == \
                        chain_simplex_key(b, c, classical_degeneracy(c, chain, i))


@pytest.mark.parametrize("builder", [
    lambda: from_category(chain_category(2)),
    lambda: corpus.get("bicategory", "walking-two-cell"),
])
def test_simplicial_identities_to_level_four(builder):
    nerve = two_nerve(builder(), 4)
    assert nerve.report.ok, nerve.report.summary()


def _reference_identity_report(nerve) -> ValidationReport:
    """The reference check of the simplicial identities: one loop per kind,
    each composite built and compared with the other side, and an identity
    functor built for each check that compares with the identity."""
    rep = ValidationReport(f"2-nerve of {nerve.base.name} to level {nerve.truncation}")
    t = nerve.truncation
    for k in range(2, t + 1):
        for j in range(k + 1):
            for i in range(j):
                lhs = compose_functors(nerve.face[(k - 1, i)], nerve.face[(k, j)])
                rhs = compose_functors(nerve.face[(k - 1, j - 1)], nerve.face[(k, i)])
                if not _functors_equal(lhs, rhs):
                    rep.add("face-face", f"d{i} d{j} != d{j - 1} d{i}", (k, i, j))
    for k in range(t - 1):
        for j in range(k + 1):
            for i in range(j + 1):
                lhs = compose_functors(nerve.degeneracy[(k + 1, i)],
                                       nerve.degeneracy[(k, j)])
                rhs = compose_functors(nerve.degeneracy[(k + 1, j + 1)],
                                       nerve.degeneracy[(k, i)])
                if not _functors_equal(lhs, rhs):
                    rep.add("degeneracy-degeneracy",
                            f"s{i} s{j} != s{j + 1} s{i}", (k, i, j))
    for k in range(t):
        for j in range(k + 1):
            for i in range(k + 2):
                lhs = compose_functors(nerve.face[(k + 1, i)],
                                       nerve.degeneracy[(k, j)])
                if i == j or i == j + 1:
                    ident = Functor("id", nerve.levels[k], nerve.levels[k],
                                    {o: o for o in nerve.levels[k].objects},
                                    {m: m for m in nerve.levels[k].morphisms})
                    if not _functors_equal(lhs, ident):
                        rep.add("face-degeneracy", f"d{i} s{j} != id", (k, i, j))
                elif i < j:
                    rhs = compose_functors(nerve.degeneracy[(k - 1, j - 1)],
                                           nerve.face[(k, i)])
                    if not _functors_equal(lhs, rhs):
                        rep.add("face-degeneracy",
                                f"d{i} s{j} != s{j - 1} d{i}", (k, i, j))
                else:
                    rhs = compose_functors(nerve.degeneracy[(k - 1, j)],
                                           nerve.face[(k, i - 1)])
                    if not _functors_equal(lhs, rhs):
                        rep.add("face-degeneracy",
                                f"d{i} s{j} != s{j} d{i - 1}", (k, i, j))
    return rep


def _functors_equal(f, g):
    return f.object_map == g.object_map and f.morphism_map == g.morphism_map


def test_broken_identities_are_reported_as_the_reference_reports_them(monkeypatch):
    """With d0 and d1 out of level 2, and s0 and s1 out of level 1, each
    built along the other's ordinal map, walking-two-cell to truncation 3
    breaks 20 simplicial identities of all three kinds, and `two_nerve`
    reports them in the lines and the order of the reference check."""
    swapped = {((1, 2), 2): (0, 2), ((0, 2), 2): (1, 2),
               ((0, 0, 1), 1): (0, 1, 1), ((0, 1, 1), 1): (0, 0, 1)}
    real = nerve_module.ordinal_map_functor
    monkeypatch.setattr(nerve_module, "ordinal_map_functor",
                        lambda theta, n: real(swapped.get((theta, n), theta), n))
    nerve = two_nerve(corpus.get("bicategory", "walking-two-cell"), 3)
    want = _reference_identity_report(nerve)
    assert len(want.violations) == 20
    assert {v.kind for v in want.violations} == {
        "face-face", "degeneracy-degeneracy", "face-degeneracy"}
    assert nerve.report == want


def _reindexed_like_reindex_simplex(nerve, k, k2, theta):
    """The reference level functor along theta: [k2] -> [k]: each simplex
    sent by `reindex_simplex`, each icon's components picked along theta."""
    omap = {sk: reindex_simplex(s, theta).key() for sk, s in nerve.simplices[k].items()}
    edges = [(i, j) for i in range(k + 1) for j in range(i, k + 1)]
    picks = [edges.index((theta[i], theta[j]))
             for i in range(k2 + 1) for j in range(i, k2 + 1)]
    mmap = {mid: ("ic", omap[mid[1]], omap[mid[2]], tuple(mid[3][p] for p in picks))
            for mid in nerve.levels[k].morphisms}
    return omap, mmap


@pytest.mark.parametrize("builder, truncation", [
    *((lambda name=name: corpus.get("bicategory", name), 2)
      for name in sorted(corpus.BICATEGORIES)),
    (lambda: from_category(chain_category(2)), 4),
    (lambda: corpus.get("bicategory", "walking-two-cell"), 4),
], ids=[*sorted(corpus.BICATEGORIES), "chain2-to-4", "walking-two-cell-to-4"])
def test_face_and_degeneracy_maps_reindex_as_reindex_simplex_does(builder, truncation):
    """Each face and degeneracy functor, whose simplices are reindexed from
    the lax functors the level was built from, equals the one built with
    `reindex_simplex` on the bundled bicategories and on the bases that
    criterion 9 takes to truncation 4."""
    nerve = two_nerve(builder(), truncation)
    for (k, i), fun in nerve.face.items():
        theta = tuple(v if v < i else v + 1 for v in range(k))
        assert (fun.object_map, fun.morphism_map) == \
            _reindexed_like_reindex_simplex(nerve, k, k - 1, theta)
    for (k, i), fun in nerve.degeneracy.items():
        theta = tuple(v if v <= i else v - 1 for v in range(k + 2))
        assert (fun.object_map, fun.morphism_map) == \
            _reindexed_like_reindex_simplex(nerve, k, k + 1, theta)
    assert len(nerve.face) == truncation * (truncation + 3) // 2


def test_levels_and_structure_maps_are_well_formed():
    nerve = two_nerve(corpus.get("bicategory", "walking-two-cell"), 2)
    for lvl in nerve.levels.values():
        assert validate_category(lvl).ok
    for fun in list(nerve.face.values()) + list(nerve.degeneracy.values()):
        assert validate_functor(fun).ok


def test_cocycle_two_simplices_count_group_squared_times_coefficients():
    nerve = two_nerve(corpus.get("bicategory", "cocycle-twisted"), 2)
    assert len(nerve.levels[2].objects) == 8


def test_truncation_bound():
    with pytest.raises(ValueError):
        two_nerve(corpus.get("bicategory", "terminal"), 5)


_CACHE_SIZES = """
from bicatkit import corpus, nerve
for name in ("terminal", "walking-two-cell"):
    nerve.two_nerve(corpus.get("bicategory", name), 4)
    print(nerve.ordinal_as_bicategory.cache_info().currsize,
          nerve.ordinal_map_functor.cache_info().currsize)
"""


def test_the_ordinal_caches_of_the_nerve_are_bounded():
    """Their keys do not depend on the base and the truncation is at most 4,
    so a fresh process that builds the nerve to level 4 of two bases holds
    the 5 ordinals [0]..[4] and the 24 coface and codegeneracy maps among
    them (14 and 10), after the first base as after the second."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _CACHE_SIZES], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["5", "24"] * 2


def ordinal_inclusion_check(max_n: int = 3) -> ValidationReport:
    """The embedding of the linear orders into 2-categories is as faithful as
    it looks: strict functors between ordinals are exactly the monotone maps,
    and there are no simplex morphisms between distinct ones."""
    rep = ValidationReport(f"ordinal inclusion to [{max_n}]")
    for m in range(max_n + 1):
        for n in range(max_n + 1):
            src, tgt = ordinal_as_bicategory(m), ordinal_as_bicategory(n)
            found = list(enumerate_two_functors(src, tgt))
            want = math.comb(n + m + 1, m + 1)
            if len(found) != want:
                rep.add("functor-count",
                        f"[{m}] -> [{n}]: {len(found)} functors, "
                        f"expected {want}", (m, n))
            for f in found:
                for g in found:
                    icons = list(enumerate_icons(f, g))
                    same = f.object_map == g.object_map and all(
                        f.on_1(w) == g.on_1(w) for w in src.one_cells())
                    want_icons = 1 if same else 0
                    if len(icons) != want_icons:
                        rep.add("icon-count",
                                f"[{m}] -> [{n}]: unexpected icon count "
                                f"between {f.name} and {g.name}", (m, n))
    return rep


def test_ordinal_inclusion_check():
    assert ordinal_inclusion_check(3).ok


def enumerate_nerve_morphisms(s1, s2):
    """All simplex morphisms s1 -> s2: icons between the homomorphisms."""
    yield from enumerate_icons(as_lax_functor(s1), as_lax_functor(s2))


def _flat(icon, n):
    return tuple(icon.at(("le", i, j)) for i in range(n + 1) for j in range(i, n + 1))


def _whiskered_morphism_map(nerve, k, k2, theta, omap):
    """The reference: recover every icon of level k by enumeration and
    paste it with the identity icon of the monotone map theta: [k2] -> [k]."""
    sims = nerve.simplices[k]
    mmap = {}
    for sk, s in sims.items():
        for tk, t in sims.items():
            for icon in enumerate_nerve_morphisms(s, t):
                moved = hcomp_icons(icon, identity_icon(ordinal_map_functor(theta, k)))
                mmap[("ic", sk, tk, _flat(icon, k))] = (
                    "ic", omap[sk], omap[tk], _flat(moved, k2))
    return mmap


@pytest.mark.parametrize("builder, truncation", [
    (lambda: from_category(chain_category(2)), 3),
    (lambda: corpus.get("bicategory", "walking-two-cell"), 3),
    (lambda: corpus.get("bicategory", "cocycle-twisted"), 2),
    (lambda: corpus.get("bicategory", "sigma-idem"), 2),
], ids=["chain2", "walking-two-cell", "cocycle-twisted", "sigma-idem"])
def test_level_functors_reindex_like_whiskering(builder, truncation):
    nerve = two_nerve(builder(), truncation)
    for (k, i), fun in nerve.face.items():
        theta = tuple(v if v < i else v + 1 for v in range(k))
        assert fun.morphism_map == _whiskered_morphism_map(
            nerve, k, k - 1, theta, fun.object_map)
    for (k, i), fun in nerve.degeneracy.items():
        theta = tuple(v if v <= i else v - 1 for v in range(k + 2))
        assert fun.morphism_map == _whiskered_morphism_map(
            nerve, k, k + 1, theta, fun.object_map)
