"""Self-tests of the benchmark's independent expectations and generators.

    python3 -m pytest perfbench/test_expect.py

Each expectation is checked against first principles and, on small cases,
against what bicatkit answers today.
"""

import itertools
import math
import pathlib
import random
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import expect  # noqa: E402
import inputs  # noqa: E402
from bicatkit import corpus  # noqa: E402
from bicatkit.bicat import cocycle_bicategory, from_category, validate_bicategory  # noqa: E402
from bicatkit.catcore import chain_category  # noqa: E402
from bicatkit.icon import enumerate_icons  # noqa: E402
from bicatkit.laxfun import enumerate_lax_functors  # noqa: E402
from bicatkit.nerve import two_nerve  # noqa: E402
from bicatkit.oracles import brute_z2_twist_ok  # noqa: E402


def zn_delooping(n, twist):
    op = {(x, y): (x + y) % n for x in range(n) for y in range(n)}
    return cocycle_bicategory("zn", list(range(n)), op, 0, list(range(n)),
                              dict(op), 0, twist)


def all_z2_twists():
    triples = list(itertools.product((0, 1), repeat=3))
    for bits in itertools.product((0, 1), repeat=8):
        yield {t: 1 for t, b in zip(triples, bits) if b}


def test_cocycle_checker_agrees_with_the_z2_oracle_on_all_256_tables():
    assert all(expect.twist_is_cocycle(2, tw) == brute_z2_twist_ok(tw)
               for tw in all_z2_twists())


def test_cocycle_checker_agrees_with_the_validator():
    verdicts = [(expect.twist_is_cocycle(2, tw), validate_bicategory(zn_delooping(2, tw)).ok)
                for tw in all_z2_twists()]
    assert all(a == b for a, b in verdicts)
    assert sum(a for a, _ in verdicts) == 2
    rng = random.Random(7)
    for i in range(30):
        tw = (inputs.random_twist(rng, 3) if i % 3 == 0 else inputs.broken_twist(rng, 3)
              if i % 3 == 1 else {t: rng.randrange(3)
                                  for t in itertools.product(range(3), repeat=3)})
        assert expect.twist_is_cocycle(3, tw) == validate_bicategory(zn_delooping(3, tw)).ok


def test_generated_twists_are_valid_and_broken_ones_are_not():
    rng = random.Random(1)
    for n in (2, 3):
        assert all(expect.twist_is_cocycle(n, inputs.random_twist(rng, n)) for _ in range(50))
        assert not any(expect.twist_is_cocycle(n, inputs.broken_twist(rng, n))
                       for _ in range(50))


def test_chain_functor_count_is_binomial():
    for m, n in itertools.product(range(4), repeat=2):
        got = expect.monotone_maps(expect.chain_poset(m), expect.chain_poset(n))
        assert got == math.comb(n + m + 1, m + 1)


def test_monotone_maps_match_lax_functors_between_chains():
    for m, n in ((1, 1), (1, 2), (2, 1), (2, 2)):
        s = from_category(chain_category(m))
        t = from_category(chain_category(n))
        got = len(list(enumerate_lax_functors(s, t)))
        assert got == expect.monotone_maps(expect.chain_poset(m), expect.chain_poset(n))


def test_multichains_on_chain_two_are_binomial_and_match_the_nerve():
    p = expect.chain_poset(2)
    assert [expect.multichains(p, k) for k in range(4)] == [math.comb(k + 3, 2)
                                                             for k in range(4)]
    nerve = two_nerve(from_category(chain_category(2)), 3)
    for k in range(4):
        assert len(nerve.levels[k].objects) == expect.multichains(p, k)
        assert len(nerve.levels[k].morphisms) == expect.multichains(p, k)


def test_codiscrete_form_on_walking_two_cell():
    s, t = corpus.walking_two_cell(), corpus.codiscrete3()
    n1 = sum(len(h.objects) for h in s.homs.values())
    funs = list(enumerate_lax_functors(s, t))
    assert len(funs) == expect.lax_into_codiscrete(n1, 3) == 81
    for f, g in random.Random(3).sample([(f, g) for f in funs for g in funs], 40):
        assert len(list(enumerate_icons(f, g))) == 1


def test_cocycle_nerve_and_lax_counts():
    twisted = corpus.cocycle_twisted()
    nerve = two_nerve(twisted, 2)
    for k in range(3):
        level = nerve.levels[k]
        assert (len(level.objects), len(level.morphisms)) == \
            expect.cocycle_nerve_level(2, k)
    chain1 = from_category(chain_category(1))
    funs = list(enumerate_lax_functors(chain1, twisted))
    assert len(funs) == expect.lax_chain_into_cocycle(2, 1)
    for f, g in itertools.product(funs, repeat=2):
        same = all(f.on_1(x) == g.on_1(x) for x in chain1.one_cells())
        assert len(list(enumerate_icons(f, g))) == \
            expect.icons_chain_into_cocycle(2, 1, same)


def test_random_posets_have_the_requested_shape():
    rng = random.Random(5)
    assert [len(inputs.poset_types(4, k)) for k in range(7)] == [1, 1, 3, 4, 3, 3, 1]
    for n, strict in ((3, 1), (3, 2), (3, 3), (4, 2), (4, 3)):
        elements, leq = inputs.random_poset(rng, n, strict, rng.randrange(5))
        assert len(leq) - n == strict
        assert all((a, d) in leq for (a, b) in leq for (c, d) in leq if b == c)
        assert not any((b, a) in leq for (a, b) in leq if a != b)


def test_magmas_are_unital_unless_asked_otherwise():
    rng = random.Random(2)
    assert all(expect.is_unital(*inputs.random_magma(rng, 3)) for _ in range(20))
    assert not any(expect.is_unital(*inputs.random_magma(rng, 3, unital=False))
                   for _ in range(20))
