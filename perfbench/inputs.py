"""Seeded generation of the benchmark's inputs.

Plain data only (no ``bicatkit`` import): random posets, unital magmas and
Z/n twist tables, and the ``.bc`` text of documents that define them.  The
workloads turn the data into structures through the program's own
constructors, and ``expect`` computes what the program must answer.
"""

from __future__ import annotations

import functools
import itertools
import json

from expect import add_coboundary, carry_cocycle, twist_is_cocycle

MAGMA_NAMES = ("e", "a", "b")


@functools.lru_cache(maxsize=None)
def poset_types(n, strict):
    """One poset on 0..n-1 with exactly `strict` pairs a < b for each
    isomorphism type, as its set of strict pairs, in a fixed order."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    types = set()
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        rel = {p for p, bit in zip(pairs, bits) if bit}
        if len(rel) != strict or any((b, a) in rel for a, b in rel):
            continue
        if any((a, d) not in rel for a, b in rel for c, d in rel if b == c):
            continue
        types.add(min(tuple(sorted((perm[a], perm[b]) for a, b in rel))
                      for perm in itertools.permutations(range(n))))
    return sorted(types)


def random_poset(rng, n, strict, kind):
    """A randomly labelled poset on 0..n-1 of isomorphism type number `kind`
    (taken cyclically) among those with exactly `strict` pairs a < b.
    Callers step `kind` from round to round, so that every run meets the
    same mix of types and costs nearly the same work whatever its seed."""
    types = poset_types(n, strict)
    perm = list(range(n))
    rng.shuffle(perm)
    leq = {(a, a) for a in range(n)}
    leq |= {(perm[a], perm[b]) for a, b in types[kind % len(types)]}
    return list(range(n)), leq


def random_magma(rng, m, unital=True):
    """A magma on m named elements with "e" a two-sided unit; with
    ``unital=False`` one product with "e" is moved off, so it is not."""
    elements = list(MAGMA_NAMES[:m])
    table = {}
    for x, y in itertools.product(elements, repeat=2):
        if x == "e":
            table[(x, y)] = y
        elif y == "e":
            table[(x, y)] = x
        else:
            table[(x, y)] = rng.choice(elements)
    if not unital:
        x = rng.choice(elements[1:])
        table[("e", x)] = rng.choice([y for y in elements if y != x])
    return elements, table, "e"


def random_twist(rng, n):
    """A valid twist for the delooping of Z/n: a random class of
    H^3(Z/n; Z/n) plus the coboundary of a random normalised 2-cochain.
    Random tables are rarely valid, so valid ones are drawn this way."""
    sigma = {(x, y): rng.randrange(n) for x in range(1, n) for y in range(1, n)}
    return add_coboundary(n, carry_cocycle(n, rng.randrange(n)), sigma)


def broken_twist(rng, n):
    """A valid twist with one entry off a unit middle argument changed, drawn
    until the change breaks the cocycle identity (some changes add another
    cocycle and keep the twist valid)."""
    while True:
        twist = random_twist(rng, n)
        site = rng.choice([t for t in itertools.product(range(n), repeat=3)
                           if t[1] != 0])
        twist[site] = (twist.get(site, 0) + 1 + rng.randrange(n - 1)) % n
        if not twist_is_cocycle(n, twist):
            return twist


# -- .bc documents ---------------------------------------------------------------

def _tok(x):
    return json.dumps(x, separators=(",", ":"))


def poset_category_lines(name, poset):
    elements, leq = poset
    out = [f"category {_tok(name)}"]
    out += [f"  object {_tok(x)}" for x in elements]
    for a, b in sorted(leq):
        out.append(f"  morphism {_tok(['le', a, b])} : {_tok(a)} -> {_tok(b)}")
    out += [f"  identity {_tok(x)} = {_tok(['le', x, x])}" for x in elements]
    for (a, b), (c, d) in itertools.product(sorted(leq), repeat=2):
        if b == c:
            out.append(f"  compose {_tok(['le', c, d])} after {_tok(['le', a, b])}"
                       f" = {_tok(['le', a, d])}")
    out.append("end")
    return out


def magma_lines(name, magma):
    elements, table, unit = magma
    out = [f"magma {_tok(name)}"]
    out += [f"  element {_tok(x)}" for x in elements]
    out.append(f"  basepoint {_tok(unit)}")
    for (x, y), z in sorted(table.items()):
        out.append(f"  op {_tok(x)} {_tok(y)} = {_tok(z)}")
    out.append("end")
    return out


def cocycle_lines(name, n, twist):
    out = [f"cocycledata {_tok(name)}"]
    out += [f"  element {x}" for x in range(n)]
    out.append("  unit 0")
    for x, y in itertools.product(range(n), repeat=2):
        out.append(f"  op {x} {y} = {(x + y) % n}")
    out += [f"  coelement {x}" for x in range(n)]
    out.append("  counit 0")
    for x, y in itertools.product(range(n), repeat=2):
        out.append(f"  coop {x} {y} = {(x + y) % n}")
    for (x, y, z), v in sorted(twist.items()):
        out.append(f"  twist {x} {y} {z} = {v}")
    out.append("end")
    return out


def build_line(name, builder, arg):
    return f"build {_tok(name)} = {builder} {_tok(arg)}"
