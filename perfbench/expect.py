"""Independent expectations, computed from first principles.

Nothing here imports ``bicatkit``: each function recomputes a count or a
verdict that the program also produces, by direct combinatorics or modular
arithmetic, so that the benchmark can check the program's outputs.

Posets are given as (elements, leq) with ``leq`` a set of pairs (a, b)
meaning a <= b, reflexive and transitive.
"""

from __future__ import annotations

import itertools
import math


# -- posets ------------------------------------------------------------------

def monotone_maps(p, q):
    """Order-preserving maps between finite posets, counted by brute force.
    Functors between posets viewed as categories are exactly these."""
    (pe, pleq), (qe, qleq) = p, q
    count = 0
    for images in itertools.product(qe, repeat=len(pe)):
        f = dict(zip(pe, images))
        if all((f[a], f[b]) in qleq for a, b in pleq):
            count += 1
    return count


def multichains(p, k):
    """Sequences x0 <= x1 <= ... <= xk in a poset: the k-simplices of its
    nerve, degenerate ones included."""
    elements, leq = p
    chains = [(x,) for x in elements]
    for _ in range(k):
        chains = [c + (y,) for c in chains for y in elements if (c[-1], y) in leq]
    return len(chains)


def poset_one_cells(p):
    """1-cells of the locally discrete bicategory of a poset: one per a <= b."""
    return len(p[1])


def chain_poset(n):
    """The linear order 0 <= 1 <= ... <= n."""
    elements = list(range(n + 1))
    return elements, {(a, b) for a in elements for b in elements if a <= b}


# -- codiscrete targets --------------------------------------------------------

def lax_into_codiscrete(one_cells, magma_size):
    """Lax functors from a bicategory with the given number of 1-cells into
    a one-object codiscrete bicategory: every 1-cell may go anywhere, and the
    comparison cells are the unique 2-cells."""
    return magma_size ** one_cells


def codiscrete_nerve_level(magma_size, k):
    """(simplices, morphisms) at level k of the 2-nerve of a codiscrete
    bicategory: a free 1-cell per edge i < j, the unique invertible 2-cell per
    triangle, and exactly one icon between any two simplices."""
    simplices = magma_size ** math.comb(k + 1, 2)
    return simplices, simplices * simplices


def is_unital(elements, table, unit):
    return all(table[(unit, x)] == x and table[(x, unit)] == x for x in elements)


# -- Z/n deloopings with a twisted associator ----------------------------------

def twist_is_cocycle(n, twist):
    """Whether a twist table makes the delooping of Z/n (coefficients Z/n) a
    bicategory: the mod-n five-term cocycle identity on every quadruple, and
    the normalisation the triangle axiom needs, that the twist vanishes when
    its middle argument is the unit.  Missing entries are 0."""
    def tw(x, y, z):
        return twist.get((x, y, z), 0) % n

    els = range(n)
    for k, h, g, f in itertools.product(els, repeat=4):
        lhs = tw(k, h, (g + f) % n) + tw((k + h) % n, g, f)
        rhs = tw(h, g, f) + tw(k, (h + g) % n, f) + tw(k, h, g)
        if (lhs - rhs) % n:
            return False
    return all(tw(g, 0, f) == 0 for g in els for f in els)


def carry_cocycle(n, a):
    """The standard representative a * x * carry(y + z) of the class a in
    H^3(Z/n; Z/n), as a table of its non-zero entries."""
    out = {}
    for x, y, z in itertools.product(range(n), repeat=3):
        v = (a * x * ((y + z) // n)) % n
        if v:
            out[(x, y, z)] = v
    return out


def add_coboundary(n, twist, sigma):
    """twist + d(sigma) for a normalised 2-cochain sigma (sigma(0, x) =
    sigma(x, 0) = 0), as a table of the non-zero entries."""
    def s(x, y):
        return sigma.get((x, y), 0)

    out = {}
    for x, y, z in itertools.product(range(n), repeat=3):
        d = s(y, z) - s((x + y) % n, z) + s(x, (y + z) % n) - s(x, y)
        v = (twist.get((x, y, z), 0) + d) % n
        if v:
            out[(x, y, z)] = v
    return out


def cocycle_nerve_level(n, k):
    """(simplices, morphisms) at level k of the 2-nerve of a twisted delooping
    of Z/n.  A k-simplex is a group element per edge, additive along
    composites (n^k choices), and a 2-cochain on the triangles solving the
    twisted cocycle equation: a coset of the 2-cocycles of the k-simplex,
    n^C(k,2) of them.  Between two simplices with the same edges the icons
    form a coset of the 1-cocycles, n^k of them; otherwise there are none."""
    per_edges = n ** math.comb(k, 2)
    simplices = n ** k * per_edges
    morphisms = n ** k * per_edges * per_edges * n ** k
    return simplices, morphisms


def lax_chain_into_cocycle(n, m):
    """Lax functors from the linear order [m] into a twisted delooping of
    Z/n: n^m additive choices of 1-cells, a free unit comparison at each of
    the m + 1 objects (the unit axioms then fix every comparison at an
    identity), and the twisted 2-cocycles on the non-degenerate triangles,
    n^C(m,2) of them."""
    return n ** m * n ** (m + 1) * n ** math.comb(m, 2)


def icons_chain_into_cocycle(n, m, same_one_cells):
    """Icons between two lax functors [m] -> twisted delooping of Z/n: none
    unless they agree on 1-cells, and then a coset of the 1-cocycles of the
    m-simplex, n^m of them."""
    return n ** m if same_one_cells else 0
