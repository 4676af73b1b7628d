"""The product category c x d, built in full: the reference that the
composition listing `catcore.bifunctor_variables`/`bifunctor_laws`, read
off the two factors without building their product, must agree with."""

from bicatkit.catcore import FiniteCategory


def eager_product_category(c: FiniteCategory, d: FiniteCategory) -> FiniteCategory:
    objects = [(a, b) for a in c.objects for b in d.objects]
    morphisms = {(f, g): ((c.morphisms[f][0], d.morphisms[g][0]),
                          (c.morphisms[f][1], d.morphisms[g][1]))
                 for f in c.morphisms for g in d.morphisms}
    identity = {(a, b): (c.identity[a], d.identity[b]) for a, b in objects}
    table = {((f1, g1), (f2, g2)): (c.table[(f1, f2)], d.table[(g1, g2)])
             for f1, f2 in c.composable_pairs() for g1, g2 in d.composable_pairs()}
    return FiniteCategory(f"({c.name})x({d.name})", objects, morphisms, identity, table)
