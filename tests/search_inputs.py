"""Small inputs of each kind the search benchmark hands the enumerators,
shared by the composition-functor tests and `scripts/structure_memory.py`."""

from bicatkit.bicat import Magma, cocycle_bicategory, codiscrete_bicategory, from_category
from bicatkit.catcore import FiniteCategory


def search_inputs():
    """One bicategory of each kind the search benchmark hands the
    enumerators: a poset, a unital magma's codiscrete delooping and a
    twisted delooping of Z/3."""
    leq = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)]
    poset = FiniteCategory("P", [0, 1, 2], {("le", a, b): (a, b) for a, b in leq},
                           {a: ("le", a, a) for a in range(3)},
                           {(("le", a, b), ("le", b, d)): ("le", a, d)
                            for a, b in leq for c, d in leq if b == c})
    op = {(x, y): (x + y) % 3 for x in range(3) for y in range(3)}
    # x * carry(y + z), a generator of H^3(Z/3; Z/3)
    twist = {(x, y, z): x for x in range(3) for y in range(3) for z in range(3) if y + z >= 3}
    return {"poset": from_category(poset, "P"),
            "magma": codiscrete_bicategory("M", Magma(["e", "a"], {
                ("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "a"}, "e")),
            "twist": cocycle_bicategory("Z3", list(range(3)), op, 0, list(range(3)),
                                        dict(op), 0, twist)}
