"""Print the heap that the bundled bicategories and the search inputs hold
once built, the heap that acceptance criterion 2's law universe holds, and
the heap that the functor plans of one lax search over its bicategories hold.

    python3 scripts/structure_memory.py

It builds the bicategories of the corpus and the three inputs of
`tests/search_inputs.py` (a poset, a unital magma's codiscrete delooping and
a twisted delooping of Z/3) under `tracemalloc`, then prints how many were
built and the bytes still held.  Then it builds `acceptance._law_universe()`
under a second `tracemalloc` run and prints the bytes it holds: its own
bicategories, lax functors, compiled icon plans and cell tables.  Last, on
fresh copies of the universe's bicategories, it runs `enumerate_lax_functors`
over every ordered pair under a third run, and prints how many functor plans
the hom categories then hold (one per source hom searched) and the bytes
that dropping those plans frees.
"""

import pathlib
import sys
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from bicatkit import acceptance, corpus  # noqa: E402
from bicatkit.laxfun import enumerate_lax_functors  # noqa: E402
from search_inputs import search_inputs  # noqa: E402


def main():
    tracemalloc.start()
    bicats = [corpus.get("bicategory", name) for name in sorted(corpus.BICATEGORIES)]
    bicats.extend(search_inputs().values())
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    print(f"bicategories: {len(bicats)}")
    print(f"traced_bytes_held: {held}")
    tracemalloc.start()
    universe = acceptance._law_universe()[0]
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    print(f"law_universe_traced_bytes_held: {held}")
    bicats = [corpus.get("bicategory", name) for name in universe]
    tracemalloc.start()
    for s in bicats:
        for t in bicats:
            for _ in enumerate_lax_functors(s, t):
                pass
    homs = {id(cat): cat for b in bicats for cat in b.homs.values()
            if "functor_plan" in vars(cat)}
    held = tracemalloc.get_traced_memory()[0]
    for cat in homs.values():
        del cat.functor_plan
    held -= tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    print(f"functor_plans: {len(homs)}")
    print(f"functor_plans_traced_bytes_held: {held}")


if __name__ == "__main__":
    main()
