"""Print the heap that the bundled bicategories and the search inputs hold
once built, and what their product categories built while they were built.

    python3 scripts/structure_memory.py

It builds the bicategories of the corpus and the three inputs of
`tests/search_inputs.py` (a poset, a unital magma's codiscrete delooping and
a twisted delooping of Z/3) under `tracemalloc`, then prints the bytes still
held, the products constructed (each the domain of a composition functor),
and how many times each product field was built.  A field is built only
when something reads it, so on a lean build every field count reads 0.
"""

import pathlib
import sys
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from bicatkit import corpus  # noqa: E402
from bicatkit.catcore import ProductCategory  # noqa: E402
from search_inputs import search_inputs  # noqa: E402

FIELDS = ("name", "objects", "morphisms", "identity", "table")


def counting(fn, key, counts):
    def wrapper(*args):
        counts[key] += 1
        return fn(*args)
    return wrapper


def main():
    counts = dict.fromkeys(("products", *FIELDS), 0)
    ProductCategory.__init__ = counting(ProductCategory.__init__, "products", counts)
    for field in FIELDS:
        prop = vars(ProductCategory)[field]
        prop.func = counting(prop.func, field, counts)
    tracemalloc.start()
    bicats = [corpus.get("bicategory", name) for name in sorted(corpus.BICATEGORIES)]
    bicats.extend(search_inputs().values())
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    print(f"bicategories: {len(bicats)}")
    print(f"traced_bytes_held: {held}")
    print(f"products: {counts.pop('products')}")
    for field, n in counts.items():
        print(f"{field}_built: {n}")


if __name__ == "__main__":
    main()
