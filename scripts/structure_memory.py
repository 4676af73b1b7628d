"""Print the heap that the bundled bicategories and the search inputs hold
once built, and the heap that acceptance criterion 2's law universe holds.

    python3 scripts/structure_memory.py

It builds the bicategories of the corpus and the three inputs of
`tests/search_inputs.py` (a poset, a unital magma's codiscrete delooping and
a twisted delooping of Z/3) under `tracemalloc`, then prints how many were
built and the bytes still held.  Then it builds `acceptance._law_universe()`
under a second `tracemalloc` run and prints the bytes it holds: its own
bicategories, lax functors, compiled icon plans and cell tables.
"""

import pathlib
import sys
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from bicatkit import acceptance, corpus  # noqa: E402
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
    acceptance._law_universe()
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    print(f"law_universe_traced_bytes_held: {held}")


if __name__ == "__main__":
    main()
