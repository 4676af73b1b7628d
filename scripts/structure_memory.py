"""Print the heap that the bundled bicategories and the search inputs hold
once built.

    python3 scripts/structure_memory.py

It builds the bicategories of the corpus and the three inputs of
`tests/search_inputs.py` (a poset, a unital magma's codiscrete delooping and
a twisted delooping of Z/3) under `tracemalloc`, then prints how many were
built and the bytes still held.
"""

import pathlib
import sys
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from bicatkit import corpus  # noqa: E402
from search_inputs import search_inputs  # noqa: E402


def main():
    tracemalloc.start()
    bicats = [corpus.get("bicategory", name) for name in sorted(corpus.BICATEGORIES)]
    bicats.extend(search_inputs().values())
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    print(f"bicategories: {len(bicats)}")
    print(f"traced_bytes_held: {held}")


if __name__ == "__main__":
    main()
