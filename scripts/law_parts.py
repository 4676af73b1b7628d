"""Print, for each of the four parts of acceptance criterion 2, the law
instances it checks and its raw wall seconds, after building the law
universe once (its seconds are printed first); then the raw wall seconds of
each other acceptance criterion, 1 and 3 to 10, one line each.  The peak
resident memory of the process so far (``ru_maxrss``, in MB) is printed
after the universe is built, after each of the four parts and at the end,
each time beside the cyclic collector's collections so far, over all
generations, so it shows which step sets the peak.

    python3 scripts/law_parts.py

The parts run in the order and with the seed of `criterion_2`, so they
check the instances that `corpus run-all` counts.  The script exits 1 if a
law or a criterion fails.
"""

import gc
import pathlib
import random
import resource
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from bicatkit import acceptance  # noqa: E402


def _peak_rss(label):
    """Print the peak resident memory of this process so far (Linux reports
    ``ru_maxrss`` in KB) and the collections the cyclic collector has run."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    collections = sum(generation["collections"] for generation in gc.get_stats())
    print(f"{label:30s} {'':>8s} {kb / 1024:8.2f} MB peak rss, {collections} gc collections")


def main():
    t0 = time.perf_counter()
    bics, fams, icons = acceptance._law_universe()
    print(f"{'law universe':30s} {'':>8s} {time.perf_counter() - t0:8.3f} s")
    _peak_rss("after the universe")
    rng = random.Random(20260814)
    parts = (("unit laws", lambda: acceptance._unit_laws(bics, fams, icons)),
             ("vertical associativity",
              lambda: acceptance._vertical_associativity(bics, icons, rng)),
             ("whisker functoriality",
              lambda: acceptance._whisker_functoriality(bics, fams, icons, rng)),
             ("middle four", lambda: acceptance._middle_four(bics, fams, icons, rng)))
    total = 0
    for name, part in parts:
        t0 = time.perf_counter()
        checked, err = part()
        print(f"{name:30s} {checked:8d} {time.perf_counter() - t0:8.3f} s")
        _peak_rss(f"after {name}")
        total += checked
        if err:
            print(f"error: {err}")
            return 1
    print(f"{'law instances':30s} {total:8d}")
    for num, slug, criterion in acceptance.CRITERIA:
        if num == 2:
            continue
        t0 = time.perf_counter()
        ok, detail = criterion()
        print(f"{f'criterion {num}':30s} {'':>8s} {time.perf_counter() - t0:8.3f} s  {slug}")
        if not ok:
            print(f"error: {detail}")
            return 1
    _peak_rss("at the end")
    return 0


if __name__ == "__main__":
    sys.exit(main())
