"""One workload process: set up, run the timed phase, check, report.

    python3 perfbench/workload.py WORKLOAD SEED ROUNDS TRACE OUT [--setup-only]

Started by ``run.py`` with ``src`` on PYTHONPATH.  Writes a JSON object to
OUT: the perf_counter reading when set-up ended, and, unless --setup-only,
the operations' timings, the correctness verdict and (with TRACE 1) the
per-layer figures.  perf_counter is CLOCK_MONOTONIC, so the parent can
subtract its own readings from these.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import random
import sys

from refkernel import Sampler, clock

ICON_PAIRS = 12          # ordered functor pairs sampled per icons operation
HERE = pathlib.Path(__file__).resolve().parent
GOLDEN_RUN_ALL = HERE / "golden" / "run-all.txt"


# -- acceptance ------------------------------------------------------------------

def setup_acceptance(seed, rounds):
    """Nothing beyond `import bicatkit.cli`: run-all builds its own corpus."""
    return None


def run_acceptance(_):
    """`bicatkit corpus run-all` through bicatkit.cli.main, once; each of
    the ten criteria is one operation.  A fresh process per run, because
    acceptance._law_universe is cached for the life of the process."""
    from bicatkit import acceptance, cli

    spans = []

    def timed(num, fn):
        def wrapper():
            t0 = clock()
            try:
                return fn()
            finally:
                spans.append((f"criterion {num}", t0, clock()))
        return wrapper

    acceptance.CRITERIA = tuple((num, slug, timed(num, fn))
                                for num, slug, fn in acceptance.CRITERIA)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["corpus", "run-all"])
    failures = check_run_all(out.getvalue(), code)
    return [(name, t0, t1, name not in failures) for name, t0, t1 in spans], failures


def check_run_all(report, code):
    """Names of failed criteria; "body" when the report above `timing:`
    differs from the golden copy, "shape" when its tail is malformed."""
    lines = report.splitlines()
    failed = {f"criterion {n}" for n in range(1, 11)
              if not any(ln.startswith(f"criterion {n} (") and "): pass — " in ln
                         for ln in lines)}
    if code != 0:
        failed.add("exit")
    if len(lines) < 3 or lines[-2] != "timing:" or \
            not lines[-1].startswith("  total_ms: ") or \
            lines[-3] != "result: pass (exit 0)":
        failed.add("shape")
    body = report.split("timing:\n")[0]
    if body != GOLDEN_RUN_ALL.read_text(encoding="utf-8"):
        failed.add("body")
    return failed


# -- search ------------------------------------------------------------------------

def setup_search(seed, rounds):
    """The seeded structures, built through the program's constructors,
    with the expectation each operation is checked against."""
    import expect
    import inputs
    from bicatkit.bicat import (Magma, cocycle_bicategory, codiscrete_bicategory,
                                from_category)
    from bicatkit.catcore import FiniteCategory

    rng = random.Random(seed)

    def poset_bicat(p, name):
        elements, leq = p
        cat = FiniteCategory(
            name, list(elements), {("le", a, b): (a, b) for a, b in sorted(leq)},
            {a: ("le", a, a) for a in elements},
            {(("le", a, b), ("le", b, d)): ("le", a, d)
             for a, b in leq for c, d in leq if b == c})
        return from_category(cat, name)

    def codiscrete(m, name):
        elements, table, unit = inputs.random_magma(rng, m)
        return codiscrete_bicategory(name, Magma(elements, table, unit))

    def cocycle(n, name):
        op = {(x, y): (x + y) % n for x in range(n) for y in range(n)}
        return cocycle_bicategory(name, list(range(n)), op, 0, list(range(n)),
                                  dict(op), 0, inputs.random_twist(rng, n))

    ops = []
    for r in range(rounds):
        kind = r     # poset types cycle with the round; labellings are random
        # poset -> poset: low hit rate; functors are the monotone maps
        for i, (ps, pt) in enumerate((((4, 3), (3, 2)), ((3, 2), (4, 3)),
                                      ((4, 2), (3, 1)), ((3, 1), (4, 2)),
                                      ((4, 3), (4, 2)), ((4, 2), (4, 3)))):
            p = inputs.random_poset(rng, *ps, kind + i)
            q = inputs.random_poset(rng, *pt, kind + i)
            s, t = poset_bicat(p, f"P{r}.{i}"), poset_bicat(q, f"Q{r}.{i}")
            want = expect.monotone_maps(p, q)
            ops.append(("lax poset->poset", "lax", (s, t), want))
            ops.append(("two poset->poset", "two", (s, t), want))
            ops.append(("icons poset->poset", "icons",
                        (rng.random(), "same-objects"), None))
        # into codiscrete targets: every candidate is a lax functor
        for i, (shape, m) in enumerate((((3, 2), 2), ((4, 2), 2), ((3, 1), 3))):
            p = inputs.random_poset(rng, *shape, kind + i)
            s, t = poset_bicat(p, f"X{r}.{i}"), codiscrete(m, f"M{r}.{i}")
            want = expect.lax_into_codiscrete(expect.poset_one_cells(p), m)
            ops.append(("lax poset->codiscrete", "lax", (s, t), want))
            ops.append(("icons poset->codiscrete", "icons", (rng.random(), "one"),
                        None))
        s, t = codiscrete(2, f"C{r}"), codiscrete(3, f"D{r}")
        ops.append(("lax codiscrete->codiscrete", "lax", (s, t),
                    expect.lax_into_codiscrete(2, 3)))
        # into twisted Z/n deloopings: few candidates survive
        chain1 = poset_bicat(expect.chain_poset(1), "chain1")
        for n in (2, 3):
            t = cocycle(n, f"Z{n}.{r}")
            ops.append((f"lax chain->Z/{n}", "lax", (chain1, t),
                        expect.lax_chain_into_cocycle(n, 1)))
            ops.append((f"icons chain->Z/{n}", "icons",
                        (rng.random(), expect.icons_chain_into_cocycle(n, 1, True)),
                        None))
        # 2-nerves
        p = inputs.random_poset(rng, 3, 2, kind)
        ops.append(("nerve poset", "nerve", (poset_bicat(p, f"N{r}"), 2),
                    [(expect.multichains(p, k),) * 2 for k in range(3)]))
        for n in (2, 3):
            t = cocycle(n, f"NZ{n}.{r}")
            ops.append((f"nerve Z/{n}", "nerve", (t, 1),
                        [expect.cocycle_nerve_level(n, k) for k in range(2)]))
        for i in range(5):
            ops.append(("nerve codiscrete", "nerve", (codiscrete(2, f"NC{r}.{i}"), 2),
                        [expect.codiscrete_nerve_level(2, k) for k in range(3)]))
    return ops


def run_search(ops):
    """Each operation is one enumerator call, or for icons a seeded sample of
    ordered pairs of the functors the previous operation found."""
    from bicatkit.icon import enumerate_icons
    from bicatkit.laxfun import enumerate_lax_functors, enumerate_two_functors
    from bicatkit.nerve import two_nerve

    def icons_ok(f, g, rule):
        n = len(list(enumerate_icons(f, g)))
        if rule == "one":
            return n == 1
        if rule == "same-objects":
            return n == (1 if f.object_map == g.object_map else 0)
        same = all(f.on_1(x) == g.on_1(x) for x in f.source.one_cells())
        return n == (rule if same else 0)

    results, funs = [], []
    for label, kind, args, want in ops:
        t0 = clock()
        if kind == "lax":
            funs = list(enumerate_lax_functors(*args))
            ok = len(funs) == want
        elif kind == "two":
            ok = len(list(enumerate_two_functors(*args))) == want
        elif kind == "icons":
            draw, rule = args
            pairs = [(f, g) for f in funs for g in funs]
            sample = random.Random(draw).sample(pairs, min(ICON_PAIRS, len(pairs)))
            ok = bool(sample) and all(icons_ok(f, g, rule) for f, g in sample)
        else:
            b, level = args
            nerve = two_nerve(b, level)
            got = [(len(nerve.levels[k].objects), len(nerve.levels[k].morphisms))
                   for k in range(level + 1)]
            ok = got == want and nerve.report.ok
        results.append((label, t0, clock(), ok))
    return results, set()


WORKLOADS = {
    "acceptance": (setup_acceptance, run_acceptance),
    "search": (setup_search, run_search),
}


def main(argv):
    workload, seed, rounds, trace, out = argv[:5]
    setup, run = WORKLOADS[workload]
    result = {}
    if workload == "acceptance":
        t0 = clock()
        import bicatkit.cli  # noqa: F401  (what a command process imports)
        result["import_s"] = clock() - t0
    inputs = setup(int(seed), int(rounds))
    result["ready"] = clock()
    if "--setup-only" not in argv:
        tracer = None
        if trace == "1":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        with Sampler() as sampler:
            start = clock()
            ops, failures = run(inputs)
            end = clock()
        result.update(
            run_s=sampler.scaled(start, end), run_raw_s=sampler.raw(start, end),
            ops=[[label, sampler.scaled(t0, t1), sampler.raw(t0, t1), ok]
                 for label, t0, t1, ok in ops],
            failures=sorted(failures))
        if tracer is not None:
            tracer.uninstall_gc()
            result["layers"] = tracer.metrics()
    pathlib.Path(out).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
