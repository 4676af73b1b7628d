"""The cli workload's commands and what each must print.

A round is 100 commands.  33 use the README verbs over bundled names; their
expected exit codes and verdict lines are the documented ones (README, and
the facts the acceptance suite certifies: every bundled bicategory
validates).  67 use generated documents given with --file: Z/n cocycle
data, magmas and poset categories with their build lines, queried with
`validate` and `nerve --level <= 2`.  The bundled commands, which all parse
the bundled corpus, are the middle third of the latencies, so that the
median sits inside one kind of command.  Their expectations
come from ``expect``.  `costrict arrow-shift` dies with a traceback today and
is counted as a failed operation.
"""

from __future__ import annotations

import math

import expect
import inputs

# (argv, expected exit code, lines the report must contain)
BUNDLED = [
    (["validate", "cocycle-twisted"], 0, ['check bicategory "cocycle-twisted": ok']),
    (["validate", "codiscrete3"], 0, ['check bicategory "codiscrete3": ok']),
    (["validate", "walking-two-cell"], 0, ['check bicategory "walking-two-cell": ok']),
    (["classify", "twisted-identity"], 0, ["classification: homomorphism"]),
    (["classify", "idem-laxonly"], 0, ["classification: lax"]),
    (["classify", "idem-flatten"], 0, ["classification: strict"]),
    (["compose", "const-at-unit", "const-at-unit"], 0,
     ['check laxfunctor "const-at-unit.const-at-unit": ok']),
    (["compose", "idem-laxonly", "idem-flatten"], 0,
     ['check laxfunctor "idem-laxonly.idem-flatten": ok']),
    (["compose", "twisted-identity", "twisted-identity"], 0,
     ['check laxfunctor "twisted-identity.twisted-identity": ok']),
    (["check-icon", "idem-icon-k"], 0, ['check icon "idem-icon-k": ok']),
    (["check-icon", "twisted-icon-1"], 0, ['check icon "twisted-icon-1": ok']),
    (["check-oplax", "codiscrete-shift-a"], 0,
     ["classification: strict+pseudonatural"]),
    (["check-oplax", "idem-general"], 0, ["classification: general"]),
    (["interchange", "idem-general", "probe-at-s"], 1, []),
    (["strictness", "arrow-shift"], 0,
     ['strictness of "witness[(\'le\', 0, 1)]": strict']),
    (["costrict", "icon-as-oplax-k"], 0,
     ['costrictness of "oplax[idem-icon-k]": costrict']),
    (["costrict", "idem-general"], 1,
     ['costrictness of "idem-general": not-costrict']),
    (["costrict", "arrow-shift"], 1,
     ['costrictness of "witness[(\'le\', 0, 1)]": not-costrict']),
    (["cylinder", "walking-two-cell"], 0,
     ['cylinder over "walking-two-cell": 4 objects, 14 one-cells, 21 two-cells']),
    (["nerve", "ordinal-2", "--level", "3"], 0,
     [f"level {k}: {math.comb(k + 3, 2)} simplices, {math.comb(k + 3, 2)} morphisms"
      for k in range(4)]),
    (["equivalence", "id-walking-arrow"], 0, []),
    (["equivalence", "idem-flatten"], 1, ["equivalence: no"]),
    (["fibration", "walking-two-cell", "f1"], 1, []),
] + [(["validate", name], 0, [f'check bicategory "{name}": ok'])
     for name in ("terminal", "walking-arrow", "thickened-arrow", "parallel-pair",
                  "collapsed-two-cell", "sigma-z2", "cocycle-trivial", "sigma-idem",
                  "sigma-maxposet", "ordinal-3")]
ROUND = 100
KNOWN_FAILURE = ["costrict", "arrow-shift"]     # the only command allowed to fail


def _nerve_lines(counts):
    return [f"level {k}: {s} simplices, {m} morphisms" for k, (s, m) in enumerate(counts)]


def round_commands(rng, r, docdir):
    """The commands of round r: (argv, exit code, required lines, compose?).
    Writes the generated documents under docdir."""
    cmds = [(argv, code, lines, argv[0] == "compose") for argv, code, lines in BUNDLED]

    def doc(name, lines):
        path = docdir / f"r{r}-{name}.bc"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return ["--file", str(path)]

    def validate(file_args, name):
        cmds.append((file_args + ["validate", name], 0,
                     [f'check bicategory "{name}": ok'], False))

    def nerve(file_args, name, counts):
        level = len(counts) - 1
        cmds.append((file_args + ["nerve", name, "--level", str(level)], 0,
                     _nerve_lines(counts) +
                     [f"check simplicial identities up to truncation {level}: ok"],
                     False))

    # Z/n deloopings: valid twists are validated and their nerves counted;
    # broken ones must be refused with exit 2 and an error line
    for i in range(4):
        n = 2 if i < 2 else 3
        twist = inputs.random_twist(rng, n)
        name = f"zn{i}"
        if not expect.twist_is_cocycle(n, twist):
            raise RuntimeError(f"generated twist {twist} is not a cocycle")
        level = 2 if i == 0 else 1
        file_args = doc(name, inputs.cocycle_lines(f"{name}-data", n, twist)
                        + [inputs.build_line(name, "cocycle", f"{name}-data")])
        validate(file_args, name)
        nerve(file_args, name, [expect.cocycle_nerve_level(n, k) for k in range(level + 1)])
    for i in range(6):
        n = 2 if i < 3 else 3
        twist = inputs.broken_twist(rng, n)
        name = f"broken{i}"
        code = 0 if expect.twist_is_cocycle(n, twist) else 2
        cmds.append((doc(name, inputs.cocycle_lines(f"{name}-data", n, twist)
                         + [inputs.build_line(name, "cocycle", f"{name}-data")])
                     + ["validate", name], code,
                     [f'check bicategory "{name}": ok'] if code == 0 else ["error: "],
                     False))
    # codiscrete deloopings of two-element magmas; their level-2 nerves are
    # the heaviest quarter of the round, so that the 90th percentile sits
    # inside one kind of command.  A magma whose "e" is no unit is refused.
    for i in range(25):
        name = f"cod{i}"
        file_args = doc(name, inputs.magma_lines(f"{name}-magma", inputs.random_magma(rng, 2))
                        + [inputs.build_line(name, "codiscrete", f"{name}-magma")])
        if i < 16:
            validate(file_args, name)
        nerve(file_args, name, [expect.codiscrete_nerve_level(2, k) for k in range(3)])
    for i in range(4):
        magma = inputs.random_magma(rng, 3, unital=False)
        name = f"nonunital{i}"
        code = 0 if expect.is_unital(*magma) else 2
        cmds.append((doc(name, inputs.magma_lines(f"{name}-magma", magma)
                         + [inputs.build_line(name, "codiscrete", f"{name}-magma")])
                     + ["validate", name], code, ["error: "] if code else [], False))
    # locally discrete bicategories of posets
    shapes = ((3, 2), (3, 3), (4, 2), (4, 3))
    for i, shape in enumerate(shapes):
        p = inputs.random_poset(rng, *shape, 0)
        name = f"poset{i}"
        file_args = doc(name, inputs.poset_category_lines(f"{name}-cat", p)
                        + [inputs.build_line(name, "from_category", f"{name}-cat")])
        validate(file_args, name)
        nerve(file_args, name, [(expect.multichains(p, k),) * 2 for k in range(3)])
    if len(cmds) != ROUND:
        raise RuntimeError(f"a round has {len(cmds)} commands, not {ROUND}")
    return cmds


def check_output(out, code, want_code, want_lines):
    """(failed, correct) for one command's combined output."""
    lines = [ln for ln in out.splitlines() if not ln.startswith("perfbench-import ")]
    failed = ("Traceback (most recent call last):" in out or len(lines) < 3
              or not lines[-3].startswith("result: ") or lines[-2] != "timing:"
              or not lines[-1].startswith("  total_ms: "))
    if failed:
        return True, False
    result = {0: "pass", 1: "FAIL", 2: "error"}.get(want_code)
    correct = (code == want_code
               and lines[-3] == f"result: {result} (exit {want_code})"
               and all(any(ln.startswith(w) for ln in lines) for w in want_lines))
    return False, correct
