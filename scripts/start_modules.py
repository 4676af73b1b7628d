"""Print the bicatkit modules each command of the README loads, and what
compiling them costs.

    python3 scripts/start_modules.py

For one command per README verb over a bundled name (`corpus run-all`,
which takes no name, is left out), it runs the command in a fresh process
and prints the `bicatkit` modules loaded by its end, with the sum of their
`compile()` times, each the best of 5.  The sum is what the command pays
to compile the package from source at every start, as it does when no
bytecode is cached: the figures assume `PYTHONDONTWRITEBYTECODE=1` and a
tree without `__pycache__`, and the commands run with that setting, so
this script writes no bytecode either.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
COMMANDS = [
    ["validate", "cocycle-twisted"],
    ["classify", "twisted-identity"],
    ["compose", "const-at-unit", "const-at-unit"],
    ["check-icon", "idem-icon-k"],
    ["check-oplax", "codiscrete-shift-a"],
    ["interchange", "idem-general", "probe-at-s"],
    ["strictness", "arrow-shift"],
    ["costrict", "icon-as-oplax-k"],
    ["cylinder", "walking-two-cell"],
    ["nerve", "ordinal-2", "--level", "3"],
    ["equivalence", "id-walking-arrow"],
    ["fibration", "walking-two-cell", "f1"],
]
PROBE = """import json, os, sys
from bicatkit import cli
with open(os.devnull, "w") as sys.stdout:
    cli.main(sys.argv[1:])
sys.stdout = sys.__stdout__
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "bicatkit")))
"""


def loaded_modules(argv):
    """The bicatkit modules a fresh `bicatkit ARGV...` has loaded by its end."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    env.pop("BICATKIT_CORPUS", None)
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True,
                          text=True, env=env, check=True)
    return json.loads(proc.stdout)


def compile_ms(module):
    """The best of 5 `compile()` times of a module's source, in ms."""
    parts = module.split(".")
    path = SRC.joinpath(*parts).with_suffix(".py")
    if not path.is_file():
        path = SRC.joinpath(*parts, "__init__.py")
    source = path.read_text(encoding="utf-8")
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        compile(source, str(path), "exec")
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0


def main():
    costs = {}
    for argv in COMMANDS:
        modules = loaded_modules(argv)
        for m in modules:
            if m not in costs:
                costs[m] = compile_ms(m)
        names = " ".join(m.partition(".")[2] or m for m in modules)
        total = sum(costs[m] for m in modules)
        print(f"{' '.join(argv)}: {len(modules)} modules, compile {total:.1f} ms: {names}")


if __name__ == "__main__":
    main()
