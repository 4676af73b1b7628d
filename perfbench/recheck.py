"""Re-parse the lax functors printed by `bicatkit compose`.

    python3 perfbench/recheck.py REPORT...

Each report's `laxfunctor ... end` block is parsed after the bundled
documents that define its source and target, and the parsed functor is
validated.  Prints one line per report, `ok` or `FAIL <reason>`.
"""

import pathlib
import sys

from bicatkit.fileformat import StructureError, parse
from bicatkit.laxfun import validate_lax_functor

BUNDLE = pathlib.Path(sys.modules["bicatkit.fileformat"].__file__).parent / "data"


def recheck(report):
    lines = report.splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith("laxfunctor "))
    end = lines.index("end", start)
    block = "\n".join(lines[start:end + 1]) + "\n"
    name = block.split('"')[1]
    text = "".join(p.read_text(encoding="utf-8") for p in sorted(BUNDLE.glob("*.bc")))
    sf = parse(text + "\n" + block, source="compose-output")
    rep = validate_lax_functor(sf.get("laxfunctor", name))
    return "ok" if rep.ok else f"FAIL {rep.summary()}"


def main(paths):
    for path in paths:
        try:
            print(recheck(pathlib.Path(path).read_text(encoding="utf-8")))
        except (StructureError, StopIteration, ValueError, IndexError, KeyError) as e:
            print(f"FAIL {type(e).__name__}: {e}")


if __name__ == "__main__":
    main(sys.argv[1:])
