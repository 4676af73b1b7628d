"""One `bicatkit` command in a fresh process, as the cli workload runs it.

    python3 perfbench/cmd.py ARGS...

Behaves as `bicatkit ARGS...` (same report, same exit code).  It first
writes a line `perfbench-import T0 T1` to standard error, the perf_counter
readings around `import bicatkit.cli`.  With PERFBENCH_TRACE naming a file,
it traces the command and writes the per-layer figures there as JSON.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
import bicatkit.cli  # noqa: E402
t1 = time.perf_counter()
print(f"perfbench-import {t0!r} {t1!r}", file=sys.stderr, flush=True)

trace_path = os.environ.get("PERFBENCH_TRACE")
tracer = None
if trace_path:
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
try:
    code = bicatkit.cli.main(sys.argv[1:])
finally:
    if tracer is not None:
        tracer.uninstall_gc()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"layers": tracer.metrics(), "import_s": t1 - t0,
                       "validated": dict(tracer.validated),
                       "yielded": dict(tracer.yielded)}, fh)
sys.exit(code)
