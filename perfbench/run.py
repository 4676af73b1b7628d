"""Benchmark driver for bicatkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Starts one child process at a time: the
workload process (acceptance, search) or one `bicatkit` command after another
(cli), all pinned with the driver to one CPU.  Times are reference-scaled
seconds (see refkernel.py); the raw seconds are printed beside them on
standard error.  The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
when --trace is 0 and the per-layer metrics of a traced run when it is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from refkernel import Stretches, clock  # noqa: E402

SETUP_REPEATS = 5            # timed fresh set-up processes per run
ROUND_S = {"acceptance": 60.0, "search": 1.6, "cli": 25.0}   # nominal, for --seconds


def percentile(values, q):
    """Nearest-rank percentile.  The median (cmd_p50_ms) is taken with
    statistics.median instead, which interpolates between the middle two of
    an even count, so that two operations trading places there do not move
    it."""
    ordered = sorted(values)
    k = max(1, -(-len(ordered) * q // 100))
    return ordered[int(k) - 1]


def run_child(argv, env, cwd):
    """Run one child process to its end: (start, end, exit code, combined
    output, resource usage)."""
    start = clock()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return start, clock(), proc.returncode, out.decode("utf-8", "replace"), usage


class Bench:
    def __init__(self, args, root):
        self.args, self.root = args, root
        self.tmp = pathlib.Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=root))
        self.env = dict(os.environ,
                        PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]),
                        PYTHONHASHSEED="0")
        self.env.pop("PERFBENCH_TRACE", None)
        self.stretches = Stretches()

    def child(self, argv, env=None):
        return run_child([sys.executable, *argv], env or self.env, self.root)

    def timed_child(self, argv, env=None):
        """A child bracketed by kernel samples: (start, end, code, out,
        usage, scale factor of its stretch)."""
        if not self.stretches.kernels:
            self.stretches.sample()
        start, end, code, out, usage = self.child(argv, env)
        self.stretches.sample()
        factor = self.stretches.scaled(start, end) / (end - start)
        return start, end, code, out, usage, factor

    def rounds(self):
        return max(1, round(self.args.seconds / ROUND_S[self.args.workload]))

    # -- acceptance and search: one workload process ------------------------
    def run_process_workload(self):
        a = self.args
        base = [str(HERE / "workload.py"), a.workload, str(a.seed), str(self.rounds())]
        out_path = self.tmp / "result.json"
        setup = self._setup_samples(base, out_path)
        _, _, code, out, usage = self.child(base + [str(a.trace), str(out_path)])
        if code != 0:
            raise SystemExit(f"workload process failed (exit {code}):\n{out}")
        res = json.loads(out_path.read_text(encoding="utf-8"))
        ops = res["ops"]
        self._report_ops(ops)
        self.report_raw(run_raw_s=res["run_raw_s"], setup_raw_s=setup[1])
        wrong = [label for label, _, _, ok in ops if not ok] + res["failures"]
        # The workload process is one request, not a stream of `bicatkit`
        # commands: the command latency metrics report it whole.
        metrics = {
            "setup_s": (setup[0], "s"),
            "run_s": (res["run_s"], "s"),
            "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
            "cmd_p50_ms": (res["run_s"] * 1000.0, "ms"),
            "cmd_p90_ms": (res["run_s"] * 1000.0, "ms"),
        }
        layers = res.get("layers", {})
        if layers:
            layers["trace.run_s"] = res["run_s"]
            layers["cli.import_s"] = res.get("import_s", 0.0)
        return wrong, len(ops), 0, metrics, layers

    def _report_ops(self, ops):
        """Operation latencies, on standard error: each criterion of
        `acceptance`; the median and 90th percentile of the enumerator calls
        of `search`."""
        if self.args.workload == "acceptance":
            for label, scaled, raw, _ in ops:
                print(f"{label}: {scaled:.4f} s scaled, {raw:.4f} s raw", file=sys.stderr)
            return
        scaled = [s * 1000.0 for _, s, _, _ in ops]
        raw = [r * 1000.0 for _, _, r, _ in ops]
        print(f"operations: {len(ops)}; p50 {statistics.median(scaled):.2f} ms scaled, "
              f"{statistics.median(raw):.2f} ms raw; p90 {percentile(scaled, 90):.2f} ms "
              f"scaled, {percentile(raw, 90):.2f} ms raw", file=sys.stderr)

    def _setup_samples(self, base, out_path):
        """Median set-up time of fresh processes: (scaled, raw).  The first
        process only warms the bytecode caches and is not counted."""
        self.child(base + ["0", str(out_path), "--setup-only"])
        scaled, raw = [], []
        for _ in range(SETUP_REPEATS):
            start, _, code, out, _, factor = self.timed_child(
                base + ["0", str(out_path), "--setup-only"])
            if code != 0:
                raise SystemExit(f"set-up process failed (exit {code}):\n{out}")
            ready = json.loads(out_path.read_text(encoding="utf-8"))["ready"]
            raw.append(ready - start)
            scaled.append((ready - start) * factor)
        return statistics.median(scaled), statistics.median(raw)

    # -- cli: one process per command ---------------------------------------
    def run_cli(self):
        import cliwork

        rng = random.Random(self.args.seed)
        docdir = self.tmp / "docs"
        docdir.mkdir()
        cmds = [c for r in range(self.rounds())
                for c in cliwork.round_commands(rng, r, docdir)]
        self.child([str(HERE / "cmd.py"), "validate", "terminal"])   # warm caches
        lat, raw_lat, setup, raw_setup, rss = [], [], [], [], 0
        failed, wrong, composed = 0, [], []
        layers, traces = {}, []
        for i, (argv, want_code, want_lines, is_compose) in enumerate(cmds):
            env = self.env
            if self.args.trace:
                trace_path = self.tmp / f"trace{i}.json"
                env = dict(self.env, PERFBENCH_TRACE=str(trace_path))
                traces.append(trace_path)
            start, end, code, out, usage, factor = self.timed_child(
                [str(HERE / "cmd.py"), *argv], env)
            rss = max(rss, usage.ru_maxrss)
            lat.append((end - start) * factor * 1000.0)
            raw_lat.append((end - start) * 1000.0)
            marker = next((ln for ln in out.splitlines()
                           if ln.startswith("perfbench-import ")), None)
            if marker is not None:
                imported = float(marker.split()[2])
                setup.append((imported - start) * factor)
                raw_setup.append(imported - start)
            is_failed, ok = cliwork.check_output(out, code, want_code, want_lines)
            if is_failed:
                failed += 1
                if argv != cliwork.KNOWN_FAILURE:
                    wrong.append(f"{' '.join(argv)} failed:\n{out}")
                continue
            if not ok:
                wrong.append(" ".join(argv))
            if is_compose:
                path = self.tmp / f"compose{i}.txt"
                path.write_text(out, encoding="utf-8")
                composed.append((path, " ".join(argv)))
        wrong += self._recheck(composed)
        self.report_raw(run_raw_s=sum(raw_lat) / 1000.0,
                        setup_raw_s=statistics.median(raw_setup),
                        cmd_p50_raw_ms=statistics.median(raw_lat),
                        cmd_p90_raw_ms=percentile(raw_lat, 90))
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "run_s": (sum(lat) / 1000.0, "s"),
            "peak_rss_mb": (rss / 1024.0, "MB"),
            "cmd_p50_ms": (statistics.median(lat), "ms"),
            "cmd_p90_ms": (percentile(lat, 90), "ms"),
        }
        if traces:
            layers = self._merge_traces(traces)
            layers["trace.run_s"] = sum(lat) / 1000.0
        return wrong, len(cmds), failed, metrics, layers

    def _recheck(self, composed):
        if not composed:
            return []
        _, _, code, out, _ = self.child([str(HERE / "recheck.py"),
                                         *[str(p) for p, _ in composed]])
        verdicts = out.splitlines()
        if code != 0 or len(verdicts) != len(composed):
            return ["compose re-check did not run"]
        return [f"re-parse of {argv}: {v}" for (_, argv), v in zip(composed, verdicts)
                if v != "ok"]

    @staticmethod
    def _merge_traces(paths):
        """Per-layer figures summed over the command processes; cli.import_s
        is the median import time."""
        total, imports, validated, yielded = {}, [], {}, {}
        for path in paths:
            if not path.exists():
                continue
            t = json.loads(path.read_text(encoding="utf-8"))
            for k, v in t["layers"].items():
                total[k] = total.get(k, 0) + v
            imports.append(t["import_s"])
            for src, dst in ((t["validated"], validated), (t["yielded"], yielded)):
                for k, v in src.items():
                    dst[k] = dst.get(k, 0) + v
        for name in ("laxfun.enumerate_lax_functors", "icon.enumerate_icons"):
            tried = validated.get(name, 0)
            total[f"{name}.hit_ratio"] = yielded.get(name, 0) / tried if tried else 0.0
        total["cli.import_s"] = statistics.median(imports)
        return total

    @staticmethod
    def report_raw(**figures):
        print("raw (not reference-scaled): " + json.dumps(
            {k: round(v, 6) for k, v in figures.items()}), file=sys.stderr)


def layer_unit(name):
    if name.endswith(".hit_ratio"):
        return "ratio"
    if name.endswith((".s", ".self_s")) or name in ("cli.import_s", "trace.run_s"):
        return "s"
    return "count"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUND_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=8)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = pathlib.Path.cwd()
    if not (root / "src" / "bicatkit" / "cli.py").is_file():
        sys.exit("error: run from the root of a bicatkit checkout "
                 "(src/bicatkit/cli.py not found)")
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    bench = Bench(args, root)
    try:
        if args.workload == "cli":
            wrong, attempted, failed, metrics, layers = bench.run_cli()
        else:
            wrong, attempted, failed, metrics, layers = bench.run_process_workload()
    finally:
        shutil.rmtree(bench.tmp, ignore_errors=True)
    for item in wrong:
        print(f"incorrect: {item}", file=sys.stderr)
    if args.trace:
        out = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
    else:
        out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    for name, m in out.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": out}))


if __name__ == "__main__":
    main()
