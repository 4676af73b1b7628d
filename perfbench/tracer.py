"""Per-layer tracing from outside the program.

``install()`` replaces public functions of the ``bicatkit`` modules, wherever
a module holds a reference to them, by wrappers that record a span per call:
its name, start, end and the span that was open when it began.  Spans are
folded into totals as they close, so memory stays flat: total seconds, self
seconds (the span's duration minus its child spans), calls, and for
enumerators the items yielded and the candidates they validated.  The
hottest small functions get counting wrappers without spans.  Nothing under
``src/`` changes.
"""

from __future__ import annotations

import gc
import itertools
import sys
from collections import Counter

from refkernel import clock

# (layer name, module, attribute) for span-recording wrappers; enumerators
# are generators and are timed across every resumption.
SPANS = [
    ("laxfun.compose_lax", "laxfun", "compose_lax"),
    ("icon.hcomp_icons", "icon", "hcomp_icons"),
    ("icon.whisker_left", "icon", "whisker_icon_left"),
    ("icon.whisker_right", "icon", "whisker_icon_right"),
    ("nerve.two_nerve", "nerve", "two_nerve"),
    ("fileformat.parse_path", "fileformat", "parse_path"),
    ("bicat.validate_bicategory", "bicat", "validate_bicategory"),
    ("cli.main", "cli", "main"),
    ("oplax.is_costrict", "oplax", "is_costrict"),
    ("oplax.strictness_by_witness", "oplax", "strictness_by_witness"),
    ("cylinder.lax_cylinder", "cylinder", "lax_cylinder"),
    ("internal.is_equivalence_in_bicat2", "internal", "is_equivalence_in_bicat2"),
    ("acceptance.law_universe", "acceptance", "_law_universe"),
    ("acceptance.unit_laws", "acceptance", "_unit_laws"),
    ("acceptance.vertical_associativity", "acceptance", "_vertical_associativity"),
    ("acceptance.whisker_functoriality", "acceptance", "_whisker_functoriality"),
    ("acceptance.middle_four", "acceptance", "_middle_four"),
]
ENUMERATORS = [
    ("laxfun.enumerate_lax_functors", "laxfun", "enumerate_lax_functors"),
    ("laxfun.enumerate_two_functors", "laxfun", "enumerate_two_functors"),
    ("icon.enumerate_icons", "icon", "enumerate_icons"),
    ("catcore.enumerate_functors", "catcore", "enumerate_functors"),
    ("catcore.enumerate_nats", "catcore", "enumerate_nats"),
    ("nerve.enumerate_simplices", "nerve", "enumerate_simplices"),
]
# validators whose calls directly inside an enumerator count as candidates
VALIDATORS = [
    ("laxfun.validate_lax_functor", "laxfun", "validate_lax_functor",
     "laxfun.enumerate_lax_functors"),
    ("icon.validate_icon", "icon", "validate_icon", "icon.enumerate_icons"),
]
COUNTS = [
    ("report.sorted_ids", "report", "sorted_ids"),
    ("report.canon_key", "report", "canon_key"),
    ("icon.vcomp_icons", "icon", "vcomp_icons"),
]
CELL_OPS = ("vcomp", "hcomp", "compose1")


class Tracer:
    def __init__(self):
        self.total = Counter()
        self.self_s = Counter()
        self.calls = Counter()
        self.yielded = Counter()
        self.validated = Counter()     # enumerator -> candidates validated
        self.stack = []                # open spans: [name, child seconds]
        self.ticks = {}                # counter name -> itertools.count
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_t0 = None

    # -- span bookkeeping -------------------------------------------------
    def _open(self, name):
        frame = [name, 0.0]
        self.stack.append(frame)
        return frame

    def _close(self, frame, t0):
        self.stack.pop()
        d = clock() - t0
        name = frame[0]
        self.total[name] += d
        self.self_s[name] += d - frame[1]
        if self.stack:
            self.stack[-1][1] += d

    def span(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            frame = self._open(name)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, t0)
        return wrapper

    def enumerator(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                frame = self._open(name)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(frame, t0)
                self.yielded[name] += 1
                yield item
        return wrapper

    def validator(self, name, fn, enumerator):
        """A span that also counts the calls made directly inside
        `enumerator`: the candidates it validated."""
        stack, validated, span = self.stack, self.validated, self.span(name, fn)

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == enumerator:
                validated[enumerator] += 1
            return span(*args, **kwargs)
        return wrapper

    def counter(self, name, fn):
        """A call counter without a span, for the hottest small functions;
        several functions may share one counter."""
        tick = self.ticks.setdefault(name, itertools.count()).__next__

        def wrapper(*args):
            tick()
            return fn(*args)
        return wrapper

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = clock()
        elif self._gc_t0 is not None:
            self.gc_s += clock() - self._gc_t0
            self.gc_collections += 1
            self._gc_t0 = None

    # -- installation -----------------------------------------------------
    def install(self):
        """Wrap every listed function in every bicatkit module that holds it."""
        import bicatkit
        from bicatkit import (acceptance, bicat, catcore, cli, corpus,  # noqa: F401
                              cylinder, fileformat, icon, internal, laxfun,
                              nerve, oplax, oracles, report)
        modules = [m for n, m in sys.modules.items()
                   if n == "bicatkit" or n.startswith("bicatkit.")]

        def replace(module, attr, make):
            original = getattr(sys.modules[f"bicatkit.{module}"], attr)
            wrapped = make(original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
            for key, value in list(cli._VALIDATORS.items()):
                if value is original:
                    cli._VALIDATORS[key] = wrapped

        for name, module, attr in SPANS:
            replace(module, attr, lambda fn, name=name: self.span(name, fn))
        for name, module, attr in ENUMERATORS:
            replace(module, attr, lambda fn, name=name: self.enumerator(name, fn))
        for name, module, attr, enum in VALIDATORS:
            replace(module, attr,
                    lambda fn, name=name, enum=enum: self.validator(name, fn, enum))
        for name, module, attr in COUNTS:
            replace(module, attr, lambda fn, name=name: self.counter(name, fn))
        for op in CELL_OPS:
            setattr(bicat.FiniteBicategory, op,
                    self.counter("bicat.cell_ops", getattr(bicat.FiniteBicategory, op)))
        acceptance.CRITERIA = tuple(
            (num, slug, self.span(f"acceptance.criterion_{num}", fn))
            for num, slug, fn in acceptance.CRITERIA)
        gc.callbacks.append(self._on_gc)

    def uninstall_gc(self):
        gc.callbacks.remove(self._on_gc)

    # -- results ----------------------------------------------------------
    def metrics(self):
        """Every per-layer figure, by metric name."""
        for name, ticks in self.ticks.items():
            self.calls[name] = next(ticks)   # calls so far; count() starts at 0
        out = {}
        for num in range(1, 11):
            out[f"acceptance.criterion_{num}.s"] = self.total[f"acceptance.criterion_{num}"]
        for part in ("law_universe", "unit_laws", "vertical_associativity",
                     "whisker_functoriality", "middle_four"):
            out[f"acceptance.{part}.s"] = self.total[f"acceptance.{part}"]
        for name in ("laxfun.compose_lax", "icon.hcomp_icons"):
            out[f"{name}.s"] = self.total[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.calls"] = self.calls[name]
        out["icon.vcomp_icons.calls"] = self.calls["icon.vcomp_icons"]
        out["icon.whisker.s"] = (self.total["icon.whisker_left"]
                                 + self.total["icon.whisker_right"])
        for name, _, _ in ENUMERATORS:
            out[f"{name}.s"] = self.total[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.yielded"] = self.yielded[name]
        for name in ("laxfun.enumerate_lax_functors", "icon.enumerate_icons"):
            tried = self.validated[name]
            out[f"{name}.hit_ratio"] = self.yielded[name] / tried if tried else 0.0
        out["laxfun.validate_lax_functor.calls"] = self.calls["laxfun.validate_lax_functor"]
        out["icon.validate_icon.calls"] = self.calls["icon.validate_icon"]
        for name in ("report.sorted_ids", "report.canon_key", "bicat.cell_ops"):
            out[f"{name}.calls"] = self.calls[name]
        out["nerve.two_nerve.s"] = self.total["nerve.two_nerve"]
        for name in ("fileformat.parse_path", "bicat.validate_bicategory"):
            out[f"{name}.s"] = self.total[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.calls"] = self.calls[name]
        out["cli.main.s"] = self.total["cli.main"]
        for name in ("oplax.is_costrict", "oplax.strictness_by_witness",
                     "cylinder.lax_cylinder", "internal.is_equivalence_in_bicat2"):
            out[f"{name}.s"] = self.total[name]
        out["gc.s"] = self.gc_s
        out["gc.collections"] = self.gc_collections
        return out
