"""Batch front end: run validators and constructions over named structures.

Names are resolved in three layers — files given with --file first, then any
*.bc files in the directory named by BICATKIT_CORPUS, then the built-in
examples of `bicatkit.corpus`.  Reports go to standard output (and, with
--out, to a file): a version line, the command echo, one line per check with
witnesses, and a timing section kept last so that everything above it is
byte-reproducible.

A command imports only what its verb and its names need: each verb imports
the modules it calls; `bicatkit.fileformat` loads only when there is a
document to read (or, for `compose`, a lax functor to write), and loads the
module of a kind when a document defines a structure of that kind; a
bundled name loads `bicatkit.corpus`, whose builders import the lax-side
modules of the structures they build.

Each verb is one row of `_VERBS` (its name, help line, runner and
arguments), and the parser is built from that table.  Every ``check KIND
NAME`` line that validates a structure goes through `_check`, which runs the
kind's validator from `_VALIDATORS`.

Exit codes: 0 all checks pass; 1 a mathematical check failed (the report
carries a witness); 2 structural trouble — unknown verb or name, unparsable
file, or a query that does not apply in the given setting.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pathlib
import sys
import time

from . import __version__
from .bicat import UnsupportedSettingError, validate_bicategory, validate_monoidal
from .catcore import validate_category
from .report import StructureError, _tuplify, dump_id


def _validator(module, name):
    """The validator `name` of the module `module`, looked up when it is
    called, so that validating a bicategory loads no lax-side module."""
    return lambda obj: getattr(importlib.import_module(f"{__package__}.{module}"), name)(obj)


_VALIDATORS = {
    "category": validate_category,
    "bicategory": validate_bicategory,
    "monoidal": validate_monoidal,
    "laxfunctor": _validator("laxfun", "validate_lax_functor"),
    "icon": _validator("icon", "validate_icon"),
    "oplax": _validator("oplax", "validate_oplax"),
}


# The kinds that are both document kinds and corpus tables, in the order of
# `fileformat.KINDS`, which a bundled name is looked up in.
BUNDLED_KINDS = ("bicategory", "laxfunctor", "icon", "oplax")


class Resolver:
    """Layered name lookup: --file documents, BICATKIT_CORPUS documents, then
    `bicatkit.corpus`.  The file layers load on first use."""

    def __init__(self, file_paths=()):
        self._loaders = [lambda: self._load_paths([pathlib.Path(p) for p in file_paths])]
        env = os.environ.get("BICATKIT_CORPUS")
        if env:
            self._loaders.append(
                lambda: self._load_paths(sorted(pathlib.Path(env).glob("*.bc"))))
        self._layers = []

    @staticmethod
    def _load_paths(paths):
        """The document the files `paths` define together, or None when there
        are no files: a command given none reads no `fileformat`."""
        if not paths:
            return None
        from .fileformat import StructureFile, parse_path
        sf = StructureFile()
        for p in paths:
            parse_path(p, into=sf)
        return sf

    def _layer(self, i):
        while len(self._layers) <= i:
            self._layers.append(self._loaders[len(self._layers)]())
        return self._layers[i]

    def find(self, name, kinds=None):
        """(kind, structure) for the first layer that knows the name."""
        for i in range(len(self._loaders)):
            layer = self._layer(i)
            hit = layer.lookup(name, kinds) if layer is not None else None
            if hit is not None:
                return hit
        from . import corpus
        for kind in kinds or BUNDLED_KINDS:
            if name in corpus.TABLES.get(kind, ()):
                return kind, corpus.get(kind, name)
        wanted = " or ".join(kinds) if kinds else "structure"
        raise StructureError(f"unknown {wanted} name {name!r}")

    def one(self, name, kind):
        return self.find(name, (kind,))[1]


# ---------------------------------------------------------------------------
# report assembly

class Body(list):
    def check(self, label, report):
        """One line per check, then one line per violation with witness."""
        if report.ok:
            self.append(f"check {label}: ok")
            return True
        self.append(f"check {label}: FAIL")
        for v in report.violations:
            self.append(f"  [{v.kind}] {v.message}")
            if v.witness:
                self.append(f"    witness: {_ids(v.witness)}")
        return False


def _ids(witness):
    return "(" + ", ".join(dump_id(w) if _dumpable(w) else repr(w)
                           for w in witness) + ")"


def _dumpable(w):
    try:
        dump_id(w)
        return True
    except StructureError:
        return False


def _check(body, kind, name, obj):
    """The check line of `obj`, a `kind` named `name`, from its kind's
    validator; whether it passed."""
    return body.check(f"{kind} {dump_id(name)}", _VALIDATORS[kind](obj))


def _cell_arg(text):
    """A 1-cell id from the command line: JSON when it parses, else the
    bare string."""
    try:
        return _tuplify(json.loads(text))
    except ValueError:
        return text


# ---------------------------------------------------------------------------
# verbs

def _do_validate(args, res, body):
    kind, obj = res.find(args.name)
    if kind in ("magma", "cocycledata"):
        body.append(f"check {kind} {dump_id(args.name)}: ok (closed tables)")
        return 0
    return 0 if _check(body, kind, args.name, obj) else 1


def _do_classify(args, res, body):
    from .laxfun import classify
    fun = res.one(args.functor, "laxfunctor")
    if not _check(body, "laxfunctor", fun.name, fun):
        return 1
    c = classify(fun)
    body.append(f"classification: {c.label}")
    body.append(f"  comp cells identity: {c.comp_identity}, "
                f"invertible: {c.comp_invertible}")
    body.append(f"  unit cells identity: {c.unit_identity}, "
                f"invertible: {c.unit_invertible}")
    return 0


def _do_compose(args, res, body):
    from .fileformat import serialize_laxfunctor
    from .laxfun import compose_lax
    g = res.one(args.g, "laxfunctor")
    f = res.one(args.f, "laxfunctor")
    if f.target is not g.source and f.target != g.source:
        raise StructureError(
            f"cannot compose: {dump_id(g.name)} starts at "
            f"{dump_id(g.source.name)} but {dump_id(f.name)} ends at "
            f"{dump_id(f.target.name)}")
    h = compose_lax(g, f)
    body.append(f"compose {dump_id(g.name)} after {dump_id(f.name)} "
                f"= {dump_id(h.name)}")
    ok = _check(body, "laxfunctor", h.name, h)
    body.extend(serialize_laxfunctor(h))
    return 0 if ok else 1


def _do_check_icon(args, res, body):
    icon = res.one(args.icon, "icon")
    return 0 if _check(body, "icon", icon.name, icon) else 1


def _do_check_oplax(args, res, body):
    from .oplax import classify_oplax
    u = res.one(args.transformation, "oplax")
    if not _check(body, "oplax", u.name, u):
        return 1
    c = classify_oplax(u)
    body.append(f"classification: {c.label}")
    return 0


def _do_interchange(args, res, body):
    from .oplax import interchange_check
    beta = res.one(args.beta, "oplax")
    alpha = res.one(args.alpha, "oplax")
    h, f = beta.source, alpha.source
    if h.source is not f.target and h.source != f.target:
        raise StructureError(
            f"cannot interchange: {dump_id(beta.name)} starts at "
            f"{dump_id(h.source.name)} but {dump_id(alpha.name)} ends at "
            f"{dump_id(f.target.name)}")
    report = interchange_check(beta, alpha)
    label = f"interchange {dump_id(beta.name)} with {dump_id(alpha.name)}"
    return 0 if body.check(label, report) else 1


def _do_strictness(args, res, body):
    from .oplax import strictness_by_witness
    u = res.one(args.transformation, "oplax")
    verdict = strictness_by_witness(u)
    body.append(f"strictness of {dump_id(u.name)}: {verdict.verdict}")
    for f in verdict.witnesses:
        body.append(f"  witness probe at 1-cell: {dump_id(f)}")
    return 0 if verdict.strict else 1


def _do_costrict(args, res, body):
    from .oplax import is_costrict
    u = res.one(args.transformation, "oplax")
    verdict = is_costrict(u)
    body.append(f"costrictness of {dump_id(u.name)}: {verdict.verdict}")
    if verdict.costrict:
        body.append(f"  certified against a battery of "
                    f"{verdict.battery_checked} transformations")
        return 0
    for name, kind, witness in verdict.battery_failures:
        body.append(f"  battery failure against {dump_id(name)}: "
                    f"[{kind}] witness: {_ids(witness)}")
    if verdict.refutation is not None:
        r = verdict.refutation
        body.append(f"  cylinder refutation against {dump_id(r.beta.name)}: "
                    f"witness: {_ids((r.witness,))}")
        body.append(f"  replay holds: {not r.replay().ok}")
    return 1


def _do_cylinder(args, res, body):
    from .cylinder import lax_cylinder
    b = res.one(args.two_category, "bicategory")
    cyl = lax_cylinder(b)
    t = cyl.total
    n1 = sum(len(c.objects) for c in t.homs.values())
    n2 = sum(len(c.morphisms) for c in t.homs.values())
    body.append(f"cylinder over {dump_id(b.name)}: {len(t.objects)} objects, "
                f"{n1} one-cells, {n2} two-cells")
    parts = (("bicategory", t), ("laxfunctor", cyl.bottom), ("laxfunctor", cyl.top),
             ("oplax", cyl.crossing))
    # a list, not a generator, so that every part gets its check line
    return 0 if all([_check(body, kind, x.name, x) for kind, x in parts]) else 1


def _do_nerve(args, res, body):
    from .nerve import two_nerve
    b = res.one(args.bicategory, "bicategory")
    try:
        nerve = two_nerve(b, args.level)
    except ValueError as e:
        raise StructureError(str(e))
    for k in range(args.level + 1):
        level = nerve.levels[k]
        body.append(f"level {k}: {len(level.objects)} simplices, "
                    f"{len(level.morphisms)} morphisms")
    body.append(f"face maps: {len(nerve.face)}, "
                f"degeneracy maps: {len(nerve.degeneracy)}")
    label = f"simplicial identities up to truncation {args.level}"
    return 0 if body.check(label, nerve.report) else 1


def _do_equivalence(args, res, body):
    from .internal import is_equivalence_in_bicat2
    fun = res.one(args.functor, "laxfunctor")
    verdict = is_equivalence_in_bicat2(fun)
    for part in verdict.certified:
        body.append(f"check {part}: ok")
    if verdict.verdict:
        body.append(f"equivalence: yes — {dump_id(fun.name)} is invertible "
                    f"up to invertible transformations")
        return 0
    body.append(f"check {verdict.failing}: FAIL")
    if verdict.witness:
        body.append(f"  witness: {_ids(verdict.witness)}")
    body.append(f"equivalence: no")
    return 1


def _do_fibration(args, res, body):
    from .internal import fibration_report
    b = res.one(args.two_category, "bicategory")
    p = _cell_arg(args.one_cell)
    if p not in b.one_cells():
        raise StructureError(f"{dump_id(b.name)} has no 1-cell {dump_id(p)}")
    report = fibration_report(b, p)
    label = f"fibration over {dump_id(p)} in {dump_id(b.name)}"
    return 0 if body.check(label, report) else 1


def _do_corpus(args, res, body):
    from .acceptance import run_all
    rows, failures = run_all(), 0
    for num, slug, ok, detail in rows:
        status = "pass" if ok else "FAIL"
        body.append(f"criterion {num} ({slug}): {status} — {detail}")
        failures += 0 if ok else 1
    body.append(f"criteria passed: {len(rows) - failures}/{len(rows)}")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# entry point

# Each verb: its name, its help line, its runner and its arguments, each a
# bare name or (name, options of `add_argument`).
_VERBS = (
    ("validate", "run the validator of a named structure", _do_validate, ["name"]),
    ("classify", "strict/normal/homomorphism/lax verdict", _do_classify, ["functor"]),
    ("compose", "compose two functors (g after f)", _do_compose, ["g", "f"]),
    ("check-icon", "validate an icon", _do_check_icon, ["icon"]),
    ("check-oplax", "validate an oplax transformation", _do_check_oplax, ["transformation"]),
    ("interchange", "check interchange of beta against alpha", _do_interchange,
     ["beta", "alpha"]),
    ("strictness", "decide strictness by arrow-witness probes", _do_strictness,
     ["transformation"]),
    ("costrict", "decide whether a transformation behaves as an icon", _do_costrict,
     ["transformation"]),
    ("cylinder", "build and validate the cylinder over a 2-category", _do_cylinder,
     [("two_category", {"metavar": "two-category"})]),
    ("nerve", "level counts and simplicial identities", _do_nerve,
     ["bicategory", ("--level", {"type": int, "default": 3,
                                 "help": "truncation level (0..4, default 3)"})]),
    ("equivalence", "decide invertibility up to invertible icons", _do_equivalence,
     ["functor"]),
    ("fibration", "check the lifting property over a 1-cell", _do_fibration,
     [("two_category", {"metavar": "two-category"}),
      ("one_cell", {"metavar": "one-cell",
                    "help": "a 1-cell id: bare string or JSON (arrays for tuples)"})]),
    ("corpus", "operations on the bundled corpus", _do_corpus,
     [("action", {"choices": ["run-all"]})]),
)


def _parser():
    top = argparse.ArgumentParser(
        prog="bicatkit",
        description="Validate and transform finite bicategorical structures.")
    top.add_argument("--file", "-f", action="append", default=[],
                     metavar="PATH", help="load definitions from a document "
                     "(repeatable; highest precedence)")
    top.add_argument("--out", metavar="PATH",
                     help="also write the report to a file")
    sub = top.add_subparsers(dest="verb", required=True)
    for verb, help_line, run, arguments in _VERBS:
        p = sub.add_parser(verb, help=help_line)
        for arg in arguments:
            name, options = (arg, {}) if isinstance(arg, str) else arg
            p.add_argument(name, **options)
        p.set_defaults(run=run)
    return top


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
    t0 = time.perf_counter()
    body = Body()
    out = None
    try:
        if args.out:  # fail before the run when the report cannot be written
            open(args.out, "a").close()
            out = args.out
        res = Resolver(args.file)
        code = args.run(args, res, body)
    except StructureError as e:
        body.append(f"error: {e}")
        code = 2
    except UnsupportedSettingError as e:
        body.append(f"error: not applicable in this setting: {e}")
        code = 2
    except OSError as e:
        body.append(f"error: {e}")
        code = 2
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    result = {0: "pass", 1: "FAIL", 2: "error"}[code]
    lines = [f"bicatkit {__version__}",
             "command: " + " ".join(argv),
             *body,
             f"result: {result} (exit {code})",
             "timing:",
             f"  total_ms: {elapsed_ms:.1f}"]
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out:
        pathlib.Path(out).write_text(text, encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
