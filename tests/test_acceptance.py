"""The ten bundled acceptance checks, one test and one verdict line each."""

import hashlib
import itertools
import random

import pytest

from bicatkit import acceptance

_SLUGS = {num: slug for num, slug, _ in acceptance.CRITERIA}


@pytest.fixture(scope="module")
def rows():
    return {num: (ok, detail)
            for num, _, ok, detail in acceptance.run_all()}


@pytest.mark.parametrize(
    "num", sorted(_SLUGS), ids=[f"{n}-{_SLUGS[n]}" for n in sorted(_SLUGS)])
def test_criterion(num, rows):
    ok, detail = rows[num]
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} ({_SLUGS[num]}): {detail}"


def test_every_criterion_reports():
    assert sorted(_SLUGS) == list(range(1, 11))
    assert len({slug for slug in _SLUGS.values()}) == 10


# ---------------------------------------------------------------------------
# the criterion-2 law checks must notice a corrupted composite

_SUB = ("cocycle-twisted", "sigma-idem")


@pytest.fixture(scope="module")
def sub_universe():
    """The `_law_universe` restricted to two of its bicategories."""
    bics, fams, icons = acceptance._law_universe()
    pairs = [(s, t) for s in _SUB for t in _SUB]
    return ({name: bics[name] for name in _SUB}, {p: fams[p] for p in pairs},
            {p: icons[p] for p in pairs})


def _parts(sub_universe):
    bics, fams, icons = sub_universe
    rng = random.Random(20260814)
    return {"vertical": lambda: acceptance._vertical_associativity(bics, icons, rng),
            "whisker": lambda: acceptance._whisker_functoriality(bics, fams, icons, rng),
            "middle-four": lambda: acceptance._middle_four(bics, fams, icons, rng)}


# the cell kernel that each icon operation wraps, which criterion 2 calls
_KERNELS = {"vcomp_icons": "vcomp_cells", "hcomp_icons": "hcomp_cells",
            "whisker_icon_left": "whisker_left_cells", "whisker_icon_right": "whisker_right_cells"}


def _corrupt_once(monkeypatch, name, call):
    """Make the acceptance suite's kernel of the icon operation `name`
    return, at its `call`-th call (from 0), a row with its first entry
    replaced by a value that is no 2-cell."""
    kernel = _KERNELS[name]
    real, calls = getattr(acceptance, kernel), itertools.count()

    def corrupted(*args):
        row = real(*args)
        if next(calls) == call:
            row = (("corrupt", row[0]), *row[1:])
        return row
    monkeypatch.setattr(acceptance, kernel, corrupted)


def test_law_checks_hold_on_the_sub_universe(sub_universe):
    for part, run in _parts(sub_universe).items():
        checked, err = run()
        assert err is None and checked > 0, part


@pytest.mark.parametrize("part, name, call, message", [
    # the outer composite of the first triple's left-hand side
    ("vertical", "vcomp_icons", 1, "vertical associativity fails"),
    # the left-hand side of the first left and of the first right instance,
    # and the right-hand side of the first instance
    ("whisker", "whisker_icon_left", 0, "left whiskering not functorial"),
    ("whisker", "whisker_icon_right", 0, "right whiskering not functorial"),
    ("whisker", "vcomp_icons", 1, "whiskering not functorial"),
    # the horizontal composite, and the vertical composite of either side
    ("middle-four", "hcomp_icons", 0, "middle-four interchange fails"),
    ("middle-four", "vcomp_icons", 0, "middle-four interchange fails"),
    ("middle-four", "vcomp_icons", 1, "middle-four interchange fails"),
])
def test_law_checks_catch_one_corrupted_cell(sub_universe, monkeypatch, part, name, call,
                                             message):
    _corrupt_once(monkeypatch, name, call)
    checked, err = _parts(sub_universe)[part]()
    assert err is not None and message in err, (part, name, err)


_COUNTED = ("vcomp_cells", "hcomp_cells", "whisker_left_cells", "whisker_right_cells",
            "identity_icon")


def _count_calls(monkeypatch):
    """Count the acceptance suite's calls of the icon algebra's cell
    kernels and of `identity_icon`, by name."""
    calls = dict.fromkeys(_COUNTED, 0)
    for name in _COUNTED:
        def counted(*args, real=getattr(acceptance, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(acceptance, name, counted)
    return calls


def _out_of(fam):
    out = {}
    for i, j, cells in fam:
        out.setdefault(i, []).append((j, cells))
    return out


def _expected_calls(part, sub_universe):
    """The calls each part makes when it builds every composite once per
    step of its outer loops, counted from the families alone: a part meets
    each (a, mid) of a family once per loop over it, each (a, h) once per
    side, each lax functor once in the identity whiskers, and each (alpha,
    g) once in middle-four; every other call is one per law instance."""
    bics, fams, icons = sub_universe
    calls = dict.fromkeys(_COUNTED, 0)
    instances = 0
    if part == "vertical":
        for fam in icons.values():
            out_of = _out_of(fam)
            for _, j, _ in fam:
                for k, _ in out_of.get(j, ()):
                    if k in out_of:  # mid . a once, then three per triple
                        calls["vcomp_cells"] += 1 + 3 * len(out_of[k])
                        instances += len(out_of[k])
    elif part == "whisker":
        for (s, t), fam in icons.items():
            if not fam:
                continue
            sides = {"whisker_left_cells": [h for d in bics for h in fams[(t, d)]],
                     "whisker_right_cells": [e for c in bics for e in fams[(c, s)]]}
            out_of = _out_of(fam)
            mids = [len(out_of.get(j, ())) for _, j, _ in fam]
            pairs, starts = sum(mids), sum(1 for n in mids if n)
            for name, funs in sides.items():
                if funs and pairs:
                    # mid . a once per (a, mid), a whiskered once per (a, h); the
                    # composite's and mid's whiskers and their composite per instance
                    calls["vcomp_cells"] += pairs + pairs * len(funs)
                    calls[name] += starts * len(funs) + 2 * pairs * len(funs)
                    instances += pairs * len(funs)
                # the identity whiskers
                calls[name] += len(fams[(s, t)]) * len(funs)
                instances += len(fams[(s, t)]) * len(funs)
            calls["identity_icon"] += len(fams[(s, t)]) if any(sides.values()) else 0
    else:
        for t in bics:
            ins = sum(len(icons[(s, t)]) for s in bics)
            outs = sum(len(icons[(t, d)]) for d in bics)
            if ins and outs:
                n = ins * outs
                calls["vcomp_cells"] += 2 * n
                calls["hcomp_cells"] += n
                calls["whisker_right_cells"] += 2 * n
                # each alpha whiskered by each lax functor an icon out of t runs between
                ends = {(d, i) for d in bics for k, ll, _ in icons[(t, d)] for i in (k, ll)}
                calls["whisker_left_cells"] += ins * len(ends)
                instances += n
    return calls, instances


@pytest.mark.parametrize("part, instances", [
    ("vertical", 1270), ("whisker", 5508), ("middle-four", 2398)])
def test_each_part_builds_each_composite_once_per_loop_step(sub_universe, monkeypatch,
                                                             part, instances):
    calls = _count_calls(monkeypatch)
    checked, err = _parts(sub_universe)[part]()
    assert err is None and checked == instances
    assert (calls, checked) == _expected_calls(part, sub_universe)


# ---------------------------------------------------------------------------
# the instances criterion 2 checks, the sampled ones included

_DRAWN_SHA256 = "78c0205b34b32a3f5453d9dbeed1f56e4a103602cc8f46007cb980fc701df4d0"
_DRAWING_PARTS = {"_vertical_associativity": "vertical",
                  "_whisker_functoriality": "whisker", "_middle_four": "middle-four"}


def _drawn_instances(monkeypatch):
    """Run `criterion_2` and return its verdict and the sha256 and count of
    the instances its parts draw through `_take`, in order.  Each instance
    is recorded as its part and, for each universe member in it, the
    member's family key and index; in the whisker part, each lax functor
    in it (the whiskering one, and in the identity whiskers also the one
    whose identity icon is whiskered) adds its family key and index, and
    the side is kept.  Members and lax functors are told apart by
    identity, so the record does not depend on how an instance is
    packaged."""
    _, fams, icons = acceptance._law_universe()
    members = {id(m[2]): ("icon", key, n) for key, fam in icons.items()
               for n, m in enumerate(fam)}
    funs = {id(f): ("fun", key, n) for key, fam in fams.items() for n, f in enumerate(fam)}
    digest, count, part = hashlib.sha256(), [0], [None]

    def labels(x):
        if isinstance(x, tuple) and id(x) not in members:
            return [label for y in x for label in labels(y)]
        if id(x) in members:
            return [members[id(x)]]
        if id(x) in funs and part[0] == "whisker":
            return [funs[id(x)]]
        return [x] if isinstance(x, str) else []

    def take(*args, real=acceptance._take):
        for instance in real(*args):
            digest.update(repr((part[0], labels(instance))).encode())
            count[0] += 1
            yield instance

    def entered(name, real):
        def run(*args):
            part[0] = _DRAWING_PARTS[name]
            return real(*args)
        return run

    monkeypatch.setattr(acceptance, "_take", take)
    for name in _DRAWING_PARTS:
        monkeypatch.setattr(acceptance, name, entered(name, getattr(acceptance, name)))
    ok, _ = acceptance.criterion_2()
    return ok, digest.hexdigest(), count[0]


def test_criterion_2_draws_the_same_instances(monkeypatch):
    """The instances criterion 2 checks, which its count alone does not
    pin: a change that draws other samples of the same size prints the same
    line."""
    assert _drawn_instances(monkeypatch) == (True, _DRAWN_SHA256, 388837)
