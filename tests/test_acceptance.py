"""The ten bundled acceptance checks, one test and one verdict line each."""

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
    return {"vertical": lambda: acceptance._vertical_associativity(icons, rng),
            "whisker": lambda: acceptance._whisker_functoriality(bics, fams, icons, rng),
            "middle-four": lambda: acceptance._middle_four(bics, fams, icons, rng)}


def _corrupt_once(monkeypatch, name, call):
    """Make the acceptance suite's `name` return, at its `call`-th call
    (from 0), an icon with one cell replaced by a value that is no 2-cell."""
    real, calls = getattr(acceptance, name), itertools.count()

    def corrupted(*args):
        icon = real(*args)
        if next(calls) == call:
            x = next(iter(icon.cells))
            icon.cells = {**icon.cells, x: ("corrupt", icon.cells[x])}
        return icon
    monkeypatch.setattr(acceptance, name, corrupted)


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
