"""The law listings of lax functors and icons against `reference_laws.py`.

`lax_laws` and `icon_laws` must list the reference's instances, in its
order, each with the same cells, reads, kind and message, and every
instance must give the reference's verdict on every subject.  The subjects
are the lax functors and icons between the bicategories of `_PAIRS`, and
every single-cell corruption of them: one comparison, unit comparison or
icon cell replaced by another 2-cell of its hom.  Where a corruption leaves
a composite undefined, both must raise.

The subjects are found by the search kernel under the reference listings,
so a fault in the listings under test cannot change them; they are the lax
functors and icons of criterion 2's law universe between those pairs.
"""

import collections

import pytest

import reference_laws as ref
from bicatkit import corpus
from bicatkit.acceptance import _law_universe
from bicatkit.icon import Icon, _family, icon_laws, validate_icon_pair
from bicatkit.laxfun import LaxFunctor, comparison_cells, lax_laws, lax_variables, unit_cells
from bicatkit.search import compile_plan, run

# The pairs of the `sub_universe` fixture of test_acceptance.py, and two
# pairs whose source has two objects, so that its hom pairs differ.
_SUB = ("cocycle-twisted", "sigma-idem")
_PAIRS = [(s, t) for s in _SUB for t in _SUB] + [("walking-two-cell", "walking-two-cell"),
                                                 ("parallel-pair", "sigma-maxposet")]


def _lax_functors(s, t):
    """The lax functors s -> t, as `enumerate_lax_functors` finds them,
    under the reference listing."""
    plan = compile_plan(lax_variables(s, t, comparison_cells, unit_cells), ref.lax_laws(s))
    draft = LaxFunctor("enum", s, t, {}, {}, {}, {})
    return [LaxFunctor("enum", s, t, dict(draft.object_map), dict(draft.hom_functors),
                       dict(draft.comp_constraints), dict(draft.unit_constraints))
            for _ in run(plan, draft)]


def _icons(s, funs):
    """The icons between each ordered pair of `funs`, as `enumerate_icons`
    finds them, under the reference listing."""
    families = [_family(pair, s.homs[pair]) for pair in s.sorted_homs]
    plan = compile_plan([v for listed, _ in families for v in listed],
                        tuple(ref.icon_laws(s)) + tuple(sq for _, listed in families
                                                        for sq in listed))
    found = []
    for f in funs:
        for g in funs:
            if validate_icon_pair(f, g).ok:
                draft = Icon("enum", f, g, {}, dict.fromkeys(s.sorted_homs, "enum"))
                found += [Icon("enum", f, g, dict(draft.cells), dict(draft.families))
                          for _ in run(plan, draft)]
    return found


@pytest.fixture(scope="module")
def subjects():
    """(source, lax functors, icons) for each pair of `_PAIRS`."""
    found = {}
    for s, t in _PAIRS:
        source = corpus.get("bicategory", s)
        funs = _lax_functors(source, corpus.get("bicategory", t))
        found[(s, t)] = source, funs, _icons(source, funs)
    return found


def _verdict(holds, subject, cells):
    try:
        return holds(subject, *cells)
    except (KeyError, ValueError):  # a composite that is not defined
        return "raises"


def _agree(laws, reference, subjects):
    """Assert that the two listings agree entry for entry and that each
    instance gives the same verdict from both on every subject; return the
    count of each verdict."""
    laws, reference = list(laws), list(reference)
    assert [law[1:] for law in laws] == [law[1:] for law in reference]
    verdicts = collections.Counter()
    for subject in subjects:
        for law, ref_law in zip(laws, reference):
            got = _verdict(law[0], subject, law[1])
            assert got == _verdict(ref_law[0], subject, law[1]), (subject.name, law[1:4])
            verdicts[got] += 1
    return verdicts


def _others(t, cell):
    """The 2-cells of the hom of `cell` in t other than `cell`."""
    return [c for c in t.homs[t.home2(cell)].sorted_morphisms if c != cell]


def _corrupted_lax(f):
    """f, then each lax functor that differs from f in one comparison or
    one unit comparison."""
    yield f
    for field in ("comp_constraints", "unit_constraints"):
        table = getattr(f, field)
        for key, cell in table.items():
            for other in _others(f.target, cell):
                fields = {"comp_constraints": f.comp_constraints,
                          "unit_constraints": f.unit_constraints, field: {**table, key: other}}
                yield LaxFunctor(f"{f.name}[{key!r}]", f.source, f.target, f.object_map,
                                 f.hom_functors, **fields)


def _corrupted_icons(icon):
    """The icon, then each icon that differs from it in one cell."""
    yield icon
    for x, cell in icon.cells.items():
        for other in _others(icon.bicategory, cell):
            yield Icon(f"{icon.name}[{x!r}]", icon.source, icon.target,
                       {**icon.cells, x: other}, icon.families)


def test_the_subjects_are_those_of_the_law_universe(subjects):
    bics, fams, icons = _law_universe()
    for pair, (_, funs, found) in subjects.items():
        assert funs == fams[pair], pair
        assert [tuple(ic.cells[x] for x in bics[pair[0]].one_cells()) for ic in found] \
            == [row for _, _, row in icons[pair]], pair


def test_lax_laws_give_the_reference_verdicts(subjects):
    verdicts = collections.Counter()
    for s, funs, _ in subjects.values():
        verdicts += _agree(lax_laws(s), ref.lax_laws(s),
                           [g for f in funs for g in _corrupted_lax(f)])
    assert verdicts[True] and verdicts[False] and verdicts["raises"], verdicts


def test_icon_laws_give_the_reference_verdicts(subjects):
    verdicts = collections.Counter()
    for s, _, found in subjects.values():
        verdicts += _agree(icon_laws(s), ref.icon_laws(s),
                           [ic for icon in found for ic in _corrupted_icons(icon)])
    assert verdicts[True] and verdicts[False] and verdicts["raises"], verdicts
