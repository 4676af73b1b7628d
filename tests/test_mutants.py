"""Validators report and never raise: single-entry mutants of corpus subjects.

A validator in this package reports bad data and never raises, and neither
does an enumerator handed bad endpoints.  Three sweeps hold them to it:

- every single-entry change to the source lax functor of every corpus icon
  and of the identity icon on every corpus bicategory (its object map, its
  hom functors' maps, its comparisons and its unit comparisons), each entry
  dropped, set to an id that is no cell, or set to each other cell, checked
  by `validate_icon` and `enumerate_icons`;
- every single-entry change to every simplex at levels 1 and 2 of the small
  corpus bicategories (a vertex, an edge or a comparison, changed the same
  three ways), checked by `validate_simplex`;
- three seeded mutants (drop an entry, set one to an id that is no cell, set
  one to another cell) for each corpus subject and each field that the
  builders of `tests/test_violations.py` list, checked by its validator.

On the icon and simplex mutants, and on every single-cell change to each
icon subject, the validator also agrees with the enumerator: it passes a
mutant exactly when the enumerator lists the mutant's data between the
mutant's endpoints.  So it does on every single-entry change to the
coherence cells of the small corpus bicategories, against the search over
`coherence_variables` and `bicategory_laws`, and on every single-entry
change to each lax functor between the smallest of them, against
`enumerate_lax_functors`.
"""

import dataclasses
import random

import test_violations as tv
from test_bicat import coherence_tables

from bicatkit import corpus
from bicatkit.acceptance import _law_universe
from bicatkit.bicat import validate_bicategory
from bicatkit.catcore import Functor, validate_category, validate_functor, validate_nat
from bicatkit.icon import Icon, enumerate_icons, validate_icon
from bicatkit.laxfun import LaxFunctor, validate_lax_functor
from bicatkit.nerve import SimplexData, enumerate_simplices, validate_simplex
from bicatkit.oplax import validate_oplax
from bicatkit.report import sorted_ids

NO_CELL = "no-such-cell"
DROP = object()


def subjects(kind):
    """Every subject that `tv._pick` draws for `kind`, as (label, builder):
    the identities on the corpus bicategories first, where the kind has
    them, then the corpus's own."""
    identities = [(f"identity on {name}",
                   lambda name=name: tv._IDENTITIES[kind](corpus.get("bicategory", name)))
                  for name in sorted(corpus.BICATEGORIES)] if kind in tv._IDENTITIES else []
    return identities + [(name, lambda name=name: corpus.get(kind, name))
                         for name in sorted(corpus.TABLES[kind])]


def _copy(f):
    """The lax functor f with tables of its own."""
    homs = {pair: Functor(hf.name, hf.source, hf.target, dict(hf.object_map),
                          dict(hf.morphism_map)) for pair, hf in f.hom_functors.items()}
    return LaxFunctor(f.name, f.source, f.target, dict(f.object_map), homs,
                      dict(f.comp_constraints), dict(f.unit_constraints))


def _tables(f):
    """The (label, table, pool) of each table of the lax functor f, in the
    order of `tv._lax_functor`."""
    _, _, families = tv._lax_functor(None, lambda rng, kind: ("", f))
    return [entry for family in families for entry in family]


def _changes(table, pool):
    """(key, value, edit) for each single-entry change to `table`: each key
    dropped (value `DROP`), set to an id that is no cell, or set to each
    other value of `pool`."""
    for key in sorted_ids(table):
        for value in (DROP, NO_CELL, *(v for v in sorted_ids(pool) if v != table[key])):
            yield key, value, "drop" if value is DROP else f":= {value!r}"


def _changed(table, key, value):
    """A copy of `table` with the entry at `key` dropped or set to `value`."""
    table = dict(table)
    if value is DROP:
        del table[key]
    else:
        table[key] = value
    return table


def _changed_copy(f, i, key, value):
    """A copy of the lax functor f with the entry at `key` of its i-th table
    (in the order of `_tables`) dropped or set to `value`."""
    f = _copy(f)
    table = _tables(f)[i][1]
    if value is DROP:
        del table[key]
    else:
        table[key] = value
    return f


def icon_mutants():
    """(description, icon) for each single-entry change to the source lax
    functor of each icon subject.  The change is made on a copy, which
    stands on both sides of an identity icon."""
    for label, build in subjects("icon"):
        icon = build()
        for i, (table_label, table, pool) in enumerate(_tables(icon.source)):
            for key, value, edit in _changes(table, pool):
                f = _changed_copy(icon.source, i, key, value)
                g = f if icon.target is icon.source else icon.target
                yield (f"{label}: {table_label}: {key!r} {edit}",
                       Icon(icon.name, f, g, icon.cells, dict(icon.families)))


def icon_cell_mutants():
    """(description, icon) for each single-cell change to each icon
    subject: a cell dropped, set to an id that is no cell, or set to each
    other 2-cell of its bicategory."""
    for label, build in subjects("icon"):
        icon = build()
        for key, value, edit in _changes(icon.cells, icon.bicategory.two_cells()):
            yield (f"{label}: cells: {key!r} {edit}",
                   Icon(icon.name, icon.source, icon.target, _changed(icon.cells, key, value),
                        dict(icon.families)))


def simplex_mutants():
    """(description, simplex) for each single-entry change to each simplex
    at levels 1 and 2 of each small corpus bicategory (those of acceptance
    criterion 2): a vertex, an edge or a comparison dropped, set to an id
    that is no cell, or set to each other object, 1-cell or 2-cell of the
    base."""
    for name, b in _law_universe()[0].items():
        pools = {"objects": b.objects, "cells": b.one_cells(), "constraints": b.two_cells()}
        for n in (1, 2):
            for s in enumerate_simplices(b, n):
                tables = {field: getattr(s, field) for field in pools}
                for field, pool in pools.items():
                    for key, value, edit in _changes(tables[field], pool):
                        data = {**tables, field: _changed(tables[field], key, value)}
                        yield (f"{name} {s.key()!r}: {field}: {key!r} {edit}",
                               SimplexData(n, b, **data))


def test_no_change_to_an_icon_source_makes_the_icon_checks_raise():
    calls, raised = 0, []
    for description, icon in icon_mutants():
        for check in (validate_icon, lambda ic: list(enumerate_icons(ic.source, ic.target))):
            calls += 1
            try:
                check(icon)
            except Exception as e:
                raised.append(f"{description}: {type(e).__name__}: {e}")
    assert raised == []
    assert calls == 3916


def test_validate_icon_passes_exactly_the_mutants_enumerate_icons_lists():
    """Counted per sweep as (mutants, valid mutants)."""
    disagree, counts = [], {}
    for sweep in (icon_mutants, icon_cell_mutants):
        mutants = valid = 0
        for description, icon in sweep():
            ok = validate_icon(icon).ok
            mutants, valid = mutants + 1, valid + ok
            if ok != (icon.cells in [ic.cells for ic in enumerate_icons(icon.source,
                                                                        icon.target)]):
                disagree.append(description)
        counts[sweep.__name__] = (mutants, valid)
    assert disagree == []
    assert counts == {"icon_mutants": (1958, 33), "icon_cell_mutants": (409, 7)}


def _data(s):
    return s.objects, s.cells, s.constraints


def test_no_change_to_a_simplex_makes_validate_simplex_raise_or_disagree_with_the_search():
    """Each simplex mutant is reported, never raised on, and passes
    exactly when `enumerate_simplices` lists its data."""
    raised, disagree, listed, calls, valid = [], [], {}, 0, 0
    for description, s in simplex_mutants():
        calls += 1
        try:
            ok = validate_simplex(s).ok
        except Exception as e:
            raised.append(f"{description}: {type(e).__name__}: {e}")
            continue
        key = (s.base.name, s.n)
        if key not in listed:
            listed[key] = [_data(x) for x in enumerate_simplices(s.base, s.n)]
        valid += ok
        if ok != (_data(s) in listed[key]):
            disagree.append(description)
    assert raised == [] and disagree == []
    assert (calls, valid) == (2340, 58)


def coherence_mutants():
    """(description, bicategory, mutant) for each single-entry change to
    the associator, left unitor and right unitor of each small corpus
    bicategory: an entry dropped, set to an id that is no cell, or set to
    each other 2-cell of its hom.  A mutant shares the bicategory's cells
    and composition."""
    for name, b in _law_universe()[0].items():
        for field in ("associator", "left_unitor", "right_unitor"):
            table = getattr(b, field)
            for key in sorted_ids(table):
                hom = b.homs[b.home2(table[key])].morphisms
                for _, value, edit in _changes({key: table[key]}, hom):
                    yield (f"{name}: {field}: {key!r} {edit}", b,
                           dataclasses.replace(b, **{field: _changed(table, key, value)}))


def test_validate_bicategory_passes_exactly_the_coherence_tables_the_search_lists():
    raised, disagree, listed, valid = [], [], {}, 0
    mutants = list(coherence_mutants())
    for description, b, m in mutants:
        if b.name not in listed:
            listed[b.name] = coherence_tables(dataclasses.replace(b))
        try:
            ok = validate_bicategory(m).ok
        except Exception as e:
            raised.append(f"{description}: {type(e).__name__}: {e}")
            continue
        valid += ok
        if ok != ((m.associator, m.left_unitor, m.right_unitor) in listed[b.name]):
            disagree.append(description)
    assert raised == [] and disagree == []
    assert (len(mutants), valid) == (766, 2)


def _lax_data(f):
    return (f.object_map, {p: (hf.object_map, hf.morphism_map)
                           for p, hf in f.hom_functors.items()},
            f.comp_constraints, f.unit_constraints)


def test_validate_lax_functor_passes_exactly_the_mutants_enumerate_lax_functors_lists():
    """Every single-entry change to each lax functor between two small
    corpus bicategories with at most 4 two-cells each, its tables and pools
    as in `_tables`."""
    bics, fams, _ = _law_universe()
    small = [name for name, b in bics.items() if len(b.two_cells()) <= 4]
    disagree, mutants, valid = [], 0, 0
    for pair in ((s, t) for s in small for t in small):
        listed = [_lax_data(f) for f in fams[pair]]
        for f in fams[pair]:
            for i, (table_label, table, pool) in enumerate(_tables(f)):
                for key, value, edit in _changes(table, pool):
                    m = _changed_copy(f, i, key, value)
                    ok = validate_lax_functor(m).ok
                    mutants, valid = mutants + 1, valid + ok
                    if ok != (_lax_data(m) in listed):
                        disagree.append(f"{pair}: {table_label}: {key!r} {edit}")
    assert disagree == []
    assert (mutants, valid) == (11758, 68)


# (validator, kind, builder): the builders of `tests/test_violations.py`,
# with `tv._nat` split by the kind of subject it draws.
VALIDATORS = [
    (validate_category, "bicategory", tv._category),
    (validate_functor, "laxfunctor", tv._functor),
    (validate_nat, "icon", tv._icon_family),
    (validate_nat, "laxfunctor", tv._identity_nat),
    (validate_bicategory, "bicategory", tv._bicategory),
    (validate_lax_functor, "laxfunctor", tv._lax_functor),
    (validate_icon, "icon", tv._icon),
    (validate_oplax, "oplax", tv._oplax),
]


def seeded_mutants():
    """(description, validator, subject) for three mutants of each subject
    and each of its fields, each on a fresh subject: the builder's own
    draws (a hom, a family) are seeded by the subject's label, and the
    table, key and value by the mutant's description."""
    for validate, kind, build in VALIDATORS:
        for label, make in subjects(kind):
            def fresh():
                _, subject, families = build(random.Random(label),
                                             lambda rng, kind: (label, make()))
                return subject, tv._nonempty(families)

            for i in range(len(fresh()[1])):
                for change in ("drop", "no cell", "other cell"):
                    description = f"{validate.__name__} {label} field {i} {change}"
                    rng, (subject, families) = random.Random(description), fresh()
                    table_label, table, pool = rng.choice(families[i])
                    key = rng.choice(sorted_ids(table))
                    others = [v for v in sorted_ids(pool) if v != table[key]]
                    if change == "drop":
                        del table[key]
                    elif change == "no cell":
                        table[key] = NO_CELL
                    elif others:
                        table[key] = rng.choice(others)
                    else:
                        continue
                    yield f"{description}: {table_label} at {key!r}", validate, subject


def test_no_seeded_mutant_makes_a_validator_raise():
    raised, count = [], 0
    for description, validate, subject in seeded_mutants():
        count += 1
        try:
            validate(subject)
        except Exception as e:
            raised.append(f"{description}: {type(e).__name__}: {e}")
    assert raised == []
    assert count > 0
